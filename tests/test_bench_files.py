"""Every committed BENCH_*.json is a complete before/after record: it names
the parent and the change commit, and holds at least three correct runs of
``benchmarks/run.py`` per side for each workload it reports."""

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMIT = re.compile(r"[0-9a-f]{40}")


def test_bench_files_are_complete():
    files = sorted(ROOT.glob("BENCH_*.json"))
    assert files
    for path in files:
        doc = json.loads(path.read_text())
        commits = doc["commits"]
        assert COMMIT.fullmatch(commits["parent"]), path.name
        assert COMMIT.fullmatch(commits["change"]), path.name
        assert commits["parent"] != commits["change"], path.name
        assert doc["workloads"], path.name
        for name, workload in doc["workloads"].items():
            for side in ("parent", "change"):
                runs = workload[side]
                assert len(runs) >= 3, (path.name, name, side)
                for run in runs:
                    assert run["result"]["correct"] is True, (path.name, name, side)
                    assert run["env"], (path.name, name, side)
