"""The two CLI workloads: request sets, process spawning and answer checks.

Every request runs in a fresh interpreter (``python3 -m tautcalc.cli``), as a
user's command does, so per-process caches such as the monomial cache start
cold each time.  The seed sets the request order, ``--format`` and
``--invert2``; the request set itself is fixed.
"""

from __future__ import annotations

import json
import os
import random
import select
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from calibration import SAMPLE_INTERVAL_S, Speed

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "benchmarks"
REFERENCE = BENCH / "reference.json"
FORMATS = ("text", "latex", "json")
D_RANGE = range(2, 7)
REQUEST_TIMEOUT_S = 120.0

# Lines that depend on the witness (ROADMAP items 2 and 4 may change them).
EXCLUDED_LABELS = {"phi (witness basis)"}


@dataclass(frozen=True)
class Request:
    command: str
    d: int | None = None
    k: int | None = None
    invert2: bool = False
    fmt: str = "text"

    def args(self) -> list[str]:
        out = ["--format", self.fmt, self.command]
        if self.d is not None:
            out += ["--d", str(self.d)]
        if self.k is not None:
            out += ["--k", str(self.k)]
        if self.invert2:
            out.append("--invert2")
        return out

    def key(self) -> str:
        """Reference key: the command line without the format."""
        return " ".join(self.args()[2:])


def critical_round(rng: random.Random) -> list[Request]:
    """c1-power and height-poly for d = 2..6 and pontrjagin --d 6 --k 1..6.
    c1-power and height-poly of one d share format and flags, so the two
    routes to r_d can be compared directly."""
    reqs = []
    for d in D_RANGE:
        invert2, fmt = rng.random() < 0.5, rng.choice(FORMATS)
        reqs.append(Request("c1-power", d, None, invert2, fmt))
        reqs.append(Request("height-poly", d, None, invert2, fmt))
    for k in range(1, 7):
        reqs.append(Request("pontrjagin", 6, k, rng.random() < 0.5,
                            rng.choice(FORMATS)))
    rng.shuffle(reqs)
    return reqs


def verify_round(rng: random.Random) -> list[Request]:
    """verify plus hmap-check for d = 2..6."""
    reqs = [Request("verify", fmt=rng.choice(FORMATS))]
    reqs += [Request("hmap-check", d, fmt=rng.choice(FORMATS)) for d in D_RANGE]
    rng.shuffle(reqs)
    return reqs


def all_requests() -> list[Request]:
    """Every request either workload can draw, in every format."""
    out = []
    for fmt in FORMATS:
        for invert2 in (False, True):
            for d in D_RANGE:
                out.append(Request("c1-power", d, None, invert2, fmt))
                out.append(Request("height-poly", d, None, invert2, fmt))
            for k in range(1, 7):
                out.append(Request("pontrjagin", 6, k, invert2, fmt))
        out.append(Request("verify", fmt=fmt))
        out += [Request("hmap-check", d, fmt=fmt) for d in D_RANGE]
    return out


# -- processes ---------------------------------------------------------------


@dataclass
class Finished:
    code: int
    stdout: str
    stderr: str
    wall_s: float        # rescaled to nominal machine speed
    cpu_s: float         # rescaled likewise
    maxrss_kb: int
    raw_wall_s: float


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(argv: list[str], env: dict[str, str], speed: Speed) -> Finished:
    """Run argv to completion; time it, read its rusage with wait4 and
    rescale both by the machine speed sampled around and during it."""
    t0 = perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, cwd=ROOT)
    out: list[bytes] = []
    err: list[bytes] = []
    readers = [threading.Thread(target=lambda: out.append(proc.stdout.read())),
               threading.Thread(target=lambda: err.append(proc.stderr.read()))]
    pidfd = None
    paused = 0.0
    try:
        pidfd = os.pidfd_open(proc.pid)
        for reader in readers:
            reader.start()
        while not select.select([pidfd], [], [], SAMPLE_INTERVAL_S)[0]:
            if perf_counter() - t0 > REQUEST_TIMEOUT_S:
                proc.kill()
            paused += speed.sample()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - t0 - paused
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if pidfd is not None:
            os.close(pidfd)
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        for reader in readers:
            if reader.is_alive():
                reader.join()
        proc.stdout.close()
        proc.stderr.close()
    factor = speed.factor()
    return Finished(proc.returncode, b"".join(out).decode(),
                    b"".join(err).decode(), wall * factor,
                    (usage.ru_utime + usage.ru_stime) * factor,
                    usage.ru_maxrss, wall)


def run_request(req: Request, env: dict[str, str], speed: Speed,
                traced: bool = False) -> Finished:
    if traced:
        argv = [sys.executable, str(BENCH / "traced_cli.py"), *req.args()]
    else:
        argv = [sys.executable, "-m", "tautcalc.cli", *req.args()]
    return spawn(argv, env, speed)


def time_import(env: dict[str, str], speed: Speed) -> Finished:
    """One set-up sample: spawn an interpreter that imports tautcalc."""
    return spawn([sys.executable, "-c", "import tautcalc.cli"], env, speed)


# -- answers -----------------------------------------------------------------


def parse_report(fmt: str, stdout: str) -> tuple[str, dict, dict]:
    """(command, results by label, check name -> ok) from one report."""
    if fmt == "json":
        doc = json.loads(stdout)
        checks = {c["name"]: c["ok"] for c in doc["checks"]}
        return doc["command"], doc["results"], checks
    lines = stdout.splitlines()
    results: dict[str, str] = {}
    checks: dict[str, bool] = {}
    if fmt == "text":
        command = lines[0].split()[1]
        for line in lines[1:]:
            if line.startswith(("[PASS] ", "[FAIL] ")):
                name = line[7:].split(" (", 1)[0]
                checks[name] = line.startswith("[PASS]")
            else:
                label, value = line.split(": ", 1)
                results[label] = value
    else:
        command = lines[0][2:]
        rest = iter(lines[1:])
        for line in rest:
            if line.startswith(("% [PASS] ", "% [FAIL] ")):
                checks[line[9:].split(": ", 1)[0]] = line.startswith("% [PASS]")
            else:
                value = next(rest, "")
                if not (line.startswith("% ") and value.startswith("\\[ ")
                        and value.endswith(" \\]")):
                    raise ValueError(f"unexpected latex lines {line!r}")
                results[line[2:]] = value[3:-3]
    return command, results, checks


def answer(req: Request, done: Finished) -> dict:
    """The part of a response the reference records: the exit code, the
    witness-independent results and, for commands with checks, which checks
    passed.  hmap-check records only its exit code, since its diagnosis and
    correction forms may change with the map solver."""
    command, results, checks = parse_report(req.fmt, done.stdout)
    if command != req.command:
        raise ValueError(f"report is for {command!r}")
    if checks and all(checks.values()) != (done.code == 0):
        raise ValueError("exit code disagrees with the reported checks")
    if req.command == "hmap-check":
        if not checks:
            raise ValueError("hmap-check reported no residues")
        return {"exit": done.code}
    if req.command == "verify":
        return {"exit": done.code, "checks": checks}
    return {"exit": done.code,
            "results": {k: v for k, v in results.items()
                        if k not in EXCLUDED_LABELS}}


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def check_response(req: Request, done: Finished, reference: dict) -> str | None:
    """None if the response matches the reference, else why not."""
    expected = reference.get(f"{req.key()}|{req.fmt}")
    if expected is None:
        return "no reference answer"
    try:
        got = answer(req, done)
    except (ValueError, KeyError, IndexError) as exc:
        return f"unreadable report ({exc}); exit {done.code}"
    if got != expected:
        return "answer differs from the reference"
    return None


def check_two_routes(responses: list[tuple[Request, Finished]]) -> set[Request]:
    """height-poly requests whose substituted height polynomial differs from
    c1-power's r_d for the same d, format and flags."""
    def value(req: Request, done: Finished, label: str):
        try:
            return parse_report(req.fmt, done.stdout)[1][label]
        except (ValueError, KeyError, IndexError):
            return None

    r_d = {req.d: value(req, done, "r_d")
           for req, done in responses if req.command == "c1-power"}
    return {req for req, done in responses if req.command == "height-poly"
            and (r_d.get(req.d) is None
                 or value(req, done, "after substitution (= r_d)") != r_d[req.d])}
