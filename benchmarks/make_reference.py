"""Record the reference answers the CLI workloads are checked against.

    python3 benchmarks/make_reference.py

Runs every request either CLI workload can draw, in every format, and writes
the witness-independent part of each answer to benchmarks/reference.json.
The file records the answers of the commit that defined the benchmark; it is
not meant to be regenerated by a change that the benchmark is judging.
"""

import json
import sys

from calibration import Speed
from cli_workloads import REFERENCE, all_requests, answer, child_env, run_request

if __name__ == "__main__":
    env = child_env()
    speed = Speed()
    reference = {}
    for req in all_requests():
        done = run_request(req, env, speed)
        reference[f"{req.key()}|{req.fmt}"] = answer(req, done)
        print(f"{done.raw_wall_s:6.2f}s exit {done.code} {' '.join(req.args())}",
              file=sys.stderr)
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
