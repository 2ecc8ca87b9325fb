"""tautcalc benchmark: end-to-end and per-layer cost of the calculator.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --self-test

Workloads (closed loops, one client, one request at a time):

* ``cli-critical``: ``c1-power`` and ``height-poly`` for d = 2..6 and
  ``pontrjagin --d 6 --k 1..6``, each in a fresh interpreter;
* ``cli-verify``: ``verify`` and ``hmap-check`` for d = 2..6, each in a fresh
  interpreter;
* ``lib-reduce``: one process builds the two d = 6 arithmetic rings once and
  answers 2048 reduction queries per round.

A run repeats rounds of its workload's request set until ``--seconds`` have
passed, checks every answer, and prints one JSON object as the last line of
stdout.  With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` each request also runs with per-layer spans installed (see
tracing.py) and the per-layer metrics are reported instead.  Lines starting
with ``#`` record the environment and each round, to spot a noisy run.
``--self-test`` runs one traced round of every workload and fails if a
per-layer metric reads zero on the workload it is assigned to.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

import cli_workloads as cw
from calibration import Speed
import lib_reduce as lr
import tracing

ROOT = cw.ROOT
SRC = ROOT / "src"
WORKLOADS = ("cli-critical", "cli-verify", "lib-reduce")
CLI_SETUP_SAMPLES = 15
LIB_SETUP_SAMPLES = 3
CHUNK = 8   # lib-reduce queries between two calibrations
# No round may be expected to end later than this, so a run ends in 180 s.
MAX_RUN_S = 100.0


def log(kind: str, payload) -> None:
    print(f"# {kind} {json.dumps(payload)}", flush=True)


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "tautcalc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "commit": git_head(),
            "source_sha256": digest.hexdigest()[:16],
            "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "loadavg": os.getloadavg()}


def git_head() -> str | None:
    """The checked-out commit, read from .git without running git (a
    benchmark checkout is usually not a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Run:
    """Samples of one run and the metrics computed from them.

    Each request of a round is timed on its own, keyed by what it asks
    (the CLI command without its format and flags, or the query), and
    rescaled to the nominal machine speed (calibration.py).  The end-to-end
    times take each request's median over the run's rounds, so a burst of
    load that slows a few rounds is filtered out request by request.
    """

    def __init__(self):
        self.setup_s: list[float] = []
        self.rounds = 0
        self.samples: dict[object, list[tuple[float, float]]] = {}
        self.peak_rss_kb = 0
        self.speed = Speed()
        self.attempted = 0
        self.failed = 0
        self.layers: list[dict[str, float]] = []   # one summary per round

    def fail(self, what: str, why: str) -> None:
        self.failed += 1
        print(f"FAILED {what}: {why}", file=sys.stderr)

    def record(self, key, wall_s: float, cpu_s: float) -> None:
        self.samples.setdefault(key, []).append((wall_s, cpu_s))

    def end_to_end(self) -> dict[str, float]:
        walls = [statistics.median(w for w, _ in s) for s in self.samples.values()]
        cpus = [statistics.median(c for _, c in s) for s in self.samples.values()]
        request_ms = [w * 1000 for w in walls]
        return {
            "wall_s": sum(walls),
            "cpu_s": sum(cpus),
            "setup_s": statistics.median(self.setup_s),
            # The high median is an observed request time; on the CLI
            # workloads the plain median would average a ~0.1 s request
            # (mostly interpreter start-up, the noisiest to time) with a
            # long one.
            "request_ms.p50": statistics.median_high(request_ms),
            "request_ms.p95": statistics.quantiles(request_ms, n=20,
                                                   method="inclusive")[18],
            "peak_rss_mb": self.peak_rss_kb / 1024,
        }

    def per_layer(self) -> dict[str, float]:
        return {name: statistics.median(layer[name] for layer in self.layers)
                for name in self.layers[0]}


def keep_going(started: float, seconds: float, last_round_s: float) -> bool:
    """Start another round while under ``seconds``, if it should end within
    1.5 x ``seconds``: on a slow machine a run takes fewer rounds rather
    than running far past its time."""
    elapsed = perf_counter() - started
    return (elapsed < seconds
            and elapsed + last_round_s <= min(1.5 * seconds, MAX_RUN_S))


# -- CLI workloads -------------------------------------------------------------


def merge_traces(traces: list[dict[str, float]]) -> dict[str, float]:
    """Per-layer totals of one round from its processes' summaries."""
    out = {}
    for name in traces[0]:
        values = [t[name] for t in traces]
        out[name] = max(values) if name.endswith(".max") else sum(values)
    return out


def cli_run(workload: str, seed: int, seconds: float, trace: bool) -> Run:
    run = Run()
    env = cw.child_env()
    reference = cw.load_reference()
    make_round = cw.critical_round if workload == "cli-critical" else cw.verify_round
    cw.time_import(env, run.speed)  # compiles bytecode in a fresh checkout
    if not trace:
        for _ in range(CLI_SETUP_SAMPLES):
            done = cw.time_import(env, run.speed)
            if done.code != 0:
                raise RuntimeError(f"importing tautcalc failed:\n{done.stderr}")
            run.setup_s.append(done.wall_s)
            run.peak_rss_kb = max(run.peak_rss_kb, done.maxrss_kb)
    rng = random.Random(seed)
    started = perf_counter()
    round_s = 0.0
    while not run.rounds or keep_going(started, seconds, round_s):
        t0 = perf_counter()
        responses, traces = [], []
        raw = wall = cpu = traced_wall = 0.0
        for req in make_round(rng):
            done = cw.run_request(req, env, run.speed)
            responses.append((req, done))
            raw += done.raw_wall_s
            wall += done.wall_s
            cpu += done.cpu_s
            run.record((req.command, req.d, req.k), done.wall_s, done.cpu_s)
            run.peak_rss_kb = max(run.peak_rss_kb, done.maxrss_kb)
            if trace:
                tdone = cw.run_request(req, env, run.speed, traced=True)
                traced_wall += tdone.wall_s
                responses.append((req, tdone))
                summary = tdone.stderr.rstrip().rsplit("\n", 1)[-1]
                if summary.startswith("TRACE "):
                    traces.append(json.loads(summary[6:]))
        round_s = perf_counter() - t0
        run.rounds += 1
        bad_routes = cw.check_two_routes(responses)
        for req, done in responses:
            run.attempted += 1
            why = cw.check_response(req, done, reference)
            if why is None and req in bad_routes:
                why = "height-poly substitution differs from c1-power's r_d"
            if why is not None:
                run.fail(" ".join(req.args()), why)
        entry = {"raw_wall_s": raw, "wall_s": wall, "cpu_s": cpu,
                 "requests": len(responses)}
        if trace and traces:
            layers = merge_traces(traces)
            layers["trace.overhead_ratio"] = traced_wall / wall - 1
            run.layers.append(layers)
            entry["traced_wall_s"] = traced_wall
        log("round", entry)
    return run


# -- lib-reduce ----------------------------------------------------------------


def lib_batch(run: Run, rings: dict, queries: list, checker: lr.Checker,
              record: bool) -> dict[str, float]:
    """Answer every query once.  Queries are timed one by one and rescaled
    in chunks of CHUNK, each bracketed by calibrations."""
    totals = {"raw_wall_s": 0.0, "wall_s": 0.0, "cpu_s": 0.0}
    chunk: list[tuple[int, float, float]] = []

    def flush():
        factor = run.speed.factor()
        for key, wall, cpu in chunk:
            totals["raw_wall_s"] += wall
            totals["wall_s"] += wall * factor
            totals["cpu_s"] += cpu * factor
            if record:
                run.record(key, wall * factor, cpu * factor)
        chunk.clear()

    for i, query in enumerate(queries):
        run.attempted += 1
        cpu0 = process_time()
        try:
            elapsed, ok = lr.run_query(rings, query, checker)
        except Exception:
            run.fail(f"query {i}", traceback.format_exc(limit=3))
            continue
        chunk.append((i, elapsed, process_time() - cpu0))
        if not ok:
            run.fail(f"query {i}", "reduction is not a homomorphism here, "
                     "or the reduced class is off the monomial basis")
        if len(chunk) == CHUNK:
            flush()
    flush()
    return totals


def lib_run(seed: int, seconds: float, trace: bool) -> Run:
    run = Run()
    env = cw.child_env()
    reference = cw.load_reference()
    cw.time_import(env, run.speed)  # compiles bytecode in a fresh checkout
    if not trace:
        for _ in range(LIB_SETUP_SAMPLES):
            done = cw.spawn([sys.executable, "-c", lr.SETUP_CODE], env,
                            run.speed)
            if done.code != 0:
                raise RuntimeError(f"building the rings failed:\n{done.stderr}")
            run.setup_s.append(done.wall_s)
            run.peak_rss_kb = max(run.peak_rss_kb, done.maxrss_kb)
    sys.path.insert(0, str(SRC))
    import tautcalc
    if Path(tautcalc.__file__).resolve().parent != SRC / "tautcalc":
        raise RuntimeError(f"imported tautcalc from {tautcalc.__file__}")
    rings = lr.build_rings()
    queries = lr.make_queries(seed, rings)
    checker = lr.Checker()
    for name, ok in zip(("r_6", "height polynomial at d = 6"),
                        lr.anchors(rings, reference)):
        run.attempted += 1
        if not ok:
            run.fail(name, "differs from the recorded CLI answer")
    started = perf_counter()
    round_s = 0.0
    while not run.rounds or keep_going(started, seconds, round_s):
        t0 = perf_counter()
        entry = lib_batch(run, rings, queries, checker, record=True)
        run.rounds += 1
        entry["requests"] = len(queries)
        if trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced_rings = lr.build_rings()
                traced = lib_batch(run, traced_rings, queries, checker,
                                   record=False)
            finally:
                tracer.uninstall()
            layers = tracer.summary()
            layers["trace.overhead_ratio"] = traced["wall_s"] / entry["wall_s"] - 1
            run.layers.append(layers)
            entry["traced_wall_s"] = traced["wall_s"]
        round_s = perf_counter() - t0
        log("round", entry)
    run.peak_rss_kb = max(run.peak_rss_kb,
                          resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return run


# -- entry point -----------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> Run:
    if workload == "lib-reduce":
        return lib_run(seed, seconds, trace)
    return cli_run(workload, seed, seconds, trace)


def result(run: Run, trace: bool) -> dict:
    if trace:
        values = run.per_layer()
        units = {name: tracing.unit_of(name) for name in values}
    else:
        values = run.end_to_end()
        units = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
                 "request_ms.p50": "ms", "request_ms.p95": "ms",
                 "peak_rss_mb": "MB"}
    return {"correct": run.failed == 0, "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in values.items()}}


def self_test() -> int:
    """One traced round per workload; every assigned metric must be nonzero."""
    missing = []
    for workload in WORKLOADS:
        run = run_workload(workload, seed=1, seconds=0, trace=True)
        if run.failed:
            missing.append(f"{workload}: {run.failed} wrong answers")
        layers = run.per_layer()
        for name, assigned in tracing.ASSIGNED.items():
            if workload in assigned.split() and not layers[name]:
                missing.append(f"{name} is zero on {workload}")
    for line in missing:
        print(f"SELF-TEST FAILED {line}", file=sys.stderr)
    print("self-test " + ("failed" if missing else "passed"))
    return 1 if missing else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "tautcalc" / "__init__.py").is_file():
        print(f"error: no tautcalc sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None and not args.self_test:
        parser.error("--workload is required")
    log("env", environment())
    # Calibration and timed work must share a CPU (see calibration.py).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.self_test:
        return self_test()
    run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    log("env-end", {"loadavg": os.getloadavg(), "rounds": run.rounds,
                    "speed": statistics.median(run.speed.factors),
                    "failed_ratio": run.failed / run.attempted})
    print(json.dumps(result(run, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
