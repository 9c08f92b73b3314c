"""Benchmark for gapflow: time to a checked solution on four workloads.

    python3 perfbench/run.py --workload quench --seed 1 --seconds 10 --trace 0

Run from the root of a gapflow checkout.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.  With
``--trace 0`` the metrics are the end-to-end ones (wall_s, setup_s,
peak_rss_mb); with ``--trace 1`` they are the per-layer counts and self-time shares
from `tracer.py`.  See README.md for what each workload and metric means.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy is first imported: the default
# two-thread OpenBLAS pool spins on the second core and makes wall time
# depend on what else runs there (README.md, "Threads").
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(HERE, "_work")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


def _import_program():
    """Put the checkout's src/ first on sys.path and import the benchmark modules."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "gapflow", "__init__.py")):
        raise SystemExit(f"perfbench: no gapflow package under {src}; run from a gapflow checkout")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import gapflow  # noqa: F401
    import tracer
    import workloads

    return gapflow, tracer, workloads


def probe(workload: str) -> None:
    """Fresh-interpreter set-up: imports, config parsing and first-call caches."""
    _, _, workloads = _import_program()
    workloads.WORKLOADS[workload](ROOT, WORKDIR, 0).prepare()
    print("ready", flush=True)


def setup_seconds(workload: str) -> float:
    """Median over fresh interpreters of the time from spawn to the end of prepare()."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--probe", workload],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe for {workload} failed (exit {proc.returncode})")
        times.append(elapsed)
    return statistics.median(times)


class Outcome:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def run_one(self, wl):
        """Run one operation; returns its wall time, or None if it raised."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = wl.op()
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return None
        elapsed = time.perf_counter() - start
        problems = wl.check(result)
        for problem in problems:
            print(f"perfbench: {wl.name}: CHECK FAILED: {problem}", file=sys.stderr)
        self.correct = self.correct and not problems
        return elapsed


def timed(wl, seconds: float, outcome: Outcome) -> list:
    """Whole operations until `seconds` have passed and at least `wl.min_ops` ran."""
    walls = []
    start = time.perf_counter()
    while outcome.attempted < wl.min_ops or time.perf_counter() - start < seconds:
        wall = outcome.run_one(wl)
        if wall is not None:
            walls.append(wall)
    return walls


def traced(gapflow, tracer_mod, wl, seconds: float, outcome: Outcome) -> dict:
    """Alternate untraced and traced operations; per-layer figures of one traced operation.

    Counts come from the first traced operation (they repeat exactly).  A
    function's self time is reported as its share of the traced operation's
    wall time (trace.wall_s), median over the traced operations.
    trace.overhead is the median traced wall time over the median untraced
    one, minus one.
    """
    plain, per_op = [], []
    tr = tracer_mod.Tracer(gapflow)
    start = time.perf_counter()
    while not per_op or time.perf_counter() - start < seconds:
        wall = outcome.run_one(wl)
        if wall is not None:
            plain.append(wall)
        tr.reset()
        with tr:
            wall = outcome.run_one(wl)
        if wall is not None:
            shares = {name: tr.self_s[name] / wall for name in tr.self_s}
            per_op.append((wall, dict(tr.calls), shares, dict(tr.counts), tr.overlap()))
    if not per_op or not plain:
        return {}
    _, calls, _, counts, overlap = per_op[0]
    trace_wall = statistics.median(op[0] for op in per_op)
    shares = {name: statistics.median(op[2][name] for op in per_op) for name in calls}
    metrics = {}
    for name in tracer_mod.traced_names():
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.self_share"] = (shares[name], "ratio")
    for name, value in counts.items():
        metrics[name] = (value, "count")
    metrics["cli.sweep.overlap"] = (overlap, "ratio")
    metrics["trace.wall_s"] = (trace_wall, "s")
    metrics["trace.overhead"] = (trace_wall / statistics.median(plain) - 1.0, "ratio")
    print(f"perfbench: {wl.name}: self time per traced operation of {trace_wall:.3f} s", file=sys.stderr)
    for name in sorted(calls, key=lambda n: -shares[n]):
        print(
            f"  {name:40s} {shares[name] * trace_wall:9.4f} s {100 * shares[name]:6.2f} %  calls {calls[name]}",
            file=sys.stderr,
        )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe:
        probe(args.probe)
        return 0

    gapflow, tracer_mod, workloads = _import_program()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    shutil.rmtree(os.path.join(WORKDIR, args.workload), ignore_errors=True)
    os.makedirs(WORKDIR, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](ROOT, WORKDIR, args.seed)
    outcome = Outcome()

    if args.trace:
        wl.prepare()
        metrics = traced(gapflow, tracer_mod, wl, args.seconds, outcome)
    else:
        setup_s = setup_seconds(args.workload)
        wl.prepare()
        walls = timed(wl, args.seconds, outcome)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"setup_s": (setup_s, "s"), "peak_rss_mb": (peak_rss_mb, "MB")}
        if walls:
            metrics["wall_s"] = (statistics.median(walls), "s")
        print(f"perfbench: {wl.name}: {len(walls)} operations, wall_s {walls}", file=sys.stderr)

    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
