#!/usr/bin/env python3
"""Benchmark of the arcticauction package: one client, one thread, closed loop.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload square-int --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` of that checkout, never from an
installed copy.  The workload's corpus is generated from ``--seed``; the
program only sees the generated JSON text.  Each operation is timed alone,
its outputs are checked exactly outside the timed interval, and the loop
stops once the timed operations add up to ``--seconds``.

With ``--trace 0`` the end-to-end metrics are reported.  With ``--trace 1``
every corpus item is run twice, untraced and then traced, until the time is
used and at least the workload's fixed prefix is done; the per-layer metrics
come from the traced spans of that prefix, so their counts repeat exactly for
a seed, and the spans are written to ``perfbench/out/``.  The last line of
standard output is one JSON object; DESIGN.md explains every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from calibrate import NOMINAL_S, Speedometer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "arcticauction"
SPAN_DIR = HERE / "out"
SETUP_RUNS = 5
# Operations' wall time between two runs of the calibration kernel.
CALIBRATE_EVERY_S = 0.5
WORKLOAD_NAMES = ("square-int", "rational-rect", "oracle-small")
# ROADMAP baseline: max-flow calls of generate_random_instance(s, 12, 12, 10), s = 0..4.
REFERENCE_MAXFLOW_CALLS = (666, 434, 455, 306, 585)


def import_package():
    """Import arcticauction from this checkout's source tree, or exit."""
    if not (PACKAGE / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {PACKAGE}")
    sys.path.insert(0, str(PACKAGE.parent))
    import arcticauction

    if Path(arcticauction.__file__).resolve().parent != PACKAGE:
        sys.exit(f"perfbench: imported arcticauction from {arcticauction.__file__}")
    import workloads

    return workloads


def set_up(name: str, seed: int):
    """Everything before the first timed operation: import and corpus."""
    workloads = import_package()
    workload = workloads.WORKLOADS[name]
    return workloads, workload, workload.corpus(seed)


def measure_setup(args) -> float:
    """Median wall time of fresh interpreters that only run set_up."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0", "--setup-only",
    ]
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Ledger:
    """Failure accounting, refund-split differences and the output fingerprint."""

    def __init__(self, workload, refund_split_differs):
        self.workload = workload
        self.refund_split_differs = refund_split_differs
        self.attempted = 0
        self.failed = 0
        self.refund_split = 0  # over every checked operation
        self.refund_split_prefix = 0  # over the fingerprinted ones
        self.problems_shown = 0
        self.digest = hashlib.sha256()
        self.fingerprinted = 0

    def run(self, k: int, item, fingerprint: bool, around=contextlib.nullcontext) -> float:
        """Time one operation inside ``around()``, then check it outside;
        returns its wall time."""
        self.attempted += 1
        with around():
            t0 = time.perf_counter()
            try:
                result = self.workload.op(item)
            except Exception:  # a raising operation is a failed one, not a crash
                result = None
                error = traceback.format_exc(limit=3)
            elapsed = time.perf_counter() - t0
        if result is None:
            self._fail(k, [error])
        else:
            self._check(k, item, result, fingerprint)
        return elapsed

    def _check(self, k: int, item, result, fingerprint: bool) -> None:
        try:
            problems = self.workload.check(item, result)
        except Exception:
            problems = [traceback.format_exc(limit=3)]
        if problems:
            self._fail(k, problems)
        differs = self.refund_split_differs(result)
        self.refund_split += differs
        if fingerprint:
            self.refund_split_prefix += differs
            self.digest.update(self.workload.outputs(result).encode())
            self.fingerprinted += 1

    def _fail(self, k: int, problems) -> None:
        self.failed += 1
        if self.problems_shown < 5:
            self.problems_shown += 1
            print(f"operation {k} failed: {'; '.join(problems)}", file=sys.stderr)


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it."""
    ordered = sorted(latencies)
    rank = max(len(ordered) - 11, 0)
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def latency_metrics(latencies: list[float]) -> dict:
    tail_s, _ = tail(latencies)
    return {
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail_s,
        "throughput_ops_s": len(latencies) / sum(latencies),
    }


def run_untraced(workload, corpus, seconds: float, ledger: Ledger) -> dict:
    """Closed loop until the operations' wall time reaches ``seconds``;
    returns the latency metrics in nominal seconds."""
    speed = Speedometer(every=CALIBRATE_EVERY_S)
    latencies = []
    busy = 0.0
    while busy < seconds:
        k = len(latencies)
        latencies.append(ledger.run(k, corpus[k % len(corpus)], k < workload.prefix))
        busy += latencies[-1]
        speed.tick(latencies[-1])
    scaled = [t * f for t, f in zip(latencies, speed.scales())]
    n = len(latencies)
    _, tail_pct = tail(latencies)
    print(f"operations timed: {n} in {busy:.3f} s of wall time")
    print(
        f"latency_tail_s is p{tail_pct:.2f}: {n} operations, "
        f"{n - 1 - max(n - 11, 0)} beyond it"
    )
    print(
        f"calibration kernel: {len(speed.samples)} samples, median "
        f"{statistics.median(speed.samples):.6f} s against {NOMINAL_S} s nominal"
    )
    for name, value in latency_metrics(latencies).items():
        print(f"unscaled {name} = {value}")
    return latency_metrics(scaled)


def run_traced(workloads, workload, corpus, seconds: float, ledger: Ledger, workload_name):
    """Untraced and traced run of each item in turn; returns the per-layer
    metrics over the prefix and whether every cross-check held."""
    import tracing

    tracer = tracing.Tracer()
    plain, traced = [], []
    rows = {}
    k = 0
    busy = 0.0
    while k < workload.prefix or busy < seconds:
        item = corpus[k % len(corpus)]
        plain.append(ledger.run(k, item, False))
        start = len(tracer.spans)
        traced.append(
            ledger.run(k, item, k < workload.prefix, lambda: tracer.installed(k))
        )
        busy += plain[-1] + traced[-1]
        rows.update(tracing.solve_crosscheck(tracer.spans[start:]))
        if k >= workload.prefix:
            del tracer.spans[start:]  # only timed for the overhead; keeps memory flat
        k += 1
    ok = crosscheck(rows, "timed operations")
    if workload_name == "square-int":
        ok &= reference_crosscheck(workloads, tracer, tracing)
    metrics = {
        name: (value, tracing.unit_of(name))
        for name, value in tracing.layer_metrics(tracer.spans, set(range(workload.prefix))).items()
    }
    metrics["oracle.refund_split_mismatch"] = (ledger.refund_split_prefix, "count")
    metrics["trace.overhead_ops_s"] = (k / sum(plain) - k / sum(traced), "1/s")
    print(f"traced pairs: {k}; per-layer metrics over the first {workload.prefix}")
    print(
        f"tracing overhead: untraced {k / sum(plain):.4f} ops/s, "
        f"traced {k / sum(traced):.4f} ops/s"
    )
    SPAN_DIR.mkdir(exist_ok=True)
    tracer.write(SPAN_DIR / f"spans-{workload_name}.csv")
    return metrics, ok


def crosscheck(rows: dict, what: str) -> bool:
    """Wrapper counts must equal the program's own RunStats counts."""
    bad = {op: row for op, row in rows.items() if row[0] != row[1] or row[2] != row[3]}
    wrapped = sum(row[0] for row in rows.values())
    stats = sum(row[1] for row in rows.values())
    print(
        f"max-flow cross-check, {what}: wrapper {wrapped}, RunStats {stats}, "
        f"{'holds' if not bad else f'fails on operations {sorted(bad)[:5]}'}"
    )
    return not bad


def reference_crosscheck(workloads, tracer, tracing) -> bool:
    """Traced solves of the ROADMAP baseline instances."""
    solver, market = workloads.solver, workloads.market
    ops = []
    for seed in range(len(REFERENCE_MAXFLOW_CALLS)):
        op = -1 - seed
        inst = market.generate_random_instance(seed, 12, 12, 10)
        with tracer.installed(op):
            solver.solve(inst)
        ops.append(op)
    rows = tracing.solve_crosscheck([s for s in tracer.spans if s[4] in ops])
    calls = tuple(rows[op][0] for op in ops)
    print(
        f"ROADMAP seeds 0-4, max-flow calls: {', '.join(map(str, calls))} "
        f"({'as' if calls == REFERENCE_MAXFLOW_CALLS else 'differs from'} the ROADMAP baseline)"
    )
    return crosscheck(rows, "ROADMAP seeds 0-4")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true", help="set up and exit (times setup_s)"
    )
    args = parser.parse_args(argv)

    if args.setup_only:
        set_up(args.workload, args.seed)
        return 0
    workloads, workload, corpus = set_up(args.workload, args.seed)
    setup_s = None if args.trace else measure_setup(args)
    print(f"workload {args.workload}, seed {args.seed}: {len(corpus)} corpus items")
    ledger = Ledger(workload, workloads.refund_split_differs)
    if args.trace:
        metrics, cross_ok = run_traced(
            workloads, workload, corpus, args.seconds, ledger, args.workload
        )
    else:
        cross_ok = True
        metrics = {"setup_s": (setup_s, "s")}
        units = {"latency_p50_s": "s", "latency_tail_s": "s", "throughput_ops_s": "1/s"}
        values = run_untraced(workload, corpus, args.seconds, ledger)
        metrics.update({name: (value, units[name]) for name, value in values.items()})
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (peak_kib / 1024, "MB")

    print(f"failed_ratio = {ledger.failed / ledger.attempted} ({ledger.failed}/{ledger.attempted})")
    print(
        f"refund splits differing from the oracle's (criterion 01's known red, "
        f"not failures): {ledger.refund_split}"
    )
    print(
        f"output fingerprint: sha256 {ledger.digest.hexdigest()[:16]} "
        f"over the first {ledger.fingerprinted} operations"
    )
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    result = {
        "correct": ledger.failed == 0 and cross_ok,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
