#!/usr/bin/env python3
"""The ROADMAP Baseline sweep: seeded square solves, written to BENCH_<tag>.json.

Run from anywhere; the package is imported from ``src/`` of the checkout
that holds this script:

    python3 tools/bench_sweep.py --tag after

For each size n it solves ``generate_random_instance(seed, n, n, 10)`` for
seeds 0, 1, ..., the instances ``arctic bench --seed 0 --count <seeds>
--buyers n --goods n`` solves, each solve timed alone as ``arctic bench``
times it, and writes one row per size: the median and max solve time, the
phases by type and ``maxflow_calls``, summed over the seeds, each seed's
own figures, and ``answers_sha256``: the sha256 over ``serialize_equilibrium``
of the row's solves in seed order, so two files show row by row whether
the answers are bit-identical.  ``refund_heavy_rows`` holds the same rows for
``generate_refund_heavy_instance(seed, n)`` at the same sizes and seeds: the
money-return regime, which the Baseline instances almost never reach.
``bank_rows`` holds the same rows for the many-bidder, few-goods family
``generate_random_instance(seed, n, 3, 10)`` at n = 100, 200, 400 and 800,
where most phases end in a money return.
``rational_bank_rows`` holds the same rows for that family on rational
money and utilities, perfbench's ``random_rational_instance(Random(seed),
n, 3)`` (imported from ``perfbench/workloads.py`` of this checkout), at n =
200 and 400, and ``rounded_bank_rows`` for their twins, each money rounded
to the nearest multiple of 10^-6: the same utilities with small money
denominators, so the pair shows what large ones cost.
``oracle_rows`` holds ``oracle_solve``'s time per shape over criterion 01's
corpus, ``generate_random_instance(1000 + k, n, m, 10)`` for k = 0 .. 199
with the sizes drawn from ``random.Random(424242)``, each call timed alone:
count, median, max and total, and ``answers_sha256`` over the serialized
``oracle_solve(inst).equilibrium`` of the shape's calls in k order.  With ``--repeat R`` every solve and every
oracle call is timed R times and the least time is kept; the default, 1,
times each once.  The file goes to the current directory.
Compare two files only when they were made on one machine, side by side.

With ``--against DIR`` the sweep times this checkout and the checkout DIR
side by side, in worker processes that import the package from their own
checkout's ``src/``.  Each seed (each oracle call) gets a fresh pair of
workers, one per checkout, so a worker that happens to run slow for its
whole life costs one item, not a row.  The two time the item in turn, in
ABBA order: this checkout first on even items, DIR first on odd ones, each
keeping its least of ``--repeat``; so drift of the machine lands on both
alike.  DIR's rows and git commit go under ``against`` in the same file,
and each row of this checkout gains ``median_ratio``, the median over the
row's seeds (calls) of this checkout's time over DIR's, ``faster``, how
many of them this checkout ran in less time, and ``same_answers``, whether
the two rows' ``answers_sha256`` are equal.  The sweep exits 1, after
writing the file, when any row's answers differ.  DIR may be this checkout
itself, which shows how far the ratios stray on equal code.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.append(str(SRC.parent / "perfbench"))  # for workloads.random_rational_instance
SIZES = (5, 8, 12, 16, 24, 32, 48)
BANK_SIZES = (100, 200, 400, 800)
RATIONAL_BANK_SIZES = (200, 400)
COUNTED = ("phases", "type1", "type2", "type3", "maxflow_calls")
FAMILIES = ("rows", "refund_heavy_rows", "bank_rows", "rational_bank_rows", "rounded_bank_rows", "oracle_rows")


def best_of(repeat: int, call):
    """The least wall time of ``repeat`` runs of ``call()``, and its last result."""
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = call()
        best = min(best, time.perf_counter() - t0)
    return best, result


def items(sizes, seeds: int) -> list[tuple[str, int, int, int]]:
    """Every item of the sweep, (row family, n, m, seed), in the order timed.
    An oracle item's seed is its index k in criterion 01's corpus."""
    rng = random.Random(424242)
    shapes = [(rng.randint(1, 4), rng.randint(1, 4)) for _ in range(200)]
    return [
        *(("rows", n, n, seed) for n in sizes for seed in range(seeds)),
        *(("refund_heavy_rows", n, n, seed) for n in sizes for seed in range(seeds)),
        *(("bank_rows", n, 3, seed) for n in BANK_SIZES for seed in range(seeds)),
        *((key, n, 3, seed) for key in ("rational_bank_rows", "rounded_bank_rows")
          for n in RATIONAL_BANK_SIZES for seed in range(seeds)),
        *(("oracle_rows", n, m, k) for k, (n, m) in enumerate(shapes)),
    ]


def measure(key: str, n: int, m: int, seed: int, repeat: int) -> tuple[float, dict, str]:
    """One item, timed alone: its least time of ``repeat`` (a solve's in whole
    microseconds, as ``arctic bench`` keeps it), its counts and its
    serialized equilibrium."""
    from arcticauction import oracle
    from arcticauction.market import generate_random_instance, generate_refund_heavy_instance, serialize_equilibrium
    from arcticauction.solver import solve

    if key == "oracle_rows":
        inst = generate_random_instance(1000 + seed, n, m, 10)
        seconds, result = best_of(repeat, lambda: oracle.oracle_solve(inst))
        return seconds, {}, serialize_equilibrium(result.equilibrium)
    if key == "refund_heavy_rows":
        inst = generate_refund_heavy_instance(seed, n)
    elif key in ("rational_bank_rows", "rounded_bank_rows"):
        from workloads import random_rational_instance

        inst = random_rational_instance(random.Random(seed), n, m)
        if key == "rounded_bank_rows":
            inst = replace(inst, money=tuple(Fraction(round(x * 10**6), 10**6) for x in inst.money))
    else:
        inst = generate_random_instance(seed, n, m, 10)
    seconds, (eq, stats) = best_of(repeat, lambda: solve(inst))
    counts = (stats.phase_count, stats.type1, stats.type2, stats.type3, stats.maxflow_calls)
    return int(seconds * 1_000_000) / 1e6, dict(zip(COUNTED, counts)), serialize_equilibrium(eq)


def groups(todo, results) -> list[tuple[str, int, int, list]]:
    """The items' results grouped into rows, (family, n, m, [(seed, seconds,
    counts, answer), ...]): a solve row per run of one size, in order, and
    an oracle row per shape, sorted."""
    solves, oracle = [], {}
    for (key, n, m), run in itertools.groupby(zip(todo, results), key=lambda item: item[0][:3]):
        run = [(item[3], *result) for item, result in run]
        if key == "oracle_rows":
            oracle.setdefault((n, m), []).extend(run)
        else:
            solves.append((key, n, m, run))
    return solves + [("oracle_rows", n, m, run) for (n, m), run in sorted(oracle.items())]


def row_of(key: str, n: int, m: int, run: list) -> dict:
    """The file's row for one group of ``groups``: a solve row or an oracle row."""
    answers = hashlib.sha256()
    for *_, answer in run:
        answers.update(answer.encode())
    times = [seconds for _, seconds, _, _ in run]
    if key == "oracle_rows":
        return {
            "n": n, "m": m, "count": len(times), "median_s": statistics.median(times), "max_s": max(times),
            "total_s": sum(times), "answers_sha256": answers.hexdigest(),
        }
    solves = [{"seed": seed, "seconds": seconds, **counts} for seed, seconds, counts, _ in run]
    row = {"n": n, "m": m, "median_s": statistics.median(times), "max_s": max(times)}
    row.update((k, sum(s[k] for s in solves)) for k in COUNTED)
    row["answers_sha256"] = answers.hexdigest()
    row["solves"] = solves
    return row


def rows_of(todo, results) -> dict[str, list[dict]]:
    out = {key: [] for key in FAMILIES}
    for key, n, m, run in groups(todo, results):
        out[key].append(row_of(key, n, m, run))
    return out


class Worker:
    """A process of this script that imports the package from one checkout's
    ``src/`` and times the items it is sent, one JSON line each way.  It is
    ready, its imports done, when the constructor returns."""

    def __init__(self, src: Path):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--worker", str(src)]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.read()

    def read(self):
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit(f"bench_sweep: the worker {self.proc.args[-1]} exited")
        return json.loads(line)

    def measure(self, item, repeat: int) -> tuple[float, dict, str]:
        self.proc.stdin.write(json.dumps([*item, repeat]) + "\n")
        self.proc.stdin.flush()
        return tuple(self.read())

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def serve(src: str) -> int:
    """The worker: import the package from ``src``, say it is ready, and
    answer each request line."""
    sys.path.insert(0, src)
    import arcticauction
    import arcticauction.oracle
    import arcticauction.solver

    if Path(arcticauction.__file__).resolve().parent != (Path(src) / "arcticauction").resolve():
        raise SystemExit(f"bench_sweep: imported arcticauction from {arcticauction.__file__}, not {src}")
    print(json.dumps("ready"), flush=True)
    for line in sys.stdin:
        print(json.dumps(measure(*json.loads(line))), flush=True)
    return 0


def side_by_side(todo, repeat: int, there: Path) -> tuple[list, list]:
    """Each item's results on this checkout and on ``there``, in ABBA order,
    from a fresh pair of workers per item."""
    results = [], []
    for k, item in enumerate(todo):
        workers = []
        try:
            workers.append(Worker(SRC))
            workers.append(Worker(there / "src"))
            for side in (0, 1) if k % 2 == 0 else (1, 0):
                results[side].append(workers[side].measure(item, repeat))
        finally:
            for worker in workers:
                worker.close()
    return results


def commit_of(checkout: Path) -> str | None:
    """The git commit checked out in ``checkout``, or None if it is not a git checkout."""
    try:
        done = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"], capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def compare(todo, mine, theirs) -> tuple[dict, dict]:
    """This checkout's rows and the other's; each of this checkout's rows
    gains its median per-seed ratio, faster count and answer match."""
    rows, against = {key: [] for key in FAMILIES}, {key: [] for key in FAMILIES}
    for (key, n, m, run), (_, _, _, other) in zip(groups(todo, mine), groups(todo, theirs)):
        row, twin = row_of(key, n, m, run), row_of(key, n, m, other)
        ratios = [a[1] / b[1] for a, b in zip(run, other)]
        row["median_ratio"] = statistics.median(ratios)
        row["faster"] = sum(r < 1 for r in ratios)
        row["same_answers"] = row["answers_sha256"] == twin["answers_sha256"]
        rows[key].append(row)
        against[key].append(twin)
    return rows, against


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tag", help="the file is BENCH_<tag>.json")
    parser.add_argument("--sizes", type=int, nargs="+", default=SIZES)
    parser.add_argument("--seeds", type=int, default=5, help="seeds 0 .. SEEDS - 1 at each size")
    parser.add_argument("--repeat", type=int, default=1, help="time each solve REPEAT times, keep the least")
    parser.add_argument("--against", type=Path, metavar="DIR", help="time the checkout DIR side by side with this one")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        return serve(args.worker)
    if args.tag is None:
        parser.error("--tag is required")
    if args.seeds < 1 or args.repeat < 1 or min(args.sizes) < 1:
        parser.error("--seeds, --repeat and every size must be positive")
    if args.against is not None and not (args.against / "src" / "arcticauction" / "__init__.py").is_file():
        parser.error(f"--against: no package source under {args.against / 'src'}")
    todo = items(args.sizes, args.seeds)
    if args.against is None:
        sys.path.insert(0, str(SRC))
        rows, against = rows_of(todo, [measure(*item, args.repeat) for item in todo]), None
    else:
        rows, against = compare(todo, *side_by_side(todo, args.repeat, args.against))
    doc = {
        "tag": args.tag,
        "instances": "generate_random_instance(seed, n, n, 10)",
        "seeds": list(range(args.seeds)),
        "repeat": args.repeat,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "rows": rows["rows"],
        "refund_heavy_instances": "generate_refund_heavy_instance(seed, n)",
        "refund_heavy_rows": rows["refund_heavy_rows"],
        "bank_instances": "generate_random_instance(seed, n, 3, 10)",
        "bank_rows": rows["bank_rows"],
        "rational_bank_instances": "perfbench/workloads.py: random_rational_instance(random.Random(seed), n, 3)",
        "rational_bank_rows": rows["rational_bank_rows"],
        "rounded_bank_instances": "rational_bank_instances with every money rounded to the nearest multiple of 10^-6",
        "rounded_bank_rows": rows["rounded_bank_rows"],
        "oracle_instances": "criterion 01: generate_random_instance(1000 + k, n, m, 10)",
        "oracle_rows": rows["oracle_rows"],
    }
    if against is not None:
        doc["against"] = {"commit": commit_of(args.against), **against}
    path = Path(f"BENCH_{args.tag}.json")
    path.write_text(json.dumps(doc, indent=1) + "\n")
    for key in FAMILIES[:-1]:  # the solve families; oracle_rows, the last, print below
        for row in doc[key]:
            print(
                f"{key:18s} n={row['n']:3d}  median {row['median_s']:.3f} s  max {row['max_s']:.3f} s  "
                f"phases {row['phases']} (type2 {row['type2']}, type3 {row['type3']}){versus(row, len(row['solves']))}"
            )
    for row in doc["oracle_rows"]:
        print(
            f"oracle_rows        {row['n']}x{row['m']}  {row['count']:3d} solves  median {row['median_s']:.4f} s  "
            f"max {row['max_s']:.3f} s  total {row['total_s']:.2f} s{versus(row, row['count'])}"
        )
    print(f"oracle total {sum(row['total_s'] for row in doc['oracle_rows']):.2f} s")
    print(f"wrote {path}")
    differ = [f"{key} {row['n']}x{row['m']}" for key in FAMILIES for row in doc[key] if not row.get("same_answers", True)]
    if differ:
        print("bench_sweep: the answers differ on " + ", ".join(differ), file=sys.stderr)
        return 1
    return 0


def versus(row: dict, count: int) -> str:
    """The side-by-side columns of a printed row, if it has them."""
    if "median_ratio" not in row:
        return ""
    answers = "same answers" if row["same_answers"] else "ANSWERS DIFFER"
    return f"  ratio {row['median_ratio']:.3f}, faster {row['faster']}/{count}, {answers}"


if __name__ == "__main__":
    sys.exit(main())
