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
``oracle_rows`` holds ``oracle_solve``'s time per shape over criterion 01's
corpus, ``generate_random_instance(1000 + k, n, m, 10)`` for k = 0 .. 199
with the sizes drawn from ``random.Random(424242)``, each call timed alone:
count, median, max and total, and ``answers_sha256`` over the serialized
``oracle_solve(inst).equilibrium`` of the shape's calls in k order.  With ``--repeat R`` every solve and every
oracle call is timed R times and the least time is kept; the default, 1,
times each once.  The file goes to the current directory.
Compare two files only when they were made on one machine, side by side.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
SIZES = (5, 8, 12, 16, 24, 32, 48)
BANK_SIZES = (100, 200, 400, 800)
COUNTED = ("phases", "type1", "type2", "type3", "maxflow_calls")


def best_of(repeat: int, call):
    """The least wall time of ``repeat`` runs of ``call()``, and its last result."""
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = call()
        best = min(best, time.perf_counter() - t0)
    return best, result


def timed_solves(instance, seeds: int, repeat: int) -> tuple[list[dict], str]:
    """Each seed's solve of ``instance(seed)``, timed alone in whole microseconds,
    and the sha256 over the serialized equilibria in seed order."""
    from arcticauction.market import serialize_equilibrium
    from arcticauction.solver import solve

    solves = []
    answers = hashlib.sha256()
    for seed in range(seeds):
        inst = instance(seed)
        seconds, (eq, stats) = best_of(repeat, lambda: solve(inst))
        micros = int(seconds * 1_000_000)
        counts = (stats.phase_count, stats.type1, stats.type2, stats.type3, stats.maxflow_calls)
        solves.append({"seed": seed, "seconds": micros / 1e6, **dict(zip(COUNTED, counts))})
        answers.update(serialize_equilibrium(eq).encode())
    return solves, answers.hexdigest()


def oracle_rows(repeat: int) -> list[dict]:
    from arcticauction.market import generate_random_instance, serialize_equilibrium
    from arcticauction.oracle import oracle_solve

    rng = random.Random(424242)
    sizes = [(rng.randint(1, 4), rng.randint(1, 4)) for _ in range(200)]
    times: dict[tuple[int, int], list[float]] = {}
    answers = {}
    for k, (n, m) in enumerate(sizes):
        inst = generate_random_instance(1000 + k, n, m, 10)
        seconds, result = best_of(repeat, lambda: oracle_solve(inst))
        times.setdefault((n, m), []).append(seconds)
        answers.setdefault((n, m), hashlib.sha256()).update(serialize_equilibrium(result.equilibrium).encode())
    return [
        {
            "n": n, "m": m, "count": len(ts), "median_s": statistics.median(ts), "max_s": max(ts), "total_s": sum(ts),
            "answers_sha256": answers[n, m].hexdigest(),
        }
        for (n, m), ts in sorted(times.items())
    ]


def size_row(n: int, m: int, timed: tuple[list[dict], str]) -> dict:
    solves, answers = timed
    times = [s["seconds"] for s in solves]
    row = {"n": n, "m": m, "median_s": statistics.median(times), "max_s": max(times)}
    row.update((k, sum(s[k] for s in solves)) for k in COUNTED)
    row["answers_sha256"] = answers
    row["solves"] = solves
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tag", required=True, help="the file is BENCH_<tag>.json")
    parser.add_argument("--sizes", type=int, nargs="+", default=SIZES)
    parser.add_argument("--seeds", type=int, default=5, help="seeds 0 .. SEEDS - 1 at each size")
    parser.add_argument("--repeat", type=int, default=1, help="time each solve REPEAT times, keep the least")
    args = parser.parse_args(argv)
    if args.seeds < 1 or args.repeat < 1 or min(args.sizes) < 1:
        parser.error("--seeds, --repeat and every size must be positive")
    sys.path.insert(0, str(SRC))
    from arcticauction.market import generate_random_instance, generate_refund_heavy_instance

    doc = {
        "tag": args.tag,
        "instances": "generate_random_instance(seed, n, n, 10)",
        "seeds": list(range(args.seeds)),
        "repeat": args.repeat,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "rows": [
            size_row(n, n, timed_solves(lambda seed: generate_random_instance(seed, n, n, 10), args.seeds, args.repeat))
            for n in args.sizes
        ],
        "refund_heavy_instances": "generate_refund_heavy_instance(seed, n)",
        "refund_heavy_rows": [
            size_row(n, n, timed_solves(lambda seed: generate_refund_heavy_instance(seed, n), args.seeds, args.repeat))
            for n in args.sizes
        ],
        "bank_instances": "generate_random_instance(seed, n, 3, 10)",
        "bank_rows": [
            size_row(n, 3, timed_solves(lambda seed: generate_random_instance(seed, n, 3, 10), args.seeds, args.repeat))
            for n in BANK_SIZES
        ],
        "oracle_instances": "criterion 01: generate_random_instance(1000 + k, n, m, 10)",
        "oracle_rows": oracle_rows(args.repeat),
    }
    path = Path(f"BENCH_{args.tag}.json")
    path.write_text(json.dumps(doc, indent=1) + "\n")
    for key in ("rows", "refund_heavy_rows", "bank_rows"):
        for row in doc[key]:
            print(
                f"{key:17s} n={row['n']:3d}  median {row['median_s']:.3f} s  max {row['max_s']:.3f} s  "
                f"phases {row['phases']} (type2 {row['type2']}, type3 {row['type3']})"
            )
    for row in doc["oracle_rows"]:
        print(
            f"oracle_rows       {row['n']}x{row['m']}  {row['count']:3d} solves  median {row['median_s']:.4f} s  "
            f"max {row['max_s']:.3f} s  total {row['total_s']:.2f} s"
        )
    print(f"oracle total {sum(row['total_s'] for row in doc['oracle_rows']):.2f} s")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
