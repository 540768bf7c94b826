"""Command-line interface: generate, solve, verify, oracle, cost, bench, trace.

Every command is deterministic given its arguments and input files; all
randomness flows from explicit seeds.  Exit codes: 0 success or verified,
1 verification failure, 2 usage error, 3 internal contract violation.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
import time

from . import market
from .costmarket import (
    parse_cost_instance,
    parse_cost_solution,
    serialize_cost_solution,
    solve_cost_market,
)
from .flownet import FlowError
from .kkt import verify_arctic_kkt, verify_cost_kkt
from .market import (
    MarketFormatError,
    generate_random_instance,
    parse_equilibrium,
    parse_instance,
    serialize_equilibrium,
    serialize_instance,
)
from .oracle import OracleError, oracle_solve
from .solver import SolverError, TraceRecorder, prices_hash, solve


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _trace_csv(recorder: TraceRecorder) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        ["phase", "iteration", "event", "theta_star", "phi", "I_size", "J_size", "Z_size", "prices_hash"]
    )
    for row in recorder.events:
        writer.writerow(
            [
                row["phase"],
                row["iteration"],
                row["kind"],
                market.format_rational(row["theta_star"]),
                market.format_rational(row["phi"]),
                row["I_size"],
                row["J_size"],
                row["Z_size"],
                prices_hash(row["prices"]),
            ]
        )
    return buf.getvalue()


def cmd_gen(args) -> int:
    inst = generate_random_instance(args.seed, args.buyers, args.goods, args.max_value)
    _write(args.output, serialize_instance(inst))
    return 0


def cmd_solve(args) -> int:
    inst = parse_instance(_read(args.input))
    recorder = TraceRecorder() if args.trace_file else None
    eq, stats = solve(inst, recorder=recorder)
    _write(args.output, serialize_equilibrium(eq, stats))
    if args.trace_file:
        _write(args.trace_file, _trace_csv(recorder))
    return 0


def cmd_verify(args) -> int:
    instance_text = _read(args.input)
    solution_text = _read(args.solution)
    if "costs" in market.parse_json_object(instance_text):
        inst = parse_cost_instance(instance_text)
        sol = parse_cost_solution(solution_text)
        report = verify_cost_kkt(inst, sol)
    else:
        inst = parse_instance(instance_text)
        eq, _ = parse_equilibrium(solution_text, inst)
        report = verify_arctic_kkt(inst, eq)
    _write(args.output, report.to_json())
    return 0 if report.overall else 1


def cmd_oracle(args) -> int:
    inst = parse_instance(_read(args.input))
    result = oracle_solve(inst)
    text = serialize_equilibrium(result.equilibrium)
    import json

    doc = json.loads(text)
    doc["support"] = {
        "allocation": [list(p) for p in result.support_x],
        "returned": list(result.support_s),
    }
    _write(args.output, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_cost(args) -> int:
    inst = parse_cost_instance(_read(args.input))
    sol = solve_cost_market(inst)
    _write(args.output, serialize_cost_solution(sol))
    return 0


def cmd_bench(args) -> int:
    if args.count < 0:
        raise ValueError(f"--count must be nonnegative, got {args.count}")
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        ["n", "m", "seed", "phases", "type1", "type2", "type3", "maxflow_calls", "micros"]
    )
    for k in range(args.count):
        seed = args.seed + k
        inst = generate_random_instance(seed, args.buyers, args.goods, args.max_value)
        t0 = time.perf_counter()
        _, stats = solve(inst)
        micros = int((time.perf_counter() - t0) * 1_000_000)
        writer.writerow(
            [
                args.buyers,
                args.goods,
                seed,
                stats.phase_count,
                stats.type1,
                stats.type2,
                stats.type3,
                stats.maxflow_calls,
                micros,
            ]
        )
    _write(args.output, buf.getvalue())
    return 0


def cmd_trace(args) -> int:
    inst = parse_instance(_read(args.input))
    recorder = TraceRecorder()
    solve(inst, recorder=recorder)
    _write(args.output, _trace_csv(recorder))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arctic",
        description="Exact equilibrium solver and verifier for arctic-auction markets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a random instance")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--buyers", type=int, required=True)
    gen.add_argument("--goods", type=int, required=True)
    gen.add_argument("--max-value", type=int, default=10)
    gen.add_argument("--output", "-o", default=None)
    gen.set_defaults(func=cmd_gen)

    slv = sub.add_parser("solve", help="solve an instance exactly")
    slv.add_argument("--input", "-i", required=True)
    slv.add_argument("--output", "-o", default=None)
    slv.add_argument("--trace-file", default=None)
    slv.set_defaults(func=cmd_solve)

    ver = sub.add_parser("verify", help="verify a solution against an instance")
    ver.add_argument("--input", "-i", required=True, help="instance JSON")
    ver.add_argument("--solution", required=True, help="equilibrium or cost-solution JSON")
    ver.add_argument("--output", "-o", default=None)
    ver.set_defaults(func=cmd_verify)

    orc = sub.add_parser("oracle", help="solve a small instance by enumeration")
    orc.add_argument("--input", "-i", required=True)
    orc.add_argument("--output", "-o", default=None)
    orc.set_defaults(func=cmd_oracle)

    cst = sub.add_parser("cost", help="solve a production-cost market")
    cst.add_argument("--input", "-i", required=True)
    cst.add_argument("--output", "-o", default=None)
    cst.set_defaults(func=cmd_cost)

    ben = sub.add_parser("bench", help="time seeded random solves")
    ben.add_argument("--seed", type=int, required=True)
    ben.add_argument("--count", type=int, default=10)
    ben.add_argument("--buyers", type=int, required=True)
    ben.add_argument("--goods", type=int, required=True)
    ben.add_argument("--max-value", type=int, default=10)
    ben.add_argument("--output", "-o", default=None)
    ben.set_defaults(func=cmd_bench)

    trc = sub.add_parser("trace", help="write the event trace of a solve")
    trc.add_argument("--input", "-i", required=True)
    trc.add_argument("--output", "-o", default=None)
    trc.set_defaults(func=cmd_trace)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # FlowError is a ValueError, so it is caught first: a broken flow
    # contract is a bug, not bad input.
    except (SolverError, FlowError, OracleError) as exc:
        print(f"internal contract violation: {exc}", file=sys.stderr)
        return 3
    except (MarketFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
