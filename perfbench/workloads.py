"""Seeded corpora, the timed operation and the output checks of each workload.

A corpus is a list of items built from the workload seed alone; the program
only ever sees the generated JSON text.  Every call into the package goes
through a module attribute (``solver.solve``, not a bare ``solve``) so that
the tracer's patched names are the ones called.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from arcticauction import costmarket, kkt, market, oracle, solver

# Denominators of the rational-rect data are uniform in [1, RATIONAL_DEN].
RATIONAL_DEN = 10**6


@dataclass(frozen=True)
class Workload:
    name: str
    # corpus(seed) -> items; op(item) -> result; check(item, result) -> problems
    corpus: Callable[[int], list]
    op: Callable
    check: Callable
    # outputs(result) -> the serialized answers that make up the fingerprint
    outputs: Callable
    # Number of leading corpus items whose outputs form the fingerprint and
    # whose traced spans give the per-layer metrics.
    prefix: int


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


# --- the two solve workloads -------------------------------------------------


def square_int_corpus(seed: int, count: int = 96) -> list[str]:
    """12x12 integer instances with values up to 10: the ROADMAP baseline shape."""
    rng = _rng("square-int", seed)
    return [
        market.serialize_instance(market.generate_random_instance(rng.getrandbits(31), 12, 12, 10))
        for _ in range(count)
    ]


def _random_rational(rng: random.Random, zero_chance: float) -> Fraction:
    if rng.random() < zero_chance:
        return Fraction(0)
    q = rng.randint(1, RATIONAL_DEN)
    return Fraction(rng.randint(1, 10 * q), q)


def random_rational_instance(rng: random.Random, n: int, m: int) -> market.MarketInstance:
    """Money and utilities in (0, 10] with coprime-ish denominators up to 10^6.

    About one utility in ten is zero, as in the integer generator; rows are
    redrawn until every buyer desires some good and every good is desired.
    """
    money = tuple(_random_rational(rng, 0.0) for _ in range(n))
    while True:
        rows = [[_random_rational(rng, 0.1) for _ in range(m)] for _ in range(n)]
        inst = market.MarketInstance(money=money, utilities=tuple(map(tuple, rows)))
        if market.validate_instance(inst).ok:
            return inst


# 16x4 twice, then 4x16: with a 1:1 mix the median would fall in the gap
# between the two shapes' costs (4x16 takes about twice as long) and jump
# from seed to seed; 2:1 puts it inside the 16x4 costs and the tail in 4x16.
RATIONAL_SHAPES = ((16, 4), (16, 4), (4, 16))


def rational_rect_corpus(seed: int, count: int = 240) -> list[str]:
    """Rational instances cycling through RATIONAL_SHAPES."""
    rng = _rng("rational-rect", seed)
    return [
        market.serialize_instance(random_rational_instance(rng, *RATIONAL_SHAPES[k % 3]))
        for k in range(count)
    ]


@dataclass
class SolveResult:
    inst: market.MarketInstance
    eq: market.Equilibrium
    stats: market.RunStats
    text: str


def solve_op(text: str) -> SolveResult:
    """What ``arctic solve`` does, in-process: parse, solve, serialize."""
    inst = market.parse_instance(text)
    eq, stats = solver.solve(inst)
    return SolveResult(inst, eq, stats, market.serialize_equilibrium(eq, stats))


def _round_trip_problems(inst, eq, text) -> list[str]:
    eq2, stats2 = market.parse_equilibrium(text, inst)
    if eq2 != eq or market.serialize_equilibrium(eq2, stats2) != text:
        return ["equilibrium does not round-trip through parse_equilibrium"]
    return []


def _equilibrium_problems(inst, eq, who: str) -> list[str]:
    out = []
    if not kkt.verify_arctic_kkt(inst, eq).overall:
        out.append(f"{who}: KKT check failed")
    if not kkt.verify_market_clearing(inst, eq).overall:
        out.append(f"{who}: market clearing failed")
    return out


def solve_check(text: str, res: SolveResult) -> list[str]:
    return _equilibrium_problems(res.inst, res.eq, "solver") + _round_trip_problems(
        res.inst, res.eq, res.text
    )


def solve_outputs(res: SolveResult) -> str:
    return res.text


# --- the oracle workload -----------------------------------------------------

# n and m uniform in [1, 3]: criterion 01's shape mix without its fourth row
# and column (see DESIGN.md for why 4-wide shapes are left out).
ORACLE_SHAPES = tuple((n, m) for n in range(1, 4) for m in range(1, 4))


def oracle_small_corpus(seed: int, rounds: int = 320) -> list[tuple[str, str]]:
    """Small instances for the enumeration oracle, max value 10.

    Each round holds every shape once, in a seeded order, so that every run
    sees the mix in its stated proportions: 3x3 costs about fifty times more
    than 1x1 and would otherwise dominate by luck.  Each item pairs an
    auction instance with a cost instance of the same shape.
    """
    rng = _rng("oracle-small", seed)
    items = []
    for _ in range(rounds):
        shapes = list(ORACLE_SHAPES)
        rng.shuffle(shapes)
        for n, m in shapes:
            inst = market.generate_random_instance(rng.getrandbits(31), n, m, 10)
            cost = costmarket.generate_random_cost_instance(rng.getrandbits(31), n, m, 10)
            items.append((market.serialize_instance(inst), costmarket.serialize_cost_instance(cost)))
    return items


@dataclass
class OracleResult:
    inst: market.MarketInstance
    eq: market.Equilibrium
    stats: market.RunStats
    oracle_eq: market.Equilibrium
    prices_equal: bool
    reports_ok: tuple[bool, ...]
    cost_sol: costmarket.CostSolution
    cost_oracle: costmarket.CostSolution
    cost_ok: bool


def oracle_op(item: tuple[str, str]) -> OracleResult:
    """Solve, oracle, exact price comparison and four verifications, plus a cost pair."""
    text, cost_text = item
    inst = market.parse_instance(text)
    eq, stats = solver.solve(inst)
    oeq = oracle.oracle_solve(inst).equilibrium
    prices_equal = eq.prices == oeq.prices
    reports_ok = (
        kkt.verify_arctic_kkt(inst, eq).overall,
        kkt.verify_market_clearing(inst, eq).overall,
        kkt.verify_arctic_kkt(inst, oeq).overall,
        kkt.verify_market_clearing(inst, oeq).overall,
    )
    cinst = costmarket.parse_cost_instance(cost_text)
    csol = costmarket.solve_cost_market(cinst)
    osol = oracle.oracle_cost_solve(cinst)
    cost_ok = kkt.verify_cost_kkt(cinst, csol).overall
    return OracleResult(
        inst, eq, stats, oeq, prices_equal, reports_ok, csol, osol, cost_ok
    )


def refund_split_differs(res) -> bool:
    """The documented degenerate-optimum case: same prices, different refunds."""
    return isinstance(res, OracleResult) and res.eq.returned != res.oracle_eq.returned


def oracle_check(item, res: OracleResult) -> list[str]:
    out = []
    if not res.prices_equal:
        out.append("oracle prices differ from the solver's")
    names = ("solver KKT", "solver clearing", "oracle KKT", "oracle clearing")
    out += [f"{name} check failed" for name, ok in zip(names, res.reports_ok) if not ok]
    out += _round_trip_problems(
        res.inst, res.eq, market.serialize_equilibrium(res.eq, res.stats)
    )
    if not res.cost_ok:
        out.append("cost solution fails its KKT check")
    if (res.cost_sol.prices, res.cost_sol.returned) != (
        res.cost_oracle.prices,
        res.cost_oracle.returned,
    ):
        out.append("cost oracle differs from the greedy cost solution")
    return out


def oracle_outputs(res: OracleResult) -> str:
    return (
        market.serialize_equilibrium(res.eq, res.stats)
        + market.serialize_equilibrium(res.oracle_eq)
        + costmarket.serialize_cost_solution(res.cost_sol)
        + costmarket.serialize_cost_solution(res.cost_oracle)
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("square-int", square_int_corpus, solve_op, solve_check, solve_outputs, 8),
        Workload(
            "rational-rect", rational_rect_corpus, solve_op, solve_check, solve_outputs, 9
        ),
        Workload(
            "oracle-small", oracle_small_corpus, oracle_op, oracle_check, oracle_outputs, 45
        ),
    )
}
