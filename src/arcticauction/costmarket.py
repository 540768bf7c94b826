"""Linear market with constant marginal production costs and its greedy solver.

Supply is unbounded: the seller produces any amount of good j at d_j per
unit.  Pricing every good at its unit cost is optimal; buyers whose best
utility-to-price ratio is below 1 take their money back, everyone else
spends everything on best-ratio goods.  The seller's profit is identically
zero since all revenue covers production cost exactly.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

from .market import (
    MarketFormatError,
    MarketInstance,
    _parse_matrix,
    format_rational,
    generate_random_instance,
    mbpb,
    parse_json_object,
    rational_field,
    validate_instance,
)

ZERO = Fraction(0)


@dataclass(frozen=True)
class CostMarketInstance:
    base: MarketInstance
    unit_costs: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.unit_costs) != self.base.n_goods:
            raise MarketFormatError("costs length does not match goods")
        if any(d <= 0 for d in self.unit_costs):
            raise MarketFormatError("unit costs must be positive")


@dataclass(frozen=True)
class CostSolution:
    prices: tuple[Fraction, ...]
    allocation: tuple[tuple[Fraction, ...], ...]
    produced: tuple[Fraction, ...]
    returned: tuple[Fraction, ...]
    revenue: Fraction
    profit: Fraction


def parse_cost_instance(text: str) -> CostMarketInstance:
    """Parse the shared instance JSON; the "costs" field is required here."""
    doc = parse_json_object(text)
    if "costs" not in doc:
        raise MarketFormatError("cost-market instance requires a 'costs' field")
    base = _parse_matrix(doc)
    report = validate_instance(base)
    if not report.ok:
        raise MarketFormatError("invalid instance: " + "; ".join(report.violations))
    return CostMarketInstance(base=base, unit_costs=rational_field(doc, "costs", None))


def serialize_cost_instance(inst: CostMarketInstance) -> str:
    doc = {
        "money": [format_rational(m) for m in inst.base.money],
        "utilities": [[format_rational(u) for u in row] for row in inst.base.utilities],
        "costs": [format_rational(d) for d in inst.unit_costs],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def serialize_cost_solution(sol: CostSolution) -> str:
    doc = {
        "prices": [format_rational(p) for p in sol.prices],
        "allocation": [[format_rational(x) for x in row] for row in sol.allocation],
        "produced": [format_rational(y) for y in sol.produced],
        "returned": [format_rational(s) for s in sol.returned],
        "revenue": format_rational(sol.revenue),
        "profit": format_rational(sol.profit),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def parse_cost_solution(text: str) -> CostSolution:
    """Parse a cost-solution document; MarketFormatError when it is malformed."""
    doc = parse_json_object(text)
    prices = rational_field(doc, "prices", None)
    returned = rational_field(doc, "returned", None)
    n, m = len(returned), len(prices)
    return CostSolution(
        prices=prices,
        allocation=rational_field(doc, "allocation", n, m),
        produced=rational_field(doc, "produced", m),
        returned=returned,
        revenue=rational_field(doc, "revenue"),
        profit=rational_field(doc, "profit"),
    )


def solve_cost_market(inst: CostMarketInstance) -> CostSolution:
    """Greedy optimum: price at cost, spend-or-refund per buyer.

    Indifferent buyers (best ratio exactly 1) spend everything, which is the
    revenue-maximizing resolution; ratio ties put all money on the
    lowest-index best good for determinism.
    """
    base, d = inst.base, inst.unit_costs
    report = validate_instance(base)
    if not report.ok:
        raise ValueError("invalid instance: " + "; ".join(report.violations))
    n, m = base.n_buyers, base.n_goods
    allocation = [[ZERO] * m for _ in range(n)]
    returned = [ZERO] * n
    for i in base.buyers:
        alpha, goods = mbpb(base, d, i)
        if alpha < 1:
            returned[i] = base.money[i]
            continue
        best = min(goods)
        allocation[i][best] = base.money[i] / d[best]
    produced = tuple(
        sum((allocation[i][j] for i in base.buyers), ZERO) for j in base.goods
    )
    total_s = sum(returned, ZERO)
    revenue = sum(base.money, ZERO) - total_s
    cost = sum((d[j] * produced[j] for j in base.goods), ZERO)
    return CostSolution(
        prices=tuple(d),
        allocation=tuple(tuple(row) for row in allocation),
        produced=produced,
        returned=tuple(returned),
        revenue=revenue,
        profit=revenue - cost,
    )


def profit(inst: CostMarketInstance, sol: CostSolution) -> Fraction:
    """Seller revenue minus production cost, recomputed from first principles."""
    total_s = sum(sol.returned, ZERO)
    revenue = sum(inst.base.money, ZERO) - total_s
    produced = [
        sum((sol.allocation[i][j] for i in inst.base.buyers), ZERO)
        for j in inst.base.goods
    ]
    cost = sum((inst.unit_costs[j] * produced[j] for j in inst.base.goods), ZERO)
    return revenue - cost


def generate_random_cost_instance(seed: int, n: int, m: int, max_value: int) -> CostMarketInstance:
    """Deterministic random cost-market instance; costs uniform in [1, max]."""
    base = generate_random_instance(seed, n, m, max_value)
    rng = random.Random(seed ^ 0x5EED)
    costs = tuple(Fraction(rng.randint(1, max_value)) for _ in range(m))
    return CostMarketInstance(base=base, unit_costs=costs)
