"""Exact optimality verification for proposed market solutions.

Checks the primal constraints and the eight stationarity/complementarity
conditions of the two convex programs (the auction program and its
production-cost variant), plus the per-buyer facts any equilibrium must
satisfy.  All residuals are exact rationals obtained by cross-multiplying,
so a report either passes with zero residual or names the violated side.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .market import Equilibrium, MarketInstance, format_rational


@dataclass(frozen=True)
class ConditionResult:
    name: str
    passed: bool
    residual: Fraction
    detail: str = ""


@dataclass(frozen=True)
class KktReport:
    condition_results: tuple[ConditionResult, ...]
    lam: Fraction

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.condition_results)

    def failures(self) -> tuple[ConditionResult, ...]:
        return tuple(c for c in self.condition_results if not c.passed)

    def to_json(self) -> str:
        doc = {
            "overall": self.overall,
            "lambda": format_rational(self.lam),
            "conditions": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "residual": format_rational(c.residual),
                    "detail": c.detail,
                }
                for c in self.condition_results
            ],
        }
        return json.dumps(doc, indent=2) + "\n"


def _eq(name, lhs, rhs, detail=""):
    return ConditionResult(name, lhs == rhs, lhs - rhs, detail)


def _ge(name, lhs, rhs, detail=""):
    return ConditionResult(name, lhs >= rhs, lhs - rhs, detail)


ZERO = Fraction(0)
ONE = Fraction(1)


def _buyer_aggregates(inst: MarketInstance, allocation):
    bundle = []
    for i in inst.buyers:
        bundle.append(
            sum((inst.utilities[i][j] * allocation[i][j] for j in inst.goods), ZERO)
        )
    return bundle


def verify_arctic_kkt(inst: MarketInstance, eq: Equilibrium) -> KktReport:
    """Exact check of the auction program's KKT system plus equilibrium facts.

    The dual scalar is not an input: it is 1 whenever any money is returned
    (forced by complementarity) and is chosen as 1, the largest admissible
    value, when no money is returned.
    """
    n, m = inst.n_buyers, inst.n_goods
    if len(eq.prices) != m or len(eq.allocation) != n or len(eq.returned) != n:
        raise ValueError("dimension mismatch between instance and solution")
    lam = ONE
    x, s, p = eq.allocation, eq.returned, eq.prices
    w = _buyer_aggregates(inst, x)
    total_s = sum(s, ZERO)
    out: list[ConditionResult] = []

    for j in inst.goods:
        col = sum((x[i][j] for i in inst.buyers), ZERO)
        out.append(
            ConditionResult(f"primal_supply_good_{j}", col <= 1, col - 1)
        )
    neg_x = [(i, j) for i in inst.buyers for j in inst.goods if x[i][j] < 0]
    out.append(
        ConditionResult(
            "primal_nonneg_allocation",
            not neg_x,
            min((x[i][j] for i, j in neg_x), default=ZERO),
            detail=f"negative entries: {neg_x}" if neg_x else "",
        )
    )
    neg_s = [i for i in inst.buyers if s[i] < 0]
    out.append(
        ConditionResult(
            "primal_nonneg_refund",
            not neg_s,
            min((s[i] for i in neg_s), default=ZERO),
        )
    )

    for j in inst.goods:
        out.append(_ge(f"kkt1_price_nonneg_{j}", p[j], ZERO))
    for j in inst.goods:
        if p[j] > 0:
            col = sum((x[i][j] for i in inst.buyers), ZERO)
            out.append(_eq(f"kkt2_priced_good_sold_{j}", col, ONE))
    out.extend(_dual_conditions(inst, x, s, p, w, lam, total_s))
    out.extend(_equilibrium_facts(inst, eq, w))
    out.extend(_trichotomy(inst, eq, w))
    return KktReport(tuple(out), lam)


def _dual_conditions(inst, x, s, p, w, lam, total_s) -> list[ConditionResult]:
    """kkt3-kkt8, shared by the auction and production-cost programs."""
    out = [_ge("kkt3_dual_scalar_bound", ONE, lam)]
    if total_s > 0:
        out.append(_eq("kkt4_refund_forces_dual", lam, ONE))

    for i in inst.buyers:
        for j in inst.goods:
            # u_ij / p_j <= (w_i + s_i) / m_i, cross-multiplied.
            lhs = inst.utilities[i][j] * inst.money[i]
            rhs = (w[i] + s[i]) * p[j]
            out.append(
                ConditionResult(f"kkt5_ratio_bound_{i}_{j}", lhs <= rhs, lhs - rhs)
            )
            if x[i][j] > 0:
                out.append(_eq(f"kkt6_allocated_at_best_ratio_{i}_{j}", lhs, rhs))
    for i in inst.buyers:
        if w[i] + s[i] <= 0:
            out.append(
                ConditionResult(
                    f"kkt7_dual_ratio_{i}", False, Fraction(-1),
                    detail="degenerate buyer: zero utility and zero refund",
                )
            )
            continue
        out.append(
            ConditionResult(
                f"kkt7_dual_ratio_{i}",
                lam * (w[i] + s[i]) >= inst.money[i],
                lam * (w[i] + s[i]) - inst.money[i],
            )
        )
        if s[i] > 0:
            out.append(
                _eq(f"kkt8_refunded_{i}", lam * (w[i] + s[i]), inst.money[i])
            )

    return out


def _equilibrium_facts(inst, eq, w) -> list[ConditionResult]:
    """The three per-buyer facts every equilibrium satisfies."""
    x, s, p = eq.allocation, eq.returned, eq.prices
    out = []
    for i in inst.buyers:
        alpha = eq.alpha[i]
        bought = [j for j in inst.goods if x[i][j] > 0]
        if bought:
            ok = all(
                inst.utilities[i][j] == alpha * p[j] for j in bought
            ) and alpha >= 1
            out.append(
                ConditionResult(
                    f"fact_mbpb_support_{i}", ok, ZERO if ok else Fraction(-1),
                    detail="every purchased good attains the best ratio, which is >= 1",
                )
            )
        if s[i] > 0 and bought:
            ok = alpha == 1 and all(p[j] == inst.utilities[i][j] for j in bought)
            out.append(
                ConditionResult(
                    f"fact_mixed_buyer_at_bound_{i}", ok, alpha - 1,
                    detail="mixed money/goods buyer purchases at her price ceilings",
                )
            )
        if not bought:
            ok = all(p[j] >= inst.utilities[i][j] for j in inst.goods) and alpha <= 1
            out.append(
                ConditionResult(
                    f"fact_priced_out_{i}", ok, alpha - 1,
                    detail="a buyer with no goods faces prices at or above her ceilings",
                )
            )
    return out


def _trichotomy(inst, eq, w) -> list[ConditionResult]:
    """Exactly one of the three terminal cases holds for each buyer."""
    x, s, p = eq.allocation, eq.returned, eq.prices
    out = []
    for i in inst.buyers:
        alpha = eq.alpha[i]
        spend = sum((x[i][j] * p[j] for j in inst.goods), ZERO)
        if alpha > 1:
            ok = s[i] == 0 and spend == inst.money[i]
            residual = spend - inst.money[i] if s[i] == 0 else s[i]
        elif alpha == 1:
            ok = spend + s[i] == inst.money[i]
            residual = spend + s[i] - inst.money[i]
        else:
            ok = s[i] == inst.money[i] and all(x[i][j] == 0 for j in inst.goods)
            residual = s[i] - inst.money[i]
        out.append(
            ConditionResult(f"trichotomy_{i}", ok, residual, detail=f"alpha={alpha}")
        )
    return out


def verify_market_clearing(inst: MarketInstance, eq: Equilibrium) -> KktReport:
    """All goods fully sold at positive prices; every budget exactly split."""
    x, s, p = eq.allocation, eq.returned, eq.prices
    out = []
    for j in inst.goods:
        out.append(ConditionResult(f"positive_price_{j}", p[j] > 0, p[j]))
        col = sum((x[i][j] for i in inst.buyers), ZERO)
        out.append(_eq(f"good_cleared_{j}", col, ONE))
    for i in inst.buyers:
        spend = sum((x[i][j] * p[j] for j in inst.goods), ZERO)
        out.append(_eq(f"budget_split_{i}", spend + s[i], inst.money[i]))
    return KktReport(tuple(out), ONE)


def verify_cost_kkt(inst, sol) -> KktReport:
    """Exact check of the production-cost program's KKT system.

    ``inst`` is a CostMarketInstance and ``sol`` a CostSolution (duck-typed
    to avoid a circular import).  Includes the zero-profit identity.
    """
    base: MarketInstance = inst.base
    d = inst.unit_costs
    n, m = base.n_buyers, base.n_goods
    if len(sol.prices) != m or len(sol.allocation) != n or len(sol.returned) != n:
        raise ValueError("dimension mismatch between instance and solution")
    lam = ONE
    x, s, p, y = sol.allocation, sol.returned, sol.prices, sol.produced
    w = _buyer_aggregates(base, x)
    total_s = sum(s, ZERO)
    out: list[ConditionResult] = []

    for j in base.goods:
        col = sum((x[i][j] for i in base.buyers), ZERO)
        out.append(_eq(f"primal_production_balance_{j}", col, y[j]))
    neg = [(i, j) for i in base.buyers for j in base.goods if x[i][j] < 0]
    out.append(
        ConditionResult(
            "primal_nonneg_allocation", not neg,
            min((x[i][j] for i, j in neg), default=ZERO),
        )
    )
    neg_s = [i for i in base.buyers if s[i] < 0]
    out.append(
        ConditionResult(
            "primal_nonneg_refund", not neg_s,
            min((s[i] for i in neg_s), default=ZERO),
        )
    )

    for j in base.goods:
        out.append(_ge(f"kkt1_cost_covers_price_{j}", d[j] - p[j], ZERO))
        if y[j] > 0:
            out.append(_eq(f"kkt2_produced_at_cost_{j}", d[j], p[j]))
    out.extend(_dual_conditions(base, x, s, p, w, lam, total_s))
    revenue = sum(base.money, ZERO) - total_s
    cost = sum((d[j] * y[j] for j in base.goods), ZERO)
    out.append(_eq("zero_profit", revenue - cost, ZERO))
    return KktReport(tuple(out), lam)
