"""Exact optimality verification for proposed market solutions.

Checks the primal constraints and the eight stationarity/complementarity
conditions of the two convex programs (the auction program and its
production-cost variant), plus the per-buyer facts any equilibrium must
satisfy.  Each verifier first puts the solution on ints in one pass
(``_OnInts``): the prices over one common denominator, the money and the
refunds over another, each utility row over its row denominator
(``market.over_one_den``, which also gives the solver its rows), and the
column sums, the utility aggregates w_i and the spends, each summed once
over the nonzero allocations, whose common denominator is a third.  A
condition is then the sign, or the zero, of one cross-multiplied int
numerator over a positive int denominator, and its residual is that exact
rational, built once; so a report either passes with zero residual or
names the violated side.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .market import Equilibrium, MarketInstance, format_rational, over_one_den


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


ZERO = Fraction(0)
ONE = Fraction(1)


def _over(num: int, den: int) -> Fraction:
    """The residual num / den, den > 0; a zero one is ZERO, with no gcd."""
    return Fraction(num, den) if num else ZERO


class _OnInts:
    """A solution (prices p, allocation x, refunds s) on ints, from one pass:
    p_j = p[j] / P, m_i = money[i] / Q, s_i = s[i] / Q, u_ij = rows[i][j] /
    dens[i], and over X, the allocations' common denominator, good j's column
    sum col[j] / X, buyer i's w_i = w[i] / (dens[i] X) and her spend
    sum_j x_ij p_j = spend[i] / (P X).  ``bought[i]`` lists her goods with
    x_ij > 0, ``holds[i]`` says whether any x_ij is nonzero, and ``neg_x``
    holds the negative entries (i, j) in row order."""

    def __init__(self, inst: MarketInstance, sol):
        n, m = inst.n_buyers, inst.n_goods
        if len(sol.prices) != m or len(sol.allocation) != n or len(sol.returned) != n:
            raise ValueError("dimension mismatch between instance and solution")
        self.p, self.P = over_one_den(sol.prices)
        q, self.Q = over_one_den((*inst.money, *sol.returned))
        self.money, self.s = q[:n], q[n:]
        self.rows, self.dens = zip(*map(over_one_den, inst.utilities))
        nonzero = [(i, j, v) for i, row in enumerate(sol.allocation) for j in inst.goods if (v := row[j])]
        self.X = X = lcm(*(v.denominator for _, _, v in nonzero))
        self.col, self.w, self.spend = [0] * m, [0] * n, [0] * n
        self.bought, self.holds, self.neg_x = [[] for _ in range(n)], [False] * n, []
        for i, j, v in nonzero:
            a = v.numerator * (X // v.denominator)
            self.col[j] += a
            self.w[i] += self.rows[i][j] * a
            self.spend[i] += self.p[j] * a
            self.holds[i] = True
            if a > 0:
                self.bought[i].append(j)
            else:
                self.neg_x.append((i, j))


def _primal(v: _OnInts, sol, supply) -> list[ConditionResult]:
    """The primal conditions both programs share: ``supply``, the results
    on each good's column sum, then nonnegative allocations and refunds."""
    x, s = sol.allocation, sol.returned
    out = list(supply)
    out.append(
        ConditionResult(
            "primal_nonneg_allocation",
            not v.neg_x,
            min((x[i][j] for i, j in v.neg_x), default=ZERO),
            detail=f"negative entries: {v.neg_x}" if v.neg_x else "",
        )
    )
    neg_s = [i for i, si in enumerate(v.s) if si < 0]
    out.append(ConditionResult("primal_nonneg_refund", not neg_s, min((s[i] for i in neg_s), default=ZERO)))
    return out


def verify_arctic_kkt(inst: MarketInstance, eq: Equilibrium) -> KktReport:
    """Exact check of the auction program's KKT system plus equilibrium facts.

    The dual scalar is not an input: it is 1 whenever any money is returned
    (forced by complementarity) and is chosen as 1, the largest admissible
    value, when no money is returned.
    """
    v = _OnInts(inst, eq)
    X = v.X
    over = [_over(c - X, X) for c in v.col]  # each column sum minus 1
    out = _primal(v, eq, (ConditionResult(f"primal_supply_good_{j}", c <= X, over[j]) for j, c in enumerate(v.col)))
    for j, pj in enumerate(v.p):
        out.append(ConditionResult(f"kkt1_price_nonneg_{j}", pj >= 0, eq.prices[j]))
    for j, pj in enumerate(v.p):
        if pj > 0:
            out.append(ConditionResult(f"kkt2_priced_good_sold_{j}", v.col[j] == X, over[j]))
    out.extend(_dual_conditions(v))
    out.extend(_equilibrium_facts(eq, v))
    out.extend(_trichotomy(eq, v))
    return KktReport(tuple(out), ONE)


def _dual_conditions(v: _OnInts) -> list[ConditionResult]:
    """kkt3-kkt8, shared by the auction and production-cost programs.  Both
    take the dual scalar lam as 1, so lam (w_i + s_i) is written w_i + s_i."""
    lam = ONE
    out = [ConditionResult("kkt3_dual_scalar_bound", lam <= 1, 1 - lam)]
    if sum(v.s) > 0:
        out.append(ConditionResult("kkt4_refund_forces_dual", lam == 1, lam - 1))
    P, Q, X, p = v.P, v.Q, v.X, v.p
    totals = []  # (w_i + s_i) dens[i] X Q, buyer by buyer
    for i, (row, d, mi) in enumerate(zip(v.rows, v.dens, v.money)):
        total = v.w[i] * Q + v.s[i] * d * X
        totals.append(total)
        # u_ij / p_j <= (w_i + s_i) / m_i, cross-multiplied over d X Q P.
        a, den, bought = mi * X * P, d * X * Q * P, set(v.bought[i])
        for j, u in enumerate(row):
            num = u * a - total * p[j]
            residual = _over(num, den)
            out.append(ConditionResult(f"kkt5_ratio_bound_{i}_{j}", num <= 0, residual))
            if j in bought:
                out.append(ConditionResult(f"kkt6_allocated_at_best_ratio_{i}_{j}", num == 0, residual))
    for i, (total, d, mi) in enumerate(zip(totals, v.dens, v.money)):
        if total <= 0:
            out.append(
                ConditionResult(
                    f"kkt7_dual_ratio_{i}", False, Fraction(-1),
                    detail="degenerate buyer: zero utility and zero refund",
                )
            )
            continue
        num = total - mi * d * X
        residual = _over(num, d * X * Q)
        out.append(ConditionResult(f"kkt7_dual_ratio_{i}", num >= 0, residual))
        if v.s[i] > 0:
            out.append(ConditionResult(f"kkt8_refunded_{i}", num == 0, residual))
    return out


def _equilibrium_facts(eq, v: _OnInts) -> list[ConditionResult]:
    """The four per-buyer facts every equilibrium satisfies."""
    P, p = v.P, v.p
    out = []
    for i, (row, d, alpha) in enumerate(zip(v.rows, v.dens, eq.alpha)):
        # alpha_i is the best ratio: u_ij <= alpha_i p_j for all j, with equality
        # at some u_ij > 0.  Compared as ints, never divided: a price may be 0.
        a, b = alpha.numerator, alpha.denominator
        gap = [u * b * P - a * q * d for u, q in zip(row, p)]
        ok = max(gap) <= 0 and 0 in (g for g, u in zip(gap, row) if u > 0)
        out.append(ConditionResult(f"fact_alpha_best_ratio_{i}", ok, ZERO if ok else -ONE))
        bought = v.bought[i]
        if bought:
            ok = all(gap[j] == 0 for j in bought) and a >= b
            out.append(
                ConditionResult(
                    f"fact_mbpb_support_{i}", ok, ZERO if ok else Fraction(-1),
                    detail="every purchased good attains the best ratio, which is >= 1",
                )
            )
        if v.s[i] > 0 and bought:
            ok = a == b and all(p[j] * d == row[j] * P for j in bought)
            out.append(
                ConditionResult(
                    f"fact_mixed_buyer_at_bound_{i}", ok, _over(a - b, b),
                    detail="mixed money/goods buyer purchases at her price ceilings",
                )
            )
        if not bought:
            ok = all(q * d >= u * P for u, q in zip(row, p)) and a <= b
            out.append(
                ConditionResult(
                    f"fact_priced_out_{i}", ok, _over(a - b, b),
                    detail="a buyer with no goods faces prices at or above her ceilings",
                )
            )
    return out


def _trichotomy(eq, v: _OnInts) -> list[ConditionResult]:
    """Exactly one of the three terminal cases holds for each buyer."""
    PX, Q = v.P * v.X, v.Q
    out = []
    for i, (e, si, mi) in enumerate(zip(v.spend, v.s, v.money)):
        alpha = eq.alpha[i]
        a, b = alpha.numerator, alpha.denominator
        # spend_i - m_i, and spend_i + s_i - m_i, over P X Q
        short, left = e * Q - mi * PX, e * Q + (si - mi) * PX
        if a > b:
            ok = si == 0 and short == 0
            residual = _over(short, PX * Q) if si == 0 else eq.returned[i]
        elif a == b:
            ok = left == 0
            residual = _over(left, PX * Q)
        else:
            ok = si == mi and not v.holds[i]
            residual = _over(si - mi, Q)
        out.append(
            ConditionResult(f"trichotomy_{i}", ok, residual, detail=f"alpha={alpha}")
        )
    return out


def verify_market_clearing(inst: MarketInstance, eq: Equilibrium) -> KktReport:
    """All goods fully sold at positive prices; every budget exactly split."""
    v = _OnInts(inst, eq)
    PX, Q, X = v.P * v.X, v.Q, v.X
    out = []
    for j, (pj, c) in enumerate(zip(v.p, v.col)):
        out.append(ConditionResult(f"positive_price_{j}", pj > 0, eq.prices[j]))
        out.append(ConditionResult(f"good_cleared_{j}", c == X, _over(c - X, X)))
    for i, (e, si, mi) in enumerate(zip(v.spend, v.s, v.money)):
        left = e * Q + (si - mi) * PX
        out.append(ConditionResult(f"budget_split_{i}", left == 0, _over(left, PX * Q)))
    return KktReport(tuple(out), ONE)


def verify_cost_kkt(inst, sol) -> KktReport:
    """Exact check of the production-cost program's KKT system.

    ``inst`` is a CostMarketInstance and ``sol`` a CostSolution (duck-typed
    to avoid a circular import).  Includes the zero-profit identity.
    """
    base: MarketInstance = inst.base
    d, y = inst.unit_costs, sol.produced
    v = _OnInts(base, sol)
    P, X = v.P, v.X
    balance = [_over(c * b.denominator - b.numerator * X, X * b.denominator) for c, b in zip(v.col, y)]
    out = _primal(v, sol, (ConditionResult(f"primal_production_balance_{j}", not r, r) for j, r in enumerate(balance)))
    for j, (dj, yj, pj) in enumerate(zip(d, y, v.p)):
        slack = dj.numerator * P - pj * dj.denominator  # d_j - p_j, over d_j's denominator times P
        residual = _over(slack, dj.denominator * P)
        out.append(ConditionResult(f"kkt1_cost_covers_price_{j}", slack >= 0, residual))
        if yj.numerator > 0:
            out.append(ConditionResult(f"kkt2_produced_at_cost_{j}", slack == 0, residual))
    out.extend(_dual_conditions(v))
    # Revenue minus cost, sum_i (m_i - s_i) - sum_j d_j y_j, over the lcm L.
    cost = [(dj.numerator * yj.numerator, dj.denominator * yj.denominator) for dj, yj in zip(d, y)]
    L = lcm(v.Q, *(e for _, e in cost))
    profit = (sum(v.money) - sum(v.s)) * (L // v.Q) - sum(c * (L // e) for c, e in cost)
    out.append(ConditionResult("zero_profit", profit == 0, _over(profit, L)))
    return KktReport(tuple(out), ONE)
