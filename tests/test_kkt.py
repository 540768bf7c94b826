"""Exact optimality verification: pass on true optima, catch perturbations."""

import hashlib
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from arcticauction.costmarket import (
    CostMarketInstance,
    CostSolution,
    generate_random_cost_instance,
    solve_cost_market,
)
from arcticauction.kkt import verify_arctic_kkt, verify_cost_kkt, verify_market_clearing
from arcticauction.market import MarketInstance, equilibrium_for_instance, generate_random_instance
from arcticauction.oracle import oracle_cost_solve
from arcticauction.solver import solve

F = Fraction


def inst_of(u, m):
    return MarketInstance(
        money=tuple(F(x) for x in m),
        utilities=tuple(tuple(F(x) for x in row) for row in u),
    )


def eq_of(inst, prices, allocation, returned):
    return equilibrium_for_instance(
        inst,
        tuple(F(p) for p in prices),
        tuple(tuple(F(x) for x in row) for row in allocation),
        tuple(F(s) for s in returned),
    )


def test_spending_buyer_passes():
    inst = inst_of([[2]], [1])
    eq = eq_of(inst, [1], [[1]], [0])
    report = verify_arctic_kkt(inst, eq)
    assert report.overall
    assert report.lam == 1
    # Ratio bound at the optimum: 2/1 <= (2+0)/1.
    names = {c.name: c for c in report.condition_results}
    assert names["kkt5_ratio_bound_0_0"].passed


def test_mixed_buyer_passes():
    inst = inst_of([[F(1, 2)]], [1])
    eq = eq_of(inst, [F(1, 2)], [[1]], [F(1, 2)])
    report = verify_arctic_kkt(inst, eq)
    assert report.overall
    names = {c.name: c for c in report.condition_results}
    # Refund complementarity: 1 = m / (w + s) = 1 / (1/2 + 1/2).
    assert names["kkt8_refunded_0"].passed
    assert names["kkt8_refunded_0"].residual == 0


def test_perturbed_price_fails_allocation_equality():
    inst = inst_of([[F(1, 2)]], [1])
    eq = eq_of(inst, [F(3, 5)], [[1]], [F(1, 2)])
    report = verify_arctic_kkt(inst, eq)
    assert not report.overall
    failed = {c.name for c in report.failures()}
    assert "kkt6_allocated_at_best_ratio_0_0" in failed


def test_oversold_good_fails_primal():
    inst = inst_of([[1], [1]], [1, 1])
    eq = eq_of(inst, [1], [[1], [1]], [0, 0])
    report = verify_arctic_kkt(inst, eq)
    assert not report.overall
    assert any("primal_supply" in c.name for c in report.failures())


def test_degenerate_buyer_is_named():
    inst = inst_of([[1], [1]], [1, 1])
    eq = eq_of(inst, [1], [[1], [0]], [0, 0])
    report = verify_arctic_kkt(inst, eq)
    assert not report.overall
    names = {c.name: c for c in report.failures()}
    assert "kkt7_dual_ratio_1" in names
    assert "degenerate" in names["kkt7_dual_ratio_1"].detail


def test_every_single_condition_perturbation_is_caught():
    inst = inst_of([[2, 1], [1, 2]], [1, 1])
    good = eq_of(inst, [1, 1], [[1, 0], [0, 1]], [0, 0])
    assert verify_arctic_kkt(inst, good).overall

    bad_cases = [
        eq_of(inst, [1, 1], [[F(1, 2), 0], [0, 1]], [0, 0]),  # good 0 unsold
        eq_of(inst, [1, 1], [[1, 0], [0, 1]], [F(1, 2), 0]),  # refund breaks kkt8
        eq_of(inst, [2, 1], [[1, 0], [0, 1]], [0, 0]),  # price off equality
        eq_of(inst, [1, 1], [[1, F(-1, 4)], [F(1, 4), 1]], [0, 0]),  # negative entry
    ]
    for bad in bad_cases:
        report = verify_arctic_kkt(inst, bad)
        assert not report.overall
        # Failing conditions carry a nonzero residual naming the violation.
        assert any(c.residual != 0 for c in report.failures())


def test_forged_alpha_fails_best_ratio():
    # Buyer 1's best ratio at price 5 is 1/5.  Claiming 1 for it made every
    # other condition pass: she buys nothing, her price ceiling 1 is below
    # the price, and her refund is all her money.
    inst = inst_of([[5], [1]], [10, 1])
    eq = eq_of(inst, [5], [[1], [0]], [5, 1])
    assert eq.alpha == (1, F(1, 5))
    assert verify_arctic_kkt(inst, eq).overall
    # (forged alpha, the buyer whose alpha is off)
    for alpha, i in (((1, 1), 1), ((1, F(1, 10)), 1), ((2, F(1, 5)), 0)):
        report = verify_arctic_kkt(inst, replace(eq, alpha=tuple(map(F, alpha))))
        failed = {c.name: c for c in report.failures()}
        assert failed[f"fact_alpha_best_ratio_{i}"].residual != 0


def test_nonpositive_price_fails_without_error():
    # The best-ratio check multiplies, so a price of 0 or below in a forged
    # document fails it instead of dividing by zero.
    inst = inst_of([[5], [1]], [10, 1])
    for price in (0, -5):
        eq = eq_of(inst, [5], [[1], [0]], [5, 1])
        report = verify_arctic_kkt(inst, replace(eq, prices=(F(price),)))
        assert not report.overall
        assert not next(c for c in report.condition_results if c.name == "fact_alpha_best_ratio_0").passed


def test_clearing_checks():
    inst = inst_of([[2]], [1])
    good = eq_of(inst, [1], [[1]], [0])
    assert verify_market_clearing(inst, good).overall
    half = eq_of(inst, [1], [[F(1, 2)]], [0])
    report = verify_market_clearing(inst, half)
    failed = {c.name for c in report.failures()}
    assert "good_cleared_0" in failed
    assert "budget_split_0" in failed
    less = eq_of(inst, [F(1, 2)], [[1]], [F(1, 4)])
    report = verify_market_clearing(inst, less)
    assert "budget_split_0" in {c.name for c in report.failures()}


def cost_solution(prices, allocation, produced, returned, money):
    total_s = sum((F(s) for s in returned), F(0))
    revenue = sum((F(x) for x in money), F(0)) - total_s
    cost = sum((F(p) * F(y) for p, y in zip(prices, produced)), F(0))
    return CostSolution(
        prices=tuple(F(p) for p in prices),
        allocation=tuple(tuple(F(x) for x in row) for row in allocation),
        produced=tuple(F(y) for y in produced),
        returned=tuple(F(s) for s in returned),
        revenue=revenue,
        profit=revenue - cost,
    )


def test_cost_kkt_spending_buyer():
    inst = CostMarketInstance(base=inst_of([[2, 1]], [3]), unit_costs=(F(1), F(2)))
    sol = cost_solution([1, 2], [[3, 0]], [3, 0], [0], [3])
    report = verify_cost_kkt(inst, sol)
    assert report.overall
    names = {c.name: c for c in report.condition_results}
    assert names["zero_profit"].passed


def test_cost_kkt_priced_out_buyer():
    inst = CostMarketInstance(base=inst_of([[F(1, 2), 1]], [5]), unit_costs=(F(1), F(2)))
    sol = cost_solution([1, 2], [[0, 0]], [0, 0], [5], [5])
    assert verify_cost_kkt(inst, sol).overall


def test_cost_kkt_selling_off_cost_fails():
    inst = CostMarketInstance(base=inst_of([[2, 1]], [3]), unit_costs=(F(1), F(2)))
    sol = cost_solution([F(1, 2), 2], [[6, 0]], [6, 0], [0], [3])
    report = verify_cost_kkt(inst, sol)
    assert not report.overall
    assert any(c.name == "kkt2_produced_at_cost_0" for c in report.failures())


def test_both_programs_name_negative_allocations_alike():
    # The auction and cost reports share one primal check, so both name the
    # negative entries of an allocation, with the same names in one order.
    inst = inst_of([[2, 1]], [3])
    eq = eq_of(inst, [3, 1], [[1, -1]], [1])
    sol = cost_solution([1, 2], [[4, -1]], [4, -1], [0], [3])
    cost_inst = CostMarketInstance(base=inst, unit_costs=(F(1), F(2)))
    reports = (
        (verify_arctic_kkt(inst, eq), "primal_supply_good_"),
        (verify_cost_kkt(cost_inst, sol), "primal_production_balance_"),
    )
    for report, first in reports:
        names = [c.name for c in report.condition_results]
        assert names[:4] == [first + "0", first + "1", "primal_nonneg_allocation", "primal_nonneg_refund"]
        alloc = report.condition_results[2]
        assert not alloc.passed and alloc.residual == -1
        assert alloc.detail == "negative entries: [(0, 1)]"


def test_every_verifier_rejects_a_solution_of_the_wrong_shape():
    inst = inst_of([[2, 1]], [3])
    eq = eq_of(inst, [3, 1], [[1, 0]], [0])
    cost_inst = CostMarketInstance(base=inst, unit_costs=(F(1), F(2)))
    sol = cost_solution([1, 2], [[3, 0]], [3, 0], [0], [3])
    cases = ((verify_arctic_kkt, inst, eq), (verify_market_clearing, inst, eq), (verify_cost_kkt, cost_inst, sol))
    for field, value in (("prices", (F(1),)), ("allocation", ((F(1), F(0)),) * 2), ("returned", ())):
        for verify, market, doc in cases:
            with pytest.raises(ValueError, match="dimension mismatch"):
                verify(market, replace(doc, **{field: value}))


def _report_digest(reports) -> str:
    """sha256 over each report's to_json() and its (name, passed, residual, detail) tuples."""
    digest = hashlib.sha256()
    for report in reports:
        digest.update(report.to_json().encode())
        rows = [(c.name, c.passed, c.residual, c.detail) for c in report.condition_results]
        digest.update(repr(rows).encode())
    return digest.hexdigest()


def _pinned_reports(oracle_results):
    """Every report the digest below pins, passing and failing, in a fixed
    order; ``oracle_results`` are the criterion_01_oracle fixture's."""
    rng = random.Random(424242)
    shapes = [(rng.randint(1, 4), rng.randint(1, 4)) for _ in range(200)]
    # Criterion 01's corpus: the solver's and the oracle's equilibria.
    for k, ((n, m), result) in enumerate(zip(shapes, oracle_results, strict=True)):
        inst = generate_random_instance(1000 + k, n, m, 10)
        for eq in (solve(inst)[0], result.equilibrium):
            yield verify_arctic_kkt(inst, eq)
            yield verify_market_clearing(inst, eq)
    # The greedy and the oracle cost solutions of the same shapes.
    for k, (n, m) in enumerate(shapes):
        inst = generate_random_cost_instance(1000 + k, n, m, 10)
        yield verify_cost_kkt(inst, solve_cost_market(inst))
        yield verify_cost_kkt(inst, oracle_cost_solve(inst))
    # The single-condition perturbations and the other failing documents above.
    inst = inst_of([[2, 1], [1, 2]], [1, 1])
    docs = [
        (inst, eq_of(inst, [1, 1], [[1, 0], [0, 1]], [0, 0])),
        (inst, eq_of(inst, [1, 1], [[F(1, 2), 0], [0, 1]], [0, 0])),
        (inst, eq_of(inst, [1, 1], [[1, 0], [0, 1]], [F(1, 2), 0])),
        (inst, eq_of(inst, [2, 1], [[1, 0], [0, 1]], [0, 0])),
        (inst, eq_of(inst, [1, 1], [[1, F(-1, 4)], [F(1, 4), 1]], [0, 0])),
    ]
    inst = inst_of([[5], [1]], [10, 1])
    eq = eq_of(inst, [5], [[1], [0]], [5, 1])
    docs += [(inst, replace(eq, alpha=tuple(map(F, a)))) for a in ((1, 1), (1, F(1, 10)), (2, F(1, 5)))]
    docs += [(inst, replace(eq, prices=(F(price),))) for price in (0, -5)]
    inst = inst_of([[1], [1]], [1, 1])
    docs += [(inst, eq_of(inst, [1], [[1], [1]], [0, 0])), (inst, eq_of(inst, [1], [[1], [0]], [0, 0]))]
    inst = inst_of([[F(1, 2)]], [1])
    docs += [(inst, eq_of(inst, [F(3, 5)], [[1]], [F(1, 2)]))]
    inst = inst_of([[2]], [1])
    docs += [(inst, eq_of(inst, [1], [[F(1, 2)]], [0])), (inst, eq_of(inst, [F(1, 2)], [[1]], [F(1, 4)]))]
    inst = inst_of([[2, 1]], [3])
    docs += [(inst, eq_of(inst, [3, 1], [[1, -1]], [1]))]
    for inst, eq in docs:
        yield verify_arctic_kkt(inst, eq)
        yield verify_market_clearing(inst, eq)
    base = inst_of([[2, 1]], [3])
    cost_inst = CostMarketInstance(base=base, unit_costs=(F(1), F(2)))
    yield verify_cost_kkt(cost_inst, cost_solution([F(1, 2), 2], [[6, 0]], [6, 0], [0], [3]))
    yield verify_cost_kkt(cost_inst, cost_solution([1, 2], [[4, -1]], [4, -1], [0], [3]))
    yield verify_cost_kkt(cost_inst, cost_solution([1, 2], [[1, 0]], [2, 1], [1], [3]))


def test_reports_are_pinned(criterion_01_oracle):
    # Every condition's name, order, flag, residual and detail, passing or
    # failing, and the report's JSON, byte for byte.
    assert _report_digest(_pinned_reports(criterion_01_oracle[0])) == "adb8589d49d0f95d4a4b8950314b531617d4e6a312f5c4c71fe44dc29359210d"
