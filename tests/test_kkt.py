"""Exact optimality verification: pass on true optima, catch perturbations."""

from dataclasses import replace
from fractions import Fraction

from arcticauction.costmarket import CostMarketInstance, CostSolution
from arcticauction.kkt import verify_arctic_kkt, verify_cost_kkt, verify_market_clearing
from arcticauction.market import MarketInstance, equilibrium_for_instance

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
