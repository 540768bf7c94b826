"""Production-cost market: greedy solver, profit identity, oracle agreement."""

from fractions import Fraction

import pytest

from arcticauction.costmarket import (
    CostMarketInstance,
    generate_random_cost_instance,
    parse_cost_instance,
    parse_cost_solution,
    serialize_cost_instance,
    serialize_cost_solution,
    solve_cost_market,
)
from arcticauction.kkt import verify_cost_kkt
from arcticauction.market import MarketFormatError, MarketInstance
from arcticauction.oracle import oracle_cost_solve
from reference import profit

F = Fraction


def cost_inst(u, m, d):
    base = MarketInstance(
        money=tuple(F(x) for x in m),
        utilities=tuple(tuple(F(x) for x in row) for row in u),
    )
    return CostMarketInstance(base=base, unit_costs=tuple(F(x) for x in d))


def test_greedy_single_spender():
    inst = cost_inst([[2, 1]], [3], [1, 2])
    sol = solve_cost_market(inst)
    assert sol.prices == (F(1), F(2))
    assert sol.allocation == ((F(3), F(0)),)
    assert sol.produced == (F(3), F(0))
    assert sol.returned == (F(0),)
    assert sol.profit == 0


def test_greedy_priced_out_buyer():
    inst = cost_inst([[F(1, 2), 1]], [5], [1, 2])
    sol = solve_cost_market(inst)
    assert sol.returned == (F(5),)
    assert sol.produced == (F(0), F(0))
    assert sol.profit == 0


def test_greedy_tie_goes_to_lowest_index():
    inst = cost_inst([[2, 4]], [2], [1, 2])
    sol = solve_cost_market(inst)
    assert sol.allocation == ((F(2), F(0)),)


def test_greedy_output_passes_kkt():
    for seed in range(40):
        inst = generate_random_cost_instance(seed, 1 + seed % 3, 1 + seed % 2, 10)
        sol = solve_cost_market(inst)
        assert verify_cost_kkt(inst, sol).overall
        assert sol.profit == 0


def test_profit_recomputation():
    inst = cost_inst([[2, 1]], [3], [1, 2])
    sol = solve_cost_market(inst)
    assert profit(inst, sol) == 0


def test_profit_negative_when_selling_below_cost():
    from arcticauction.costmarket import CostSolution

    inst = cost_inst([[2]], [3], [2])
    below = CostSolution(
        prices=(F(1),),
        allocation=((F(3),),),
        produced=(F(3),),
        returned=(F(0),),
        revenue=F(3),
        profit=F(3) - F(6),
    )
    assert profit(inst, below) == -3


def test_produced_at_cost_whenever_sold():
    for seed in range(30):
        inst = generate_random_cost_instance(100 + seed, 3, 3, 10)
        sol = solve_cost_market(inst)
        for j in inst.base.goods:
            if sol.produced[j] > 0:
                assert sol.prices[j] == inst.unit_costs[j]


def test_buyer_trichotomy_of_the_greedy():
    for seed in range(30):
        inst = generate_random_cost_instance(200 + seed, 3, 3, 10)
        sol = solve_cost_market(inst)
        for i in inst.base.buyers:
            alpha = max(
                inst.base.utilities[i][j] / inst.unit_costs[j]
                for j in inst.base.goods
            )
            if alpha >= 1:
                assert sol.returned[i] == 0
            else:
                assert sol.returned[i] == inst.base.money[i]


def test_oracle_agreement_including_indifferent_buyers():
    # alpha = 1 buyers admit both spend-all and refund-all; the oracle keeps
    # the revenue-maximal one, which is what the greedy produces.
    inst = cost_inst([[1], [3]], [4, 2], [1])
    sol = solve_cost_market(inst)
    osol = oracle_cost_solve(inst)
    assert sol.prices == osol.prices
    assert sol.returned == osol.returned
    assert sol.revenue == osol.revenue
    assert osol.profit == 0


def test_oracle_agreement_randomized():
    for seed in range(40):
        inst = generate_random_cost_instance(300 + seed, 1 + seed % 3, 1 + (seed // 2) % 3, 8)
        sol = solve_cost_market(inst)
        osol = oracle_cost_solve(inst)
        assert sol.prices == osol.prices
        assert sol.returned == osol.returned


def test_cost_instance_round_trip():
    inst = cost_inst([[2, 1], [1, 3]], [3, 4], [1, 2])
    back = parse_cost_instance(serialize_cost_instance(inst))
    assert back == inst


def test_cost_solution_round_trip():
    inst = cost_inst([[2, 1]], [3], [1, 2])
    sol = solve_cost_market(inst)
    back = parse_cost_solution(serialize_cost_solution(sol))
    assert back == sol


def test_cost_instance_requires_costs_field():
    with pytest.raises(MarketFormatError, match="costs"):
        parse_cost_instance('{"money":["1"],"utilities":[["2"]]}')


def test_cost_instance_rejects_nonpositive_costs():
    with pytest.raises(MarketFormatError):
        cost_inst([[1]], [1], [0])


@pytest.mark.parametrize("cost", [1.5, True, "1"], ids=["float", "bool", "str"])
def test_cost_instance_rejects_a_cost_that_is_not_rational(cost):
    # Like money and utilities, a unit cost must be an int or a Fraction; a
    # float, a bool or a str is refused before it reaches the solver.
    base = MarketInstance(money=(F(1),), utilities=((F(2), F(1)),))
    with pytest.raises(MarketFormatError, match="not an int or a Fraction"):
        CostMarketInstance(base=base, unit_costs=(cost, F(1)))
