"""Sign-pattern oracle, objective evaluation, balanced-surplus oracle."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import arcticauction
from arcticauction.flownet import FlowNetwork, build_network
from arcticauction.kkt import verify_arctic_kkt, verify_market_clearing
from arcticauction.market import MarketInstance, generate_random_instance
from arcticauction.oracle import (
    OracleSizeError,
    numeric_objective,
    oracle_balanced_surplus,
    oracle_solve,
    perturbed_feasible_point,
    solve_linear,
)

F = Fraction


def inst_of(u, m):
    return MarketInstance(
        money=tuple(F(x) for x in m),
        utilities=tuple(tuple(F(x) for x in row) for row in u),
    )


def test_linear_solver_exact():
    rows = [[F(2), F(1)], [F(1), F(-1)]]
    rhs = [F(4), F(-1)]
    assert solve_linear(rows, rhs) == [F(1), F(2)]
    singular = [[F(1), F(2)], [F(2), F(4)]]
    assert solve_linear(singular, rhs) is None
    # The float screen shares this solver: a tiny leading entry must not be
    # taken as the pivot, or x0 comes out as 0.
    x = solve_linear([[1e-20, 1.0], [1.0, 1.0]], [1.0, 2.0])
    assert x == [pytest.approx(1.0), pytest.approx(1.0)]


def test_oracle_spending_instance():
    r = oracle_solve(inst_of([[2]], [1]))
    assert r.equilibrium.prices == (F(1),)
    assert r.equilibrium.allocation == ((F(1),),)
    assert r.equilibrium.returned == (F(0),)


def test_oracle_mixed_instance():
    r = oracle_solve(inst_of([[F(1, 2)]], [1]))
    assert r.equilibrium.prices == (F(1, 2),)
    assert r.equilibrium.returned == (F(1, 2),)


def test_oracle_symmetric_instance():
    r = oracle_solve(inst_of([[2, 1], [1, 2]], [1, 1]))
    assert r.equilibrium.prices == (F(1), F(1))
    assert r.equilibrium.allocation == ((F(1), F(0)), (F(0), F(1)))


def test_oracle_size_guard():
    inst = generate_random_instance(1, 5, 2, 5)
    with pytest.raises(OracleSizeError):
        oracle_solve(inst)


@pytest.mark.parametrize("seed", range(30))
def test_oracle_output_is_verified_optimum(seed):
    rng = random.Random(seed)
    inst = generate_random_instance(seed, rng.randint(1, 3), rng.randint(1, 3), 8)
    r = oracle_solve(inst)
    assert verify_arctic_kkt(inst, r.equilibrium).overall
    assert verify_market_clearing(inst, r.equilibrium).overall


def test_screenless_path_agrees_with_screened():
    cases = [generate_random_instance(40 + seed, 2, 2, 6) for seed in range(10)]
    cases += [generate_random_instance(60 + seed, 3, 3, 6) for seed in range(6)]
    # Criterion 01's instances with degenerate refund splits, from their seeds.
    cases += [
        generate_random_instance(1000 + k, n, m, 10)
        for k, n, m in ((15, 4, 1), (29, 3, 2), (39, 3, 3), (166, 3, 2), (189, 4, 4))
    ]
    for inst in cases:
        a = oracle_solve(inst, use_screen=True)
        b = oracle_solve(inst, use_screen=False)
        assert a.equilibrium == b.equilibrium
        assert (a.support_x, a.support_s) == (b.support_x, b.support_s)


def test_package_imports_without_numpy():
    src = str(Path(arcticauction.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, arcticauction; assert 'numpy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_numeric_objective_values():
    inst = inst_of([[2]], [1])
    assert numeric_objective(inst, [[F(1)]], [F(0)]) == pytest.approx(math.log(2))
    inst2 = inst_of([[F(1, 2)]], [1])
    assert numeric_objective(inst2, [[F(1)]], [F(1, 2)]) == pytest.approx(-0.5)


def test_numeric_objective_full_refund_closed_form():
    inst = inst_of([[1, 1], [2, 1]], [3, 4])
    x = [[F(0), F(0)], [F(0), F(0)]]
    s = [F(3), F(4)]
    expected = 3 * math.log(3) + 4 * math.log(4) - 7
    assert numeric_objective(inst, x, s) == pytest.approx(expected)


def test_numeric_objective_rejects_destitute_buyer():
    inst = inst_of([[1]], [1])
    with pytest.raises(ValueError):
        numeric_objective(inst, [[F(0)]], [F(0)])


def test_objective_local_maximality_at_oracle_point():
    rng = random.Random(0)
    for seed in range(8):
        inst = generate_random_instance(70 + seed, 2, 2, 6)
        r = oracle_solve(inst)
        base = numeric_objective(inst, r.equilibrium.allocation, r.equilibrium.returned)
        for _ in range(200):
            x, s = perturbed_feasible_point(inst, r.equilibrium, rng, rng.choice([1e-3, 1e-2, 1e-1]))
            try:
                val = numeric_objective(inst, x, s)
            except ValueError:
                continue
            assert val <= base + 1e-9


def test_refund_split_is_not_unique_at_degenerate_instances():
    # Buyers ending at bang-per-buck exactly 1 can legitimately split
    # refunds in more than one way: both corner solutions below pass the
    # full exact optimality check at the same prices.  This is why the
    # solver and the oracle both report one documented corner, the
    # lexicographically maximal refund vector by buyer index (here `two`).
    from arcticauction.market import equilibrium_for_instance

    inst = inst_of([[9], [1], [9]], [8, 5, 9])
    p = (F(9),)
    one = equilibrium_for_instance(inst, p, ((F(8, 9),), (F(0),), (F(1, 9),)), (F(0), F(5), F(8)))
    two = equilibrium_for_instance(inst, p, ((F(0),), (F(0),), (F(1),)), (F(8), F(5), F(0)))
    for candidate in (one, two):
        assert verify_arctic_kkt(inst, candidate).overall
        assert verify_market_clearing(inst, candidate).overall
    assert one.returned != two.returned


def test_balanced_surplus_oracle_shared_good():
    inst = inst_of([[1], [1]], [2, 1])
    net = build_network(inst, {0: F(2)})
    assert oracle_balanced_surplus(net) == {0: F(1, 2), 1: F(1, 2)}


def test_balanced_surplus_oracle_unique_flow():
    net = FlowNetwork(
        goods=(0,),
        buyers=(0,),
        source_caps={0: F(1)},
        sink_caps={0: F(3)},
        edges=frozenset({(0, 0)}),
    )
    assert oracle_balanced_surplus(net) == {0: F(2)}


def test_balanced_surplus_oracle_starved_buyers():
    net = FlowNetwork(
        goods=(0,),
        buyers=(0, 1),
        source_caps={0: F(1)},
        sink_caps={0: F(2), 1: F(3)},
        edges=frozenset(),
    )
    assert oracle_balanced_surplus(net) == {0: F(2), 1: F(3)}


def test_balanced_surplus_oracle_guard():
    net = FlowNetwork(
        goods=(0,),
        buyers=tuple(range(7)),
        source_caps={0: F(1)},
        sink_caps={i: F(1) for i in range(7)},
        edges=frozenset(),
    )
    with pytest.raises(OracleSizeError):
        oracle_balanced_surplus(net)
