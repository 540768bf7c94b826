"""Sign-pattern oracle; the reference objective evaluation and balanced-surplus oracle."""

import ast
import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import arcticauction
from arcticauction import oracle
from arcticauction.flownet import FlowNetwork
from arcticauction.kkt import verify_arctic_kkt, verify_market_clearing
from arcticauction.market import (
    Equilibrium,
    MarketInstance,
    equilibrium_for_instance,
    generate_random_instance,
    serialize_equilibrium,
)
from arcticauction.oracle import (
    ONE,
    ZERO,
    OracleError,
    OracleSizeError,
    _forest,
    _levels,
    _pattern_equilibrium,
    _peel,
    _rank,
    _rho,
    oracle_solve,
    solve_linear,
)
from reference import build_network, numeric_objective, oracle_balanced_surplus, perturbed_feasible_point

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
    # Each column pivots on its largest entry: with floats, a tiny leading
    # entry taken as the pivot would make x0 come out as 0.
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


# Instances with many ties, and criterion 01's instances with degenerate
# refund splits, from their seeds.
PIN_CASES = (
    [(40 + seed, 2, 2, 6) for seed in range(10)]
    + [(60 + seed, 3, 3, 6) for seed in range(6)]
    + [(1000 + k, n, m, 10) for k, n, m in ((15, 4, 1), (29, 3, 2), (39, 3, 3), (166, 3, 2), (189, 4, 4))]
)


def _build_system(inst: MarketInstance, K, L):
    """Square linear system over (q_j, x_K, s_L); q_j stands for 1/p_j.

    The reference for the oracle's leaf peeling: solve_linear on it gives
    a sign pattern's unique solution, or None when it has none.
    """
    m = inst.n_goods
    k, l = len(K), len(L)
    size = m + k + l
    x_index = {pair: m + idx for idx, pair in enumerate(K)}
    s_index = {i: m + k + idx for idx, i in enumerate(L)}
    zero = inst.money[0] * 0
    one = zero + 1
    rows = [[zero] * size for _ in range(size)]
    rhs = [zero] * size
    for j in range(m):
        for (i, jj) in K:
            if jj == j:
                rows[j][x_index[(i, jj)]] = one
        rhs[j] = one
    for r, (i, j) in enumerate(K, start=m):
        rows[r][j] = inst.utilities[i][j] * inst.money[i]
        for (ii, jj) in K:
            if ii == i:
                rows[r][x_index[(ii, jj)]] -= inst.utilities[i][jj]
        if i in s_index:
            rows[r][s_index[i]] -= one
    for r, i in enumerate(L, start=m + k):
        for (ii, jj) in K:
            if ii == i:
                rows[r][x_index[(ii, jj)]] = inst.utilities[i][jj]
        rows[r][s_index[i]] = one
        rhs[r] = inst.money[i]
    return rows, rhs


def _patterns(inst: MarketInstance):
    """The sign patterns (K, L) oracle_solve looks at, in its order, up to
    the first total size with a verified pattern."""
    n, m = inst.n_buyers, inst.n_goods
    pairs = [(i, j) for i in inst.buyers for j in inst.goods if inst.utilities[i][j] > 0]
    for total in range(m, len(pairs) + n + 1):
        found = False
        for k in range(m, min(len(pairs), total) + 1):
            for K in itertools.combinations(pairs, k):
                mandatory = set(inst.buyers) - {i for (i, _) in K}
                if {j for (_, j) in K} != set(inst.goods) or len(mandatory) > total - k:
                    continue
                for L in itertools.combinations(inst.buyers, total - k):
                    if mandatory <= set(L):
                        if _rank(K) == len(K):
                            forest = _forest(inst, K)
                            rho = _rho(inst, forest, K)
                            if rho is not None:
                                found = found or _pattern_equilibrium(inst, forest, rho, L) is not None
                        yield K, L
        if found:
            return


@pytest.mark.parametrize("case", PIN_CASES, ids=lambda c: "-".join(map(str, c)))
def test_leaf_peel_is_the_gaussian_solution(case):
    # On a forest pattern the leaf peel is the system's one solution; any
    # other pattern is singular or, on a cycle whose utility ratios do not
    # multiply to 1, forces some q_j = 1/p_j to 0, so it never has an
    # equilibrium.
    inst = generate_random_instance(*case)
    m = inst.n_goods
    forests = 0
    for K, L in _patterns(inst):
        sol = solve_linear(*_build_system(inst, K, L))
        forest = _forest(inst, K) if _rank(K) == len(K) else None
        level = None if forest is None else _levels(forest, L)
        if level is None:
            assert sol is None or min(sol[:m]) <= 0
            continue
        forests += 1
        prices, x, s = _peel(inst, forest, L, level)
        assert sol is not None
        assert sol[:m] == [1 / p for p in prices]
        assert sol[m:m + len(K)] == [x[i][j] for i, j in K]
        assert sol[m + len(K):] == [s[i] for i in L]
        assert all(s[i] == 0 for i in inst.buyers if i not in L)
        assert all(x[i][j] == 0 for i in inst.buyers for j in inst.goods if (i, j) not in K)
    assert forests > 0


def _gaussian_lex_max_optimum(inst: MarketInstance, eq: Equilibrium) -> Equilibrium:
    """The reference for _lex_max_optimum's leaf peel: the same basis scan,
    each basis solved by Gaussian elimination."""
    p, alpha = eq.prices, eq.alpha
    ones = [i for i in inst.buyers if alpha[i] == 1]
    if len(ones) < 2:
        return eq
    buyers = [i for i in inst.buyers if alpha[i] >= 1]
    columns = [
        (i, j) for i in buyers for j in inst.goods
        if inst.utilities[i][j] == alpha[i] * p[j]
    ] + [(i, None) for i in ones]
    rows = [("g", j) for j in inst.goods] + [("b", i) for i in buyers]
    rhs = [ONE] * inst.n_goods + [inst.money[i] for i in buyers]

    def entry(row, col):
        # Goods rows sum allocations; budget rows sum spends and the refund.
        i, j = col
        if row == ("g", j):
            return ONE
        if row == ("b", i):
            return ONE if j is None else p[j]
        return ZERO

    best = None
    rank = _rank(columns)
    for support in itertools.combinations(columns, rank):
        if _rank(support) < rank:
            continue
        sol = solve_linear([[entry(r, c) for c in support] for r in rows], rhs)
        if sol is None or any(v < 0 for v in sol):
            continue
        value = dict(zip(support, sol))
        x = [[value.get((i, j), ZERO) for j in inst.goods] for i in inst.buyers]
        s = tuple(
            value.get((i, None), ZERO) if alpha[i] >= 1 else inst.money[i]
            for i in inst.buyers
        )
        if best is None or s > best.returned:
            best = equilibrium_for_instance(inst, p, tuple(map(tuple, x)), s)
    if best is None:
        raise OracleError("the optimal face at the oracle's prices has no vertex")
    if not (verify_arctic_kkt(inst, best).overall and verify_market_clearing(inst, best).overall):
        raise OracleError("the lexicographically maximal refund split fails verification")
    return best if best.returned != eq.returned else eq


def _all_ties(n, m):
    """Every utility 5, money 10, 11, ...: every buyer ends at alpha = 1."""
    return inst_of([[5] * m for _ in range(n)], [10 + i for i in range(n)])


def test_lex_max_optimum_peel_is_the_gaussian_solution(monkeypatch):
    # On the eq that oracle_solve hands it, the leaf-peeled basis scan
    # returns the Gaussian reference's equilibrium, and the same object
    # when nothing moves.
    seen = []
    lex_max = oracle._lex_max_optimum

    def record(inst, eq):
        out = lex_max(inst, eq)
        seen.append((inst, eq, out))
        return out

    monkeypatch.setattr(oracle, "_lex_max_optimum", record)
    corpus = []
    for k in range(300):
        rng = random.Random(k)
        n, m = rng.randint(2, 3), rng.randint(1, 3)
        corpus.append(generate_random_instance(9000 + k, n, m, 3))
    for inst in corpus + [_all_ties(3, 3), _all_ties(3, 2), _all_ties(2, 3)]:
        oracle_solve(inst)
    reached = moved = 0
    for inst, eq, out in seen:
        ref = _gaussian_lex_max_optimum(inst, eq)
        assert out == ref
        assert (out is eq) == (ref is eq)
        reached += sum(a == 1 for a in eq.alpha) >= 2
        moved += out is not eq
    assert (len(seen), reached, moved) == (303, 106, 39)


def test_oracle_answers_pinned():
    digest = hashlib.sha256()
    for case in PIN_CASES:
        r = oracle_solve(generate_random_instance(*case))
        digest.update(serialize_equilibrium(r.equilibrium).encode())
        digest.update(repr((r.support_x, r.support_s)).encode())
    assert digest.hexdigest() == "8163c6f978032c2a3f523e5ca05e80b2b7a07bf886fcda5f892ae330f660e0a1"


def test_oracle_search_is_exact_end_to_end():
    # oracle_solve and every function of its module that it reaches,
    # _lex_max_optimum included, use no float(), no float literal and no
    # math call.
    tree = ast.parse(Path(oracle.__file__).read_text())
    defs = {d.name: d for d in tree.body if isinstance(d, (ast.FunctionDef, ast.ClassDef))}
    reached, todo, offenders = set(), ["oracle_solve"], []
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        for node in ast.walk(defs[name]):
            if isinstance(node, ast.Constant) and isinstance(node.value, float):
                offenders.append((name, node.lineno, repr(node.value)))
            elif (isinstance(node, ast.Name) and node.id == "float") or (
                isinstance(node, ast.Attribute) and ast.unparse(node.value) == "math"
            ):
                offenders.append((name, node.lineno, ast.unparse(node)))
            if isinstance(node, ast.Name) and node.id in defs:
                todo.append(node.id)
    assert not offenders, offenders
    assert {"_forest", "_levels", "_peel", "_pattern_equilibrium", "_lex_max_optimum"} <= reached
    assert "solve_linear" not in reached


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
