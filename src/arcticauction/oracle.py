"""Independent ground truth for small instances, in exact rationals only.

Two separate engines cross-check the main machinery:

* oracle_solve guesses the sign pattern of an optimum (which allocations and
  refunds are strictly positive) and keeps the first guess that survives a
  full exact optimality check.  Only forest patterns are solved, exactly by
  peeling leaves, and most fail on their prices alone.  The prices fix the
  optimal face; when refunds can split several ways, its vertices, forests
  too, are enumerated and leaf-peeled the same way, and the one with the
  lexicographically maximal refund vector by buyer index is reported, the
  rule the solver follows too.
* oracle_cost_solve enumerates per-buyer sign patterns of the production
  market at cost prices and keeps the revenue-maximal pattern passing the
  exact check.

The balanced-surplus enumeration and the floating objective that the tests
also hold the solver to are in ``tests/reference.py``.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .costmarket import CostMarketInstance, CostSolution, _cost_solution
from .kkt import verify_arctic_kkt, verify_cost_kkt, verify_market_clearing
from .market import Equilibrium, MarketInstance, equilibrium_for_instance, mbpb

ZERO = Fraction(0)
ONE = Fraction(1)

# Enumeration guards: oracle_solve's n and m, oracle_cost_solve's sqrt(nm).
SOLVE_GUARD = 4
COST_GUARD = 16


class OracleError(RuntimeError):
    """No sign pattern produced a verified solution; should never happen."""


class OracleSizeError(ValueError):
    """Instance exceeds the enumeration guard."""


@dataclass(frozen=True)
class OracleResult:
    equilibrium: Equilibrium
    support_x: tuple[tuple[int, int], ...]
    support_s: tuple[int, ...]


def solve_linear(rows: list[list[Fraction]], rhs: list[Fraction]):
    """Gaussian elimination on a system with no more unknowns than equations;
    its unique solution, or None when the columns are dependent (a square
    system is singular) or the equations clash.

    Each column pivots on its largest-magnitude entry, so with Fractions the
    result is exact and the pivot order does not change it.  No function of
    the package calls it: it stays as the Gaussian reference that the tests
    hold the leaf peel to, and as the oracle's linear-algebra layer that
    the benchmark's tracer spans by name.
    """
    n = len(rows[0]) if rows else 0
    a = [list(row) + [rhs[k]] for k, row in enumerate(rows)]
    for col in range(n):
        piv = max(range(col, len(a)), key=lambda r: abs(a[r][col]))
        if a[piv][col] == 0:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = a[col][col]
        for r in range(col + 1, len(a)):
            if a[r][col] == 0:
                continue
            factor = a[r][col] / inv
            for c in range(col, n + 1):
                a[r][c] -= factor * a[col][c]
    if any(row[n] != 0 for row in a[n:]):
        return None
    out = [ZERO] * n
    for r in range(n - 1, -1, -1):
        acc = a[r][n]
        for c in range(r + 1, n):
            acc -= a[r][c] * out[c]
        out[r] = acc / a[r][r]
    return out


class _Forest(NamedTuple):
    """A forest pattern K, solved up to one money level per tree."""

    tree_of_good: list  # good j costs level[tree_of_good[j]] * rel[j]
    rel: list
    covered: dict  # buyer i of K -> (its tree t, beta), alpha_i = beta / level[t]
    rel_sum: list  # per tree: the sum of its rel,
    money_level: list  # and its level with no refund buyer: its buyers' money / rel_sum
    peel: list  # K's edges (i, j, whether i is the child), leaves first


def _forest(inst: MarketInstance, K) -> _Forest:
    """The trees and relative prices of K, which must have no cycle (see _rank)."""
    u = inst.utilities
    goods_of, buyers_of = defaultdict(list), defaultdict(list)
    for i, j in K:
        goods_of[i].append(j)
        buyers_of[j].append(i)
    tree_of_good, rel = [None] * inst.n_goods, [None] * inst.n_goods
    covered, money, rel_sum, peel = {}, [], [], []
    for root in inst.goods:
        if tree_of_good[root] is not None:
            continue
        t, tree = len(money), [root]
        tree_of_good[root], rel[root] = t, ONE
        money.append(ZERO)
        rel_sum.append(ONE)
        for j in tree:  # breadth first, while the tree grows
            for i in buyers_of[j]:
                if i in covered:
                    continue  # j's parent
                beta = u[i][j] / rel[j]
                covered[i] = (t, beta)
                money[t] += inst.money[i]
                peel.append((i, j, True))
                for g in goods_of[i]:
                    if g != j:  # u_ij / p_j = u_ig / p_g
                        tree_of_good[g], rel[g] = t, u[i][g] / beta
                        rel_sum[t] += rel[g]
                        tree.append(g)
                        peel.append((i, g, False))
    money_level = [a / b for a, b in zip(money, rel_sum)]
    return _Forest(tree_of_good, rel, covered, rel_sum, money_level, peel[::-1])


def _rho(inst: MarketInstance, forest: _Forest, K) -> list | None:
    """Per buyer: {other tree t: max u_ij / rel[j] over t's goods}; None when
    a buyer strictly prefers a good of its own tree to its K goods, at any
    level."""
    u, tree_of_good, rel, pairs = inst.utilities, forest.tree_of_good, forest.rel, set(K)
    if any(
        u[i][j] > beta * rel[j]
        for i, (t, beta) in forest.covered.items()
        for j in inst.goods
        if tree_of_good[j] == t and (i, j) not in pairs
    ):
        return None
    rho = [{} for _ in inst.buyers]
    for i in inst.buyers:
        own = forest.covered[i][0] if i in forest.covered else None
        for j in inst.goods:
            if u[i][j] and tree_of_good[j] != own:
                t = tree_of_good[j]
                rho[i][t] = max(rho[i].get(t, ZERO), u[i][j] / rel[j])
    return rho


def _levels(forest: _Forest, L):
    """Each tree's level when L's buyers take refunds; None when two of them
    share a tree or a level is not positive."""
    level = list(forest.money_level)
    refunded = set()
    for i in L:
        if i in forest.covered:
            t, level[t] = forest.covered[i]
            if t in refunded:
                return None
            refunded.add(t)
    return level if all(v > 0 for v in level) else None


def _peel(inst: MarketInstance, forest: _Forest, L, level):
    """Prices, allocation rows and refunds of the forest pattern (K, L) at
    the given levels; each leaf edge carries what its leaf has left."""
    prices = tuple(level[t] * r for t, r in zip(forest.tree_of_good, forest.rel))
    s = [ZERO] * inst.n_buyers
    for i in inst.buyers:
        if i not in forest.covered:
            s[i] = inst.money[i]
        elif i in L:  # what its tree's money exceeds its goods' prices by
            t = forest.covered[i][0]
            s[i] = (forest.money_level[t] - level[t]) * forest.rel_sum[t]
    to_spend = [inst.money[i] - s[i] for i in inst.buyers]
    to_receive = list(prices)
    x = [[ZERO] * inst.n_goods for _ in inst.buyers]
    for i, j, buyer_is_child in forest.peel:
        spend = to_spend[i] if buyer_is_child else to_receive[j]
        to_spend[i] -= spend
        to_receive[j] -= spend
        x[i][j] = spend / prices[j]
    return prices, x, s


def _pattern_equilibrium(inst: MarketInstance, forest: _Forest, rho, L) -> Equilibrium | None:
    """The verified equilibrium of the forest pattern (K, L), or None; rho
    is _rho's table for K.

    Most patterns fail on their prices alone: KKT needs alpha >= 1 for every
    buyer of K, and no buyer may strictly prefer a good to its K goods, or
    to a refund when K does not cover it.
    """
    level = _levels(forest, L)
    if level is None:
        return None
    for i in inst.buyers:
        t, beta = forest.covered.get(i, (None, ONE))
        own = ONE if t is None else level[t]
        # alpha = beta / own, and r / level[t2] is the best ratio in tree t2
        if beta < own or any(r * own > beta * level[t2] for t2, r in rho[i].items()):
            return None
    prices, x, s = _peel(inst, forest, L, level)
    if any(v < 0 for row in x for v in row) or any(v < 0 for v in s):
        return None
    eq = equilibrium_for_instance(inst, prices, tuple(map(tuple, x)), tuple(s))
    if verify_arctic_kkt(inst, eq).overall and verify_market_clearing(inst, eq).overall:
        return eq
    return None


def oracle_solve(inst: MarketInstance) -> OracleResult:
    """Exact equilibrium by sign-pattern enumeration, smallest patterns first.

    A pattern is K, the allocations, and L, the refunds, taken strictly
    positive.  All patterns of the first successful total size are
    evaluated; their price vectors must agree exactly (a clash would
    disprove optimum uniqueness and is treated as a hard failure).  At
    those prices the reported optimum is the one whose refund vector is
    lexicographically maximal by buyer index (see _lex_max_optimum); when
    that moves the refunds, the supports are the positive entries of the
    moved optimum.

    Only forest patterns are solved: those whose graph as in _rank, with an
    edge per pair of K and a ground edge per buyer of L, is a forest.  Such
    a pattern's linear system (goods sold out, u_ij m_i / p_j = w_i + s_i
    on K, w_i + s_i = m_i on L) has one solution, the one _levels and _peel
    compute: on a tree, p_j' / p_j = u_ij' / u_ij fixes the prices up to one
    level; the tree's one refund buyer fixes the level by alpha = 1, or
    else the goods sell for the buyers' money; the refund balances the
    tree; and each leaf edge carries what its leaf has left.  Every other
    pattern is singular or prices a good at infinity.  Around a cycle of
    goods and buyers, allocation can shift with every good still sold out
    and every buyer's utility fixed: a null direction, unless the cycle's
    utility ratios do not multiply to 1, which forces 1 / p_j = 0.  Two
    refund buyers in one tree close a cycle through the ground: shift spend
    along the path between them and let their refunds compensate.
    """
    n, m = inst.n_buyers, inst.n_goods
    if n > SOLVE_GUARD or m > SOLVE_GUARD:
        raise OracleSizeError(f"instance {n}x{m} exceeds the {SOLVE_GUARD} guard")
    pairs = [(i, j) for i in inst.buyers for j in inst.goods if inst.utilities[i][j] > 0]
    all_buyers = frozenset(inst.buyers)
    all_goods = frozenset(inst.goods)
    forests: dict = {}  # K -> its _Forest and _rho table, or None on a cycle or no table

    for total in range(m, len(pairs) + n + 1):
        tier: list[tuple[Equilibrium, tuple, tuple]] = []
        for k in range(m, min(len(pairs), total) + 1):
            l = total - k
            if not 0 <= l <= n:
                continue
            for K in itertools.combinations(pairs, k):
                mandatory = all_buyers - {i for (i, _) in K}
                if {j for (_, j) in K} != all_goods or len(mandatory) > l:
                    continue
                if K not in forests:
                    forests[K] = None
                    if _rank(K) == len(K):
                        forest = _forest(inst, K)
                        rho = _rho(inst, forest, K)
                        if rho is not None:
                            forests[K] = forest, rho
                if forests[K] is None:
                    continue
                forest, rho = forests[K]
                for L in itertools.combinations(sorted(all_buyers), l):
                    if mandatory <= set(L):
                        eq = _pattern_equilibrium(inst, forest, rho, L)
                        if eq is not None:
                            tier.append((eq, K, L))
        if tier:
            first = tier[0]
            for other, _, _ in tier[1:]:
                if other.prices != first[0].prices:
                    raise OracleError("two verified sign patterns disagree on prices")
            eq, K, L = first
            best = _lex_max_optimum(inst, eq)
            if best is not eq:
                K = [(i, j) for i in inst.buyers for j in inst.goods if best.allocation[i][j] > 0]
                L = [i for i in inst.buyers if best.returned[i] > 0]
            return OracleResult(best, tuple(K), tuple(L))
    raise OracleError("no sign pattern yields a verified equilibrium")


def _rank(columns) -> int:
    """Rank of a set of the optimal face's columns (see _lex_max_optimum).

    Column (i, j) is e_j + p_j e_i and a refund column (i, None) is e_i.
    Take the graph on goods, buyers and a ground vertex ("g", None), each
    column joining its buyer to its good or to the ground.  Around any
    cycle through goods and buyers the prices cancel, so the cycle's
    columns are dependent; a set of columns is independent exactly when it
    is a forest, and the rank is the size of a spanning forest.
    oracle_solve applies the same test to a sign pattern's pairs.
    """
    root: dict = {}

    def find(v):
        while v in root:
            v = root[v]
        return v

    rank = 0
    for i, j in columns:
        a, b = find(("b", i)), find(("g", j))
        if a != b:
            root[a] = b
            rank += 1
    return rank


def _lex_max_optimum(inst: MarketInstance, eq: Equilibrium) -> Equilibrium:
    """The optimum at eq's prices with lexicographically maximal refunds.

    At fixed prices the optimal face is a polytope in the allocation: x on
    the best-ratio edges of buyers with bang-per-buck alpha >= 1, every
    good's column summing to 1, buyers with alpha > 1 spending exactly their
    money and buyers at alpha == 1 at most theirs, the rest being their
    refund.  Other buyers get everything back.  With fewer than two buyers
    at alpha == 1 every refund is forced and eq is returned as it is.
    Otherwise every vertex is enumerated as a basis of the face's columns
    (allocations, and refunds of the alpha == 1 buyers) with a nonnegative
    solution, and the first with the largest refund vector by buyer index
    is kept; eq itself when its refunds are already those.

    Each basis is solved by the search's leaf peel, on K, its allocation
    columns, and L, the buyers of its refund columns; the peel's prices are
    eq's.  A basis that passes the rank filter is a spanning forest of the
    face graph, so every face buyer lies on one of its columns.  A K-tree
    that reaches the ground does so through exactly one refund buyer (two
    would close a cycle), so _levels fixes that tree at alpha = 1, which is
    eq's level.  A K-tree that does not reach the ground is a whole face
    component with no alpha == 1 buyer: its buyers spend all their money on
    its goods and nobody else buys them, so its money level is eq's level
    too.  The peel therefore solves exactly the basis's linear system.
    """
    p, alpha = eq.prices, eq.alpha
    ones = [i for i in inst.buyers if alpha[i] == 1]
    if len(ones) < 2:
        return eq
    columns = [
        (i, j) for i in inst.buyers if alpha[i] >= 1 for j in inst.goods
        if inst.utilities[i][j] == alpha[i] * p[j]
    ] + [(i, None) for i in ones]
    best = None
    rank = _rank(columns)
    for support in itertools.combinations(columns, rank):
        if _rank(support) < rank:
            continue
        K = [(i, j) for i, j in support if j is not None]
        L = [i for i, j in support if j is None]
        forest = _forest(inst, K)
        _, x, s = _peel(inst, forest, L, _levels(forest, L))
        if any(v < 0 for row in x for v in row) or any(v < 0 for v in s):
            continue
        if best is None or tuple(s) > best.returned:
            best = equilibrium_for_instance(inst, p, tuple(map(tuple, x)), tuple(s))
    if best is None:
        raise OracleError("the optimal face at the oracle's prices has no vertex")
    if not (verify_arctic_kkt(inst, best).overall and verify_market_clearing(inst, best).overall):
        raise OracleError("the lexicographically maximal refund split fails verification")
    return best if best.returned != eq.returned else eq


def oracle_cost_solve(inst: CostMarketInstance) -> CostSolution:
    """Revenue-maximal verified sign pattern of the production market.

    Prices are pinned to unit costs, which decouples buyers: each buyer
    either spends everything on a best-ratio good or takes a full refund,
    and only best-ratio-1 buyers admit both.  Every admissible combination
    is checked exactly; the revenue-maximal one is returned.
    """
    base, d = inst.base, inst.unit_costs
    n, m = base.n_buyers, base.n_goods
    if n * m > COST_GUARD * COST_GUARD:
        raise OracleSizeError("instance exceeds the enumeration guard")
    per_buyer_modes: list[list[tuple[Fraction, Fraction]]] = []
    # mode: (spend on good j, refund) encoded as (x_value on best good or 0, s_i)
    best_goods = []
    for i in base.buyers:
        alpha, goods = mbpb(base, d, i)
        j_best = min(goods, default=0)  # a buyer with no desired good only takes a refund
        best_goods.append(j_best)
        modes = []
        if alpha >= 1:
            modes.append((base.money[i] / d[j_best], ZERO))
        if alpha <= 1:
            modes.append((ZERO, base.money[i]))
        per_buyer_modes.append(modes)

    best_solution: CostSolution | None = None
    for combo in itertools.product(*per_buyer_modes):
        allocation = [[ZERO] * m for _ in range(n)]
        returned = [ZERO] * n
        for i, (x_val, s_val) in enumerate(combo):
            allocation[i][best_goods[i]] = x_val
            returned[i] = s_val
        sol = _cost_solution(inst, allocation, returned)
        if not verify_cost_kkt(inst, sol).overall:
            continue
        if best_solution is None or sol.revenue > best_solution.revenue:
            best_solution = sol
    if best_solution is None:
        raise OracleError("no sign pattern yields a verified cost solution")
    return best_solution
