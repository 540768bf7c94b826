"""Independent ground truth for small instances.

Three separate engines cross-check the main machinery:

* oracle_solve guesses the sign pattern of an optimum (which allocations and
  refunds are strictly positive), solves the induced square linear system in
  reciprocal prices exactly, and keeps the first guess that survives a full
  exact optimality check.  A float screen cheaply discards hopeless guesses
  before any exact work: it is plain Python, builds the same system with
  _build_system from a float copy of the instance and solves it with the
  same solve_linear, so each guess costs one float solve and at most one
  exact solve.  The prices fix the optimal face; when refunds can
  split several ways, its vertices are enumerated and the one with the
  lexicographically maximal refund vector by buyer index is reported, the
  rule the solver follows too.
* oracle_balanced_surplus minimizes the l2 norm of the surplus vector by
  brute-force maximization of the deficiency bound over buyer subsets,
  without running any max-flow.
* oracle_cost_solve enumerates per-buyer sign patterns of the production
  market at cost prices and keeps the revenue-maximal pattern passing the
  exact check.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .costmarket import CostMarketInstance, CostSolution
from .flownet import FlowNetwork
from .kkt import verify_arctic_kkt, verify_cost_kkt, verify_market_clearing
from .market import Equilibrium, MarketInstance, equilibrium_for_instance, mbpb

ZERO = Fraction(0)
ONE = Fraction(1)


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

    Each column pivots on its largest-magnitude entry.  With Fractions the
    result is exact and the pivot order does not change it; with floats
    (the oracle's screen) that order keeps the rounding small.
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


def _ratio_consistent(inst: MarketInstance, K) -> bool:
    """A sign pattern forces price ratios along shared buyers; reject clashes."""
    parent: dict[int, int] = {}
    weight: dict[int, Fraction] = {}  # p_j / p_parent[j]

    def find(j):
        if parent.get(j, j) == j:
            parent.setdefault(j, j)
            weight.setdefault(j, ONE)
            return j, ONE
        root, w = find(parent[j])
        parent[j] = root
        weight[j] = weight[j] * w
        return root, weight[j]

    by_buyer: dict[int, list[int]] = {}
    for i, j in K:
        by_buyer.setdefault(i, []).append(j)
    for i, goods in by_buyer.items():
        j0 = goods[0]
        for j in goods[1:]:
            # u_ij / p_j = u_ij0 / p_j0  =>  p_j / p_j0 = u_ij / u_ij0
            ratio = inst.utilities[i][j] / inst.utilities[i][j0]
            r0, w0 = find(j0)
            r1, w1 = find(j)
            if r0 == r1:
                if w1 != w0 * ratio:
                    return False
            else:
                parent[r1] = r0
                weight[r1] = w0 * ratio / w1
    return True


def _build_system(inst: MarketInstance, K, L):
    """Square linear system over (q_j, x_K, s_L); q_j stands for 1/p_j.

    Its entries have the instance's number type: Fractions, or floats for
    the screen's float copy.
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


def _float_screen(finst: MarketInstance, K, L, tol=1e-6) -> bool:
    """Cheap float solve on the float copy finst; keep only plausibly feasible patterns."""
    sol = solve_linear(*_build_system(finst, K, L))
    if sol is None or not all(map(math.isfinite, sol)):
        return True  # let the exact path decide singularity
    m = finst.n_goods
    q = sol[:m]
    if any(v < tol for v in q):
        return False
    x = {pair: sol[m + idx] for idx, pair in enumerate(K)}
    s = {i: sol[m + len(K) + idx] for idx, i in enumerate(L)}
    if any(v < -tol for v in x.values()) or any(v < -tol for v in s.values()):
        return False
    p = [1.0 / v for v in q]
    for i in finst.buyers:
        w = sum(finst.utilities[i][j] * x.get((i, j), 0.0) for j in finst.goods)
        t = w + s.get(i, 0.0)
        mi = finst.money[i]
        if t < mi - tol:  # dual ratio with lambda = 1 needs w + s >= m
            return False
        for j in finst.goods:
            if finst.utilities[i][j] * mi > t * p[j] + tol * 100:
                return False
    return True


def _exact_candidate(inst: MarketInstance, K, L):
    rows, rhs = _build_system(inst, K, L)
    sol = solve_linear(rows, rhs)
    if sol is None:
        return None
    m = inst.n_goods
    q = sol[:m]
    if any(v <= 0 for v in q):
        return None
    prices = tuple(1 / v for v in q)
    x = [[ZERO] * m for _ in inst.buyers]
    for idx, (i, j) in enumerate(K):
        x[i][j] = sol[m + idx]
    s = [ZERO] * inst.n_buyers
    for idx, i in enumerate(L):
        s[i] = sol[m + len(K) + idx]
    if any(v < 0 for row in x for v in row) or any(v < 0 for v in s):
        return None
    eq = equilibrium_for_instance(
        inst, prices, tuple(tuple(row) for row in x), tuple(s)
    )
    if not verify_arctic_kkt(inst, eq).overall:
        return None
    if not verify_market_clearing(inst, eq).overall:
        return None
    return eq


def oracle_solve(inst: MarketInstance, size_guard: int = 4, use_screen: bool = True) -> OracleResult:
    """Exact equilibrium by sign-pattern enumeration, smallest patterns first.

    All patterns of the first successful total size are evaluated; their
    price vectors must agree exactly (a clash would disprove optimum
    uniqueness and is treated as a hard failure).  At those prices the
    reported optimum is the one whose refund vector is lexicographically
    maximal by buyer index (see _lex_max_optimum); when that moves the
    refunds, the supports are the positive entries of the moved optimum.
    """
    n, m = inst.n_buyers, inst.n_goods
    if n > size_guard or m > size_guard:
        raise OracleSizeError(f"instance {n}x{m} exceeds the {size_guard} guard")
    pairs = [
        (i, j) for i in inst.buyers for j in inst.goods if inst.utilities[i][j] > 0
    ]
    all_buyers = frozenset(inst.buyers)
    all_goods = frozenset(inst.goods)
    try:
        finst = MarketInstance(
            money=tuple(map(float, inst.money)),
            utilities=tuple(tuple(map(float, row)) for row in inst.utilities),
        )
    except OverflowError:  # a value beyond float range; the exact path still works
        use_screen = False

    for total in range(m, len(pairs) + n + 1):
        tier: list[tuple[Equilibrium, tuple, tuple]] = []
        for k in range(m, min(len(pairs), total) + 1):
            l = total - k
            if not 0 <= l <= n:
                continue
            for K in itertools.combinations(pairs, k):
                if {j for (_, j) in K} != all_goods:
                    continue
                covered = {i for (i, _) in K}
                mandatory = all_buyers - covered
                if len(mandatory) > l:
                    continue
                if not _ratio_consistent(inst, K):
                    continue
                for L in itertools.combinations(sorted(all_buyers), l):
                    if not mandatory <= set(L):
                        continue
                    if use_screen and not _float_screen(finst, K, L):
                        continue
                    eq = _exact_candidate(inst, K, L)
                    if eq is not None:
                        tier.append((eq, K, L))
        if tier:
            first = tier[0]
            for other, _, _ in tier[1:]:
                if other.prices != first[0].prices:
                    raise OracleError(
                        "two verified sign patterns disagree on prices"
                    )
            eq, K, L = first
            best = _lex_max_optimum(inst, eq)
            if best is not eq:
                K = [(i, j) for i in inst.buyers for j in inst.goods if best.allocation[i][j] > 0]
                L = [i for i in inst.buyers if best.returned[i] > 0]
            return OracleResult(best, tuple(K), tuple(L))
    if use_screen:
        # Float rounding can make the screen reject the pattern of a true
        # optimum (a false negative); retry without the screen before
        # declaring the instance unsolvable.
        return oracle_solve(inst, size_guard=size_guard, use_screen=False)
    raise OracleError("no sign pattern yields a verified equilibrium")


def _rank(columns) -> int:
    """Rank of a set of the optimal face's columns (see _lex_max_optimum).

    Column (i, j) is e_j + p_j e_i and a refund column (i, None) is e_i.
    Take the graph on goods, buyers and a ground vertex ("g", None), each
    column joining its buyer to its good or to the ground.  Around any
    cycle through goods and buyers the prices cancel, so the cycle's
    columns are dependent; a set of columns is independent exactly when it
    is a forest, and the rank is the size of a spanning forest.
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
    exact solution, and the first with the largest refund vector by buyer
    index is kept; eq itself when its refunds are already those.
    """
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


def numeric_objective(inst: MarketInstance, allocation, returned) -> float:
    """Floating value of the concave objective at a feasible point."""
    total = 0.0
    for i in inst.buyers:
        w = sum(
            float(inst.utilities[i][j]) * float(allocation[i][j]) for j in inst.goods
        )
        t = w + float(returned[i])
        if t <= 0:
            raise ValueError(f"buyer {i}: nonpositive utility-plus-refund")
        total += float(inst.money[i]) * math.log(t)
    return total - sum(float(v) for v in returned)


def perturbed_feasible_point(inst: MarketInstance, eq: Equilibrium, rng: random.Random, scale: float):
    """Perturb a solution within the feasible region of the program."""
    x = [
        [max(float(v) + scale * rng.uniform(-1, 1), 0.0) for v in row]
        for row in eq.allocation
    ]
    for j in inst.goods:
        col = sum(row[j] for row in x)
        if col > 1.0:
            for row in x:
                row[j] /= col
    s = [max(float(v) + scale * rng.uniform(-1, 1), 0.0) for v in eq.returned]
    return x, s


def oracle_balanced_surplus(net: FlowNetwork, size_guard: int = 6) -> dict[int, Fraction]:
    """The l2-minimal surplus vector via subset enumeration, no max-flow.

    The total inflow any buyer group can receive is bounded by the total
    price of its neighborhood; the top surplus level is the largest average
    deficiency over groups, its argmax union is pinned there, and the rest
    recurses on the remaining subnetwork.
    """
    if len(net.buyers) > size_guard:
        raise OracleSizeError(f"{len(net.buyers)} buyers exceed the {size_guard} guard")
    out: dict[int, Fraction] = {}
    buyers = set(net.buyers)
    goods = set(net.goods)
    while buyers:
        blist = sorted(buyers)
        best: Fraction | None = None
        argmax_union: set[int] = set()
        for mask in range(1, 1 << len(blist)):
            group = {blist[b] for b in range(len(blist)) if mask >> b & 1}
            caps = sum((net.sink_caps[i] for i in group), ZERO)
            hood = {j for (j, i) in net.edges if i in group and j in goods}
            price = sum((net.source_caps[j] for j in hood), ZERO)
            h = (caps - price) / len(group)
            if best is None or h > best:
                best = h
                argmax_union = set(group)
            elif h == best:
                argmax_union |= group
        if best is None or best <= 0:
            for i in buyers:
                out[i] = ZERO
            return out
        for i in argmax_union:
            out[i] = best
        goods -= {j for (j, i) in net.edges if i in argmax_union}
        buyers -= argmax_union
    return out


def oracle_cost_solve(inst: CostMarketInstance, size_guard: int = 16) -> CostSolution:
    """Revenue-maximal verified sign pattern of the production market.

    Prices are pinned to unit costs, which decouples buyers: each buyer
    either spends everything on a best-ratio good or takes a full refund,
    and only best-ratio-1 buyers admit both.  Every admissible combination
    is checked exactly; the revenue-maximal one is returned.
    """
    base, d = inst.base, inst.unit_costs
    n, m = base.n_buyers, base.n_goods
    if n * m > size_guard * size_guard:
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
        produced = tuple(
            sum((allocation[i][j] for i in base.buyers), ZERO) for j in base.goods
        )
        total_s = sum(returned, ZERO)
        revenue = sum(base.money, ZERO) - total_s
        cost = sum((d[j] * produced[j] for j in base.goods), ZERO)
        sol = CostSolution(
            prices=tuple(d),
            allocation=tuple(tuple(row) for row in allocation),
            produced=produced,
            returned=tuple(returned),
            revenue=revenue,
            profit=revenue - cost,
        )
        if not verify_cost_kkt(inst, sol).overall:
            continue
        if best_solution is None or sol.revenue > best_solution.revenue:
            best_solution = sol
    if best_solution is None:
        raise OracleError("no sign pattern yields a verified cost solution")
    return best_solution
