"""Reference helpers that the tests hold the package to; no package code calls them.

* ``build_network`` builds the money network at given prices from scratch,
  with an edge for each buyer's bang-per-buck goods (``market.mbpb``), and
  ``profit`` recomputes a cost solution's profit from first principles.
* ``surplus``, ``potential`` and ``verify_property1`` read a flow's surplus
  vector, its l2 potential and the balanced-flow property straight off a
  ``FlowNetwork``; ``balanced_surplus`` is the surplus vector of
  ``balanced_flow``.
* ``check_invariant`` is the price-cut invariant by one ``max_flow``, and
  ``snapshot_network`` rebuilds the network of a recorded phase snapshot.
* ``oracle_balanced_surplus`` minimizes the l2 norm of the surplus vector by
  brute-force maximization of the deficiency bound over buyer subsets,
  without running any max-flow.
* ``answers_digest`` is one sha256 over the serialized equilibria of a list
  of solves, as ``tools/bench_sweep.py`` writes it per row.
* ``numeric_objective`` and ``perturbed_feasible_point`` evaluate the
  concave objective in floating point, for local-optimality probes: the
  only floats the tests compute with.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import replace
from fractions import Fraction

from arcticauction.balanced import balanced_flow
from arcticauction.costmarket import CostMarketInstance, CostSolution
from arcticauction.flownet import Flow, FlowError, FlowNetwork, _Residual, max_flow
from arcticauction.market import Equilibrium, MarketInstance, mbpb, serialize_equilibrium
from arcticauction.oracle import ZERO, OracleSizeError
from arcticauction.solver import solve

# oracle_balanced_surplus's enumeration guard on the number of buyers.
BALANCED_SURPLUS_GUARD = 6


def build_network(inst: MarketInstance, prices, buyers=None) -> FlowNetwork:
    """The money network at the given prices, over every good and buyer.

    Every good is priced at ``prices``.  Each buyer in ``buyers`` (every
    buyer by default) has sink capacity equal to its money, and an edge to
    each good that attains its bang-per-buck, ``market.mbpb``; any other
    buyer has sink capacity 0 and no edge, as a removed buyer sits on the
    solver's graph.  The tests hold the solver's graph, whose arcs come from
    prices in ``solver._add_best_arcs``, to it.
    """
    buyers = set(inst.buyers if buyers is None else buyers)
    goods = tuple(inst.goods)
    sink_caps = {i: inst.money[i] if i in buyers else Fraction(0) for i in inst.buyers}
    # The edgeless network rejects a nonpositive price before any ratio is taken.
    net = FlowNetwork(goods, tuple(inst.buyers), {j: prices[j] for j in goods}, sink_caps, frozenset())
    edges = frozenset((j, i) for i in sorted(buyers) for j in mbpb(inst, prices, i)[1])
    return replace(net, edges=edges)


def surplus(net: FlowNetwork, flow: Flow) -> dict[int, Fraction]:
    """Per-buyer left-over sink capacity under the given flow."""
    out = {}
    for i in net.buyers:
        gamma = net.sink_caps[i] - flow.into_buyer(i)
        if gamma < 0:
            raise FlowError(f"buyer {i}: flow exceeds sink capacity")
        out[i] = gamma
    return out


def potential(sv: dict[int, Fraction]) -> Fraction:
    """Sum of squared surpluses."""
    return sum((g * g for g in sv.values()), Fraction(0))


def balanced_surplus(net: FlowNetwork) -> dict[int, Fraction]:
    """The unique surplus vector attained by every balanced flow."""
    return surplus(net, balanced_flow(net))


def verify_property1(net: FlowNetwork, flow: Flow) -> bool:
    """No residual path from a strictly lower-surplus buyer to a higher one.

    Equivalent to the flow being balanced, provided it is a maximum flow.
    Paths are taken through goods and buyers only.
    """
    gamma = surplus(net, flow)
    g = _Residual(net, flow)
    return not any(gamma[k] < gamma[i] for i in net.buyers for k in g.buyers_reaching([i]))


def check_invariant(net: FlowNetwork) -> bool:
    """True iff ({s}, everything else) is a minimum s-t cut."""
    return max_flow(net).value == net.total_price


def snapshot_network(inst: MarketInstance, snap: dict) -> FlowNetwork:
    """The money network of a ``TraceRecorder`` phase snapshot, built afresh.

    ``build_network`` at the snapshot's prices and live buyers, with each
    live buyer's sink cap its money less its recorded return.
    """
    net = build_network(inst, snap["prices"], buyers=snap["live_buyers"])
    sink_caps = dict(net.sink_caps)
    for i in snap["live_buyers"]:
        r = snap["returns"][i]
        if r < 0 or r > inst.money[i]:
            raise FlowError(f"buyer {i}: returned money out of range")
        sink_caps[i] = inst.money[i] - r
    return replace(net, sink_caps=sink_caps)


def oracle_balanced_surplus(net: FlowNetwork) -> dict[int, Fraction]:
    """The l2-minimal surplus vector via subset enumeration, no max-flow.

    The total inflow any buyer group can receive is bounded by the total
    price of its neighborhood; the top surplus level is the largest average
    deficiency over groups, its argmax union is pinned there, and the rest
    recurses on the remaining subnetwork.
    """
    if len(net.buyers) > BALANCED_SURPLUS_GUARD:
        raise OracleSizeError(f"{len(net.buyers)} buyers exceed the {BALANCED_SURPLUS_GUARD} guard")
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


def answers_digest(insts) -> str:
    """One hash of the serialized equilibria of the solves of ``insts``, in order."""
    digest = hashlib.sha256()
    for inst in insts:
        digest.update(serialize_equilibrium(solve(inst)[0]).encode())
    return digest.hexdigest()


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
