"""Balanced flows: the max flow whose buyer surplus vector has minimal l2 norm.

The surplus vector of a balanced flow is unique even though the flow itself
is not.  It is computed here by peeling off maximum-surplus buyer groups:
the top surplus level solves a water-filling equation over a buyer set
extracted from min cuts of sink-reduced networks, the pinned group is split
off, and the remainder is solved the same way.  Everything stays rational.

The whole peel-off runs on one integer residual graph of the network, and
its flow is kept from one max-flow to the next (the monotone case of
Gallo-Grigoriadis-Tarjan parametric max-flow):

* Warm start.  Each level restores the live buyers' sink caps; the current
  flow is still feasible, so augmenting paths are pushed from it.
* Trimming.  Raising the water level delta lowers each live buyer's sink
  cap to max(c_i - delta, 0).  A buyer now over its cap gives the excess
  back along its in-arcs, in adjacency order, taking the same amount off
  each good's source arc; the flow stays feasible and is augmented again.
* Cancellation.  Pinned goods and buyers join a dead set that no search or
  augmenting path enters.  The flow on every arc of a pinned good is
  cancelled, and the same amount comes off the sink arc of the buyer it fed,
  which leaves a feasible flow of the remaining network.
* Rescaling.  A water level may bring a new denominator d; every capacity,
  every flow and the graph's scale are then multiplied by d, which is exact.
  Water levels are solved on the graph's scaled ints: the buyers' full sink
  caps and the goods' source caps.

The peel-off reads only max-flow values and the vertex sets reachable from
the source, and both are the same for every maximum flow of a network.  So
the surplus vector cannot depend on which maximum flow the warm start
reached.

``balance`` works on a residual graph its caller owns and leaves it holding
the balanced flow: after the peel-off it restores the graph's caps, pins
each sink cap to the implied inflow and pushes a max-flow from zero on the
same arcs.  The vertex numbering and sorted adjacency lists are those of a
graph built afresh, so the augmenting paths, and the flow, are those of
``max_flow`` on the pinned network: the flow does not depend on the warm
start either.  The solver balances the graph it carries through a phase;
``balanced_flow`` and ``balanced_surplus`` build one from a network.
"""

from __future__ import annotations

from fractions import Fraction

from .flownet import (
    SINK,
    SOURCE,
    Flow,
    FlowError,
    FlowNetwork,
    buyer_vertex,
    _Residual,
)


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


def _water_level(caps: list[int], target: int) -> Fraction:
    """Solve sum_i max(c_i - delta, 0) = target for delta >= 0, on integers.

    Requires 0 <= target <= sum(caps); the left side is piecewise linear and
    strictly decreasing until it hits zero.
    """
    caps = sorted(caps, reverse=True)
    total = sum(caps)
    if target > total or target < 0:
        raise ValueError("water level target out of range")
    if target == total:
        return Fraction(0)
    # With the k largest caps above the level: sum(top k) - k*delta = target,
    # and caps[k] <= delta <= caps[k - 1], compared as k*delta = prefix - target.
    prefix = 0
    for k, c in enumerate(caps, start=1):
        prefix += c
        excess = prefix - target
        if excess <= k * c and (k == len(caps) or excess >= k * caps[k]):
            return Fraction(excess, k)
    raise AssertionError("water level search failed")


def _peel(g: _Residual) -> dict[int, int]:
    """The balanced surplus of each buyer vertex of g, times g.scale.

    The peel-off augments from g's flow, which must be feasible; the result
    does not depend on it.  It leaves g's flow a maximum flow of g's network
    with lowered sink caps, which are left in g.
    """
    cap, flow, adj = g.cap, g.flow, g.adj
    t = len(adj) - 1
    source_arc = {v: a for a, (u, v) in enumerate(g.ends) if u == 0}
    sink_arc = {u: a for a, (u, v) in enumerate(g.ends) if v == t}
    # Each buyer's full sink cap, and each pinned buyer's surplus, scaled
    # along with the graph.
    full = {b: cap[a] for b, a in sink_arc.items()}
    dead: set[int] = set()
    out: dict[int, int] = {}

    def goods_of(buyers) -> set[int]:
        return {v for b in buyers for v, _, forward in adj[b] if not forward} - dead

    def lower_caps(live: list[int], delta: Fraction) -> int:
        # Sink caps max(c_i - delta, 0), rescaled to stay integral; a buyer
        # now over its cap gives the excess back along its in-arcs.  Returns
        # delta on the graph's scale.
        scaled = delta * g.scale
        d = scaled.denominator
        if d > 1:
            g.rescale(d)
            for table in (full, out):
                for b in table:
                    table[b] *= d
        level = scaled.numerator
        for b in live:
            a = sink_arc[b]
            cap[a] = max(full[b] - level, 0)
            excess = flow[a] - cap[a]
            for j, arc, forward in adj[b]:
                if excess > 0 and not forward:
                    take = min(flow[arc], excess)
                    flow[arc] -= take
                    flow[source_arc[j]] -= take
                    flow[a] -= take
                    excess -= take
        return level

    while live := [b for b in full if b not in dead]:
        lower_caps(live, Fraction(0))
        g.augment(dead)
        slack = sum(cap[sink_arc[b]] - flow[sink_arc[b]] for b in live)
        if slack == 0:
            out.update((b, 0) for b in live)
            break

        # Find the top surplus level: the smallest uniform sink reduction that
        # the network can still fully absorb.
        delta = Fraction(slack, g.scale * len(live))
        while True:
            level = lower_caps(live, delta)
            g.augment(dead)
            if all(flow[sink_arc[b]] == cap[sink_arc[b]] for b in live):
                break
            reached = g.search([0], avoid=dead)
            starved = [b for b in live if reached[b] is None]
            if not starved:
                raise FlowError("reduced network min cut has no starved buyers")
            target = sum(cap[source_arc[j]] for j in goods_of(starved))
            new_delta = _water_level([full[b] for b in starved], target) / g.scale
            if new_delta <= delta:
                raise FlowError("water level candidate did not increase")
            delta = new_delta

        # Split off the group pinned at the top level: buyers not reachable
        # from the source without passing through the sink.  Reaching a buyer
        # must mean more flow can be pushed into it without rerouting any
        # other sink edge.
        reached = g.search([0], avoid=dead | {t})
        pinned = [b for b in live if reached[b] is None]
        if not pinned:
            raise FlowError("no buyers pinned at the top surplus level")
        for b in pinned:
            out[b] = min(full[b], level)
        pinned_goods = goods_of(pinned)
        for j in pinned_goods:
            for v, a, forward in adj[j]:
                if forward:
                    flow[sink_arc[v]] -= flow[a]
                flow[a] = 0
        dead |= pinned_goods
        dead.update(pinned)
    return out


def balance(g: _Residual) -> None:
    """Replace g's flow, a feasible flow of g's network, by a balanced flow.

    The surplus vector is peeled off first, from g's flow.  Then, with g's
    capacities restored, each sink cap is pinned to the implied inflow and a
    maximum flow is pushed from zero on the same arcs; any maximum flow of
    the pinned network is balanced in the original one, and this one is the
    flow ``max_flow`` would return for it.  The sink caps are restored
    afterwards, so g ends as the residual graph of its own network under the
    balanced flow.
    """
    caps, scale = list(g.cap), g.scale
    gamma = _peel(g)
    k = g.scale // scale
    g.cap[:] = [None if c is None else c * k for c in caps]
    sink_arcs = {b: g.adj[b][-1][1] for b in gamma}
    for b, a in sink_arcs.items():
        g.cap[a] -= gamma[b]
    g.flow[:] = [0] * len(g.flow)
    if g.augment() != sum(g.cap[a] for a in sink_arcs.values()):
        raise FlowError("pinned network failed to saturate; surplus vector is wrong")
    for b, a in sink_arcs.items():
        g.cap[a] += gamma[b]


def balanced_surplus(net: FlowNetwork, start: Flow | None = None) -> dict[int, Fraction]:
    """The unique surplus vector attained by every balanced flow.

    The peel-off augments from ``start``, a feasible flow of net (None is
    the zero flow); the result does not depend on it.
    """
    g = _Residual(net, start)
    out = _peel(g)
    return {g.vertices[b][1]: Fraction(s, g.scale) for b, s in out.items()}


def balanced_flow(net: FlowNetwork) -> Flow:
    """A maximum flow whose surplus vector minimizes the l2 norm (``balance`` from zero)."""
    g = _Residual(net)
    balance(g)
    return g.as_flow()


def verify_property1(net: FlowNetwork, flow: Flow) -> bool:
    """No residual path from a strictly lower-surplus buyer to a higher one.

    Equivalent to the flow being balanced, provided it is a maximum flow.
    Paths are taken through goods and buyers only.
    """
    gamma = surplus(net, flow)
    g = _Residual(net, flow)
    for i in net.buyers:
        seen = g.walk([buyer_vertex(i)], avoid=(SOURCE, SINK))
        for v in seen:
            if v[0] == "b" and gamma[i] < gamma[v[1]]:
                return False
    return True
