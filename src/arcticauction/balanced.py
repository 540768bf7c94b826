"""Balanced flows: the max flow whose buyer surplus vector has minimal l2 norm.

The surplus vector of a balanced flow is unique even though the flow itself
is not.  It is computed here by peeling off maximum-surplus buyer groups:
the top surplus level solves a water-filling equation over a buyer set
extracted from min cuts of sink-reduced networks, the pinned group is split
off, and the remainder is solved the same way.  Everything stays rational.
The levels are those of Fujishige's lexicographically optimal base.

The whole peel-off runs on one integer residual graph of the network, and
its flow is kept from one max-flow to the next (the monotone case of
Gallo-Grigoriadis-Tarjan parametric max-flow):

* Lower-bound start.  Each level starts its water-level search at
  delta = (sum of the live buyers' full sink caps - sum of the source caps
  of their live goods) / |live|, or 0 if that is negative: the live goods
  can send the live buyers no more than their source caps, so the level is
  at least this.  When every maximum flow fills every source arc, as under
  the solver's price-cut invariant, it is exactly the slack that refilling
  to full caps would leave, so no refill is pushed.
* Trimming.  Setting the water level delta lowers each live buyer's sink
  cap to max(c_i - delta, 0).  A buyer now over its cap gives the excess
  back along its in-arcs, in adjacency order, taking the same amount off
  each good's source arc; the flow stays feasible and is augmented.
* One search per step.  The buyers starved below a water level, and the
  group pinned at the top one, are those the augment's last search, which
  found no path, did not reach.
* Frozen groups.  Pinned buyers and every good next to one join a dead
  set that no search or augmenting path enters, and keep their flow.  Such
  a good feeds no buyer left live: the source reaches that buyer, so it
  would reach the good through the reverse arc, and the pinned buyer next.
  So the rest of the flow stays feasible for the rest of the network.
  After the last level the flow is a maximum flow with the balanced
  surplus vector: each pinned buyer's inflow is its full cap less its
  surplus.
* Rescaling.  A water level may bring a new denominator d; every capacity,
  every flow and the graph's scale are then multiplied by d, which is exact.
  Water levels are solved on the graph's scaled ints: the buyers' full sink
  caps and the goods' source caps.

The peel-off reads only max-flow values and the vertex sets reachable from
the source, and both are the same for every maximum flow of a network.  So
the surplus vector cannot depend on which maximum flow the warm start
reached.

Kept components.  Max-flow value and l2 norm both separate over the
components of a network, so a balanced flow of the whole is the union of
balanced flows of its components.  The caller may name components whose
flow is balanced already: their buyers and goods are frozen from the start,
with their surpluses as they are, and only the rest is peeled.

``balance`` works on a residual graph its caller owns and leaves it holding
the peel-off's balanced flow, with the caps restored.  Which balanced flow
that is depends on the start flow; nothing the solver reads does.  The
surplus vector is unique.  When every maximum flow fills every source arc,
as at a new edge, where theta is at most the first tight theta, and at a
phase start, under the price-cut invariant, all balanced flows agree on the
source and sink arcs, so any two differ by residual cycles through goods
and buyers.  Pushing flow around a residual cycle leaves the reversed cycle
residual, so reachability through goods and buyers does not change: the
absorbed buyers (``buyers_reaching``), the check that the arcs pruned at an
iteration start carry no flow and every tight-set probe's cut are the same
for every balanced flow.  The extraction and the refund split push their
flows from zero, so no allocation depends on it either.  The solver
balances the graph it carries through a solve; ``balanced_flow`` and
``balanced_surplus`` build one from a network.
"""

from __future__ import annotations

from fractions import Fraction

from .flownet import Flow, FlowError, FlowNetwork, _Residual


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


def _peel(g: _Residual, keep=()) -> dict[int, int]:
    """The balanced surplus of each buyer vertex of g, times g.scale.

    The buyer vertices in ``keep`` are frozen from the start, with their
    goods, and their current surpluses are taken as final: they must make
    up whole components of g's network (FlowError if one of their goods
    feeds another buyer) on which g's flow is balanced already.  The rest is
    peeled off from g's flow, which must be feasible; the result does not
    depend on it.  Each pinned group keeps its flow, so g ends holding a
    maximum flow of g's network with the result as its surplus vector, and
    with each peeled buyer's sink cap lowered to its inflow.
    """
    cap, flow, adj = g.cap, g.flow, g.adj
    t = len(adj) - 1
    source_arc = {v: a for a, (u, v) in enumerate(g.ends) if u == 0}
    sink_arc = {u: a for a, (u, v) in enumerate(g.ends) if v == t}
    # Each buyer's full sink cap, and each kept or pinned buyer's surplus,
    # scaled along with the graph.
    full = {b: cap[a] for b, a in sink_arc.items()}
    keep = set(keep)
    out = {b: full[b] - flow[sink_arc[b]] for b in keep}
    dead: set[int] = set()

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
            g.set_sink_cap(b, max(full[b] - level, 0))
        return level

    kept_goods = goods_of(keep)
    if any(forward and v not in keep for j in kept_goods for v, _, forward in adj[j]):
        raise FlowError("a kept buyer shares a good with a buyer that is peeled")
    dead |= kept_goods
    dead.update(keep)
    while live := [b for b in full if b not in dead]:
        # Find the top surplus level: the smallest uniform sink reduction that
        # the network can still fully absorb, searched from a lower bound.
        bound = sum(full[b] for b in live) - sum(cap[source_arc[j]] for j in goods_of(live))
        delta = max(Fraction(bound, g.scale * len(live)), Fraction(0))
        while True:
            level = lower_caps(live, delta)
            reached = g.augment(dead)
            if all(flow[sink_arc[b]] == cap[sink_arc[b]] for b in live):
                break
            starved = [b for b in live if reached[b] is None]
            if not starved:
                raise FlowError("reduced network min cut has no starved buyers")
            target = sum(cap[source_arc[j]] for j in goods_of(starved))
            new_delta = _water_level([full[b] for b in starved], target) / g.scale
            if new_delta <= delta:
                raise FlowError("water level candidate did not increase")
            delta = new_delta
        if level == 0:  # every live buyer is saturated at its full cap
            out.update((b, 0) for b in live)
            break

        # Split off the group pinned at the top level: buyers not reachable
        # from the source without passing through the sink, which the
        # augment's last search did not reach.  Reaching a buyer must mean
        # more flow can be pushed into it without rerouting any other sink
        # edge.  The group and its goods keep their flow.
        pinned = [b for b in live if reached[b] is None]
        if not pinned:
            raise FlowError("no buyers pinned at the top surplus level")
        for b in pinned:
            out[b] = min(full[b], level)
        dead |= goods_of(pinned)
        dead.update(pinned)
    return out


def balance(g: _Residual, keep=()) -> None:
    """Replace g's flow, a feasible flow of g's network, by a balanced flow.

    The peel-off leaves g holding a balanced flow; only the sink caps it
    lowered are restored, so g ends as the residual graph of its own network
    under that flow.  ``keep`` is as for ``_peel``: the buyer vertices of
    components whose flow is balanced already, which keep it.
    """
    caps, scale = list(g.cap), g.scale
    _peel(g, keep)
    k = g.scale // scale
    g.cap[:] = [None if c is None else c * k for c in caps]


def balanced_surplus(net: FlowNetwork) -> dict[int, Fraction]:
    """The unique surplus vector attained by every balanced flow."""
    g = _Residual(net)
    out = _peel(g)
    return {g.vertices[b][1]: Fraction(s, g.scale) for b, s in out.items()}


def balanced_flow(net: FlowNetwork) -> Flow:
    """A maximum flow whose surplus vector minimizes the l2 norm: ``balance`` from zero.

    It is one balanced flow among many; only its surplus vector is unique.
    """
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
    return not any(gamma[k] < gamma[i] for i in net.buyers for k in g.buyers_reaching([i]))
