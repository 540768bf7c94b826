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
  surplus.  The lowered sink caps are then restored, and no other copy of
  the surpluses is kept: a buyer's surplus is its sink cap less its inflow.
* Rescaling.  A water level may bring a new denominator d; every capacity,
  every flow, the graph's scale and the full sink caps kept for the restore
  are then multiplied by d, which is exact.  Water levels are solved on the
  graph's scaled ints: the buyers' full sink caps and the goods' source
  caps, read off the graph's layout.

The peel-off reads only max-flow values and the vertex sets reachable from
the source, and both are the same for every maximum flow of a network.  So
the surplus vector cannot depend on which maximum flow the warm start
reached.

Kept components.  Max-flow value and l2 norm both separate over the
components of a network, so a balanced flow of the whole is the union of
balanced flows of its components.  The caller may name components whose
flow is balanced already: their buyers and goods are frozen from the start,
with their surpluses as they are, and only the rest is peeled.

``balance`` runs the peel-off in place on a residual graph its caller owns
and leaves it holding a balanced flow of its own network.  Which balanced flow
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
balances the graph it carries through a solve and reads the surpluses off
it; ``balanced_flow`` builds one from a network.  The surplus, potential
and Property 1 readers that the tests check it with, and a subset
enumeration of the surplus vector, are in ``tests/reference.py``.
"""

from __future__ import annotations

from fractions import Fraction

from .flownet import Flow, FlowError, FlowNetwork, _Residual


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


def balance(g: _Residual, keep=()) -> None:
    """Replace g's flow, a feasible flow of g's network, by a balanced flow.

    The buyer vertices in ``keep`` are frozen from the start, with their
    goods and flow: they must make up whole components of g's network, on
    which the flow is balanced already (FlowError if one of their goods
    feeds another buyer).  The rest is peeled off from g's flow, and the
    sink caps lowered on the way are restored, so g ends as the residual
    graph of its own network under a balanced flow.
    """
    cap, flow, adj = g.cap, g.flow, g.adj
    n_goods, t = len(adj[0]), len(adj) - 1  # good v's source arc is v - 1
    keep = set(keep)
    # Each peeled buyer's sink arc, and its full cap, scaled along with the graph.
    sink_arc = {b: adj[b][-1][1] for b in range(n_goods + 1, t) if b not in keep}
    full = {b: cap[a] for b, a in sink_arc.items()}
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
            for b in full:
                full[b] *= d
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
        bound = sum(full[b] for b in live) - sum(cap[j - 1] for j in goods_of(live))
        delta = max(Fraction(bound, g.scale * len(live)), Fraction(0))
        while True:
            level = lower_caps(live, delta)
            reached = g.augment(dead)
            if all(flow[sink_arc[b]] == cap[sink_arc[b]] for b in live):
                break
            starved = [b for b in live if reached[b] is None]
            if not starved:
                raise FlowError("reduced network min cut has no starved buyers")
            target = sum(cap[j - 1] for j in goods_of(starved))
            new_delta = _water_level([full[b] for b in starved], target) / g.scale
            if new_delta <= delta:
                raise FlowError("water level candidate did not increase")
            delta = new_delta
        if level == 0:  # every live buyer is saturated at its full cap
            break

        # Split off the group pinned at the top level: buyers not reachable
        # from the source without passing through the sink, which the
        # augment's last search did not reach.  Reaching a buyer must mean
        # more flow can be pushed into it without rerouting any other sink
        # edge.  The group and its goods keep their flow.
        pinned = [b for b in live if reached[b] is None]
        if not pinned:
            raise FlowError("no buyers pinned at the top surplus level")
        dead |= goods_of(pinned)
        dead.update(pinned)
    for b, c in full.items():
        cap[sink_arc[b]] = c


def balanced_flow(net: FlowNetwork) -> Flow:
    """A maximum flow whose surplus vector minimizes the l2 norm: ``balance`` from zero.

    It is one balanced flow among many; only its surplus vector is unique.
    """
    g = _Residual(net)
    balance(g)
    return g.as_flow()
