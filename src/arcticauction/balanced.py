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

* Lower-bound start.  Each level starts its water-level search at the
  largest of these lower bounds on its value delta*: (sum of the live
  buyers' full sink caps - sum of the source caps of their live goods) /
  |live|, or 0 if that is negative; and, for each set S of the live
  buyers that share one surplus under the flow ``balance`` is given, S's
  water level, the delta with sum_S max(c_i - delta, 0) = cap Gamma(S),
  or 0 if S's live goods Gamma(S) cover S's caps.  Every buyer set's
  water level is a lower bound: a live buyer's inflow comes only from its
  live goods, since the dead goods feed no live buyer (see "Frozen
  groups"), so at delta* every live buyer is saturated and
  sum_S max(c_i - delta*, 0) <= cap Gamma(S); the left side strictly
  falls in delta while positive, so delta* is at least S's level.  The
  steps that follow therefore end at the same level from any of these
  starts, and in one step when the start is already that level.  The
  groups are scanned by their start surplus, highest first, and the scan
  stops at the first group whose start surplus, rescaled, is not above
  the best bound so far: a group's level is at most its start surplus
  unless a good that fed it has died since, and a skipped group only
  leaves the start lower, never wrong.  The
  solver hands ``balance`` the last balanced flow, scaled, whose surplus
  level sets are mostly the new levels' groups, so most levels start at
  their value.  When every maximum flow fills every source arc, as under
  the solver's price-cut invariant, the first bound is exactly the slack
  that refilling to full caps would leave, so no refill is pushed.
* Trimming.  Setting the water level delta lowers each live buyer's sink
  cap to max(c_i - delta, 0).  A buyer now over its cap gives the excess
  back along its in-arcs, in adjacency order, taking the same amount off
  each good's source arc; the flow stays feasible and is augmented.
* One search per step.  The buyers starved below a water level, and the
  group pinned at the top one, are those the augment's last search, which
  found no path, did not reach.
* Frozen groups.  Pinned buyers and every good next to one are dead: no
  search or augmenting path enters them, and they keep their flow.  Only
  the dead goods are passed to ``augment`` to avoid: a dead buyer's goods
  are all dead, so no path reaches it anyway.  A pinned buyer's good
  feeds no buyer left live: the source reaches that buyer, so it
  would reach the good through the reverse arc, and the pinned buyer next.
  So the rest of the flow stays feasible for the rest of the network.
  After the last level the flow is a maximum flow with the balanced
  surplus vector: each pinned buyer's inflow is its full cap less its
  surplus.  The lowered sink caps are then restored, and no other copy of
  the surpluses is kept: a buyer's surplus is its sink cap less its inflow.
* Rescaling.  A water level is held as a pair (num, den) on the graph's
  scale and compared by cross-multiplying.  A new denominator d = den /
  gcd(num, den) multiplies every capacity, every flow, the graph's scale
  and the full sink caps kept for the restore, which is exact.  Water
  levels are solved on the graph's scaled ints: the buyers' full sink caps
  and the goods' source caps, read off the graph's layout.

The peel-off reads only max-flow values and the vertex sets reachable from
the source, and both are the same for every maximum flow of a network.  So
the surplus vector cannot depend on which maximum flow the warm start
reached.

Peeled components.  Max-flow value and l2 norm both separate over the
components of a network, so a balanced flow of the whole is the union of
balanced flows of its components.  The caller names goods, and only their
components are peeled: every other good and buyer is frozen from the start,
with its flow and surplus as they are.  A buyer without arcs is a component
of its own, whose only flow is zero, so it is never peeled.

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

from math import gcd

from .flownet import Flow, FlowError, FlowNetwork, _Residual


def _water_level(caps: list[int], target: int) -> tuple[int, int]:
    """Solve sum_i max(c_i - delta, 0) = target for delta >= 0, on integers.

    Returns delta as the reduced pair (num, den).  Requires
    0 <= target <= sum(caps), else FlowError; the left side is piecewise
    linear and strictly decreasing until it hits zero.
    """
    caps = sorted(caps, reverse=True)
    total = sum(caps)
    if target > total or target < 0:
        raise FlowError("water level target out of range")
    if target == total:
        return 0, 1
    # With the k largest caps above the level: sum(top k) - k*delta = target,
    # and caps[k] <= delta <= caps[k - 1], compared as k*delta = prefix - target.
    prefix = 0
    for k, c in enumerate(caps, start=1):
        prefix += c
        excess = prefix - target
        if excess <= k * c and (k == len(caps) or excess >= k * caps[k]):
            d = gcd(excess, k)
            return excess // d, k // d
    raise FlowError("water level search failed")


def balance(g: _Residual, goods) -> None:
    """Replace g's flow, a feasible flow of g's network, by a balanced flow.

    Only the components of g's network that hold one of the goods with an
    id in ``goods`` are peeled off from g's flow; the flow on every other
    component must be balanced already, and is kept.  Each level's search
    starts at the best lower bound that the surplus level sets of the given
    flow offer (see "Lower-bound start").  The sink caps lowered on the way
    are restored, so g ends as the residual graph of its own network under
    a balanced flow.  It reads arcs off the graph's layout: vertex v's
    source or sink arc is arc v - 1.
    """
    cap, flow, adj = g.cap, g.flow, g.adj
    m, t = g.m, len(adj) - 1
    # The peeled components: one walk from the given goods, through goods
    # and buyers only.  Every other good is dead from the start.
    seen = {1 + j for j in goods}
    stack = list(seen)
    while stack:
        for v, _, _ in adj[stack.pop()]:
            if 0 < v < t and v not in seen:
                seen.add(v)
                stack.append(v)
    dead = set(range(1, m + 1)) - seen
    # Each peeled buyer vertex's full cap, scaled with the graph, and goods.
    full = {b: cap[b - 1] for b in range(m + 1, t) if b in seen}
    goods_at = {b: [v for v, _, forward in adj[b] if not forward] for b in full}
    # The peeled buyers grouped by the surplus the given flow leaves them,
    # highest first, each with that surplus at the entry scale; ``grown`` is
    # the product of the rescales since.
    by_surplus: dict[int, list[int]] = {}
    for b in full:
        by_surplus.setdefault(cap[b - 1] - flow[b - 1], []).append(b)
    groups = sorted(by_surplus.items(), reverse=True)
    grown = 1

    def goods_of(buyers) -> set[int]:
        return {v for b in buyers for v in goods_at[b]} - dead

    def water_level(buyers) -> tuple[int, int]:
        # The level that the live goods of ``buyers`` leave them, as
        # (num, den) on the graph's scale; 0 if the goods cover their caps.
        caps = [full[b] for b in buyers]
        target = sum(cap[j - 1] for j in goods_of(buyers))
        if target >= sum(caps):
            return 0, 1
        return _water_level(caps, target)

    def lower_caps(live: list[int], num: int, den: int) -> int:
        # Sink caps max(c_i - num/den, 0), rescaled to stay integral; a
        # buyer now over its cap gives the excess back along its in-arcs.
        # Returns the level on the new scale.
        nonlocal grown
        d = den // gcd(num, den)
        if d > 1:
            g.rescale(d)
            grown *= d
            for b in full:
                full[b] *= d
        level = num * d // den
        for b in live:
            c = max(full[b] - level, 0)
            if cap[b - 1] != c:
                g.set_sink_cap(b - 1, c)
        return level

    live = list(full)
    while live:
        # Find the top surplus level: the smallest uniform sink reduction that
        # the network can still fully absorb, searched from a lower bound.
        bound = sum(full[b] for b in live) - sum(cap[j - 1] for j in goods_of(live))
        num, den = max(bound, 0), len(live)
        for start, group in groups:
            if start * grown * den <= num:
                break
            n, d = water_level(group)
            if n * den > num * d:
                num, den = n, d
        while True:
            level = lower_caps(live, num, den)
            reached = g.augment(dead)
            if all(flow[b - 1] == cap[b - 1] for b in live):
                break
            starved = [b for b in live if reached[b] is None]
            if not starved:
                raise FlowError("reduced network min cut has no starved buyers")
            num, den = water_level(starved)
            if num <= level * den:
                raise FlowError("water level candidate did not increase")
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
        live = [b for b in live if reached[b] is not None]
        groups = [(start, kept) for start, group in groups if (kept := [b for b in group if reached[b] is not None])]
    for b, c in full.items():
        cap[b - 1] = c


def balanced_flow(net: FlowNetwork) -> Flow:
    """A maximum flow whose surplus vector minimizes the l2 norm: ``balance`` from zero.

    It is one balanced flow among many; only its surplus vector is unique.
    """
    g = _Residual(net)
    balance(g, range(len(net.goods)))
    return g.as_flow()
