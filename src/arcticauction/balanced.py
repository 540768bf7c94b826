"""Balanced flows: the max flow whose buyer surplus vector has minimal l2 norm.

The surplus vector of a balanced flow is unique even though the flow itself
is not.  It is computed here by peeling off maximum-surplus buyer groups:
the top surplus level solves a water-filling equation over a buyer set
extracted from min cuts of sink-reduced networks, the pinned group is split
off, and the remainder is solved recursively.  Everything stays rational.
"""

from __future__ import annotations

from fractions import Fraction

from .flownet import (
    SINK,
    SOURCE,
    Flow,
    FlowError,
    FlowNetwork,
    MaxflowCounter,
    buyer_vertex,
    max_flow,
    min_cut_source_side,
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


def _water_level(caps: list[Fraction], target: Fraction) -> Fraction:
    """Solve sum_i max(c_i - delta, 0) = target for delta >= 0.

    Requires 0 <= target <= sum(caps); the left side is piecewise linear and
    strictly decreasing until it hits zero.
    """
    caps = sorted(caps, reverse=True)
    total = sum(caps, Fraction(0))
    if target > total or target < 0:
        raise ValueError("water level target out of range")
    if target == total:
        return Fraction(0)
    # With the k largest caps above the level: sum(top k) - k*delta = target.
    prefix = Fraction(0)
    for k, c in enumerate(caps, start=1):
        prefix += c
        delta = (prefix - target) / k
        below = caps[k] if k < len(caps) else None
        if delta <= c and (below is None or delta >= below):
            return delta
    raise AssertionError("water level search failed")


def _balanced_surplus_rec(
    net: FlowNetwork,
    goods: set[int],
    buyers: set[int],
    out: dict[int, Fraction],
    counter: MaxflowCounter | None,
) -> None:
    if not buyers:
        return
    sub = net.restricted(goods, buyers)
    f = max_flow(sub, counter)
    total_caps = sub.total_money
    if f.value == total_caps:
        for i in buyers:
            out[i] = Fraction(0)
        return

    # Find the top surplus level: the smallest uniform sink reduction that
    # the network can still fully absorb.
    delta = (total_caps - f.value) / len(buyers)
    while True:
        reduced = sub.with_sink_caps(
            {i: max(sub.sink_caps[i] - delta, Fraction(0)) for i in sub.buyers}
        )
        f_red = max_flow(reduced, counter)
        if f_red.value == reduced.total_money:
            break
        cut = min_cut_source_side(reduced, f_red)
        starved = set(buyers) - set(cut.buyers_part())
        if not starved:
            raise FlowError("reduced network min cut has no starved buyers")
        target = sum(
            (sub.source_caps[j] for j in sub.neighborhood_of_buyers(starved)),
            Fraction(0),
        )
        new_delta = _water_level([sub.sink_caps[i] for i in starved], target)
        if new_delta <= delta:
            raise FlowError("water level candidate did not increase")
        delta = new_delta

    # Split off the group pinned at the top level: buyers not reachable from
    # the source in the residual graph of f_red taken with original sink caps.
    # Paths may not run through the sink: reaching a buyer must mean more
    # flow can be pushed into her without rerouting any other sink edge.
    seen = _Residual(sub, f_red).walk([SOURCE], avoid=(SINK,))
    reachable_buyers = {v[1] for v in seen if v[0] == "b"}
    pinned = set(buyers) - reachable_buyers
    if not pinned:
        raise FlowError("no buyers pinned at the top surplus level")
    for i in pinned:
        out[i] = min(sub.sink_caps[i], delta)
    pinned_goods = sub.neighborhood_of_buyers(pinned)
    _balanced_surplus_rec(net, goods - pinned_goods, buyers - pinned, out, counter)


def balanced_surplus(net: FlowNetwork, counter: MaxflowCounter | None = None) -> dict[int, Fraction]:
    """The unique surplus vector attained by every balanced flow."""
    out: dict[int, Fraction] = {}
    _balanced_surplus_rec(net, set(net.goods), set(net.buyers), out, counter)
    return out


def balanced_flow(net: FlowNetwork, counter: MaxflowCounter | None = None) -> Flow:
    """A maximum flow whose surplus vector minimizes the l2 norm.

    The surplus vector is computed first; pinning each sink capacity to the
    implied inflow then forces any maximum flow of the pinned network to be
    balanced in the original one.
    """
    gamma = balanced_surplus(net, counter)
    pinned = net.with_sink_caps({i: net.sink_caps[i] - gamma[i] for i in net.buyers})
    f = max_flow(pinned, counter)
    if f.value != pinned.total_money:
        raise FlowError("pinned network failed to saturate; surplus vector is wrong")
    return f


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
