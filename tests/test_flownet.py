"""Flow networks: construction, exact max-flow, min cuts, reachability.

Cut operations are cross-checked against brute-force enumeration of every
source-side candidate on small networks.
"""

import random
from copy import copy
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from arcticauction.flownet import (
    SINK,
    SOURCE,
    Flow,
    FlowError,
    FlowNetwork,
    buyer_vertex,
    good_vertex,
    max_flow,
    maximal_min_cut,
    min_cut_source_side,
    residual_reachable,
    _read_cut,
    _Residual,
)
from arcticauction.market import MarketInstance
from reference import build_network, check_invariant

F = Fraction


def net_of(prices, moneys, edges):
    return FlowNetwork(
        goods=tuple(range(len(prices))),
        buyers=tuple(range(len(moneys))),
        source_caps={j: F(p) for j, p in enumerate(prices)},
        sink_caps={i: F(c) for i, c in enumerate(moneys)},
        edges=frozenset(edges),
    )


def inst_of(u, m):
    return MarketInstance(
        money=tuple(F(x) for x in m),
        utilities=tuple(tuple(F(x) for x in row) for row in u),
    )


def brute_force_min_cuts(net: FlowNetwork):
    """All minimum cuts by enumerating every source-side candidate."""
    items = [good_vertex(j) for j in net.goods] + [buyer_vertex(i) for i in net.buyers]
    best = None
    cuts = []
    for mask in range(1 << len(items)):
        side = {SOURCE} | {items[k] for k in range(len(items)) if mask >> k & 1}
        cap = F(0)
        ok = True
        for j, i in net.edges:
            if good_vertex(j) in side and buyer_vertex(i) not in side:
                ok = False
                break
        if not ok:
            continue
        for j in net.goods:
            if good_vertex(j) not in side:
                cap += net.source_caps[j]
        for i in net.buyers:
            if buyer_vertex(i) in side:
                cap += net.sink_caps[i]
        if best is None or cap < best:
            best = cap
            cuts = [frozenset(side)]
        elif cap == best:
            cuts.append(frozenset(side))
    return best, cuts


def test_build_network_single_pair():
    inst = inst_of([[2]], [1])
    net = build_network(inst, {0: F(1)})
    assert net.source_caps == {0: F(1)}
    assert net.sink_caps == {0: F(1)}
    assert net.edges == frozenset({(0, 0)})


def test_build_network_strict_maxima():
    inst = inst_of([[2, 1], [1, 2]], [1, 1])
    net = build_network(inst, {0: F(1), 1: F(1)})
    assert net.edges == frozenset({(0, 0), (1, 1)})


def test_build_network_tie_includes_both():
    inst = inst_of([[2, 2]], [1])
    net = build_network(inst, {0: F(1), 1: F(1)})
    assert net.edges == frozenset({(0, 0), (1, 0)})


def test_build_network_rejects_nonpositive_price():
    inst = inst_of([[2]], [1])
    with pytest.raises(FlowError):
        build_network(inst, {0: F(0)})


def test_max_flow_single_path():
    net = net_of([1], [1], [(0, 0)])
    assert max_flow(net).value == 1


def test_max_flow_bottleneck():
    net = net_of([2], [1], [(0, 0)])
    assert max_flow(net).value == 1


def test_max_flow_disconnected_buyer():
    net = net_of([1], [1, 5], [(0, 0)])
    f = max_flow(net)
    assert f.into_buyer(1) == 0
    assert f.value == 1


def test_max_flow_conservation_and_caps():
    net = net_of([3, 2], [4, 2], [(0, 0), (0, 1), (1, 1)])
    f = max_flow(net)
    for j in net.goods:
        inflow = f.on(SOURCE, good_vertex(j))
        outflow = sum(
            f.on(good_vertex(j), buyer_vertex(i)) for i in net.buyers
        )
        assert inflow == outflow
        assert inflow <= net.source_caps[j]
    for i in net.buyers:
        inflow = sum(f.on(good_vertex(j), buyer_vertex(i)) for j in net.goods)
        assert inflow == f.into_buyer(i) <= net.sink_caps[i]
    assert f.value == 5


def test_min_cut_sink_edge_saturated():
    net = net_of([2], [1], [(0, 0)])
    f = max_flow(net)
    cut = min_cut_source_side(net, f)
    assert cut.source_side == frozenset({SOURCE, good_vertex(0), buyer_vertex(0)})
    assert cut.capacity == 1


def test_min_cut_source_edge_saturated():
    net = net_of([1], [2], [(0, 0)])
    f = max_flow(net)
    cut = min_cut_source_side(net, f)
    assert cut.source_side == frozenset({SOURCE})


def test_min_cut_both_saturated_stops_at_source():
    # Both the source and sink edges are exactly tight: residual reachability
    # stops immediately at s (hand enumeration of the 4-vertex network).
    net = net_of([1], [1], [(0, 0)])
    f = max_flow(net)
    cut = min_cut_source_side(net, f)
    assert cut.source_side == frozenset({SOURCE})
    assert cut.capacity == 1


def test_maximal_min_cut_single_pair():
    net = net_of([2], [1], [(0, 0)])
    f = max_flow(net)
    cut = maximal_min_cut(net, f)
    assert cut.source_side == frozenset({SOURCE, good_vertex(0), buyer_vertex(0)})
    assert cut.goods_part() == (0,)
    assert cut.buyers_part() == (0,)


def test_maximal_min_cut_trivial_when_only_source_tight():
    net = net_of([1], [2], [(0, 0)])
    f = max_flow(net)
    cut = maximal_min_cut(net, f)
    assert cut.source_side == frozenset({SOURCE})


def test_maximal_min_cut_decoupled_tight_pair_matches_brute_force():
    # g0-b0 is exactly tight, g1-b1 is slack on the sink side.
    net = net_of([1, 1], [1, 2], [(0, 0), (1, 1)])
    f = max_flow(net)
    cut = maximal_min_cut(net, f)
    assert set(cut.goods_part()) == {0} and set(cut.buyers_part()) == {0}
    best, cuts = brute_force_min_cuts(net)
    assert cut.capacity == best == f.value
    assert cut.source_side == max(cuts, key=len)


def test_cut_rejects_crossing_unbounded_edge():
    net = net_of([1], [1], [(0, 0)])
    from arcticauction.flownet import _cut_capacity

    with pytest.raises(FlowError):
        _cut_capacity(net, frozenset({SOURCE, good_vertex(0)}))


@pytest.mark.parametrize(
    "goods,buyers,source_caps,sink_caps",
    [
        ((1, 0), (0,), {0: F(1), 1: F(1)}, {0: F(1)}),
        ((0,), (0, 2), {0: F(1)}, {0: F(1), 2: F(1)}),
        ((0,), (0,), {}, {0: F(1)}),
        ((0,), (0,), {0: F(1)}, {0: F(1), 1: F(1)}),
    ],
    ids=["out-of-order", "sparse-ids", "missing-cap", "extra-cap"],
)
def test_network_takes_only_ids_in_order_and_their_caps(goods, buyers, source_caps, sink_caps):
    # Goods and buyers are numbered 0, 1, ... in order, and the caps are
    # keyed by exactly them: any other network is a FlowError, not a
    # KeyError or a graph that reads the wrong arc.
    with pytest.raises(FlowError):
        FlowNetwork(goods, buyers, source_caps, sink_caps, frozenset())


def test_min_cut_requires_max_flow():
    net = net_of([1], [1], [(0, 0)])
    with pytest.raises(FlowError):
        min_cut_source_side(net, Flow(values={}, value=F(0)))


def _one_pair_flow(into_good, into_buyer, into_sink):
    return Flow(
        values={
            (SOURCE, good_vertex(0)): F(into_good),
            (good_vertex(0), buyer_vertex(0)): F(into_buyer),
            (buyer_vertex(0), SINK): F(into_sink),
        },
        value=F(into_good),
    )


@pytest.mark.parametrize(
    "flow",
    [
        _one_pair_flow(F(3, 2), F(3, 2), F(3, 2)),  # over the good's price
        _one_pair_flow(1, 1, F(1, 2)),  # not conserved at the buyer
        _one_pair_flow(1, F(1, 2), F(1, 2)),  # not conserved at the good
        _one_pair_flow(-1, -1, -1),  # negative
    ],
    ids=["over-capacity", "buyer-leak", "good-leak", "negative"],
)
def test_seeded_flow_must_be_feasible(flow):
    net = net_of([1], [2], [(0, 0)])
    with pytest.raises(FlowError):
        _Residual(net, flow)
    for reader in (min_cut_source_side, maximal_min_cut):
        with pytest.raises(FlowError):
            reader(net, flow)


def test_seeded_flow_on_a_dropped_edge_is_not_conserved():
    # The edge g0 -> b1 carries 1 but is not in the network.
    net = net_of([2], [2, 1], [(0, 0)])
    f = Flow(
        values={
            (SOURCE, good_vertex(0)): F(2),
            (good_vertex(0), buyer_vertex(0)): F(1),
            (good_vertex(0), buyer_vertex(1)): F(1),
            (buyer_vertex(0), SINK): F(1),
            (buyer_vertex(1), SINK): F(1),
        },
        value=F(2),
    )
    with pytest.raises(FlowError, match="not conserved"):
        _Residual(net, f)


def test_residual_reachable_no_shared_goods():
    net = net_of([1, 1], [1, 1], [(0, 0), (1, 1)])
    f = max_flow(net)
    assert residual_reachable(net, f, {0}) == set()


def test_residual_reachable_through_flow_carrying_good():
    # b1 sends flow into g0 which also feeds the target b0 via an edge.
    net = net_of([1], [2, 1], [(0, 0), (0, 1)])
    f = max_flow(net)
    assert f.value == 1
    senders = {i for i in (0, 1) if f.into_buyer(i) > 0}
    others = {0, 1} - senders
    if others:
        assert residual_reachable(net, f, others) == senders


def test_residual_reachable_all_targets():
    net = net_of([1], [1, 1], [(0, 0), (0, 1)])
    f = max_flow(net)
    assert residual_reachable(net, f, {0, 1}) == set()


def test_invariant_small_prices():
    inst = inst_of([[2, 1], [1, 2]], [3, 4])
    net = build_network(inst, {0: F(1, 2), 1: F(1, 2)})
    assert check_invariant(net)


def test_invariant_fails_when_price_exceeds_money():
    net = net_of([5], [1], [(0, 0)])
    assert not check_invariant(net)


def test_invariant_exactly_tight():
    net = net_of([1], [1], [(0, 0)])
    assert check_invariant(net)


small_networks = st.builds(
    lambda seed: _random_network(seed),
    st.integers(min_value=0, max_value=10_000),
)


def _random_network(seed: int) -> FlowNetwork:
    rng = random.Random(seed)
    m = rng.randint(1, 3)
    n = rng.randint(1, 3)
    prices = [F(rng.randint(1, 8), rng.randint(1, 4)) for _ in range(m)]
    moneys = [F(rng.randint(0, 8), rng.randint(1, 4)) for _ in range(n)]
    edges = {
        (j, i) for j in range(m) for i in range(n) if rng.random() < 0.7
    }
    return net_of(prices, moneys, edges)


def assert_cuts_match_brute_force(net: FlowNetwork):
    f = max_flow(net)
    near = min_cut_source_side(net, f)
    far = maximal_min_cut(net, f)
    assert f.value == near.capacity == far.capacity
    assert near.source_side <= far.source_side
    best, cuts = brute_force_min_cuts(net)
    assert best == f.value
    # The residual-reachable side is inclusion-minimal among all min cuts,
    # the cannot-reach-sink side inclusion-maximal; both are unique.
    assert near.source_side == min(cuts, key=len)
    assert all(near.source_side <= c for c in cuts)
    assert far.source_side == max(cuts, key=len)
    assert all(c <= far.source_side for c in cuts)
    # Minimal and maximal sides coincide exactly when the min cut is unique.
    assert (near.source_side == far.source_side) == (len(cuts) == 1)


@given(net=small_networks)
@settings(max_examples=150, deadline=None)
def test_maxflow_mincut_duality_exact(net):
    assert_cuts_match_brute_force(net)


@given(
    net=small_networks,
    cut_back=st.fractions(min_value=0, max_value=1),
    theta=st.fractions(min_value=1, max_value=3, max_denominator=7),
)
@settings(max_examples=150, deadline=None)
def test_probe_cut_does_not_depend_on_start_flow(net, cut_back, theta):
    # A probe is a copy of a graph carrying a start flow, with the source
    # caps of some goods raised by theta = n/d (every value times d, those
    # caps times n), augmented and read by the one cut reader.  Start flows:
    # zero, a maximum flow of the network with every sink cap scaled down,
    # and a maximum flow of the network; each is feasible at theta >= 1.
    raised = [j for j in net.goods if j % 2 == 0]
    at_theta = replace(
        net, source_caps={j: c * theta if j in raised else c for j, c in net.source_caps.items()}
    )
    f = max_flow(at_theta)
    saturated = f.value == at_theta.total_price
    cold = (maximal_min_cut if saturated else min_cut_source_side)(at_theta, f)
    reduced = replace(net, sink_caps={i: c * cut_back for i, c in net.sink_caps.items()})
    for start in (None, max_flow(reduced), max_flow(net)):
        base = _Residual(net, start)
        kept = list(base.flow)
        g = base.scaled(theta.denominator, theta.numerator, raised)
        g.augment()
        assert (not g.deficit()) == saturated
        assert _read_cut(g, maximal=saturated) == cold.source_side
        assert base.flow == kept and base.scale * theta.denominator == g.scale


def _searches_only_augment(g, avoid=()):
    """``_Residual.augment`` as it was before its length-3 pass: one search per path."""
    cap, flow, ends = g.cap, g.flow, g.ends
    sink = len(g.adj) - 1
    while True:
        parent = g.search([0], avoid=avoid, stop=sink)
        if parent[sink] is None:
            return parent
        path = []
        bottleneck = None
        v = sink
        while v:
            a = parent[v]
            u, w = ends[a]
            if w == v:
                r = None if cap[a] is None else cap[a] - flow[a]
                path.append((a, 1))
                v = u
            else:
                r = flow[a]
                path.append((a, -1))
                v = w
            if r is not None and (bottleneck is None or r < bottleneck):
                bottleneck = r
        if bottleneck is None or bottleneck <= 0:
            raise FlowError("augmenting path without finite bottleneck")
        for a, sign in path:
            flow[a] += sign * bottleneck


def _bipartite_network(seed: int) -> FlowNetwork:
    """Up to five goods and five buyers, prices and caps from a few values (so
    ratios tie), zero sink caps, and edges at random."""
    rng = random.Random(seed)
    goods = tuple(range(rng.randint(1, 5)))
    buyers = tuple(range(rng.randint(1, 5)))
    return FlowNetwork(
        goods=goods,
        buyers=buyers,
        source_caps={j: F(rng.randint(1, 4), rng.choice((1, 2))) for j in goods},
        sink_caps={i: F(rng.choice((0, 1, 2, 3, 5)), rng.choice((1, 3))) for i in buyers},
        edges=frozenset((j, i) for j in goods for i in buyers if rng.random() < 0.5),
    )


def _assert_augment_matches_searches(g, avoid):
    reference = copy(g)
    reference.flow = list(g.flow)
    assert g.augment(avoid) == _searches_only_augment(reference, avoid)
    assert g.flow == reference.flow


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    cut_back=st.fractions(min_value=0, max_value=1),
    theta=st.fractions(min_value=1, max_value=3, max_denominator=7),
    hidden_goods=st.sets(st.integers(min_value=0, max_value=4), max_size=2),
    hidden_buyers=st.sets(st.integers(min_value=0, max_value=4), max_size=2),
)
@settings(max_examples=300, deadline=None)
def test_augment_pushes_the_paths_of_the_searches(
    seed, cut_back, theta, hidden_goods, hidden_buyers
):
    # From zero, from a maximum flow with every sink cap scaled down and
    # from a maximum flow, each on a copy with some source caps raised by
    # theta (as a probe has them), and with some goods and buyers hidden:
    # the same flow and the same last search as one search per path.
    net = _bipartite_network(seed)
    raised = net.goods[::2]
    reduced = replace(net, sink_caps={i: c * cut_back for i, c in net.sink_caps.items()})
    for start in (None, max_flow(reduced), max_flow(net)):
        base = _Residual(net, start)
        goods = [base.vertices.index(good_vertex(j)) for j in net.goods]
        buyers = [base.vertices.index(buyer_vertex(i)) for i in net.buyers]
        avoid = {goods[k % len(goods)] for k in hidden_goods}
        avoid |= {buyers[k % len(buyers)] for k in hidden_buyers}
        g = base.scaled(theta.denominator, theta.numerator, raised)
        _assert_augment_matches_searches(g, avoid)


def test_augment_fills_a_good_part_way_through_its_buyers():
    # Good 0 fills buyer 0, skips the hidden buyer 1 and is full after
    # buyer 2, so buyer 3 gets nothing in the length-3 pass; the hidden
    # good 1 sends nothing.  Good 2 then reaches buyer 3 only by the
    # length-5 path s, g2, b0, g0, b3, t.
    net = net_of([3, 1, 1], [1, 4, 2, 3], [(0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (2, 0)])
    g = _Residual(net)
    hidden = {g.vertices.index(good_vertex(1)), g.vertices.index(buyer_vertex(1))}
    _assert_augment_matches_searches(g, hidden)
    assert g.as_flow().values == {
        _arc(*e): F(x)
        for e, x in {
            ("s", "g0"): 3, ("s", "g2"): 1,
            ("g0", "b2"): 2, ("g0", "b3"): 1, ("g2", "b0"): 1,
            ("b0", "t"): 1, ("b2", "t"): 2, ("b3", "t"): 1,
        }.items()
    }


def _graph_view(g):
    """g per vertex tuple: scale, each adjacency list's heads in order, each arc's cap and flow."""
    at = g.vertices
    return (
        g.scale,
        {at[u]: [at[v] for v, _, _ in entries] for u, entries in enumerate(g.adj)},
        {(at[u], at[v]): (c, f) for (u, v), c, f in zip(g.ends, g.cap, g.flow)},
    )


def _assert_layout(g, net):
    """g has the positional layout over net: arc j is (s, good j), arc m + i
    is (buyer i, t) and ``sink_arc(i)`` is m + i, with good j at vertex 1 + j
    and buyer i at 1 + m + i; and ``goods_of``, ``buyers_of`` and
    ``buyers_reaching`` agree, by id, with net's edges."""
    m, t = len(net.goods), len(g.vertices) - 1
    assert g.vertices == [SOURCE, *map(good_vertex, net.goods), *map(buyer_vertex, net.buyers), SINK]
    for j in net.goods:
        assert g.ends[j] == (0, 1 + j)
        assert g.buyers_of(j) == {i for jj, i in net.edges if jj == j}
    for i in net.buyers:
        assert g.ends[m + i] == (1 + m + i, t) and g.sink_arc(i) == m + i
        assert g.goods_of(i) == {j for j, ii in net.edges if ii == i}
        assert g.buyers_reaching([i]) == _Residual(net, g.as_flow()).buyers_reaching([i])


@given(net=small_networks, d=st.integers(min_value=1, max_value=12))
@settings(max_examples=100, deadline=None)
def test_edited_graph_equals_a_fresh_build(net, d):
    # Adding an arc, dropping an arc without flow and dividing by the gcd
    # leave the graph a fresh build of the edited network would be; an arc
    # that carries flow cannot be dropped.  The layout holds after every
    # edit, on a scaled copy, and after a sink cap is lowered below its flow.
    f = max_flow(net)
    carries = {(j, i) for j, i in net.edges if f.on(good_vertex(j), buyer_vertex(i))}
    added = sorted({(j, i) for j in net.goods for i in net.buyers} - net.edges)[:1]
    dropped = sorted(net.edges - carries)[:1]
    g = _Residual(net, f)
    _assert_layout(g, net)
    g.rescale(d)
    _assert_layout(g, net)
    for j, i in added:
        g.add_arc(j, i)
    edited = replace(net, edges=net.edges | set(added))
    _assert_layout(g, edited)
    g.drop_arcs(dropped)
    edited = replace(edited, edges=edited.edges - set(dropped))
    _assert_layout(g, edited)
    g.reduce()
    _assert_layout(g, edited)
    assert _graph_view(g) == _graph_view(_Residual(edited, f))
    _assert_layout(g.scaled(d, d + 1, net.goods[::2]), edited)
    for arc in sorted(carries)[:1]:
        with pytest.raises(FlowError, match="carries flow"):
            g.drop_arcs([arc])
    # Lowering a cap under the flow it carries gives the excess back and
    # keeps the flow feasible: a fresh build from it passes the check.
    for i in [i for i in net.buyers if f.into_buyer(i)][:1]:
        c = g.flow[g.sink_arc(i)] // 2
        g.set_sink_cap(g.sink_arc(i), c)
        assert g.cap[g.sink_arc(i)] == g.flow[g.sink_arc(i)] == c
        lowered = replace(edited, sink_caps={**net.sink_caps, i: F(c, g.scale)})
        _assert_layout(g, lowered)
        g.reduce()
        assert _graph_view(g) == _graph_view(_Residual(lowered, g.as_flow()))


_PRIMES_NEAR_1E6 = (999983, 999979, 999961, 999959, 999953, 999931)
_HUGE = 10**400


def _coprime_denominators(rng, count):
    return [F(rng.randint(1, 10**6), p) for p in rng.sample(_PRIMES_NEAR_1E6, count)]


def _near_huge(rng, count):
    return [F(_HUGE + rng.randint(0, 10**6), rng.randint(1, 9)) for _ in range(count)]


def _huge_denominators(rng, count):
    return [F(rng.randint(1, 10**6), _HUGE + 2 * rng.randint(0, 10**3) + 1) for _ in range(count)]


@pytest.mark.parametrize("caps", [_coprime_denominators, _near_huge, _huge_denominators])
@pytest.mark.parametrize("seed", range(8))
def test_scaled_capacities_match_brute_force(caps, seed):
    # The residual graph scales every capacity by the LCM of the
    # denominators: here a product of up to six primes near 10^6, or
    # numerators or denominators of about 1330 bits.
    rng = random.Random(seed)
    m, n = rng.randint(2, 3), rng.randint(2, 3)
    values = caps(rng, m + n)
    edges = {(j, i) for j in range(m) for i in range(n) if rng.random() < 0.7}
    assert_cuts_match_brute_force(net_of(values[:m], values[m:], edges))


@given(net=small_networks)
@settings(max_examples=100, deadline=None)
def test_flows_are_exact_rationals(net):
    f = max_flow(net)
    assert all(isinstance(v, Fraction) for v in f.values.values())
    total_out = sum(
        (f.on(SOURCE, good_vertex(j)) for j in net.goods), F(0)
    )
    total_in = sum((f.into_buyer(i) for i in net.buyers), F(0))
    assert total_out == total_in == f.value


def test_deterministic_flow():
    net = net_of([3, 2], [4, 2], [(0, 0), (0, 1), (1, 1)])
    assert max_flow(net).values == max_flow(net).values


def _arc(u, v):
    def vertex(name):
        return SOURCE if name == "s" else SINK if name == "t" else (name[0], int(name[1:]))

    return (vertex(u), vertex(v))


_TIES = net_of(
    [1, 3, 2], [4, 3, 1], [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0), (2, 2)]
)
# Goods (1, 3) and buyers (0, 2) of a sparse-id network, renumbered 0, 1 in
# order: a FlowNetwork takes no other numbering.
_SPARSE_IDS = net_of([F(3, 2), F(5, 4)], [F(7, 3), F(1, 2)], [(0, 0), (0, 1), (1, 0), (1, 1)])
_ZERO_SINK = net_of(
    [2, 1, 3], [0, 3, 2], [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 2)]
)


@pytest.mark.parametrize(
    "net,expected",
    [
        # Several augmenting paths tie at every length, and one of them
        # cancels the flow first sent on g0 -> b0.
        (
            _TIES,
            {
                ("s", "g0"): 1, ("s", "g1"): 3, ("s", "g2"): 2,
                ("g0", "b1"): 1, ("g1", "b0"): 3, ("g2", "b0"): 1, ("g2", "b2"): 1,
                ("b0", "t"): 4, ("b1", "t"): 1, ("b2", "t"): 1,
            },
        ),
        # The sparse-id network renumbered: relabelling keeps the order,
        # so the flow is the one it pinned, relabelled (g1, g3 -> g0, g1
        # and b0, b2 -> b0, b1).
        (
            _SPARSE_IDS,
            {
                ("s", "g0"): F(3, 2), ("s", "g1"): F(5, 4),
                ("g0", "b0"): F(3, 2), ("g1", "b0"): F(5, 6), ("g1", "b1"): F(5, 12),
                ("b0", "t"): F(7, 3), ("b1", "t"): F(5, 12),
            },
        ),
        # Buyer 0 has no sink capacity left.
        (
            _ZERO_SINK,
            {
                ("s", "g0"): 2, ("s", "g1"): 1, ("s", "g2"): 2,
                ("g0", "b1"): 2, ("g1", "b1"): 1, ("g2", "b2"): 2,
                ("b1", "t"): 3, ("b2", "t"): 2,
            },
        ),
    ],
    ids=["ties", "sparse-ids", "zero-sink"],
)
def test_flow_is_pinned(net, expected):
    # The literal flows fix the augmenting-path order: another order gives
    # another maximum flow, and a solve reports another allocation.
    f = max_flow(net)
    assert f.values == {_arc(*e): F(x) for e, x in expected.items()}
    assert f.value == sum(f.on(SOURCE, good_vertex(j)) for j in net.goods)


def test_residual_walk_under_flow_of_another_network():
    # As in the balanced-flow recursion: the flow is a maximum flow of the
    # sink-reduced network, with thirds the network itself does not have.
    net = net_of([1, 1], [1, 2], [(0, 0), (0, 1), (1, 1)])
    reduced = replace(net, sink_caps={0: F(1, 3), 1: F(4, 3)})
    f = max_flow(reduced)
    assert f.on(good_vertex(0), buyer_vertex(1)) == F(2, 3)
    g = _Residual(net, f)
    at = g.vertices
    parent = g.search([at.index(SOURCE)], avoid=[at.index(SINK)])

    def came_from(v):
        u, w = g.ends[parent[at.index(v)]]
        return at[u] if at[w] == v else at[w]

    # Buyer 0 is reached only back along the 2/3 on g0 -> b1.
    assert {at[v] for v, a in enumerate(parent) if a is not None} == {
        SOURCE, good_vertex(0), good_vertex(1), buyer_vertex(0), buyer_vertex(1)
    }
    assert came_from(good_vertex(0)) == buyer_vertex(1)
    assert came_from(buyer_vertex(0)) == good_vertex(0)
