"""Balanced flows: surplus vectors, the l2-minimizing property, potential."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from arcticauction import flownet
from arcticauction.balanced import _water_level, balance, balanced_flow
from arcticauction.flownet import (
    SINK,
    SOURCE,
    Flow,
    FlowNetwork,
    buyer_vertex,
    good_vertex,
    max_flow,
)
from reference import balanced_surplus, oracle_balanced_surplus, potential, surplus, verify_property1

F = Fraction


def net_of(prices, moneys, edges):
    return FlowNetwork(
        goods=tuple(range(len(prices))),
        buyers=tuple(range(len(moneys))),
        source_caps={j: F(p) for j, p in enumerate(prices)},
        sink_caps={i: F(c) for i, c in enumerate(moneys)},
        edges=frozenset(edges),
    )


def random_network(seed, max_buyers=4, max_goods=4):
    rng = random.Random(seed)
    m = rng.randint(1, max_goods)
    n = rng.randint(1, max_buyers)
    prices = [F(rng.randint(1, 9), rng.randint(1, 3)) for _ in range(m)]
    moneys = [F(rng.randint(0, 9), rng.randint(1, 3)) for _ in range(n)]
    edges = {(j, i) for j in range(m) for i in range(n) if rng.random() < 0.6}
    return net_of(prices, moneys, edges)


def test_surplus_saturating_flow_is_zero():
    net = net_of([1], [1], [(0, 0)])
    f = max_flow(net)
    assert surplus(net, f) == {0: F(0)}


def test_surplus_zero_flow_is_leftover():
    net = net_of([1], [3], [(0, 0)])
    zero = Flow(values={}, value=F(0))
    assert surplus(net, zero) == {0: F(3)}


def test_surplus_arithmetic():
    net = net_of([2], [2, 1], [(0, 0), (0, 1)])
    f = Flow(
        values={
            (SOURCE, good_vertex(0)): F(2),
            (good_vertex(0), buyer_vertex(0)): F(3, 2),
            (good_vertex(0), buyer_vertex(1)): F(1, 2),
            (buyer_vertex(0), SINK): F(3, 2),
            (buyer_vertex(1), SINK): F(1, 2),
        },
        value=F(2),
    )
    assert surplus(net, f) == {0: F(1, 2), 1: F(1, 2)}


def test_balanced_flow_shares_one_good():
    # One good of price 2, buyers with money 2 and 1: minimizing g0^2+g1^2
    # subject to g0+g1=1, bounds, gives (1/2, 1/2).
    net = net_of([2], [2, 1], [(0, 0), (0, 1)])
    f = balanced_flow(net)
    assert surplus(net, f) == {0: F(1, 2), 1: F(1, 2)}


def test_balanced_flow_decoupled_pairs():
    net = net_of([1, 2], [3, 2], [(0, 0), (1, 1)])
    f = balanced_flow(net)
    assert surplus(net, f) == {0: F(2), 1: F(0)}


def test_balanced_flow_unique_max_flow():
    net = net_of([1], [1], [(0, 0)])
    f = balanced_flow(net)
    assert f.value == 1
    assert surplus(net, f) == {0: F(0)}


def test_balanced_flow_is_max_flow():
    for seed in range(60):
        net = random_network(seed)
        f = balanced_flow(net)
        assert f.value == max_flow(net).value


def test_property1_holds_on_balanced_flows():
    for seed in range(60):
        net = random_network(seed)
        assert verify_property1(net, balanced_flow(net))


def test_property1_rejects_skewed_flow():
    # Push everything to the large buyer: surplus (0, 1) with a residual
    # path from the zero-surplus buyer back through the good.
    net = net_of([2], [2, 1], [(0, 0), (0, 1)])
    skew = Flow(
        values={
            (SOURCE, good_vertex(0)): F(2),
            (good_vertex(0), buyer_vertex(0)): F(2),
            (buyer_vertex(0), SINK): F(2),
        },
        value=F(2),
    )
    assert not verify_property1(net, skew)


def test_property1_single_buyer():
    net = net_of([1], [2], [(0, 0)])
    assert verify_property1(net, max_flow(net))


def test_potential_values():
    assert potential({0: F(0), 1: F(0)}) == 0
    assert potential({0: F(1, 2), 1: F(1, 2)}) == F(1, 2)
    # The l2 motivation: (1,0) and (1/2,1/2) share their l1 norm but the
    # squared l2 values 1 vs 1/2 separate them.
    assert potential({0: F(1), 1: F(0)}) == 1
    assert potential({0: F(1), 1: F(0)}) > potential({0: F(1, 2), 1: F(1, 2)})


def test_surplus_vector_is_ordering_independent():
    # Relabeling buyers and goods then unrelabeling must give the same
    # surplus vector: the balanced surplus is unique, the flow is not.
    for seed in range(40):
        net = random_network(seed)
        gamma = balanced_surplus(net)
        g_perm = {j: len(net.goods) - 1 - k for k, j in enumerate(net.goods)}
        b_perm = {i: len(net.buyers) - 1 - k for k, i in enumerate(net.buyers)}
        relabeled = FlowNetwork(
            goods=tuple(sorted(g_perm.values())),
            buyers=tuple(sorted(b_perm.values())),
            source_caps={g_perm[j]: net.source_caps[j] for j in net.goods},
            sink_caps={b_perm[i]: net.sink_caps[i] for i in net.buyers},
            edges=frozenset((g_perm[j], b_perm[i]) for (j, i) in net.edges),
        )
        gamma2 = balanced_surplus(relabeled)
        assert gamma == {i: gamma2[b_perm[i]] for i in net.buyers}


def test_matches_subset_enumeration_oracle():
    for seed in range(80):
        net = random_network(seed)
        assert balanced_surplus(net) == oracle_balanced_surplus(net)


def test_surplus_drop_bounds_potential_drop():
    # Raising prices (and possibly adding edges) with fixed sink capacities:
    # if a buyer's balanced surplus falls by sigma, the potential falls by
    # at least sigma^2.
    checked = 0
    for seed in range(120):
        rng = random.Random(10_000 + seed)
        net = random_network(seed)
        before = balanced_surplus(net)
        phi_before = potential(before)
        bumped_prices = {
            j: net.source_caps[j] + F(rng.randint(0, 4), rng.randint(1, 3))
            for j in net.goods
        }
        extra = {
            (j, i)
            for j in net.goods
            for i in net.buyers
            if rng.random() < 0.15
        }
        bigger = FlowNetwork(
            goods=net.goods,
            buyers=net.buyers,
            source_caps=bumped_prices,
            sink_caps=net.sink_caps,
            edges=net.edges | extra,
        )
        after = balanced_surplus(bigger)
        phi_after = potential(after)
        assert phi_after <= phi_before
        drops = [before[i] - after[i] for i in net.buyers if before[i] > after[i]]
        if drops:
            checked += 1
            assert phi_before - phi_after >= max(drops) ** 2
    assert checked > 20


@given(
    caps=st.lists(st.integers(0, 10**6) | st.integers(0, 2**900), min_size=1, max_size=8),
    share=st.fractions(min_value=0, max_value=1),
)
@settings(max_examples=300, deadline=None)
def test_water_level_solves_its_equation(caps, share):
    # The level delta >= 0 with sum_i max(c_i - delta, 0) = target, on ints,
    # as a reduced int pair.
    target = int(sum(caps) * share)
    num, den = _water_level(caps, target)
    assert type(num) is int and type(den) is int and den > 0 and gcd(num, den) == 1
    delta = Fraction(num, den)
    assert delta >= 0
    assert sum(max(c - delta, 0) for c in caps) == target
    with pytest.raises(ValueError):
        _water_level(caps, sum(caps) + 1)
    with pytest.raises(ValueError):
        _water_level(caps, -1)


def assert_feasible(g):
    """Every arc within its capacity and flow conserved at every good and buyer."""
    net_out = [0] * len(g.adj)
    for a, (u, v) in enumerate(g.ends):
        assert 0 <= g.flow[a] and (g.cap[a] is None or g.flow[a] <= g.cap[a])
        net_out[u] += g.flow[a]
        net_out[v] -= g.flow[a]
    assert not any(net_out[1:-1])


@pytest.fixture
def checked_augment(monkeypatch):
    """Check the warm-started flow is feasible before and after every augment."""
    augment = flownet._Residual.augment

    def checked(g, avoid=()):
        assert_feasible(g)
        value = augment(g, avoid)
        assert_feasible(g)
        return value

    monkeypatch.setattr(flownet._Residual, "augment", checked)


def test_rescaling_across_levels(checked_augment, monkeypatch):
    # Three buyers with cap 1 share good 0 (price 1): surplus 2/3 each, the
    # top level.  Two more share good 1: surplus 1/2 each, the second level.
    # The water levels 3/5, 2/3 and 1/2 each bring a new denominator.
    rescale = flownet._Residual.rescale
    factors = []

    def spy(g, d):
        factors.append(d)
        rescale(g, d)

    monkeypatch.setattr(flownet._Residual, "rescale", spy)
    net = net_of([1, 1], [1] * 5, [(0, 0), (0, 1), (0, 2), (1, 3), (1, 4)])
    expected = {0: F(2, 3), 1: F(2, 3), 2: F(2, 3), 3: F(1, 2), 4: F(1, 2)}
    assert balanced_surplus(net) == expected
    assert factors == [5, 3, 2]
    assert balanced_surplus(net) == oracle_balanced_surplus(net)
    assert surplus(net, balanced_flow(net)) == expected


def test_cancellation_of_pinned_good_next_to_survivor(checked_augment):
    # Good 0 feeds buyer 0 on the first augmenting path, then is rerouted to
    # buyer 1, which only it can feed.  Buyer 1 and good 0 are pinned at
    # surplus 2; buyer 0 survives next to the pinned good and must be
    # saturated by good 1 alone on the second level.
    net = net_of([1, 2], [2, 3], [(0, 0), (0, 1), (1, 0)])
    assert balanced_surplus(net) == {0: F(0), 1: F(2)}
    assert balanced_surplus(net) == oracle_balanced_surplus(net)
    f = balanced_flow(net)
    assert surplus(net, f) == {0: F(0), 1: F(2)}
    assert verify_property1(net, f)


def test_balance_keeps_whole_components_it_is_given(checked_augment):
    # Good 0 feeds buyers 0 and 1; good 1 feeds buyer 2 alone, whose
    # component carries its balanced flow.  Naming good 0 peels its
    # component from zero, and buyer 2's is kept as it is.
    net = net_of([2, 1], [2, 1, 3], [(0, 0), (0, 1), (1, 2)])
    arcs = [(SOURCE, good_vertex(1)), (good_vertex(1), buyer_vertex(2)), (buyer_vertex(2), SINK)]
    start = Flow(values=dict.fromkeys(arcs, F(1)), value=F(1))
    g = flownet._Residual(net, start)
    balance(g, [0])
    f = g.as_flow()
    assert surplus(net, f) == balanced_surplus(net) == {0: F(1, 2), 1: F(1, 2), 2: F(2)}
    assert all(f.on(*arc) == 1 for arc in arcs)


def _kept_component_graph():
    """test_balance_keeps_whole_components_it_is_given's graph: buyer 2's
    component carries its balanced flow, and only good 0's is peeled."""
    net = net_of([2, 1], [2, 1, 3], [(0, 0), (0, 1), (1, 2)])
    arcs = [(SOURCE, good_vertex(1)), (good_vertex(1), buyer_vertex(2)), (buyer_vertex(2), SINK)]
    g = flownet._Residual(net, Flow(values=dict.fromkeys(arcs, F(1)), value=F(1)))
    return g, [0], 2


@pytest.mark.parametrize(
    "case",
    [
        # test_rescaling_across_levels' network: three rescales, two pinned levels.
        lambda: (flownet._Residual(net_of([1, 1], [1] * 5, [(0, 0), (0, 1), (0, 2), (1, 3), (1, 4)])), [0, 1], 30),
        _kept_component_graph,
        # Buyer 0 is pinned at surplus 1; buyer 1, lowered to cap 0 there,
        # is saturated at the last level, at 0.
        lambda: (flownet._Residual(net_of([1, 2], [2, 1], [(0, 0), (1, 1)])), [0, 1], 1),
    ],
    ids=["three-rescales", "kept-component", "last-level"],
)
def test_balance_leaves_every_cap_as_it_was_times_the_rescale(checked_augment, case):
    # balance lowers sink caps level by level and rescales every value; at
    # the end every capacity, source, unbounded and sink arcs alike, is its
    # value before the call times the rescale factor.
    g, goods, factor = case()
    before, scale = list(g.cap), g.scale
    balance(g, goods)
    assert g.scale // scale == factor
    assert g.cap == [None if c is None else c * factor for c in before]


@pytest.mark.parametrize("seed", range(12))
def test_balanced_flow_on_rational_networks_beyond_the_oracle(checked_augment, seed):
    rng = random.Random(7_000 + seed)
    m, n = rng.randint(8, 12), rng.randint(8, 12)
    prices = [F(rng.randint(1, 30), rng.randint(1, 12)) for _ in range(m)]
    moneys = [F(rng.randint(0, 30), rng.randint(1, 12)) for _ in range(n)]
    edges = {(j, i) for j in range(m) for i in range(n) if rng.random() < 0.25}
    net = net_of(prices, moneys, edges)
    f = balanced_flow(net)
    assert f.value == max_flow(net).value
    assert verify_property1(net, f)
    assert surplus(net, f) == balanced_surplus(net)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_balance_from_any_start_flow(checked_augment, seed):
    # balance starts each level at the water levels of its start flow's
    # surplus level sets.  A maximum flow of the network under randomly
    # lowered sink caps is feasible, and its level sets are not the
    # balanced ones; the balance must still reach the balanced surplus.
    rng = random.Random(seed)
    m, n = rng.randint(8, 12), rng.randint(8, 12)
    prices = [F(rng.randint(1, 30), rng.randint(1, 12)) for _ in range(m)]
    moneys = [F(rng.randint(0, 30), rng.randint(1, 12)) for _ in range(n)]
    edges = {(j, i) for j in range(m) for i in range(n) if rng.random() < 0.25}
    net = net_of(prices, moneys, edges)
    lowered = net_of(prices, [c * F(rng.randint(0, 4), 4) for c in moneys], edges)
    g = flownet._Residual(net, max_flow(lowered))
    before, scale = list(g.cap), g.scale
    balance(g, range(m))
    factor = g.scale // scale
    assert g.scale == scale * factor
    assert g.cap == [None if c is None else c * factor for c in before]
    f = g.as_flow()
    assert f.value == max_flow(net).value
    assert surplus(net, f) == balanced_surplus(net)
    assert verify_property1(net, f)
