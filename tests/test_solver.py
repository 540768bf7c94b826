"""The primal-dual solver: initialization, phases, events, full solves."""

import ast
import hashlib
import json
import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import arcticauction

from arcticauction import balanced, flownet, solver
from arcticauction.flownet import FlowNetwork, max_flow, maximal_min_cut
from arcticauction.kkt import verify_arctic_kkt, verify_market_clearing
from arcticauction.market import (
    MarketInstance,
    equilibrium_for_instance,
    format_rational,
    generate_random_instance,
    generate_refund_heavy_instance,
    stats_to_doc,
    validate_instance,
)
from arcticauction.oracle import oracle_solve
from arcticauction.solver import (
    Event,
    SolverState,
    TraceRecorder,
    begin_phase,
    initialize,
    mbpb,
    next_event,
    solve,
)
from reference import (
    answers_digest,
    balanced_surplus,
    build_network,
    check_invariant,
    snapshot_network,
    verify_property1,
)

F = Fraction


def inst_of(u, m):
    return MarketInstance(
        money=tuple(F(x) for x in m),
        utilities=tuple(tuple(F(x) for x in row) for row in u),
    )


def _leftover(g, i: int) -> Fraction:
    """Buyer i's left-over money on the solver's graph g: her sink cap over scale."""
    return F(g.cap[g.sink_arc(i)], g.scale)


class _Ledger:
    """The prices and removals of the solves run while it is installed, kept
    apart from the solver's graph, which states both: the reference that
    ``network`` builds from, so that a graph with a wrong price or a removed
    buyer left in differs from it.

    It starts from initialize's prices, which the test_initialize_* tests
    hold to hand-computed values.  On each _set_theta it sets
    p_j = base_j * theta for j in J, base_j taken at its own record of the
    iteration start.  It marks a buyer removed on a type II money return or
    a z_removal."""

    def __init__(self, monkeypatch):
        self.prices, self.base, self.removed = {}, {}, set()
        initialize, start, set_theta = solver.initialize, solver._start_iteration, solver._set_theta
        money_return, z_events = solver.apply_money_return, solver.apply_z_events

        def opened(inst):
            state = initialize(inst)
            self.prices, self.removed = dict(state.prices), set()
            return state

        def started(state):
            start(state)
            self.base = {j: self.prices[j] for j in state.J}

        def raised(state, theta):
            set_theta(state, theta)
            self.prices.update({j: self.base[j] * theta for j in state.J})

        def returned(state, i):
            kind = money_return(state, i)
            if kind == "II":
                self.removed.add(i)
            return kind

        def z_event(state, event):
            if event.kind == "z_removal":
                self.removed.add(event.buyer)
            return z_events(state, event)

        monkeypatch.setattr(solver, "initialize", opened)
        monkeypatch.setattr(solver, "_start_iteration", started)
        monkeypatch.setattr(solver, "_set_theta", raised)
        monkeypatch.setattr(solver, "apply_money_return", returned)
        monkeypatch.setattr(solver, "apply_z_events", z_event)

    def network(
        self, state: SolverState, theta: Fraction | None = None, zero_buyer: int | None = None
    ) -> FlowNetwork:
        """The network a solver state stands for, built afresh: the reference for the phase graph.

        Its prices are the ledger's, with J's at ``theta`` times their base
        if given.  It is built over every buyer: a removed buyer, whose sink
        cap on the graph must be 0, and ``zero_buyer`` get sink cap 0, and a
        removed buyer has no edge, as on the solver's graph.  A live buyer's
        sink cap is the graph's.  The edges are the graph's good -> buyer
        arcs into live buyers only, so a graph that keeps an arc into a
        removed buyer differs from this build."""
        g = state.graph
        assert all(g.cap[g.sink_arc(i)] == 0 for i in self.removed)
        prices = {}
        for j in state.inst.goods:
            if theta is not None and j in state.J:
                prices[j] = self.base[j] * theta
            else:
                prices[j] = self.prices[j]
        sink_caps = {}
        for i in state.inst.buyers:
            live = i not in self.removed and i != zero_buyer
            sink_caps[i] = _leftover(g, i) if live else Fraction(0)
        at = g.vertices
        return FlowNetwork(
            goods=tuple(state.inst.goods),
            buyers=tuple(state.inst.buyers),
            source_caps=prices,
            sink_caps=sink_caps,
            # The graph's good -> buyer arcs, the arcs that leave a good, into live buyers.
            edges=frozenset(
                (at[u][1], at[v][1])
                for u, v in g.ends
                if at[u][0] == "g" and at[v][1] not in self.removed
            ),
        )


@pytest.fixture
def ledger(monkeypatch):
    return _Ledger(monkeypatch)


def test_mbpb_strict_max():
    inst = inst_of([[2, 1]], [1])
    alpha, goods = mbpb(inst, {0: F(1), 1: F(1)}, 0)
    assert alpha == 2 and goods == {0}
    # Prices may be a tuple indexed by good, as the cost market passes them.
    assert mbpb(inst, (F(1), F(1)), 0) == (2, frozenset({0}))
    # On goods the buyer does not desire there is no best ratio.
    inst = inst_of([[2, 0, 0]], [1])
    assert mbpb(inst, {1: F(1), 2: F(3)}, 0, goods=[1, 2]) == (0, frozenset())


def test_mbpb_price_breaks_tie():
    inst = inst_of([[2, 2]], [1])
    alpha, goods = mbpb(inst, {0: F(1), 1: F(2)}, 0)
    assert alpha == 2 and goods == {0}


def test_mbpb_ratio_tie_includes_both():
    inst = inst_of([[2, 4]], [1])
    alpha, goods = mbpb(inst, {0: F(1), 1: F(2)}, 0)
    assert alpha == 2 and goods == {0, 1}
    # A tie between rational ratios: (2/3) / (4/9) = (1/2) / (1/3) = 3/2.
    inst = inst_of([[F(2, 3), F(1, 2), F(1, 5)]], [1])
    assert mbpb(inst, (F(4, 9), F(1, 3), F(1, 5)), 0) == (F(3, 2), frozenset({0, 1}))


def test_initialize_uniform_prices():
    # Both goods stay demanded at the uniform opening price MIN/m = 1/2.
    inst = inst_of([[2, 2]], [1])
    state = initialize(inst)
    assert state.prices == {0: F(1, 2), 1: F(1, 2)}


def test_initialize_reprices_undemanded_good():
    # At p = 1/2 the second good is nobody's best ratio (alpha = 8 via the
    # first); it is repriced to u/alpha = 1/8 and gains its edge.
    inst = inst_of([[4, 1]], [1])
    state = initialize(inst)
    assert state.prices[0] == F(1, 2)
    assert state.prices[1] == F(1, 8)
    assert (1, 0) in build_network(inst, state.prices).edges


def test_initialize_clamps_prices_to_keep_ratios_at_least_one():
    # Uniform MIN/m pricing would give p = 5 and a best ratio below 1; the
    # price clamp keeps every buyer's ratio >= 1 so refund events stay ahead.
    inst = inst_of([[1], [2]], [10, 7])
    state = initialize(inst)
    assert state.prices[0] == 1
    assert max(inst.utilities[i][0] / state.prices[0] for i in (0, 1)) >= 1


@pytest.mark.parametrize("seed", range(25))
def test_initialize_establishes_invariant(seed):
    inst = generate_random_instance(seed, 1 + seed % 4, 1 + (seed // 2) % 4, 10)
    state = initialize(inst)
    net = build_network(inst, state.prices)
    assert check_invariant(net)
    assert {j for (j, _) in net.edges} == set(inst.goods)


def test_a_good_without_an_edge_fails_phase_one(monkeypatch):
    # initialize builds the graph with no arcs: phase 1's begin_phase adds
    # them and checks that every good has one, since a good without one
    # leaves its source arc unfilled.  At (1/2, 1/2) the buyer's best ratio
    # is 4 on both goods; at (1/2, 1) it is 4 on good 0 alone.  The graph's
    # source cap is the price, so phase 1's deficit is good 1's 1.
    init = solver.initialize

    def uncovered(inst):
        state = init(inst)
        g = state.graph
        g.cap[1] = g.scale  # good j's source arc is arc j
        return state

    monkeypatch.setattr(solver, "initialize", uncovered)
    with pytest.raises(solver.SolverError, match="phase 1 start"):
        solve(inst_of([[2, 2]], [1]))


def test_begin_phase_equal_surplus_all_active():
    inst = inst_of([[2, 1], [1, 2]], [1, 1])
    state = initialize(inst)
    phi, terminal = begin_phase(state)
    assert not terminal
    assert state.I == {0, 1}
    assert state.Z == set()


def test_begin_phase_strict_max_singleton():
    inst = inst_of([[2, 0], [0, 2]], [5, 1])
    state = initialize(inst)
    _, terminal = begin_phase(state)
    assert not terminal
    assert state.I == {0}


def test_begin_phase_prunes_into_zero_degree():
    # Both buyers share the single good; the poorer one loses its only edge
    # when the richer one's neighborhood is scaled.
    inst = inst_of([[2], [1]], [3, 1])
    state = initialize(inst)
    begin_phase(state)
    assert state.I == {0}
    assert state.J == {0}
    assert state.Z == {1}


def _crafted_state(u, m, prices, edges, I, J):
    state = initialize(inst_of(u, m))
    state.I = set(I)
    state.J = set(J)
    state.Z = set()
    state.theta = F(1)
    # The iteration graph: the network at the given prices on the given
    # edges.  The iteration starts at its prices.
    net = build_network(state.inst, {j: F(p) for j, p in prices.items()})
    state.graph = flownet._Residual(replace(net, edges=frozenset(edges)))
    return state


def test_next_event_new_edge_crossing():
    # Active buyer with ratio 2 via good 0 (base price 1); good 1 is frozen
    # at price 1 with utility 3/2, so the ratios cross at theta = 4/3,
    # before the refund event at theta = 2.  At the crossing the scaled
    # ratio equals the frozen one exactly.  A second inactive buyer owns the
    # frozen good so the network stays saturated.
    state = _crafted_state(
        [[2, F(3, 2)], [0, 1]],
        [5, 3],
        {0: 1, 1: 1},
        {(0, 0), (1, 1)},
        I={0},
        J={0},
    )
    ev = next_event(state)
    assert ev.kind == "new_edge"
    assert (ev.buyer, ev.good) == (0, 1)
    assert ev.theta_star == F(4, 3)
    inst = state.inst
    assert inst.utilities[0][1] / state.prices[1] == F(2) / ev.theta_star


def test_next_event_crossing_tie_goes_to_lowest_good():
    # Active buyer 0 has ratio 2 via good 0.  Outside goods 2 and 3 both
    # reach its scaled ratio at theta = 4/3, good 1 only at 8/3, the refund
    # at 2.  Buyers 1-3 own the outside goods so the network stays saturated.
    state = _crafted_state(
        [[2, F(3, 4), F(3, 2), 3], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        [5, 3, 3, 3],
        {0: 1, 1: 1, 2: 1, 3: 2},
        {(0, 0), (1, 1), (2, 2), (3, 3)},
        I={0},
        J={0},
    )
    ev = next_event(state)
    assert (ev.kind, ev.buyer, ev.good, ev.theta_star) == ("new_edge", 0, 2, F(4, 3))


def test_next_event_refund_beats_new_edge_at_equal_theta():
    # Both the crossing and the refund land at theta = 2; money returns
    # take priority over price motion.
    state = _crafted_state(
        [[2, 1], [0, 1]], [5, 3], {0: 1, 1: 1}, {(0, 0), (1, 1)}, I={0}, J={0}
    )
    ev = next_event(state)
    assert ev.theta_star == 2
    assert ev.kind == "money_return"


def test_next_event_money_return_theta():
    # A single best-ratio good with utility 3 over base price 1: the ratio
    # reaches 1 at theta = 3.
    state = _crafted_state([[3]], [5], {0: 1}, {(0, 0)}, I={0}, J={0})
    ev = next_event(state)
    assert ev.kind == "money_return"
    assert ev.theta_star == 3


def test_next_event_tight_set_linear_worth():
    # Two buyers with money 3/2 total against scaled base prices summing to
    # 1: the set goes tight at theta = 3/2 unless a refund fires earlier.
    inst = inst_of([[4], [4]], [1, 2])
    state = initialize(inst)
    begin_phase(state)
    ev = next_event(state)
    assert ev.kind == "tight_set"
    leftover = sum(inst.money)  # no refund yet
    base = sum(state.prices[j] for j in state.J)  # theta is still 1
    assert ev.theta_star == leftover / base


def _bang_per_buck_faults():
    """(crafted state, step, message) for each bang-per-buck check of the
    event layer, the step run on the state with one fault planted."""
    crossing = ([[2, F(3, 2)], [0, 1]], [5, 3], {0: 1, 1: 1}, {(0, 0), (1, 1)})
    zero_degree = ([[2, 0], [3, 1]], [5, 3], {0: 1, 1: 1}, {(0, 0)})

    def at(theta, args, Z=()):
        state = _crafted_state(*args, I={0}, J={0})
        state.theta, state.Z = F(theta), set(Z)
        return state

    return [
        # Buyer 0's two edges have ratios 2 and 1.
        (at(1, ([[2, 1]], [5], {0: 1, 1: 1}, {(0, 0), (1, 0)})), next_event, "unequal edge ratios"),
        # Her refund is at theta = 3.
        (at(4, ([[3]], [5], {0: 1}, {(0, 0)})), next_event, "money_return event in the past"),
        (at(1, ([[3]], [5], {0: 1}, {(0, 0)})), lambda s: solver.apply_money_return(s, 0),
         "money return fired away from bang-per-buck 1"),
        # Her crossing to good 1 is at theta = 4/3.
        (at(F(5, 4), crossing), lambda s: solver.apply_new_edge(s, 0, 1),
         "new edge does not satisfy the bang-per-buck equality"),
        # Zero-degree buyer 1's ratio over J is 3, and her crossing is at 3 too.
        (at(2, zero_degree, Z={1}), lambda s: solver.apply_z_events(s, Event("z_removal", F(2), buyer=1)),
         "zero-degree removal fired away from bang-per-buck 1"),
        (at(2, zero_degree, Z={1}),
         lambda s: solver.apply_z_events(s, Event("z_new_edge", F(2), buyer=1, good=1)),
         "zero-degree crossing does not satisfy the equality"),
    ]


@pytest.mark.parametrize("state, step, message", _bang_per_buck_faults())
def test_bang_per_buck_checks_catch_their_faults(state, step, message):
    # Each check compares the graph's ints; a state one fault away from its
    # condition must trip it.
    with pytest.raises(solver.SolverError, match=message):
        step(state)


def test_solve_forced_clearing():
    inst = inst_of([[2]], [1])
    eq, stats = solve(inst)
    assert eq.prices == (F(1),)
    assert eq.allocation == ((F(1),),)
    assert eq.returned == (F(0),)
    assert eq.alpha == (F(2),)


def test_solve_indifference_forced():
    inst = inst_of([[F(1, 2)]], [1])
    eq, _ = solve(inst)
    assert eq.prices == (F(1, 2),)
    assert eq.allocation == ((F(1),),)
    assert eq.returned == (F(1, 2),)
    assert eq.alpha == (F(1),)


def test_solve_symmetric_two_by_two():
    inst = inst_of([[2, 1], [1, 2]], [1, 1])
    eq, _ = solve(inst)
    assert eq.prices == (F(1), F(1))
    assert eq.allocation == ((F(1), F(0)), (F(0), F(1)))
    assert eq.returned == (F(0), F(0))


def test_solve_partial_refund_two_goods():
    # Ratio hits 1 at p = (1, 1); demand below that price exceeds supply, so
    # clearing forces spending 2 and returning 1.
    inst = inst_of([[1, 1]], [3])
    eq, stats = solve(inst)
    assert eq.prices == (F(1), F(1))
    assert eq.allocation == ((F(1), F(1)),)
    assert eq.returned == (F(1),)
    assert stats.type3 >= 1


def test_money_return_rejects_a_spend_above_the_leftover(monkeypatch):
    # A partial return's spend may not exceed the buyer's leftover money,
    # which also keeps her returned money from decreasing.  The buyer has 3.
    inst = inst_of([[1, 1]], [3])
    monkeypatch.setattr(solver, "_least_spend", lambda g, i: 4 * g.scale)
    with pytest.raises(solver.SolverError, match="feasible range"):
        solve(inst)


def test_solve_full_refund_removal():
    # The second buyer's demand covers the good entirely once the first
    # buyer's ratio reaches 1, so the first exits with a full refund.
    inst = inst_of([[1], [2]], [1, 2])
    eq, stats = solve(inst)
    assert eq.prices == (F(2),)
    assert eq.returned == (F(1), F(0))
    assert stats.type2 == 1


def test_solve_zero_degree_exit_with_refund():
    # The pruned buyer's ratio reaches 1 strictly before any active event:
    # she exits silently with a full refund and theta keeps rising.
    inst = inst_of([[2], [1]], [3, 1])
    eq, stats = solve(inst)
    assert eq.prices == (F(2),)
    assert eq.returned == (F(1), F(1))
    assert eq.alpha == (F(1), F(1, 2))


def test_solve_zero_degree_crossing_freezes_ratio():
    # Worked three-buyer instance: the middle buyer is pruned into the
    # zero-degree set, crosses onto the frozen third good at theta = 4, and
    # its ratio stays frozen from then on.
    inst = inst_of([[4, 2, 0], [4, 2, 1], [0, 0, 3]], [5, 1, 1])
    recorder = TraceRecorder()
    eq, stats = solve(inst, recorder=recorder)
    assert eq.prices == (F(4), F(2), F(1))
    assert eq.returned == (F(0), F(0), F(0))
    assert eq.alpha == (F(1), F(1), F(3))
    kinds = [row["kind"] for row in recorder.events]
    assert "z_new_edge" in kinds


def test_refund_split_is_lexicographically_maximal():
    # Buyers 0 and 2 both end at bang-per-buck 1 and either could pay for
    # the good; the reported split refunds buyer 0 first.
    inst = inst_of([[9], [1], [9]], [8, 5, 9])
    eq, _ = solve(inst)
    assert eq.prices == (F(9),)
    assert eq.returned == (F(8), F(5), F(0))
    assert eq.allocation == ((F(0),), (F(0),), (F(1),))
    assert oracle_solve(inst).equilibrium.returned == eq.returned


# Criterion 01's instances whose refund split is not unique: the corpus
# index k, its shape (built by seed 1000 + k) and the lexicographically
# maximal refund vector.
DEGENERATE_SPLITS = [
    (15, 4, 1, (F(0), F(5), F(8), F(5))),
    (29, 3, 2, (F(10), F(0), F(1))),
    (39, 3, 3, (F(0), F(3), F(0))),
    (166, 3, 2, (F(0), F(7), F(0))),
    (189, 4, 4, (F(0), F(38, 5), F(0), F(0))),
]


@pytest.mark.parametrize("k,n,m,returned", DEGENERATE_SPLITS)
def test_solver_and_oracle_agree_on_degenerate_refund_splits(k, n, m, returned):
    inst = generate_random_instance(1000 + k, n, m, 10)
    eq, _ = solve(inst)
    oracle_eq = oracle_solve(inst).equilibrium
    assert eq.prices == oracle_eq.prices
    assert eq.returned == oracle_eq.returned == returned
    for candidate in (eq, oracle_eq):
        assert verify_arctic_kkt(inst, candidate).overall
        assert verify_market_clearing(inst, candidate).overall


def test_solve_rejects_invalid_instance():
    inst = inst_of([[0]], [1])
    with pytest.raises(ValueError):
        solve(inst)


@pytest.mark.parametrize("seed", range(40))
def test_solve_random_small_instances(seed):
    inst = generate_random_instance(500 + seed, 1 + seed % 4, 1 + (seed // 3) % 4, 10)
    recorder = TraceRecorder()
    eq, stats = solve(inst, recorder=recorder)
    assert verify_arctic_kkt(inst, eq).overall
    assert verify_market_clearing(inst, eq).overall
    # Invariant at every recorded phase boundary; a phase starts on the
    # equality graph of a network built afresh.
    for snap in recorder.phases:
        net = snapshot_network(inst, snap)
        assert check_invariant(net)
        if snap["label"] == "phase_start":
            assert snap["edges"] == net.edges


def test_monotone_prices_and_ratios():
    for seed in range(15):
        inst = generate_random_instance(900 + seed, 3, 3, 10)
        recorder = TraceRecorder()
        solve(inst, recorder=recorder)
        prev_prices = None
        prev_alphas = None
        for row in recorder.events:
            if prev_prices is not None:
                assert all(
                    row["prices"][j] >= prev_prices[j] for j in row["prices"]
                )
                assert all(
                    row["alphas"][i] <= prev_alphas[i] for i in row["alphas"]
                )
            prev_prices = row["prices"]
            prev_alphas = row["alphas"]


def test_potential_trace_is_recorded_and_monotone():
    inst = generate_random_instance(123, 4, 3, 10)
    eq, stats = solve(inst)
    assert stats.phase_count == len(stats.potential_trace)
    assert stats.phase_count == stats.type1 + stats.type2 + stats.type3
    values = []
    for _, _, before, after, kind in stats.potential_trace:
        assert before >= 0 and after >= 0
        values.extend([before, after])
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert stats.potential_trace[-1][3] == 0


def test_returned_money_never_decreases():
    inst = generate_random_instance(77, 4, 2, 10)
    recorder = TraceRecorder()
    eq, _ = solve(inst, recorder=recorder)
    prev = None
    for snap in recorder.phases:
        cur = snap["returns"]
        if prev is not None:
            assert all(cur.get(i, prev[i]) >= prev[i] for i in prev)
        prev = cur
    for i in inst.buyers:
        assert 0 <= eq.returned[i] <= inst.money[i]


def test_stats_report_output_denominators():
    inst = generate_random_instance(5, 3, 3, 10)
    eq, stats = solve(inst)
    denoms = {p.denominator for p in eq.prices}
    denoms |= {x.denominator for row in eq.allocation for x in row}
    assert stats.output_max_denominator == max(
        denoms | {s.denominator for s in eq.returned}
    )


PACKAGE_MODULES = sorted(p.stem for p in Path(arcticauction.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("module", PACKAGE_MODULES)
def test_no_floats_on_solving_path(module):
    # Every module of the package, not only the solving path: none has a
    # float literal, a float() call or a math.log call.
    path = Path(arcticauction.__file__).parent / f"{module}.py"
    offenders = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            offenders.append((node.lineno, repr(node.value)))
        elif isinstance(node, ast.Call):
            name = ast.unparse(node.func)
            if name == "float" or name.startswith("math.log"):
                offenders.append((node.lineno, name))
    assert not offenders, f"{module}.py: {offenders}"


ROADMAP_SQUARES = [generate_random_instance(seed, 12, 12, 10) for seed in range(5)]
REFUND_HEAVY = [generate_refund_heavy_instance(seed, n) for n in (8, 12, 16) for seed in range(3)]
TRACED = ROADMAP_SQUARES + [generate_refund_heavy_instance(seed, 12) for seed in range(3)]
ROADMAP_SQUARES_DIGEST = "98315c2b580feb3f8dfe3ee5e2d6aca027e36ce13f8f38ec5aedbf243a773bb9"
REFUND_HEAVY_DIGEST = "c6ded4dfa233b45a28c054f0e02a3a2bd6bded5a0e19a4c2f06b1816864309c1"
TRACED_DIGEST = "cfb9f96c6dcfaad5a94cf8117e6fb997298d87500efb6bcf2d9d68cf4bcdfeb7"
BANK = [generate_random_instance(seed, 60, 3, 10) for seed in range(5)]
BANK_DIGEST = "f363dcbc81e0c5492ee55aea6a6c800d26701541b717a3f5325f343dfecfca54"
BANK_TRACED_DIGEST = "46e1f0978c01b8025f3df839f4010f078dcfa583ae5638111ba55b6a6d6cf20e"


def _canonical(x):
    """x as plain JSON: Fractions by format_rational, sets as sorted lists, keys as strings."""
    if isinstance(x, Fraction):
        return format_rational(x)
    if isinstance(x, (set, frozenset)):
        return [_canonical(v) for v in sorted(x)]
    if isinstance(x, dict):
        return {str(k): _canonical(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_canonical(v) for v in x]
    return x


def _traces_digest(insts) -> str:
    """One hash of the recorder's events and phase snapshots over the solves of ``insts``."""
    digest = hashlib.sha256()
    for inst in insts:
        recorder = TraceRecorder()
        solve(inst, recorder=recorder)
        dump = {"events": recorder.events, "phases": recorder.phases}
        digest.update(json.dumps(_canonical(dump), sort_keys=True).encode())
    return digest.hexdigest()


def test_answers_pinned_on_roadmap_seeds():
    # Prices, allocations, refunds and alphas of the ROADMAP baseline
    # instances, pinned so that a kernel change cannot move them unseen.
    assert answers_digest(ROADMAP_SQUARES) == ROADMAP_SQUARES_DIGEST


def test_answers_pinned_on_refund_heavy_seeds():
    # The same pin for the refund regime: each of these solves runs 7 to 14
    # partial money returns and at least one full one.
    assert answers_digest(REFUND_HEAVY) == REFUND_HEAVY_DIGEST


def test_traces_pinned_on_roadmap_seeds():
    # The recorder's events and phase snapshots on the square and
    # refund-heavy baseline seeds, pinned so that a change to the phase loop
    # cannot move an event, a potential or an edge unseen.
    assert _traces_digest(TRACED) == TRACED_DIGEST


def test_answers_and_traces_pinned_on_bank_seeds():
    # The bank shape, many bidders for three goods: nearly every phase ends
    # in a money return, so most buyers are removed before the end.
    assert answers_digest(BANK) == BANK_DIGEST
    assert _traces_digest(BANK) == BANK_TRACED_DIGEST


def test_balance_starts_each_level_near_its_value(monkeypatch):
    # Each balance starts a level's water-level search at the best lower
    # bound that the level sets of its start flow give, and each step is one
    # augment.  Over the ROADMAP squares, starting every level at the whole
    # live set's bound alone made 1,057 augments inside balance; this start
    # makes 578, for 476 levels.
    balance, augment = solver.balance, flownet._Residual.augment
    peeling = False
    steps = 0

    def watched(g, *args):
        nonlocal peeling
        peeling = True
        try:
            balance(g, *args)
        finally:
            peeling = False

    def counted(g, avoid=()):
        nonlocal steps
        steps += peeling
        return augment(g, avoid)

    monkeypatch.setattr(solver, "balance", watched)
    monkeypatch.setattr(flownet._Residual, "augment", counted)
    for inst in ROADMAP_SQUARES:
        solve(inst)
    assert 0 < steps <= 600


@pytest.mark.parametrize("inst", [*BANK, *(generate_refund_heavy_instance(s, 12) for s in range(3))])
def test_balance_leaves_removed_buyers_alone(monkeypatch, inst):
    # A removed buyer is a vertex with no arcs and sink cap 0, a component
    # of its own whose flow is zero: no balance peels it, so none sets its
    # sink cap.
    balance, set_sink_cap = solver.balance, flownet._Residual.set_sink_cap
    remove_buyer = solver._remove_buyer
    peeling = False
    removed = lowered = 0

    def watched(g, *args):
        nonlocal peeling
        peeling = True
        try:
            balance(g, *args)
        finally:
            peeling = False

    def counted_cap(g, a, c):
        nonlocal lowered
        if peeling and len(g.adj[a + 1]) == 1 and g.cap[a] == 0:  # sink arc a leaves vertex a + 1
            lowered += 1
        set_sink_cap(g, a, c)

    def counted_removal(state, i):
        nonlocal removed
        removed += 1
        remove_buyer(state, i)

    monkeypatch.setattr(solver, "balance", watched)
    monkeypatch.setattr(flownet._Residual, "set_sink_cap", counted_cap)
    monkeypatch.setattr(solver, "_remove_buyer", counted_removal)
    solve(inst)
    assert removed > 0
    assert lowered == 0


def test_no_graph_is_read_after_its_arcs_change(monkeypatch):
    # add_arc and drop_arcs write into the arc lists that scaled copies
    # share, so a copy read after its source's arcs changed would see arc
    # numbers its own capacities and flows do not have.  Every search,
    # augment and flow read must find them consistent.
    checks = 0

    def consistent(method):
        def run(g, *args, **kwargs):
            nonlocal checks
            n = len(g.ends)
            assert len(g.cap) == len(g.flow) == n
            assert all(a < n for entries in g.adj for _, a, _ in entries)
            checks += 1
            return method(g, *args, **kwargs)

        return run

    for name in ("augment", "search", "as_flow"):
        monkeypatch.setattr(flownet._Residual, name, consistent(getattr(flownet._Residual, name)))
    assert answers_digest(ROADMAP_SQUARES) == ROADMAP_SQUARES_DIGEST
    assert answers_digest(REFUND_HEAVY) == REFUND_HEAVY_DIGEST
    assert answers_digest(BANK) == BANK_DIGEST
    assert checks > 0


def test_answers_do_not_depend_on_which_maximum_flow(monkeypatch):
    # Every augment outside the extraction and the refund split first pushes
    # the length-3 paths in reverse order, goods and their buyers last to
    # first, so it ends at another maximum flow; the two that choose the
    # allocation keep Edmonds-Karp's order.  Answers and traces must not move.
    original = flownet._Residual.augment
    choosing = False
    calls = changed = 0

    def reverse_first(g, avoid=()):
        nonlocal calls, changed
        if choosing:
            return original(g, avoid)
        reference = g.scaled(1, 1, ())
        original(reference, avoid)
        cap, flow, adj = g.cap, g.flow, g.adj
        for v, a, _ in reversed(adj[0]):
            room = cap[a] - flow[a]
            if room <= 0 or v in avoid:
                continue
            for b, arc, forward in reversed(adj[v]):
                if not forward or b in avoid:
                    continue
                out = adj[b][-1][1]
                push = min(room, cap[out] - flow[out])
                if push > 0:
                    flow[a] += push
                    flow[arc] += push
                    flow[out] += push
                    room -= push
                    if not room:
                        break
        parent = original(g, avoid)
        calls += 1
        changed += flow != reference.flow
        return parent

    def in_order(step):
        def run(*args):
            nonlocal choosing
            choosing = True
            try:
                return step(*args)
            finally:
                choosing = False

        return run

    monkeypatch.setattr(flownet._Residual, "augment", reverse_first)
    monkeypatch.setattr(solver, "_extract", in_order(solver._extract))
    monkeypatch.setattr(solver, "_lex_max_refunds", in_order(solver._lex_max_refunds))
    assert answers_digest(ROADMAP_SQUARES) == ROADMAP_SQUARES_DIGEST
    assert answers_digest(REFUND_HEAVY) == REFUND_HEAVY_DIGEST
    assert _traces_digest(TRACED) == TRACED_DIGEST
    assert changed > 0


EIGHT_BY_EIGHT = [generate_random_instance(seed, 8, 8, 10) for seed in range(3)] + [
    generate_refund_heavy_instance(0, 8)
]


@pytest.mark.parametrize("inst", EIGHT_BY_EIGHT)
def test_maxflow_calls_count_every_max_flow(monkeypatch, inst):
    calls = 0
    original = flownet.max_flow

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    for module in (flownet, balanced, solver):
        if hasattr(module, "max_flow"):
            monkeypatch.setattr(module, "max_flow", counting)
    _, stats = solve(inst)
    # Every step of a solve, the refund split included, pushes on a residual
    # graph it already holds: no max_flow call is made, and none is counted.
    assert stats.maxflow_calls == calls == 0


@pytest.mark.parametrize("inst", EIGHT_BY_EIGHT)
def test_warm_and_cold_tight_set_probes_agree(monkeypatch, ledger, inst):
    # Every tight-set search of a solve gives the same answer on the
    # iteration graph, which carries the kept start flow, as on a graph of
    # the same network that starts from the zero flow.
    search = solver._tight_set_search
    warm = 0

    def both(state, theta_cap):
        nonlocal warm
        found = search(state, theta_cap)
        kept, state.graph = state.graph, flownet._Residual(ledger.network(state, theta=F(1)))
        try:
            assert search(state, theta_cap) == found
        finally:
            state.graph = kept
        warm += any(kept.flow)
        return found

    monkeypatch.setattr(solver, "_tight_set_search", both)
    solve(inst)
    assert warm > 0


@pytest.mark.parametrize("inst", EIGHT_BY_EIGHT)
def test_warm_and_cold_balanced_surplus_agree_at_new_edges(monkeypatch, ledger, inst):
    # apply_new_edge balances the iteration graph from its start flow.  The
    # surplus vector must equal the one from the zero flow.  The flow may
    # differ from balanced_flow's, but it must be a maximum flow with
    # Property 1, and the absorbed buyer set read off it must be the same.
    balance = solver._balance
    warm = 0

    def both(state, g):
        nonlocal warm
        if state.iteration_index:  # a new edge, not a phase start
            warm += any(g.flow)
        gamma, phi = balance(state, g)
        net = ledger.network(state)
        # A removed buyer, cap 0 and no edge in net, has surplus 0.
        assert {i: F(gamma.get(i, 0), g.scale) for i in state.inst.buyers} == balanced_surplus(net)
        flow = g.as_flow()
        assert flow.value == flownet.max_flow(net).value
        assert verify_property1(net, flow)
        if state.iteration_index:
            cold = flownet._Residual(net, balanced.balanced_flow(net))
            assert g.buyers_reaching(state.I) == cold.buyers_reaching(state.I)
        return gamma, phi

    monkeypatch.setattr(solver, "_balance", both)
    solve(inst)
    assert warm > 0


@pytest.mark.parametrize("inst", [*EIGHT_BY_EIGHT, *(generate_refund_heavy_instance(s, 12) for s in range(3))])
def test_new_edges_keep_the_flow_of_settled_components(monkeypatch, inst):
    # A new edge peels only the components it can have moved: every other
    # component's arcs carry the same flow before and after the balance.
    balance = solver.balance
    kept = 0

    def watched(g, goods):
        nonlocal kept
        # The components of the named goods, found by a walk of the test's own
        # from their vertices: good j is vertex 1 + j.
        t = len(g.adj) - 1
        peeled = {1 + j for j in goods}
        stack = list(peeled)
        while stack:
            for v, _, _ in g.adj[stack.pop()]:
                if 0 < v < t and v not in peeled:
                    peeled.add(v)
                    stack.append(v)
        part = set(range(1, t)) - peeled

        def flows():
            return {
                (u, v): F(f, g.scale) for (u, v), f in zip(g.ends, g.flow) if u in part or v in part
            }

        before = flows()
        balance(g, goods)
        assert flows() == before
        kept += sum(u in part for u, v in g.ends if 0 < u and v < t)

    monkeypatch.setattr(solver, "balance", watched)
    solve(inst)
    assert kept > 0


@pytest.mark.parametrize("inst", EIGHT_BY_EIGHT)
def test_tight_set_probes_build_no_network_or_graph(monkeypatch, inst):
    # Probes run on scaled copies of the iteration graph: no FlowNetwork and
    # no _Residual is built inside a tight-set search.
    builds = 0
    searches = 0

    def counted(init):
        def wrapper(self, *args, **kwargs):
            nonlocal builds
            builds += 1
            return init(self, *args, **kwargs)

        return wrapper

    monkeypatch.setattr(flownet._Residual, "__init__", counted(flownet._Residual.__init__))
    monkeypatch.setattr(flownet.FlowNetwork, "__post_init__", counted(flownet.FlowNetwork.__post_init__))
    search = solver._tight_set_search

    def watched(state, theta_cap):
        nonlocal searches
        before = builds
        found = search(state, theta_cap)
        assert builds == before
        searches += 1
        return found

    monkeypatch.setattr(solver, "_tight_set_search", watched)
    solve(inst)
    assert searches > 0 and builds > 0


def rational_instance(seed, n, m):
    """Money and utilities in (0, 10] with denominators up to 10^6, one utility in ten zero."""
    rng = random.Random(seed)

    def value(zero_chance):
        if rng.random() < zero_chance:
            return F(0)
        q = rng.randint(1, 10**6)
        return F(rng.randint(1, 10 * q), q)

    money = tuple(value(0) for _ in range(n))
    while True:
        u = tuple(tuple(value(0.1) for _ in range(m)) for _ in range(n))
        inst = MarketInstance(money=money, utilities=u)
        if validate_instance(inst).ok:
            return inst


RATIONAL = [rational_instance(seed, n, m) for n, m in ((16, 4), (4, 16)) for seed in range(3)]
RATIONAL_DIGEST = "7e7c8e8f2ea9015d690a66c627e8a888482ac8708c643dae8a6f430247275901"
RATIONAL_STATS_DIGEST = "6384c2805cda98992cf02484c3b226c61e24596c9cd80e6fffbb08bd69b1d7f1"
RATIONAL_TRACED_DIGEST = "0faf22e8bd641c092a36189fd84647000f0d223dc9e393f309bcbaf08bf57e4e"


def _stats_digest(insts) -> str:
    """One hash of the stats documents (``stats_to_doc``) of the solves of ``insts``."""
    digest = hashlib.sha256()
    for inst in insts:
        digest.update(json.dumps(stats_to_doc(solve(inst)[1]), sort_keys=True).encode())
    return digest.hexdigest()


def test_answers_stats_and_traces_pinned_on_rational_seeds():
    # Rational money and utilities with denominators up to 10^6, on both
    # rectangular shapes: every event kind fires.  The answers, the
    # RunStats and the recorder's events and snapshots are pinned.
    assert answers_digest(RATIONAL) == RATIONAL_DIGEST
    assert _stats_digest(RATIONAL) == RATIONAL_STATS_DIGEST
    assert _traces_digest(RATIONAL) == RATIONAL_TRACED_DIGEST


MEDIANT_CORPUS = [
    *EIGHT_BY_EIGHT,
    rational_instance(3, 16, 4),
    *(generate_refund_heavy_instance(seed, n) for n in (8, 12) for seed in range(3)),
    *BANK,
]


def test_searches_settled_without_a_probe_find_no_tight_set(monkeypatch, ledger):
    # A tight-set search below the mediant bound B, the least sink cap over
    # inflow of the active buyers on the iteration graph, makes no copy of
    # the graph and returns None.  The network built afresh at theta_cap
    # must agree: its price cut is a minimum cut and its maximal min cut
    # holds no good of J.  Every set a search finds lies at or above B.
    # With the flow zeroed there is no inflow and so no bound: the search
    # must probe, and find what it found from the start flow, since the
    # extreme min cuts are the same for every maximum flow.
    search, at_theta = solver._tight_set_search, solver._at_theta
    copies = skipped = found = 0

    def counted(state, theta):
        nonlocal copies
        copies += 1
        return at_theta(state, theta)

    def watched(state, theta_cap):
        nonlocal copies, skipped, found
        g = state.graph
        inflow = [F(g.cap[a], g.flow[a]) for a in map(g.sink_arc, state.I) if g.flow[a]]
        copies = 0
        result = search(state, theta_cap)
        if not inflow:
            assert copies
        elif not copies:
            skipped += 1
            assert result is None and theta_cap < min(inflow)
            net = ledger.network(state, theta=theta_cap)
            assert check_invariant(net)
            assert not set(maximal_min_cut(net, max_flow(net)).goods_part()) & state.J
        if result is not None:
            found += 1
            assert min(inflow) <= result[0]
        start_flow, g.flow = g.flow, [0] * len(g.flow)
        copies = 0
        assert search(state, theta_cap) == result and copies
        g.flow = start_flow
        return result

    monkeypatch.setattr(solver, "_at_theta", counted)
    monkeypatch.setattr(solver, "_tight_set_search", watched)
    for inst in MEDIANT_CORPUS:
        solve(inst)
    assert skipped > 0 and found > 0


def _by_vertex(g):
    """g per vertex tuple: each adjacency list's heads in order, and each arc's cap and flow."""
    at = g.vertices
    heads = {at[u]: [at[v] for v, _, _ in entries] for u, entries in enumerate(g.adj)}
    arcs = {(at[u], at[v]): (c, f) for (u, v), c, f in zip(g.ends, g.cap, g.flow)}
    return heads, arcs


# generate_refund_heavy_instance(7, 8) fires a z_removal and then a new edge in one phase.
CARRIED_GRAPH_CORPUS = [*EIGHT_BY_EIGHT, rational_instance(3, 16, 4), generate_refund_heavy_instance(7, 8)]


@pytest.mark.parametrize("inst", CARRIED_GRAPH_CORPUS)
def test_carried_graph_matches_fresh_build(monkeypatch, ledger, inst):
    # The phase's graph is carried from iteration to iteration; at every
    # iteration start it must be the graph built afresh from the network and
    # its flow: same adjacency order, same scale, same caps and flows.  A
    # buyer removed in the phase is a vertex with no arc and cap 0 in the
    # fresh build, which takes no arc into her from g, so g must drop hers.
    start = solver._start_iteration
    checked = removed = 0

    def compare(state):
        nonlocal checked, removed
        start(state)
        g = state.graph
        fresh = flownet._Residual(ledger.network(state, theta=F(1)), g.as_flow())
        assert g.vertices == fresh.vertices
        assert g.scale == fresh.scale
        assert _by_vertex(g) == _by_vertex(fresh)
        checked += 1
        removed += len(ledger.removed)

    monkeypatch.setattr(solver, "_start_iteration", compare)
    _, stats = solve(inst)
    assert checked >= stats.phase_count - 1
    if inst is CARRIED_GRAPH_CORPUS[-1]:
        assert removed > 0


@pytest.mark.parametrize("inst", CARRIED_GRAPH_CORPUS)
def test_carried_phase_start_graph_has_the_fresh_build_edges(monkeypatch, ledger, inst):
    # Every phase start carries the last phase's graph, or initialize's,
    # and adds the arcs that mbpb gives and it lacks: its edge set must be
    # build_network's at the new prices, refunds and live buyers.
    carry = solver._carry_graph
    carried = 0

    def checked(state):
        nonlocal carried
        g = carry(state)
        returns = {i: state.inst.money[i] - _leftover(g, i) for i in state.inst.buyers}
        live = set(state.inst.buyers) - ledger.removed
        snap = {"prices": ledger.prices, "returns": returns, "live_buyers": live}
        net = snapshot_network(state.inst, snap)
        assert {(j, i) for j in state.inst.goods for i in g.buyers_of(j)} == net.edges
        carried += 1
        return g

    monkeypatch.setattr(solver, "_carry_graph", checked)
    _, stats = solve(inst)
    assert carried == stats.phase_count > 1


def test_a_carried_edge_off_bang_per_buck_fails_the_phase_start(monkeypatch):
    # A later phase start only adds arcs to the carried graph: a live buyer
    # that still has an arc to a good off her bang-per-buck is a contract
    # violation.
    begin = solver.begin_phase

    def planted(state):
        if state.phase_index == 1:
            i = min(state.live_buyers)
            state.graph.add_arc(min(set(state.inst.goods) - mbpb(state.inst, state.prices, i)[1]), i)
        return begin(state)

    monkeypatch.setattr(solver, "begin_phase", planted)
    with pytest.raises(solver.SolverError, match="off her bang-per-buck"):
        solve(EIGHT_BY_EIGHT[0])


def test_full_money_return_takes_the_buyer_out_of_the_graph(monkeypatch):
    # A full money return removes the buyer: at the next phase start her
    # vertex has no arc, and her sink arc has cap 0 and no flow, before and
    # after the graph is carried to the new prices.
    money_return, begin = solver.apply_money_return, solver.begin_phase
    removed = []

    def cut_off(g, i):
        a = g.sink_arc(i)
        return not g.goods_of(i) and g.cap[a] == g.flow[a] == 0

    def watched_return(state, i):
        kind = money_return(state, i)
        if kind == "II":
            removed.append(i)
        return kind

    def watched_begin(state):
        assert all(cut_off(state.graph, i) for i in removed)
        out = begin(state)
        assert all(cut_off(state.graph, i) for i in removed)
        return out

    monkeypatch.setattr(solver, "apply_money_return", watched_return)
    monkeypatch.setattr(solver, "begin_phase", watched_begin)
    full_returns = 0
    for seed in range(3):
        removed.clear()
        _, stats = solve(generate_refund_heavy_instance(seed, 12))
        assert len(removed) == stats.type2
        full_returns += stats.type2
    assert full_returns == 12


def test_phase_snapshots_refund_every_removed_buyer_in_full(ledger):
    # The graph's sink caps are the solve's only record of refunds and
    # removals: at every phase boundary each refund lies in [0, money], and
    # a buyer taken out by a full money return or a zero-degree removal has
    # all of it back.
    removed, kinds = set(), set()
    for seed in range(3):
        inst = generate_refund_heavy_instance(seed, 12)
        recorder = TraceRecorder()
        solve(inst, recorder=recorder)
        for snap in recorder.phases:
            returns = snap["returns"]
            assert all(0 <= returns[i] <= inst.money[i] for i in inst.buyers)
            out = set(inst.buyers) - snap["live_buyers"]
            assert all(returns[i] == inst.money[i] for i in out)
            removed |= {(seed, i) for i in out}
        # The snapshots' live sets, read off the graph, end at the ledger's.
        assert out == ledger.removed
        kinds |= {row["kind"] for row in recorder.events}
    # Twelve full money returns and one zero-degree removal.
    assert len(removed) == 13 and "z_removal" in kinds


def _candidates_from_scratch(state, prices):
    """Every refund and crossing candidate, rebuilt in Fractions from the
    state at an event and the ledger's ``prices`` at its theta: the
    reference for the candidates next_event keeps.  A buyer's bang-per-buck
    at iteration-start prices is theta times hers at ``prices`` over her
    goods, J for a zero-degree buyer."""
    outside = [j for j in state.inst.goods if j not in state.J]
    candidates: list[Event] = []

    def add(refund: str, crossing: str, i: int, goods) -> None:
        abar = mbpb(state.inst, prices, i, goods)[0] * state.theta
        candidates.append(Event(refund, abar, buyer=i))
        # Scaled ratios fall as abar / theta, so buyer i first meets the
        # outside goods of best ratio, at theta = abar / alpha_out.
        alpha_out, best = mbpb(state.inst, prices, i, outside)
        if best:
            candidates.append(Event(crossing, abar / alpha_out, buyer=i, good=min(best)))

    for i in sorted(state.I):
        add("money_return", "new_edge", i, state.graph.goods_of(i))
    for i in sorted(state.Z):
        add("z_removal", "z_new_edge", i, state.J)
    return candidates


EVENT_QUEUE_CORPUS = [*CARRIED_GRAPH_CORPUS, generate_random_instance(0, 60, 3, 10)]


@pytest.mark.parametrize("inst", EVENT_QUEUE_CORPUS)
def test_kept_candidates_match_a_rebuild_at_every_event(monkeypatch, ledger, inst):
    # next_event builds the candidates at an iteration's first event and
    # keeps them; at every event the kept candidates of the buyers still
    # active or zero-degree must be those rebuilt from scratch, in the
    # order of their events' sort keys, the queue's head their minimum, and
    # the event that fires that minimum or a tight set before it.
    original = solver.next_event
    events = kept = 0

    def checked(state):
        nonlocal events, kept
        expected = sorted(_candidates_from_scratch(state, ledger.prices), key=Event.sort_key)
        kept += state.queue is not None
        ev = original(state)
        live = [c for c in state.queue if c.buyer in state.I or c.buyer in state.Z]
        assert [c.event() for c in sorted(live)] == expected
        assert state.queue[0].event() == expected[0]
        assert ev == expected[0] or (ev.kind == "tight_set" and ev.sort_key() < expected[0].sort_key())
        events += 1
        return ev

    monkeypatch.setattr(solver, "next_event", checked)
    solve(inst)
    assert events > kept > 0


@pytest.mark.parametrize("seed", range(5))
def test_bank_corpus(seed):
    # The many-bidder, few-goods family: most phases end in a money return.
    # Its 4 x 2 and 4 x 3 members fit the oracle, which must agree bit for bit.
    inst = BANK[seed]
    eq, stats = solve(inst)
    assert verify_arctic_kkt(inst, eq).overall
    assert verify_market_clearing(inst, eq).overall
    assert stats.type2 + stats.type3 > 0
    for m in (2, 3):
        small = generate_random_instance(seed, 4, m, 10)
        assert solve(small)[0] == oracle_solve(small).equilibrium


# The refund split moves on generate_refund_heavy_instance(2, 8).
@pytest.mark.parametrize(
    "inst",
    [EIGHT_BY_EIGHT[0], generate_refund_heavy_instance(7, 8), generate_refund_heavy_instance(2, 8)],
)
def test_phase_steps_build_no_network_or_graph(monkeypatch, inst):
    # initialize builds the solve's one residual graph, of a network with no
    # arcs, and every phase start carries it; a new edge and a zero-degree
    # event edit it, and a money return, the extraction and the refund split
    # push on copies of it: none of them builds a graph or a network.
    builds = {"graph": 0, "network": 0}

    def counted(init, key):
        def wrapper(self, *args, **kwargs):
            builds[key] += 1
            return init(self, *args, **kwargs)

        return wrapper

    monkeypatch.setattr(flownet._Residual, "__init__", counted(flownet._Residual.__init__, "graph"))
    monkeypatch.setattr(
        flownet.FlowNetwork, "__post_init__", counted(flownet.FlowNetwork.__post_init__, "network")
    )
    steps = {}

    def watched(name, built):
        step = getattr(solver, name)

        def wrapper(*args):
            before = dict(builds)
            result = step(*args)
            assert {k: builds[k] - before[k] for k in builds} == {"graph": built, "network": built}
            steps[name] = steps.get(name, 0) + 1
            return result

        monkeypatch.setattr(solver, name, wrapper)

    watched("initialize", 1)
    for name in (
        "begin_phase", "apply_new_edge", "apply_z_events", "apply_money_return", "_extract", "_lex_max_refunds"
    ):
        watched(name, 0)
    solve(inst)
    assert builds == {"graph": 1, "network": 1}
    expected = {
        "initialize", "begin_phase", "apply_new_edge", "apply_z_events", "_extract", "_lex_max_refunds"
    }
    if inst is not EIGHT_BY_EIGHT[0]:
        expected.add("apply_money_return")
    assert set(steps) == expected
    assert steps["begin_phase"] > 1


def test_iteration_invariant_is_checked_once_per_z_event(monkeypatch):
    # The in-iteration invariant check runs once after each zero-degree
    # event, and never at a tight set: the tight-set search's last probe
    # checked the invariant at that theta on the same graph.
    check, tight = solver._require_iteration_invariant, solver.apply_tight_set
    checks, tight_sets, z_kinds = [], 0, set()

    def counted_check(state, where):
        checks.append(where)
        check(state, where)

    def counted_tight(state, S):
        nonlocal tight_sets
        tight_sets += 1
        return tight(state, S)

    monkeypatch.setattr(solver, "_require_iteration_invariant", counted_check)
    monkeypatch.setattr(solver, "apply_tight_set", counted_tight)
    for inst in (EIGHT_BY_EIGHT[0], generate_refund_heavy_instance(7, 8)):
        checks.clear()
        recorder = TraceRecorder()
        solve(inst, recorder=recorder)
        z_events = [row["kind"] for row in recorder.events if row["kind"].startswith("z_")]
        assert checks == [f"after {kind}" for kind in z_events]
        z_kinds.update(z_events)
    assert z_kinds == {"z_removal", "z_new_edge"} and tight_sets > 0


# generate_random_instance(4, 8, 8, 10) has no money return, but its
# terminal network has many maximum flows.
@pytest.mark.parametrize(
    "inst",
    [
        *(generate_refund_heavy_instance(s, n) for n in (8, 12) for s in range(3)),
        rational_instance(3, 16, 4),
        generate_random_instance(4, 8, 8, 10),
    ],
)
def test_money_returns_and_extraction_match_fresh_networks(monkeypatch, ledger, inst):
    # A money return and the extraction push from zero on copies of the
    # phase graph.  They must give what max_flow and the maximal min cut
    # give on the network built afresh: the same phase type, the same new
    # refund and the same allocation.
    money_return, extract = solver.apply_money_return, solver._extract
    returns = extracted = 0

    def checked_return(state, i):
        nonlocal returns
        net0 = ledger.network(state, zero_buyer=i)
        f0 = max_flow(net0)
        if f0.value == net0.total_price:
            expected = ("II", state.inst.money[i])
        else:
            cut = maximal_min_cut(net0, f0)
            worth_s = sum((net0.source_caps[j] for j in cut.goods_part()), F(0))
            worth_t = sum((_leftover(state.graph, b) for b in cut.buyers_part() if b != i), F(0))
            expected = ("III", state.inst.money[i] - (worth_s - worth_t))
        kind = money_return(state, i)
        assert (kind, state.inst.money[i] - _leftover(state.graph, i)) == expected
        returns += 1
        return kind

    def checked_extract(state):
        nonlocal extracted
        extracted += 1
        f = max_flow(ledger.network(state))
        eq = extract(state)
        for i in state.inst.buyers:
            for j in state.inst.goods:
                x = f.on(("g", j), ("b", i)) / ledger.prices[j] if i not in ledger.removed else 0
                assert eq.allocation[i][j] == x
        return eq

    monkeypatch.setattr(solver, "apply_money_return", checked_return)
    monkeypatch.setattr(solver, "_extract", checked_extract)
    _, stats = solve(inst)
    assert extracted == 1 and returns == stats.type2 + stats.type3


def _fresh_lex_max_refunds(inst, eq):
    """The refund split on networks built afresh, the reference for the one
    graph the solver pushes on: each spend is the total price less the
    max_flow value with that buyer's cap at 0, the earlier buyers' caps at
    their spends and the rest at their money; if a spend moved, the last
    max_flow, with the last buyer's cap at what remains, is the split."""
    ones = [i for i in inst.buyers if eq.alpha[i] == 1]
    if len(ones) < 2:
        return eq
    buyers = [i for i in inst.buyers if eq.alpha[i] >= 1]
    net = build_network(inst, eq.prices, buyers=buyers)
    total = net.total_price
    caps = dict(net.sink_caps)
    for i in ones[:-1]:
        caps[i] = F(0)
        caps[i] = total - max_flow(replace(net, sink_caps=dict(caps))).value
    if all(caps[i] == inst.money[i] - eq.returned[i] for i in ones[:-1]):
        return eq
    last = ones[-1]
    caps[last] = total - sum(caps[b] for b in buyers if b != last)
    f = max_flow(replace(net, sink_caps=dict(caps)))
    assert f.value == total
    allocation = tuple(
        tuple(f.on(("g", j), ("b", i)) / eq.prices[j] for j in inst.goods) for i in inst.buyers
    )
    returned = tuple(inst.money[i] - caps[i] for i in inst.buyers)
    return equilibrium_for_instance(inst, eq.prices, allocation, returned)


# The split moves on each of these refund-heavy members but the first.
SPLIT_CASES = [(8, 0), (8, 2), (12, 0), (12, 1), (12, 2), (16, 1)]


@pytest.mark.parametrize("n, seed", SPLIT_CASES)
def test_refund_split_matches_fresh_networks(monkeypatch, n, seed):
    # _lex_max_refunds pushes from zero on one graph with its sink caps
    # edited in place; its spends and its allocation must be max_flow's on
    # the networks built afresh.
    split = solver._lex_max_refunds
    moved = []

    def checked(state, eq):
        out = split(state, eq)
        assert out == _fresh_lex_max_refunds(state.inst, eq)
        moved.append(out != eq)
        return out

    monkeypatch.setattr(solver, "_lex_max_refunds", checked)
    solve(generate_refund_heavy_instance(seed, n))
    assert moved == [(n, seed) != SPLIT_CASES[0]]


# Live buyers whose bang-per-buck arcs were pruned at an iteration start with
# theta = 1 still lack them at the split: 3, 1 and 2 arcs.
LACKING_ARCS = [(0, 6, 6, 3), (37, 4, 4, 2), (93, 4, 4, 2)]


@pytest.mark.parametrize(
    "inst",
    [generate_refund_heavy_instance(seed, n) for n, seed in SPLIT_CASES]
    + [generate_random_instance(*args) for args in LACKING_ARCS],
)
def test_refund_split_graph_is_the_fresh_build(monkeypatch, inst):
    # The split runs on the solve's graph with every bang-per-buck arc of the
    # buyers at alpha >= 1 added, removed buyers' included, and their caps
    # at their money.  At its first push it must be build_network's graph at
    # the final prices, with the caps set so far (0 for the buyers before
    # the pushed one): the same adjacency order and the same caps over
    # scale.  A buyer at alpha < 1 is a vertex with no arc and cap 0 in both.
    split, least_spend = solver._lex_max_refunds, solver._least_spend
    pushed = []

    def checked_split(state, eq):
        ones = [k for k in inst.buyers if eq.alpha[k] == 1]
        buyers = [k for k in inst.buyers if eq.alpha[k] >= 1]

        def first_push(g, i):
            if not pushed:
                net = build_network(inst, eq.prices, buyers=buyers)
                caps = {**net.sink_caps, **{k: F(0) for k in ones[: ones.index(i)]}}
                fresh = flownet._Residual(replace(net, sink_caps=caps))
                assert _by_vertex(g)[0] == _by_vertex(fresh)[0]
                over_scale = [
                    {(h.vertices[u], h.vertices[v]): c if c is None else F(c, h.scale)
                     for (u, v), c in zip(h.ends, h.cap)}
                    for h in (g, fresh)
                ]
                assert over_scale[0] == over_scale[1]
                pushed.append(i)
            return least_spend(g, i)

        monkeypatch.setattr(solver, "_least_spend", first_push)
        out = split(state, eq)
        monkeypatch.setattr(solver, "_least_spend", least_spend)
        return out

    monkeypatch.setattr(solver, "_lex_max_refunds", checked_split)
    solve(inst)
    assert pushed
