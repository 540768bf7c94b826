"""Primal-dual equilibrium solver for arctic-auction markets.

The solver maintains prices p and returned money r such that ({s}, rest) is
always a minimum cut of the money network: prices never overshoot their
equilibrium values and only ever rise.  A run is a sequence of phases; each
phase scales up the prices of the goods demanded by the maximum-surplus
buyers until an event fires:

* a new bang-per-buck edge appears (the iteration restarts with a larger
  active set),
* a set of goods becomes exactly affordable by its interested buyers
  ("tight"; the phase ends, or the run terminates if every good is tight),
* an active buyer's bang-per-buck reaches 1 and money is returned to her
  (fully, removing her, or partially, leaving a tight set behind),
* a zero-degree buyer reaches bang-per-buck 1 (full refund) or picks up an
  edge to an unscaled good.

The prices are unique, but when two or more buyers end at bang-per-buck
exactly 1 many refund splits are optimal.  A solve reports the one whose
refund vector is lexicographically maximal by buyer index at the final
prices; a post-pass of max-flows on a copy of the solve's graph computes it
after extraction.

Within an iteration, every probe of the tight-set search and the next new
edge's balance start from the iteration's start flow: the balanced flow
that began the phase or followed the last new edge.  That flow stays
feasible for the whole iteration: the scaled goods' source caps only grow
with theta, the sink caps are fixed, a zero-degree buyer only gains an edge
or leaves without one, and the edges pruned at iteration start carry no
flow (such flow would be a residual path into the active set from a buyer
of lower surplus, which a balanced flow does not have).  Every phase starts
from the last one's graph, or initialize's, brought to the new prices with
arcs only added (``_carry_graph``), and balances it from the flow it holds,
peeling only the components that changed (``_balance``).  Carried flows
change how much augmenting is done, never an answer: a probe reads only
extreme min cuts, the same for every maximum flow, and the surplus vector,
I, J, the absorbed sets and the pruned-arc check are the same for every
balanced flow (see ``balanced``).

Most tight-set searches make no probe.  Since the start flow fills every
source arc, no set of J can go tight while theta is below B, the least
sink cap over inflow of the active buyers at theta = 1 (the mediant bound,
``_tight_set_search``).  B is read off the iteration graph in O(|I|) at
each search, and the search returns at once when the next candidate event
comes before it.  Its premise, the filled source arcs, is the invariant
that the two iteration starts check.

A solve keeps one integer residual graph, built by initialize with no arcs
and carried through every step of every phase (``SolverState.graph``): the
solver keeps no other record of the prices, the edges, the refunds or the
removals, and builds no other network or graph.  At each iteration start
it is the iteration's network at theta = 1 under the start flow, its ints
those of a fresh build (``_start_iteration``).  A zero-degree event edits
it in place.  Each probe, and the invariant check after a zero-degree
event, augments a copy of it at theta (``_at_theta``); a new edge balances
that copy with its arc added, and the copy is the next iteration's graph.
A money return, the final extraction and the refund split push from zero
on such a copy with its flow zeroed, which finds the flow ``max_flow``
finds on the network built afresh; a return is then written into the graph
(``apply_money_return``).  At phase start and at each new edge, the two
ways an iteration starts, the balanced flow itself must fill every source
arc.  No other check is needed: phase 1's begin_phase checks the opening
prices before anything changes, which also covers initialize's repricing
(a good left without an edge leaves a deficit of at least its price); a
tight-set event's theta is that of the search's last probe, which found no
deficit on the same graph; and a full return's flow is already a maximum
flow of the network without the buyer.  Every refund is a max-flow deficit
(``_least_spend``).  A solve calls no ``max_flow``: ``maxflow_calls`` reads
0, and stays for perfbench's check.

Events are found from candidates built once per iteration, on the graph's
ints: a buyer's bang-per-buck is ``market.best_ratio`` of her utilities,
ints over one row denominator (``SolverState.rows``), against the graph's
source caps, and within a row the row denominator and g.scale cancel.
Within an iteration the source caps, J and the active buyers' arcs do not
change, so each active buyer's refund theta (her bang-per-buck at
iteration-start prices) and first crossing are fixed; a zero-degree
buyer's are too, and a zero-degree event takes only its own buyer out of
Z.  So the first event builds every candidate into a heap ordered by
cross-multiplying theta's int pairs, and a later event only drops the
entries of buyers that left Z; a Fraction is built only for the heap's
head.  Checking the head against theta checks every candidate.  J only
grows within a phase and its goods are all scaled alike, so two sets of
goods are kept for the phase, as goods since every iteration start
rescales the caps: a buyer's best goods outside J, until one of them joins
J, and a zero-degree buyer's best goods in J, which only the goods J
gained since can beat.

Which maximum flow a step finds changes no answer: this is a contract.
Outside the extraction and the refund split, a solve reads only what every
maximum flow of a network shares: the balanced surplus vector, which is
unique, the source side of the source-nearest min cut, and deficits.  Any
maximum-flow method or augmenting order may run there, and the prices,
refunds, allocation, ``RunStats`` and recorded trace stay bit-identical.
Only ``_extract``'s push from zero and the pushes of ``_lex_max_refunds``
choose one allocation among the optimal ones, so they alone rely on
``augment``'s Edmonds-Karp order.  The tests hold the solve to this by
solving the pinned corpora with every other ``augment`` first pushing the
length-3 paths in reverse order.

Everything is exact rational arithmetic; every comparison is exact.
"""

from __future__ import annotations

import hashlib
import heapq
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .balanced import balance
from .flownet import FlowNetwork, _read_cut, _Residual
from .market import (
    Equilibrium,
    MarketInstance,
    RunStats,
    best_ratio,
    equilibrium_for_instance,
    instance_bit_bounds,
    mbpb,
    validate_instance,
)


_ZERO = Fraction(0)


class SolverError(RuntimeError):
    """An internal contract of the algorithm was violated; indicates a bug."""


EVENT_PRIORITY = {
    "money_return": 0,
    "z_removal": 1,
    "tight_set": 2,
    "z_new_edge": 3,
    "new_edge": 4,
}


@dataclass(frozen=True)
class Event:
    kind: str
    theta_star: Fraction
    buyer: int | None = None
    good: int | None = None
    tight_goods: frozenset[int] | None = None

    def sort_key(self):
        return (
            self.theta_star,
            EVENT_PRIORITY[self.kind],
            self.buyer if self.buyer is not None else -1,
            self.good if self.good is not None else -1,
        )


class _Candidate:
    """An event candidate at theta = num / den, not reduced; candidates
    compare as ``Event.sort_key`` orders their events, on ints."""

    __slots__ = ("num", "den", "kind", "buyer", "good", "tie")

    def __init__(self, num: int, den: int, kind: str, buyer: int, good: int | None = None):
        self.num, self.den, self.kind, self.buyer, self.good = num, den, kind, buyer, good
        self.tie = (EVENT_PRIORITY[kind], buyer, -1 if good is None else good)

    def __lt__(self, other: "_Candidate") -> bool:
        lhs, rhs = self.num * other.den, other.num * self.den
        return lhs < rhs or lhs == rhs and self.tie < other.tie

    def event(self) -> Event:
        return Event(self.kind, Fraction(self.num, self.den), buyer=self.buyer, good=self.good)


@dataclass
class PhaseOutcome:
    type: str  # "I" | "II" | "III"
    terminal: bool = False


class TraceRecorder:
    """Optional hook collecting event rows and phase-boundary snapshots."""

    def __init__(self):
        self.events: list[dict] = []
        self.phases: list[dict] = []

    def record_event(self, state: "SolverState", event: Event) -> None:
        prices = state.prices
        alphas = {i: mbpb(state.inst, prices, i)[0] for i in state.inst.buyers}
        self.events.append(
            {
                "phase": state.phase_index,
                "iteration": state.iteration_index,
                "kind": event.kind,
                "theta_star": event.theta_star,
                "phi": state.phi,
                "I_size": len(state.I),
                "J_size": len(state.J),
                "Z_size": len(state.Z),
                "prices": prices,
                "alphas": alphas,
            }
        )

    def record_phase(self, state: "SolverState", label: str) -> None:
        g, money = state.graph, state.inst.money
        self.phases.append(
            {
                "label": label,
                "phase": state.phase_index,
                "prices": state.prices,
                "returns": {i: money[i] - Fraction(g.cap[g.sink_arc(i)], g.scale)
                            for i in state.inst.buyers},
                "edges": frozenset((j, i) for j in state.inst.goods for i in g.buyers_of(j)),
                "live_buyers": frozenset(state.live_buyers),
                "phi": state.phi,
            }
        )


@dataclass
class SolverState:
    inst: MarketInstance
    # The solve's integer residual graph: at iteration start, the
    # iteration's network at theta = 1 under its start flow, which probes
    # scale.  It is the only record of prices, edges, refunds and removals:
    # its source caps over scale are the prices (times theta for J), its
    # good -> buyer arcs the equality graph's edges, and its sink caps the
    # buyers' left-over money, 0 for a removed buyer.
    graph: _Residual
    # Each buyer's utilities over one row denominator: u_ij = rows[i][j] / row_dens[i].
    rows: list[tuple[int, ...]]
    row_dens: list[int]
    I: set[int] = field(default_factory=set)
    J: frozenset[int] = frozenset()
    Z: set[int] = field(default_factory=set)
    theta: Fraction = Fraction(1)
    # The potential, the sum of the squared surpluses, as the int pair
    # (sum of squares at g.scale, g.scale squared), not reduced.
    potential: tuple[int, int] = (0, 1)
    stats: RunStats = field(default_factory=RunStats)
    phase_index: int = 0
    iteration_index: int = 0
    recorder: TraceRecorder | None = None
    # Goods whose equality-graph component changed since the graph was last
    # balanced, beyond J's: a new arc's good and a refunded buyer's goods.
    # Their components must be peeled again.
    touched: set[int] = field(default_factory=set)
    # The iteration's refund and crossing candidates, a heap; built by the
    # iteration's first next_event.
    queue: list[_Candidate] | None = None
    # Kept for the phase (see the module docstring): each buyer's best goods
    # outside J, and each zero-degree buyer's J and best goods in it.
    outside: dict[int, frozenset[int]] = field(default_factory=dict)
    inside: dict[int, tuple[frozenset[int], list[int]]] = field(default_factory=dict)

    @property
    def prices(self) -> dict[int, Fraction]:
        """Every good's price at theta, read off the graph."""
        g, num, den = self.graph, self.theta.numerator, self.theta.denominator
        return {
            j: Fraction(c * num, g.scale * den) if j in self.J else Fraction(c, g.scale)
            for j, c in enumerate(g.cap[: g.m])
        }

    @property
    def phi(self) -> Fraction:
        """The potential as a Fraction."""
        return Fraction(*self.potential)

    @property
    def live_buyers(self) -> list[int]:
        """The buyers not removed, in order: those with a positive sink cap."""
        g = self.graph
        return [i for i in self.inst.buyers if g.cap[g.sink_arc(i)]]


def _at_theta(state: SolverState, theta: Fraction) -> _Residual:
    """The iteration's network at theta >= 1 under the start flow: a copy of
    the iteration graph with every value times theta's denominator and the
    scaled goods' source caps times its numerator.  Augmenting it from the
    zero flow takes the same paths as ``max_flow`` on the network built
    afresh: the vertex order and adjacency lists are the same, and a buyer
    removed in the phase is an isolated vertex with sink cap 0, on no path."""
    return state.graph.scaled(theta.denominator, theta.numerator, state.J)


def _least_spend(g: _Residual, i: int) -> int:
    """Buyer i's least spend over the maximum flows of g's network, times g.scale.

    It is the deficit P - v of a maximum flow of value v pushed from zero
    with i's sink cap at 0, P the total price: the other buyers take at most
    v, and augmenting with i's cap raised adds flow only into i.  g keeps
    that flow and cap.  The spend is an int at g's scale: no rescale.
    """
    g.flow = [0] * len(g.flow)
    g.cap[g.sink_arc(i)] = 0
    g.augment()
    return g.deficit()


def _equilibrium_of(inst: MarketInstance, g: _Residual) -> Equilibrium:
    """The equilibrium of g's flow, which fills every sink arc, at g's source caps
    over scale: x_ij is the flow j -> i over p_j, in which the scale cancels,
    and the refund money less inflow."""
    cap, flow, scale = g.cap, g.flow, g.scale
    prices = tuple(Fraction(cap[j], scale) for j in inst.goods)
    allocation = [[_ZERO] * inst.n_goods for _ in inst.buyers]
    for j, i, a in g.pairs():
        if flow[a]:
            allocation[i][j] = Fraction(flow[a], cap[j])
    returned = tuple(inst.money[i] - Fraction(flow[g.sink_arc(i)], scale) for i in inst.buyers)
    return equilibrium_for_instance(inst, prices, tuple(map(tuple, allocation)), returned)


def _require_iteration_invariant(state: SolverState, where: str) -> None:
    g = _at_theta(state, state.theta)
    g.augment()
    if g.deficit():
        raise SolverError(f"price cut invariant broken at {where}")


def _balance(state: SolverState, g: _Residual) -> tuple[dict[int, int], tuple[int, int]]:
    """Balance g's flow in place, peeling only the equality-graph components
    with a good of J (scaled) or of ``state.touched`` (see ``balance``).
    Since the last balance every other component can only have lost arcs
    without flow, pruned at an iteration start, so its flow is balanced
    already: it still fills every source arc, and no residual path was
    added.  Returns each live buyer's surplus times g.scale, and the
    potential, the sum of the squared surpluses, as ``SolverState.potential``
    holds it."""
    balance(g, state.J | state.touched)
    state.touched.clear()
    gamma = {i: g.cap[g.sink_arc(i)] - g.flow[g.sink_arc(i)] for i in state.live_buyers}
    return gamma, (sum(x * x for x in gamma.values()), g.scale * g.scale)


def initialize(inst: MarketInstance) -> SolverState:
    """Set starting prices and build the solve's graph, with no arcs.

    Prices start uniform at the largest value that keeps every buyer's
    bang-per-buck at least 1 while the total price stays within the
    smallest budget; goods nobody demands at that price are then repriced
    to the highest indifference point so every good has an edge.  Phase 1's
    begin_phase adds the arcs and checks that: a good without one leaves a
    deficit.  The graph's caps are the prices and the money: no refund yet.
    """
    report = validate_instance(inst)
    if not report.ok:
        raise ValueError("invalid instance: " + "; ".join(report.violations))
    dens = [math.lcm(*(u.denominator for u in row)) for row in inst.utilities]
    rows = [tuple(u.numerator * (d // u.denominator) for u in row) for row, d in zip(inst.utilities, dens)]
    row_max = [Fraction(max(row), d) for row, d in zip(rows, dens)]
    min_m, total_m, max_u, bits = instance_bit_bounds(inst, row_max)
    stats = RunStats(min_money=min_m, total_money=total_m, max_utility=max_u, input_bits=bits)
    p0 = min(min_m / inst.n_goods, min(row_max))
    prices = {j: p0 for j in inst.goods}
    best = [mbpb(inst, prices, i) for i in inst.buyers]
    covered = {j for _, goods in best for j in goods}
    for j in inst.goods:
        if j not in covered:
            prices[j] = max(inst.utilities[i][j] / best[i][0] for i in inst.buyers)
    buyers = tuple(inst.buyers)
    net = FlowNetwork(tuple(inst.goods), buyers, prices, dict(zip(buyers, inst.money)), frozenset())
    return SolverState(inst=inst, graph=_Residual(net), rows=rows, row_dens=dens, stats=stats)


def _start_iteration(state: SolverState) -> None:
    """Recompute the active goods, prune inactive edges, refresh Z and bases.

    Theta is 1 here.  Dropping the pruned arcs raises FlowError if one
    carries flow; the graph is then reduced to a fresh build's scale and
    checked to carry a feasible flow.
    """
    g = state.graph
    state.J = frozenset(j for i in state.I for j in g.goods_of(i))
    g.drop_arcs([(j, i) for j in state.J for i in g.buyers_of(j) if i not in state.I])
    state.Z = {i for i in state.live_buyers if i not in state.I and not g.degree(i)}
    state.iteration_index += 1
    state.queue = None
    g.reduce()
    g._check_feasible()


def _add_best_arcs(state: SolverState, g: _Residual, buyers) -> set[int]:
    """Add to g, in sorted place, each buyer's arcs to the goods of her best
    row-to-source-cap ratio that g lacks, and return their goods; an arc off
    it is a bug.  This is the one place where arcs come from prices."""
    added = set()
    for i in sorted(buyers):
        best = best_ratio(state.rows[i], g.cap, state.inst.goods)[2]
        have = g.goods_of(i)
        if not have.issubset(best):
            raise SolverError(f"buyer {i} kept an edge off her bang-per-buck")
        for j in best:
            if j not in have:
                g.add_arc(j, i)
                added.add(j)
    return added


def _carry_graph(state: SolverState) -> _Residual:
    """The last phase's graph, carried to the next phase's network.

    Scaled to the final theta (``_at_theta``), which then becomes 1, its
    source caps are the new prices, and the money returns are in it already
    (``apply_money_return``).  No live buyer loses an arc: an active buyer's
    goods were all scaled alike, and any other buyer's arcs lead outside J,
    whose prices did not move.  So ``_add_best_arcs`` only adds arcs,
    touching their goods, and the flow stays feasible; on initialize's
    graph, at phase 1, it adds every arc.
    """
    g = state.graph = _at_theta(state, state.theta)
    state.theta = Fraction(1)
    state.touched |= _add_best_arcs(state, g, state.live_buyers)
    return g


def begin_phase(state: SolverState) -> tuple[Fraction, bool]:
    """Open a phase: bring the graph to the new prices, balance flow, pick the active sets.

    Returns (potential at phase start, terminal flag).  The terminal flag is
    set when every buyer's surplus is already zero, in which case the full
    goods set is tight and the run ends.
    """
    state.phase_index += 1
    state.iteration_index = 0
    state.outside.clear()
    state.inside.clear()
    g = _carry_graph(state)
    gamma, state.potential = _balance(state, g)
    if state.recorder is not None:
        state.recorder.record_phase(state, "phase_start")
    # The invariant: the balanced flow, a feasible flow, fills every source
    # arc, so ({s}, rest) is a minimum cut.
    if g.deficit():
        raise SolverError(f"price cut invariant broken at phase {state.phase_index} start")
    delta = max(gamma.values())
    if delta == 0:
        state.I = set()
        state.J = frozenset()
        state.Z = set()
        return state.phi, True
    state.I = {i for i, x in gamma.items() if x == delta}
    _start_iteration(state)
    return state.phi, False


def _alpha_bar_active(state: SolverState, i: int) -> tuple[int, int]:
    """Bang-per-buck of an active buyer at iteration-start prices, as the
    row utility and source cap (u, c) of a good attaining it: the ratio is
    u * g.scale / (c * row_dens[i]).  All of an active buyer's edges are
    best-ratio ties inside the scaled set; anything else is a bug."""
    goods = state.graph.goods_of(i)
    if not goods:
        raise SolverError(f"active buyer {i} has no edges")
    u, c, best = best_ratio(state.rows[i], state.graph.cap, goods)
    if len(best) != len(goods):
        raise SolverError(f"active buyer {i} has unequal edge ratios")
    return u, c


def _alpha_bar_zero_degree(state: SolverState, i: int) -> tuple[int, int]:
    """Bang-per-buck of a zero-degree buyer, attained inside the scaled set, as
    ``_alpha_bar_active`` gives it: over her kept best goods and J's new ones."""
    J = state.J
    kept = state.inside.get(i)
    goods = J if kept is None else {*kept[1], *(J - kept[0])}
    u, c, best = best_ratio(state.rows[i], state.graph.cap, goods)
    state.inside[i] = (J, best)
    return u, c


def _meets(state: SolverState, alpha: tuple[int, int], r: int, p: int) -> bool:
    """Whether a buyer's bang-per-buck alpha, as ``_alpha_bar_active`` gives
    it, over theta is the ratio of row utility r to source cap p: that of an
    unscaled good, or money's 1, as her row denominator over g.scale."""
    (u, c), theta = alpha, state.theta
    return u * p * theta.denominator == c * r * theta.numerator


def _tight_set_search(state: SolverState, theta_cap: Fraction):
    """Earliest theta <= theta_cap at which some scaled goods set goes tight.

    Probes the invariant at a candidate theta; a violated min cut yields the
    exact tightness point of its scaled goods, which becomes the next
    candidate.  Goods sets that were already tight before this iteration and
    contain no scaled good never change worth and are ignored.

    Each probe augments from the iteration's start flow on a scaled copy of
    the iteration graph (``_at_theta``) and reads its cut off that copy.

    None below B, the mediant bound, with no probe: B is the least sink
    cap over inflow, c_i / f_i, over the active buyers with inflow, read off
    the iteration graph, where theta is 1 and the start flow is held.  That
    flow fills every source arc (checked at phase start and at each new
    edge), and within an iteration every arc from J ends in I (J = N(I),
    and the arcs from J to the rest are pruned at iteration start) while
    I's goods are all in J.  So for goods S_J of J and S_O outside it, the
    buyers of S_J and of S_O are disjoint; p(S_O) is at most its buyers'
    money, and p(S_J) at most the inflow f(Gamma(S_J)) of its buyers, whose
    money is c(Gamma(S_J)) >= B f(Gamma(S_J)) by the mediant inequality.
    Below B no goods set holding a good of J is tight or violated, and a
    probe would return None.  A flow with no inflow into I, which cannot
    fill J's source arcs, gives no bound, and the search probes.

    Above B, at most |J| + 1 probes: only the scaled goods' source caps
    move with theta, so the source-nearest min cuts are nested as theta
    falls (Gallo-Grigoriadis-Tarjan).  A violated probe at theta_hi gives a
    nonempty scaled part V and the next candidate theta_v < theta_hi, at
    which V is exactly tight; a violated probe there has scaled part inside
    V, and equal to V only if it gives theta_v again, which is an error.
    So each violated probe strictly shrinks V, and one more probe settles.
    """
    h, num, den = state.graph, theta_cap.numerator, theta_cap.denominator
    inflow = [(h.flow[a], h.cap[a]) for a in map(h.sink_arc, state.I) if h.flow[a]]
    if inflow and all(num * f < c * den for f, c in inflow):
        return None
    theta_hi = theta_cap
    for _ in range(len(state.J) + 1):
        g = _at_theta(state, theta_hi)
        reached = g.augment()
        # The sink-nearest min cut if the source arcs are saturated, the
        # source-nearest if not.
        saturated = not g.deficit()
        goods = {v[1] for v in _read_cut(g, saturated, reached) if v[0] == "g"}
        if saturated:
            if goods & state.J:
                return theta_hi, frozenset(goods)
            return None
        violated = goods & state.J
        if not violated:
            raise SolverError("invariant violation without scaled goods")
        # V's buyers' money over V's prices at theta = 1, at h's scale.
        worth = sum(h.cap[h.sink_arc(i)] for i in {i for j in violated for i in h.buyers_of(j)})
        theta_v = Fraction(worth, sum(h.cap[j] for j in violated))
        if not (state.theta <= theta_v < theta_hi):
            raise SolverError("tight set candidate out of range")
        theta_hi = theta_v
    raise SolverError("tight set search failed to settle")


def _candidates(state: SolverState) -> list[_Candidate]:
    """The iteration's refund and crossing candidates, one of each per active
    or zero-degree buyer.  A buyer's crossing candidates all share one
    bang-per-buck, so only its first crossing, the lowest good on ties, can
    win and is the only one built.  A refund's theta is her bang-per-buck."""
    cap, scale = state.graph.cap, state.graph.scale
    outside = [j for j in state.inst.goods if j not in state.J]
    candidates: list[_Candidate] = []

    def add(refund: str, crossing: str, i: int, u: int, c: int) -> None:
        candidates.append(_Candidate(u * scale, c * state.row_dens[i], refund, i))
        # Scaled ratios fall as (u / c) / theta, so buyer i first meets the
        # outside goods of best ratio r / cap_j, at theta = u cap_j / (c r);
        # they stay her best outside until one of them joins J.
        row, best = state.rows[i], state.outside.get(i)
        if best is None or not best.isdisjoint(state.J):
            best = state.outside[i] = frozenset(best_ratio(row, cap, outside)[2])
        if best:
            j = min(best)
            candidates.append(_Candidate(u * cap[j], c * row[j], crossing, i, j))

    for i in state.I:
        add("money_return", "new_edge", i, *_alpha_bar_active(state, i))
    for i in state.Z:
        add("z_removal", "z_new_edge", i, *_alpha_bar_zero_degree(state, i))
    return candidates


def next_event(state: SolverState) -> Event:
    """The earliest event as theta rises, ties broken by Event.sort_key.

    Ties at equal theta resolve by kind (refunds precede everything: prices
    cannot rise past an unpaid buyer), then by the lowest buyer index, then
    by the lowest good index.  This only orders events: the refund split a
    solve reports is fixed afterwards by _lex_max_refunds.  The candidates
    (``_candidates``) are built at the iteration's first event and kept in
    the heap ``state.queue`` (see the module docstring).
    """
    queue = state.queue
    if queue is None:
        queue = state.queue = _candidates(state)
        heapq.heapify(queue)
    while queue and queue[0].buyer not in state.I and queue[0].buyer not in state.Z:
        heapq.heappop(queue)
    if not queue:
        raise SolverError("no candidate events in iteration")
    head, theta = queue[0], state.theta
    first = head.event()
    # The earliest candidate, so this checks them all; a refund's theta is
    # the buyer's bang-per-buck at iteration-start prices, so this also
    # checks that no buyer's is below 1.
    if head.num * theta.denominator < theta.numerator * head.den:
        raise SolverError(f"{first.kind} event in the past: {first.theta_star} < {state.theta}")
    found = _tight_set_search(state, first.theta_star)
    if found is None:
        return first
    theta_t, tight = found
    return min(first, Event("tight_set", theta_t, tight_goods=tight), key=Event.sort_key)


def _set_theta(state: SolverState, theta: Fraction) -> None:
    """Raise theta, and with it the prices of J that the graph states."""
    if theta < state.theta:
        raise SolverError("theta may only rise within an iteration")
    state.theta = theta


def apply_new_edge(state: SolverState, i: int, j: int) -> SolverState:
    """Add the crossing edge and absorb residually-connected buyers.

    The network at theta is the iteration graph scaled to theta plus the
    new arc; it is balanced from the start flow, which stays feasible (J's
    caps only grew, and the arc is new), and becomes the next iteration's
    graph.  Only the components with a good of J or of a new arc are peeled
    again (``_balance``); every other one keeps its flow and surpluses.
    """
    if not _meets(state, _alpha_bar_active(state, i), state.rows[i][j], state.graph.cap[j]):
        raise SolverError("new edge does not satisfy the bang-per-buck equality")
    g = state.graph = _at_theta(state, state.theta)
    state.theta = Fraction(1)  # the graph's J caps hold theta now
    g.add_arc(j, i)
    state.touched.add(j)
    _, (sq, sc) = _balance(state, g)
    # The invariant, as at phase start: the next iteration's search bound
    # reads the start flow as filling every source arc.
    if g.deficit():
        raise SolverError("price cut invariant broken at new edge")
    old_sq, old_sc = state.potential
    if sq * old_sc > old_sq * sc:
        raise SolverError("potential increased across a balanced-flow recompute")
    state.potential = sq, sc
    state.I |= g.buyers_reaching(state.I)
    _start_iteration(state)
    return state


def apply_tight_set(state: SolverState, S: frozenset[int]):
    """End the phase on a tight set; terminal when every good is tight.

    Every good being tight ends the run only when no zero-degree buyer
    still holds money: such a buyer regains her bang-per-buck edges at the
    next rebuild, which reopens price slack, so the run must continue.
    """
    # p(S) against its buyers' money, times g.scale and theta's denominator.
    g, num, den = state.graph, state.theta.numerator, state.theta.denominator
    worth_s = sum(g.cap[j] * (num if j in state.J else den) for j in S)
    if worth_s != den * sum(g.cap[g.sink_arc(i)] for i in {i for j in S for i in g.buyers_of(j)}):
        raise SolverError("tight set is not exactly tight")
    if S == set(state.inst.goods) and not state.Z:
        return "terminal"
    return "phase_end"


def apply_money_return(state: SolverState, i: int) -> str:
    """Return money to buyer i whose bang-per-buck reached exactly 1.

    She keeps spending beta, her least spend on ``_at_theta``'s copy;
    beta = 0 is a full return, which removes her.  By duality beta is
    p(S) less the other T buyers' money, (S, T) the goods and buyers on the
    source side of the maximal min cut with her cap at 0, so it leaves S
    tight.  The copy, augmented again with her cap at beta, must fill every
    source arc.  That also checks that i is in T: else the cut would stay
    minimal, below the total price, with her cap at beta.  The return is
    then written into the graph the next phase carries, whose sink caps are
    the solve's only record of refunds: her cap is set to beta, or she is
    removed.
    """
    if not _meets(state, _alpha_bar_active(state, i), state.row_dens[i], state.graph.scale):
        raise SolverError("money return fired away from bang-per-buck 1")
    g = _at_theta(state, state.theta)
    spend = _least_spend(g, i)
    if not spend:
        _remove_buyer(state, i)
        return "II"
    # The new return, money - spend, may not fall below the old one; g's
    # scale is the graph's times theta's denominator.
    if spend > state.graph.cap[g.sink_arc(i)] * state.theta.denominator:
        raise SolverError("partial return outside the feasible range")
    g.cap[g.sink_arc(i)] = spend
    g.augment()
    if g.deficit():
        raise SolverError("price cut invariant broken at partial money return")
    # Rescaled by theta's denominator, the graph has g's scale, at which
    # her new cap is the spend.
    h = state.graph
    h.rescale(state.theta.denominator)
    h.set_sink_cap(h.sink_arc(i), spend)
    state.touched |= h.goods_of(i)
    return "III"


def _remove_buyer(state: SolverState, i: int) -> None:
    """Take buyer i out: the graph gives back her flow and drops her arcs,
    and keeps her vertex, cut off, with sink cap 0, which records her full
    refund."""
    g = state.graph
    goods = g.goods_of(i)
    g.set_sink_cap(g.sink_arc(i), 0)
    g.drop_arcs([(j, i) for j in goods])
    state.touched |= goods
    state.I.discard(i)
    state.Z.discard(i)


def apply_z_events(state: SolverState, event: Event) -> SolverState:
    """Handle zero-degree buyer events; theta keeps rising afterwards."""
    i = event.buyer
    if i not in state.Z:
        raise SolverError(f"buyer {i} is not zero-degree")
    if event.kind == "z_removal":
        if not _meets(state, _alpha_bar_zero_degree(state, i), state.row_dens[i], state.graph.scale):
            raise SolverError("zero-degree removal fired away from bang-per-buck 1")
        _remove_buyer(state, i)
    elif event.kind == "z_new_edge":
        j = event.good
        if not _meets(state, _alpha_bar_zero_degree(state, i), state.rows[i][j], state.graph.cap[j]):
            raise SolverError("zero-degree crossing does not satisfy the equality")
        state.Z.discard(i)
        state.touched.add(j)
        state.graph.add_arc(j, i)
    else:
        raise SolverError(f"not a zero-degree event: {event.kind}")
    return state


def run_phase(state: SolverState) -> PhaseOutcome:
    """Run one phase to its ending event; assumes begin_phase was not terminal."""
    n_goods = state.inst.n_goods
    n_buyers = state.inst.n_buyers
    max_events = 10 * (n_buyers + 2) * (n_goods + 2)
    for _ in range(max_events):
        ev = next_event(state)
        _set_theta(state, ev.theta_star)
        if state.recorder is not None:
            state.recorder.record_event(state, ev)
        if ev.kind == "new_edge":
            if state.iteration_index > n_goods + 2:
                raise SolverError("iteration count exceeded the goods bound")
            apply_new_edge(state, ev.buyer, ev.good)
        elif ev.kind in ("z_removal", "z_new_edge"):
            apply_z_events(state, ev)
            _require_iteration_invariant(state, f"after {ev.kind}")
        elif ev.kind == "money_return":
            kind = apply_money_return(state, ev.buyer)
            return PhaseOutcome(kind)
        elif ev.kind == "tight_set":
            # The search's last probe, at this theta, found no deficit.
            result = apply_tight_set(state, ev.tight_goods)
            return PhaseOutcome("I", terminal=(result == "terminal"))
    raise SolverError("event budget exceeded within a phase")


def _phase_cap(n: int, stats: RunStats) -> int:
    """Runaway guard: a generous multiple of the polynomial phase bound."""
    # Each bit length is at least the log2 it stands for, in exact integers.
    bound = 64 * n**3 * (
        n.bit_length()
        + n * (math.ceil(stats.max_utility) + 2).bit_length()
        + (math.ceil(stats.total_money) + 2).bit_length()
    )
    return 4 * (bound + 16)


def _extract(state: SolverState) -> Equilibrium:
    """The equilibrium at the terminal prices: the allocation is a maximum
    flow pushed from zero on ``_at_theta``'s copy, which must fill every
    source arc and every sink arc (a removed buyer's is 0 of 0)."""
    g = _at_theta(state, state.theta)
    g.flow = [0] * len(g.flow)
    g.augment()
    if g.deficit() or any(g.flow[a] != g.cap[a] for a in map(g.sink_arc, state.inst.buyers)):
        raise SolverError("terminal network is not saturated on both sides")
    return _equilibrium_of(state.inst, g)


def _lex_max_refunds(state: SolverState, eq: Equilibrium) -> Equilibrium:
    """The optimum at eq's prices whose refunds are lexicographically maximal.

    Refunds of buyers whose bang-per-buck is not exactly 1 are forced; the
    buyers at exactly 1 (removed ones included) may split the rest in many
    ways.  Maximizing their refunds in buyer order means minimizing their
    spends in that order, on one graph over every best-ratio edge with each
    cap at the buyer's money: ``_at_theta``'s copy of the solve's graph with
    the arcs it lacks for the buyers at 1 or more added (``_add_best_arcs``:
    removed buyers', and arcs pruned at an iteration start) and rescaled so
    that every money is an int.  A buyer below 1 stays isolated, with cap 0.
    Every push starts from zero.  Each spend in turn is her least spend, the
    deficit of a maximum flow with her cap at 0 (``_least_spend``), with the
    earlier buyers' caps set to theirs: augmenting paths never lower a
    buyer's spend, so it is reached with them kept where they are.  The last
    spend is what remains, and one more push from zero, which must fill
    every source arc, realizes the split.  While no spend has moved, the
    extracted flow is a feasible split, so a buyer it gives no goods needs
    no push.
    """
    inst = state.inst
    ones = [i for i in inst.buyers if eq.alpha[i] == 1]
    if len(ones) < 2:
        return eq
    buyers = [i for i in inst.buyers if eq.alpha[i] >= 1]
    g = _at_theta(state, state.theta)
    _add_best_arcs(state, g, buyers)
    g.rescale(math.lcm(g.scale, *(inst.money[i].denominator for i in buyers)) // g.scale)
    for i in buyers:
        g.cap[g.sink_arc(i)] = int(inst.money[i] * g.scale)
    moved = False
    for i in ones[:-1]:
        spend = (inst.money[i] - eq.returned[i]) * g.scale
        least = _least_spend(g, i) if moved or spend else 0
        moved = moved or least != spend
        g.cap[g.sink_arc(i)] = least
    if not moved:
        return eq
    last = ones[-1]
    g.flow = [0] * len(g.flow)
    rest = sum(g.cap[g.sink_arc(b)] for b in buyers if b != last)
    g.cap[g.sink_arc(last)] = cap = g.deficit() - rest  # with no flow, the total price
    if not 0 <= cap <= inst.money[last] * g.scale:
        raise SolverError("lexicographic refund split left a spend out of range")
    g.augment()
    if g.deficit():
        raise SolverError("lexicographic refund split is not feasible")
    return _equilibrium_of(inst, g)


def solve(inst: MarketInstance, recorder: TraceRecorder | None = None) -> tuple[Equilibrium, RunStats]:
    """Compute an exact equilibrium: prices, allocation and returned money."""
    state = initialize(inst)
    state.recorder = recorder
    stats = state.stats
    trace = stats.potential_trace
    phase_cap = _phase_cap(inst.n_buyers, stats)
    while True:
        if state.phase_index > phase_cap:
            raise SolverError("phase budget exceeded; runtime bound violated")
        n_live = len(state.live_buyers)
        phi_before, terminal = begin_phase(state)
        if trace:  # the last phase ended at this potential
            idx, n_prev, phi_prev, _, kind = trace[-1]
            trace[-1] = (idx, n_prev, phi_prev, phi_before, kind)
        if terminal:
            # Every surplus is zero: the full goods set is tight at theta = 1.
            outcome = PhaseOutcome("I", terminal=True)
            if state.recorder is not None:
                state.recorder.record_event(
                    state, Event("tight_set", Fraction(1), tight_goods=frozenset(inst.goods))
                )
        else:
            outcome = run_phase(state)
        stats.phase_count += 1
        if outcome.type == "I":
            stats.type1 += 1
        elif outcome.type == "II":
            stats.type2 += 1
        else:
            stats.type3 += 1
        trace.append((state.phase_index, n_live, phi_before, Fraction(0), outcome.type))
        if outcome.terminal:
            break

    if state.recorder is not None:
        state.recorder.record_phase(state, "terminal")
    eq = _lex_max_refunds(state, _extract(state))
    denoms = [p.denominator for p in eq.prices]
    denoms += [x.denominator for row in eq.allocation for x in row]
    denoms += [s.denominator for s in eq.returned]
    stats.output_max_denominator = max(denoms)
    return eq, stats


def prices_hash(prices: dict[int, Fraction]) -> str:
    blob = ",".join(f"{j}:{prices[j]}" for j in sorted(prices))
    return hashlib.sha1(blob.encode()).hexdigest()[:12]
