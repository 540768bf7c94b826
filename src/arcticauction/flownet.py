"""Money-flow networks: construction, exact max-flow, min cuts, reachability.

A network has a source feeding every good with capacity equal to its price,
unbounded good-to-buyer edges for maximum bang-per-buck pairs, and a
buyer-to-sink edge capped by the buyer's left-over money.  All arithmetic is
exact; unbounded capacities are a distinct marker (None), never a big number.

Every residual query (augmenting paths, the maximality check, both extreme
min cuts, buyer-to-buyer reachability and the balanced-flow walks) goes
through one residual graph and its one breadth-first walk.  Its neighbour
lists are in a fixed vertex order; that order fixes which augmenting paths
max_flow takes, hence which maximum flow it returns, hence the allocation a
solve reports.  Changing it changes answers, not just speed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .market import MarketInstance

SOURCE = ("s",)
SINK = ("t",)
_ZERO = Fraction(0)


def good_vertex(j: int) -> tuple:
    return ("g", j)


def buyer_vertex(i: int) -> tuple:
    return ("b", i)


_KIND_RANK = {"s": 0, "g": 1, "b": 2, "t": 3}


def _vertex_key(v: tuple) -> tuple:
    return (_KIND_RANK[v[0]], v[1] if len(v) > 1 else -1)


class FlowError(ValueError):
    """Raised on invalid networks or flow preconditions."""


@dataclass(frozen=True)
class FlowNetwork:
    """Directed network source -> goods -> buyers -> sink.

    ``edges`` holds the (good, buyer) pairs with unbounded capacity.
    """

    goods: tuple[int, ...]
    buyers: tuple[int, ...]
    source_caps: dict[int, Fraction]
    sink_caps: dict[int, Fraction]
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        for j in self.goods:
            if self.source_caps[j] <= 0:
                raise FlowError(f"good {j}: nonpositive price {self.source_caps[j]}")
        for i in self.buyers:
            if self.sink_caps[i] < 0:
                raise FlowError(f"buyer {i}: negative left-over money")
        for j, i in self.edges:
            if j not in self.source_caps or i not in self.sink_caps:
                raise FlowError(f"edge ({j}, {i}) references unknown vertex")

    @property
    def total_price(self) -> Fraction:
        return sum((self.source_caps[j] for j in self.goods), Fraction(0))

    @property
    def total_money(self) -> Fraction:
        return sum((self.sink_caps[i] for i in self.buyers), Fraction(0))

    def neighborhood_of_buyers(self, buyers) -> set[int]:
        buyers = set(buyers)
        return {j for (j, i) in self.edges if i in buyers}

    def with_sink_caps(self, caps: dict[int, Fraction]) -> "FlowNetwork":
        return FlowNetwork(self.goods, self.buyers, self.source_caps, dict(caps), self.edges)

    def restricted(self, goods, buyers) -> "FlowNetwork":
        goods = tuple(sorted(goods))
        buyers = tuple(sorted(buyers))
        gset, bset = set(goods), set(buyers)
        return FlowNetwork(
            goods,
            buyers,
            {j: self.source_caps[j] for j in goods},
            {i: self.sink_caps[i] for i in buyers},
            frozenset((j, i) for (j, i) in self.edges if j in gset and i in bset),
        )


@dataclass
class Flow:
    """A feasible flow: per-edge values plus the total from source to sink."""

    values: dict[tuple[tuple, tuple], Fraction]
    value: Fraction

    def on(self, u: tuple, v: tuple) -> Fraction:
        return self.values.get((u, v), Fraction(0))

    def into_buyer(self, i: int) -> Fraction:
        return self.on(buyer_vertex(i), SINK)


@dataclass(frozen=True)
class Cut:
    """An s-t cut given by its source side; capacity excludes unbounded edges."""

    source_side: frozenset
    capacity: Fraction

    def goods_part(self) -> tuple[int, ...]:
        return tuple(sorted(v[1] for v in self.source_side if v[0] == "g"))

    def buyers_part(self) -> tuple[int, ...]:
        return tuple(sorted(v[1] for v in self.source_side if v[0] == "b"))


@dataclass
class MaxflowCounter:
    calls: int = 0


def mbpb_edges(
    inst: MarketInstance,
    prices: dict[int, Fraction],
    buyers,
    goods,
    alphas: dict[int, Fraction] | None = None,
) -> frozenset[tuple[int, int]]:
    """All (good, buyer) pairs where the good attains the buyer's best ratio."""
    goods = sorted(goods)
    out = set()
    for i in sorted(buyers):
        if alphas is not None:
            alpha = alphas[i]
        else:
            alpha = max(inst.utilities[i][j] / prices[j] for j in goods)
        for j in goods:
            if inst.utilities[i][j] > 0 and inst.utilities[i][j] == alpha * prices[j]:
                out.add((j, i))
    return frozenset(out)


def build_network(
    inst: MarketInstance,
    prices: dict[int, Fraction],
    returns=None,
    alphas: dict[int, Fraction] | None = None,
    buyers=None,
    goods=None,
) -> FlowNetwork:
    """Build the money network for given prices and returned-money vector."""
    if returns is None:
        returns = {}
    buyers = tuple(sorted(buyers)) if buyers is not None else tuple(inst.buyers)
    goods = tuple(sorted(goods)) if goods is not None else tuple(inst.goods)
    for j in goods:
        if prices[j] <= 0:
            raise FlowError(f"good {j}: nonpositive price")
    sink_caps = {}
    for i in buyers:
        r = returns.get(i, Fraction(0))
        if r < 0 or r > inst.money[i]:
            raise FlowError(f"buyer {i}: returned money out of range")
        sink_caps[i] = inst.money[i] - r
    edges = mbpb_edges(inst, prices, buyers, goods, alphas)
    return FlowNetwork(
        goods=goods,
        buyers=buyers,
        source_caps={j: prices[j] for j in goods},
        sink_caps=sink_caps,
        edges=edges,
    )


class _Residual:
    """Residual graph of a network under a flow.

    ``cap`` maps u -> {v: capacity, None for unbounded}; ``flow`` maps
    (u, v) -> value and is only written by max_flow, on a graph it owns.
    The network has no antiparallel capacity edges, so each ordered pair is
    traversed either forward against its own capacity or backward against
    the reverse edge's flow.
    """

    def __init__(self, net: FlowNetwork, flow: Flow | None = None):
        cap: dict = {SOURCE: {good_vertex(j): net.source_caps[j] for j in net.goods}, SINK: {}}
        for j in net.goods:
            cap[good_vertex(j)] = {}
        for j, i in net.edges:
            cap[good_vertex(j)][buyer_vertex(i)] = None
        for i in net.buyers:
            cap[buyer_vertex(i)] = {SINK: net.sink_caps[i]}
        neighbors: dict[tuple, set] = {u: set() for u in cap}
        for u, targets in cap.items():
            for v in targets:
                neighbors[u].add(v)
                neighbors[v].add(u)
        self.cap = cap
        self.flow = {} if flow is None else flow.values
        self.neighbors = {u: sorted(vs, key=_vertex_key) for u, vs in neighbors.items()}

    def residual(self, u: tuple, v: tuple) -> Fraction | None:
        """Residual capacity on arc (u, v); None means unbounded."""
        if v in self.cap[u]:
            c = self.cap[u][v]
            if c is None:
                return None
            return c - self.flow.get((u, v), _ZERO)
        return self.flow.get((v, u), _ZERO)

    def walk(self, starts, reverse: bool = False, avoid=(), stop=None) -> dict:
        """Breadth-first search along residual arcs, or against them if ``reverse``.

        Returns the parent map of every vertex reached (starts map to None).
        Vertices in ``avoid`` are never entered; the search ends as soon as
        ``stop`` is reached.
        """
        parent = dict.fromkeys(starts)
        queue = deque(parent)
        residual, neighbors = self.residual, self.neighbors
        while queue:
            u = queue.popleft()
            for v in neighbors[u]:
                if v in parent or v in avoid:
                    continue
                r = residual(v, u) if reverse else residual(u, v)
                if r is None or r > 0:
                    parent[v] = u
                    if v == stop:
                        return parent
                    queue.append(v)
        return parent


def max_flow(net: FlowNetwork, counter: MaxflowCounter | None = None) -> Flow:
    """Exact maximum flow via shortest augmenting paths.

    Deterministic: the walk expands vertices in a fixed order, so the chosen
    flow (not just its value) is reproducible.
    """
    if counter is not None:
        counter.calls += 1
    g = _Residual(net)
    cap, flow = g.cap, g.flow
    value = Fraction(0)
    while True:
        parent = g.walk([SOURCE], stop=SINK)
        if SINK not in parent:
            break
        path = []
        v = SINK
        while v != SOURCE:
            u = parent[v]
            path.append((u, v))
            v = u
        bottleneck = None
        for u, v in path:
            r = g.residual(u, v)
            if r is not None:
                bottleneck = r if bottleneck is None else min(bottleneck, r)
        if bottleneck is None or bottleneck <= 0:
            raise FlowError("augmenting path without finite bottleneck")
        for u, v in path:
            if v in cap[u]:
                flow[(u, v)] = flow.get((u, v), _ZERO) + bottleneck
            else:
                flow[(v, u)] = flow.get((v, u), _ZERO) - bottleneck
        value += bottleneck

    flow = {e: f for e, f in flow.items() if f != 0}
    return Flow(values=flow, value=value)


def _maximum_residual(net: FlowNetwork, flow: Flow) -> tuple[_Residual, dict]:
    """The residual graph of a maximum flow and the vertices reachable from s."""
    g = _Residual(net, flow)
    reached = g.walk([SOURCE])
    if SINK in reached:
        raise FlowError("flow is not maximum: residual path to sink exists")
    return g, reached


def _cut_capacity(net: FlowNetwork, source_side: frozenset) -> Fraction:
    cap = Fraction(0)
    for j in net.goods:
        if good_vertex(j) not in source_side:
            cap += net.source_caps[j]
    for j, i in net.edges:
        if good_vertex(j) in source_side and buyer_vertex(i) not in source_side:
            raise FlowError("unbounded edge crosses the cut")
    for i in net.buyers:
        if buyer_vertex(i) in source_side:
            cap += net.sink_caps[i]
    return cap


def min_cut_source_side(net: FlowNetwork, flow: Flow) -> Cut:
    """The source-nearest min cut: residual-reachable vertices from s."""
    _, reached = _maximum_residual(net, flow)
    side = frozenset(reached)
    return Cut(source_side=side, capacity=_cut_capacity(net, side))


def maximal_min_cut(net: FlowNetwork, flow: Flow) -> Cut:
    """The sink-nearest min cut: all vertices from which the sink is unreachable."""
    g, _ = _maximum_residual(net, flow)
    reaches_sink = g.walk([SINK], reverse=True)
    side = frozenset(u for u in g.cap if u not in reaches_sink)
    return Cut(source_side=side, capacity=_cut_capacity(net, side))


def residual_reachable(net: FlowNetwork, flow: Flow, targets) -> set[int]:
    """Buyers outside ``targets`` with a residual path into ``targets``.

    Paths run through goods and buyers only; the source and sink are not
    valid interior vertices for buyer-to-buyer reachability.
    """
    g = _Residual(net, flow)
    seen = g.walk([buyer_vertex(i) for i in targets], reverse=True, avoid=(SOURCE, SINK))
    return {v[1] for v in seen if v[0] == "b"} - set(targets)


def check_invariant(net: FlowNetwork, counter: MaxflowCounter | None = None) -> bool:
    """True iff ({s}, everything else) is a minimum s-t cut."""
    return max_flow(net, counter).value == net.total_price


def dump_network(net: FlowNetwork, flow: Flow | None = None) -> str:
    """Line-oriented debug dump: tail, head, capacity, flow."""
    lines = []
    for j in net.goods:
        f = flow.on(SOURCE, good_vertex(j)) if flow else Fraction(0)
        lines.append(f"s g{j} {net.source_caps[j]} {f}")
    for j, i in sorted(net.edges):
        f = flow.on(good_vertex(j), buyer_vertex(i)) if flow else Fraction(0)
        lines.append(f"g{j} b{i} inf {f}")
    for i in net.buyers:
        f = flow.on(buyer_vertex(i), SINK) if flow else Fraction(0)
        lines.append(f"b{i} t {net.sink_caps[i]} {f}")
    return "\n".join(lines) + "\n"
