"""Money-flow networks: exact max-flow, min cuts, reachability.

A network has a source feeding every good with capacity equal to its price,
unbounded good-to-buyer edges for maximum bang-per-buck pairs, and a
buyer-to-sink edge capped by the buyer's left-over money.  All arithmetic is
exact; unbounded capacities are a distinct marker (None), never a big number.

Every residual query (augmenting paths, the maximality check, both extreme
min cuts, buyer-to-buyer reachability and the balanced-flow walks) goes
through one residual graph and its one breadth-first search, and every
maximum flow, from zero or warm-started, through its one augmenting loop,
Edmonds-Karp's shortest augmenting paths.  The loop opens with one pass
that pushes every length-3 path s -> good -> buyer -> t without a search,
in the order and by the amounts the searches would (``augment`` has the
proof), and its searches then push the longer paths.  One cut reader gives
both extreme min cuts, whether the maximum flow was given or was just
augmented on the same graph.  A flow handed to the graph is checked to be
feasible before it is used; a scaled copy of a graph, which shares its arcs
and multiplies its capacities and flows by ints, is not built again and
needs no check.  A graph can also be edited in place, so one graph can
follow a network that changes an arc at a time: an arc added in sorted
place, arcs without flow dropped, a sink cap set with the flow over it
given back, and every value divided by the common gcd.  That graph works
on Python ints: each network's capacities, and the given flow's values, are
multiplied by the LCM of their denominators, and results leave it only at
the API boundary, as Fractions (flow values and flow value) and vertex
tuples; cut capacities are summed from the network's own Fractions.
Its layout is positional, and ``balanced.balance`` reads arcs off it too:
with m goods, vertex 0 is s, good j is vertex 1 + j, buyer i is vertex
1 + m + i and t comes last, and vertex v's source or sink arc is arc v - 1.
Each adjacency list is sorted by vertex number, which fixes which
augmenting paths max_flow takes, hence which maximum flow it returns, hence
the allocation a solve reports.  Changing it changes answers, not just speed.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

SOURCE = ("s",)
SINK = ("t",)


def good_vertex(j: int) -> tuple:
    return ("g", j)


def buyer_vertex(i: int) -> tuple:
    return ("b", i)


class FlowError(ValueError):
    """Raised on invalid networks or flow preconditions."""


@dataclass(frozen=True)
class FlowNetwork:
    """Directed network source -> goods -> buyers -> sink.

    Goods and buyers are numbered 0, 1, ... in order, and ``source_caps``
    and ``sink_caps`` are keyed by exactly them, else FlowError.  ``edges``
    holds the (good, buyer) pairs with unbounded capacity.
    """

    goods: tuple[int, ...]
    buyers: tuple[int, ...]
    source_caps: dict[int, Fraction]
    sink_caps: dict[int, Fraction]
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        goods, buyers = tuple(self.goods), tuple(self.buyers)
        if goods != tuple(range(len(goods))) or buyers != tuple(range(len(buyers))):
            raise FlowError("goods and buyers must be numbered 0, 1, ... in order")
        if self.source_caps.keys() != set(goods) or self.sink_caps.keys() != set(buyers):
            raise FlowError("source_caps and sink_caps must be keyed by exactly the goods and buyers")
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


class _Residual:
    """Residual graph of a network under a flow, on scaled integers.

    With ``m`` goods and n buyers, vertex 0 is s, good j is vertex 1 + j,
    buyer i is vertex 1 + m + i and t is vertex m + n + 1; ``vertices``
    holds their names.  Arcs 0..m-1 run from s to the goods and arcs
    m..m+n-1 from the buyers to t, so vertex v's terminal arc is arc v - 1;
    the good -> buyer arcs are numbered from m + n.  Arc ``a`` runs
    ``ends[a]`` with capacity ``cap[a]`` (None for unbounded) and flow
    ``flow[a]``: the network's values times ``scale``, the LCM of every
    capacity and flow denominator, so the ints are exact and every residual
    keeps its sign.  ``adj[u]`` lists ``(v, arc, forward)`` for each arc at
    u, sorted by v.  The network has no antiparallel capacity edges, so each
    pair of vertices shares at most one arc, traversed forward against its
    capacity or backward against its flow.  ``cap`` and ``flow`` are only
    written on a graph its caller owns: by ``augment``, ``rescale``,
    ``reduce``, ``add_arc``, ``drop_arcs``, ``set_sink_cap``,
    ``balanced.balance`` and the solver.  ``ends`` and ``adj`` are shared
    with scaled copies, and ``add_arc`` and ``drop_arcs`` write into them,
    so a copy is stale once its source's arcs change: the solver reads no
    copy after that.

    A given flow must be feasible in the network: nonnegative, within every
    finite capacity and conserved at every good and buyer, else FlowError.
    Its values on pairs that are not arcs of the network are not read, so
    flow left on a dropped arc shows up as a conservation break.
    """

    def __init__(self, net: FlowNetwork, flow: Flow | None = None):
        m, n = len(net.goods), len(net.buyers)
        self.m = m
        self.vertices = [SOURCE, *map(good_vertex, net.goods), *map(buyer_vertex, net.buyers), SINK]
        ends = [(0, 1 + j) for j in net.goods] + [(1 + m + i, m + n + 1) for i in net.buyers]
        ends += [(1 + j, 1 + m + i) for j, i in net.edges]
        caps = [net.source_caps[j] for j in net.goods] + [net.sink_caps[i] for i in net.buyers]
        caps += [None] * len(net.edges)
        if flow is None:
            flows = [0] * len(ends)
        else:
            at = self.vertices
            flows = [flow.values.get((at[u], at[v]), 0) for u, v in ends]
        scale = lcm(*(c.denominator for c in caps if c is not None), *(f.denominator for f in flows))
        self.scale = scale
        self.ends = ends
        self.cap = [None if c is None else c.numerator * (scale // c.denominator) for c in caps]
        self.flow = [f.numerator * (scale // f.denominator) for f in flows]
        if flow is not None:
            self._check_feasible()
        self.adj = [[] for _ in self.vertices]
        for a, (u, v) in enumerate(ends):
            self.adj[u].append((v, a, True))
            self.adj[v].append((u, a, False))
        for entries in self.adj:
            entries.sort()

    def _check_feasible(self) -> None:
        at, excess = self.vertices, [0] * len(self.vertices)
        for (u, v), c, f in zip(self.ends, self.cap, self.flow):
            if f < 0 or (c is not None and f > c):
                raise FlowError(f"flow on {at[u]} -> {at[v]} is negative or over capacity")
            excess[u] -= f
            excess[v] += f
        for v in range(1, len(excess) - 1):
            if excess[v]:
                raise FlowError(f"flow is not conserved at {at[v]}")

    def search(self, starts, reverse: bool = False, avoid=(), stop: int = -1) -> list:
        """Breadth-first search along residual arcs, or against them if ``reverse``.

        Takes and returns vertex indices.  The result maps each vertex to
        the arc it was reached by: -1 for the starts, None if not reached.
        Vertices in ``avoid`` are never entered; the search ends as soon as
        ``stop`` is reached.
        """
        parent = [None] * len(self.adj)
        for v in (*avoid, *starts):
            parent[v] = -1
        queue = deque(starts)
        cap, flow, adj = self.cap, self.flow, self.adj
        while queue:
            u = queue.popleft()
            for v, a, forward in adj[u]:
                if parent[v] is not None:
                    continue
                if forward == reverse:
                    if flow[a] <= 0:
                        continue
                elif cap[a] is not None and cap[a] <= flow[a]:
                    continue
                parent[v] = a
                if v == stop:
                    queue.clear()
                    break
                queue.append(v)
        for v in avoid:
            parent[v] = None
        return parent

    def augment(self, avoid=()) -> list:
        """Push shortest augmenting paths from the current flow until none is left.

        Paths never enter ``avoid``, a set of goods and buyers.  Returns the
        last search, which found no path: its parent map marks the vertices
        reachable from the source without entering ``avoid``, the source
        side of the source-nearest min cut.

        The length-3 paths s -> g -> b -> t go first, in one pass with no
        search: for each good g in vertex order, while its source arc has
        room, each buyer b after an arc g -> b, in adjacency order, takes
        what g's and b's residuals allow.  The searches would push the same
        paths, in the same order and by the same amounts, because:

        * shortest-path lengths never fall, so every length-3 path comes
          before any longer one;
        * a length-3 path runs on forward arcs only, and pushing on it only
          fills source and sink arcs (the middle arcs are unbounded), so it
          makes no new length-3 path;
        * the search reaches each buyer from the first good next to it
          whose source arc has room, and visits the buyers in that order,
          so its path is the least pair (g, b), by g and then by b, whose
          source and sink arcs both have room.

        So the flow, the returned search and every cut read off them are
        those of the searches alone.
        """
        cap, flow, ends, adj = self.cap, self.flow, self.ends, self.adj
        for g, a, _ in adj[0]:
            room = cap[a] - flow[a]
            if room <= 0 or g in avoid:
                continue
            for b, arc, forward in adj[g]:
                if not forward or b in avoid:
                    continue
                out = b - 1
                push = min(room, cap[out] - flow[out])
                if push > 0:
                    flow[a] += push
                    flow[arc] += push
                    flow[out] += push
                    room -= push
                    if not room:
                        break
        sink = len(adj) - 1
        while True:
            parent = self.search([0], avoid=avoid, stop=sink)
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

    def rescale(self, d: int) -> None:
        """Multiply every capacity, every flow and ``scale`` by the integer d."""
        self.cap[:] = [None if c is None else c * d for c in self.cap]
        self.flow[:] = [f * d for f in self.flow]
        self.scale *= d

    def reduce(self) -> None:
        """Divide every capacity, every flow and ``scale`` by their gcd.

        The new scale is then the LCM of the denominators of every capacity
        and flow, the scale a graph built afresh would take.
        """
        d = gcd(self.scale, *(c for c in self.cap if c is not None), *self.flow)
        if d > 1:
            self.cap[:] = [None if c is None else c // d for c in self.cap]
            self.flow[:] = [f // d for f in self.flow]
            self.scale //= d

    def add_arc(self, j: int, i: int) -> None:
        """Add the unbounded, empty arc from good j to buyer i.

        It is entered in sorted place in both adjacency lists, as a graph
        built afresh with the arc would have it.
        """
        u, v = 1 + j, 1 + self.m + i
        a = len(self.ends)
        self.ends.append((u, v))
        self.cap.append(None)
        self.flow.append(0)
        insort(self.adj[u], (v, a, True))
        insort(self.adj[v], (u, a, False))

    def drop_arcs(self, pairs) -> None:
        """Remove the arcs from good j to buyer i for each (j, i) in ``pairs``.

        Raises FlowError if one of them carries flow.  The arcs numbered
        past the new arc count take the freed numbers below it, so only the
        adjacency lists at the ends of a dropped or a moved arc are
        rewritten, each once.  A list is sorted by head vertex, which arc
        numbers do not change, and the terminal arcs, numbered below every
        good -> buyer arc, never move.
        """
        m, at, adj, flow = self.m, self.vertices, self.adj, self.flow
        dropped = set()
        for j, i in pairs:
            u, v = 1 + j, 1 + m + i
            k = bisect_left(adj[u], (v,))
            if k < len(adj[u]) and adj[u][k][0] == v:
                a = adj[u][k][1]
                if flow[a]:
                    raise FlowError(f"dropped arc {at[u]} -> {at[v]} carries flow")
                dropped.add(a)
        if not dropped:
            return
        ends, cap = self.ends, self.cap
        n = len(ends) - len(dropped)
        moved = [a for a in range(n, len(ends)) if a not in dropped]
        renumber = dict(zip(moved, sorted(a for a in dropped if a < n)))
        for w in {w for a in (*dropped, *moved) for w in ends[a]}:
            adj[w] = [(v, renumber.get(a, a), forward) for v, a, forward in adj[w] if a not in dropped]
        for old, new in renumber.items():
            ends[new], cap[new], flow[new] = ends[old], cap[old], flow[old]
        del ends[n:], cap[n:], flow[n:]

    def set_sink_cap(self, a: int, c: int) -> None:
        """Set sink arc a's cap to c.

        Inflow over c is given back along the buyer's in-arcs, in adjacency
        order, and taken off each good's source arc, so a feasible flow
        stays feasible.
        """
        cap, flow, entries = self.cap, self.flow, self.adj[a + 1]
        cap[a] = c
        excess = flow[a] - c
        for j, arc, forward in entries:
            if excess <= 0:
                return
            if not forward:
                take = min(flow[arc], excess)
                flow[arc] -= take
                flow[j - 1] -= take
                flow[a] -= take
                excess -= take

    def sink_arc(self, i: int) -> int:
        """The arc from buyer i to the sink."""
        return self.m + i

    def goods_of(self, i: int) -> set[int]:
        """The goods with an arc into buyer i."""
        return {v - 1 for v, _, forward in self.adj[1 + self.m + i] if not forward}

    def buyers_of(self, j: int) -> set[int]:
        """The buyers with an arc from good j."""
        return {v - 1 - self.m for v, _, forward in self.adj[1 + j] if forward}

    def degree(self, i: int) -> int:
        """How many goods have an arc into buyer i: its arcs but the sink arc."""
        return len(self.adj[1 + self.m + i]) - 1

    def pairs(self) -> list[tuple[int, int, int]]:
        """(j, i, a) for each arc a from good j to buyer i."""
        m, first = self.m, len(self.vertices) - 2
        return [(u - 1, v - 1 - m, a) for a, (u, v) in enumerate(self.ends[first:], first)]

    def as_flow(self) -> Flow:
        """The graph's flow in the network's terms."""
        at, scale, flow = self.vertices, self.scale, self.flow
        values = {(at[u], at[v]): Fraction(f, scale) for (u, v), f in zip(self.ends, flow) if f}
        return Flow(values=values, value=Fraction(sum(flow[: self.m]), scale))

    def scaled(self, d: int, n: int, goods) -> "_Residual":
        """A copy with every capacity and flow times d, but the source caps of ``goods`` times n.

        The copy owns its capacities and flows and shares everything else
        with this graph: no network, LCM, sort or feasibility check.  Its
        flow is feasible when this graph's is and n >= d.
        """
        g = _Residual.__new__(_Residual)  # attributes in __init__'s order, so the instance dicts share keys
        g.m, g.vertices, g.scale, g.ends = self.m, self.vertices, self.scale * d, self.ends
        g.cap = [None if c is None else c * d for c in self.cap]
        for j in goods:
            g.cap[j] = self.cap[j] * n
        g.flow = [f * d for f in self.flow]
        g.adj = self.adj
        return g

    def deficit(self) -> int:
        """How much the flow leaves unfilled on the source arcs, times ``scale``."""
        return sum(self.cap[: self.m]) - sum(self.flow[: self.m])

    def buyers_reaching(self, targets) -> set[int]:
        """Buyers outside ``targets`` with a residual path into ``targets``.

        Paths run through goods and buyers only; the source and sink are not
        valid interior vertices for buyer-to-buyer reachability.
        """
        m, t = self.m, len(self.adj) - 1
        parent = self.search([1 + m + i for i in targets], reverse=True, avoid=(0, t))
        return {v - 1 - m for v in range(1 + m, t) if parent[v] is not None} - set(targets)


def max_flow(net: FlowNetwork) -> Flow:
    """Exact maximum flow via shortest augmenting paths from the zero flow.

    Deterministic: the walk expands vertices in a fixed order, so the chosen
    flow (not just its value) is reproducible.
    """
    g = _Residual(net)
    g.augment()
    return g.as_flow()


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


def _read_cut(g: _Residual, maximal: bool, reached: list | None = None) -> frozenset:
    """The source side of an extreme min cut, read off g, the residual graph of a maximum flow.

    The source-nearest min cut is what s reaches; the sink-nearest is
    everything that does not reach t.  Both are the same for every maximum
    flow, so neither depends on how g's flow was found.  ``reached`` is a
    search from s on g as it stands, such as the last one of ``augment``;
    without it, one is made.
    """
    if reached is None:
        reached = g.search([0])
    if reached[-1] is not None:
        raise FlowError("flow is not maximum: residual path to sink exists")
    if maximal:
        reaches_sink = g.search([len(reached) - 1], reverse=True)
        return frozenset(v for v, a in zip(g.vertices, reaches_sink) if a is None)
    return frozenset(v for v, a in zip(g.vertices, reached) if a is not None)


def min_cut_source_side(net: FlowNetwork, flow: Flow) -> Cut:
    """The source-nearest min cut: residual-reachable vertices from s."""
    side = _read_cut(_Residual(net, flow), maximal=False)
    return Cut(source_side=side, capacity=_cut_capacity(net, side))


def maximal_min_cut(net: FlowNetwork, flow: Flow) -> Cut:
    """The sink-nearest min cut: all vertices from which the sink is unreachable."""
    side = _read_cut(_Residual(net, flow), maximal=True)
    return Cut(source_side=side, capacity=_cut_capacity(net, side))


def residual_reachable(net: FlowNetwork, flow: Flow, targets) -> set[int]:
    """Buyers outside ``targets`` with a residual path into ``targets``; see ``buyers_reaching``."""
    return _Residual(net, flow).buyers_reaching(targets)
