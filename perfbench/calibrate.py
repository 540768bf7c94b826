"""A fixed reference computation that measures how fast the machine is right now.

Shared machines drift in speed by 10-20% over minutes, which is wider than
any useful regression bound.  The benchmark runs this kernel between
operations and scales its timings by the kernel's speed.  The kernel never
touches the package, so a change to the program cannot move it: it is an
exact augmenting-path max-flow over ``Fraction`` capacities with tuple-keyed
dicts, the same kind of interpreter work the solver does.
"""

from __future__ import annotations

import gc
import statistics
from fractions import Fraction
from time import perf_counter

# Kernel duration, in seconds, on the machine the bounds were set on (2 vCPU
# Firecracker guest, Python 3.11.7); scaled times are in these seconds.
NOMINAL_S = 0.015

_SIZE = 9


def _network():
    cap = {("s",): {}, ("t",): {}}
    for j in range(_SIZE):
        cap[("g", j)] = {}
        cap[("b", j)] = {}
        cap[("s",)][("g", j)] = Fraction(3 * j + 2, 7 + j)
        cap[("b", j)][("t",)] = Fraction(5 * j + 1, 3 + 2 * j)
    for j in range(_SIZE):
        for i in range(_SIZE):
            if (i * 7 + j * 3) % 4 != 1:
                cap[("g", j)][("b", i)] = None
    return cap


def _max_flow(cap) -> Fraction:
    flow: dict = {}
    neighbors = {u: [] for u in cap}
    for u, targets in cap.items():
        for v in targets:
            neighbors[u].append(v)
            neighbors[v].append(u)

    def residual(u, v):
        if v in cap[u]:
            c = cap[u][v]
            return None if c is None else c - flow.get((u, v), Fraction(0))
        return flow.get((v, u), Fraction(0))

    value = Fraction(0)
    while True:
        parent = {("s",): None}
        queue = [("s",)]
        while queue and ("t",) not in parent:
            u = queue.pop(0)
            for v in neighbors[u]:
                if v not in parent:
                    r = residual(u, v)
                    if r is None or r > 0:
                        parent[v] = u
                        queue.append(v)
        if ("t",) not in parent:
            return value
        path = []
        v = ("t",)
        while parent[v] is not None:
            path.append((parent[v], v))
            v = parent[v]
        bottleneck = min(r for r in (residual(u, v) for u, v in path) if r is not None)
        for u, v in path:
            if v in cap[u]:
                flow[(u, v)] = flow.get((u, v), Fraction(0)) + bottleneck
            else:
                flow[(v, u)] = flow[(v, u)] - bottleneck
        value += bottleneck


# Answer of one kernel pass; checked so that the kernel cannot silently change.
EXPECTED = Fraction(757019, 72072)
PASSES = 10


def kernel_seconds() -> float:
    """Wall time of one run of the kernel.

    The garbage collector is off meanwhile, so that the size of the
    program's heap cannot make the kernel look slower.
    """
    gc.disable()
    try:
        t0 = perf_counter()
        for _ in range(PASSES):
            if _max_flow(_network()) != EXPECTED:
                raise RuntimeError("calibration kernel changed its answer")
        return perf_counter() - t0
    finally:
        gc.enable()


class Speedometer:
    """Kernel timings taken between operations, and the scale they imply.

    ``tick`` is called after every operation with its wall time and runs the
    kernel once at least ``every`` seconds of operations have passed; the
    operations between two samples form a segment.  An operation is scaled by
    NOMINAL_S over the median of the samples around its segment, so a slow
    spell of the machine is divided out and a slow program is not.
    """

    WINDOW = 3  # samples on each side of a segment

    def __init__(self, every: float):
        self.every = every
        self.samples = [kernel_seconds()]
        self.segments: list[int] = []  # segment index of each operation
        self._since = 0.0

    def tick(self, op_seconds: float) -> None:
        self.segments.append(len(self.samples) - 1)
        self._since += op_seconds
        if self._since >= self.every:
            self.samples.append(kernel_seconds())
            self._since = 0.0

    def scales(self) -> list[float]:
        """Per-operation factor from wall seconds to nominal seconds."""
        if self._since > 0:
            self.samples.append(kernel_seconds())
            self._since = 0.0
        per_segment = []
        for s in range(len(self.samples)):
            window = self.samples[max(0, s - self.WINDOW + 1) : s + self.WINDOW + 1]
            per_segment.append(NOMINAL_S / statistics.median(window))
        return [per_segment[s] for s in self.segments]
