"""Span recorder for the traced run, patched in from outside the package.

Each traced public function is replaced, in every module that holds a
reference to it (``solver.max_flow``, ``balanced.max_flow``,
``oracle.verify_arctic_kkt`` ...), by a wrapper that appends a span to an
in-memory list: name, start, end, parent span, operation id and a note taken
from the arguments or result.  Nothing in the package is edited; the patches
are installed for one traced operation at a time and removed afterwards.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from arcticauction import balanced, costmarket, flownet, kkt, market, oracle, solver


def _network_note(args, result):
    net = args[0]
    caps = list(net.source_caps.values()) + list(net.sink_caps.values())
    bits = max(
        (abs(c.numerator).bit_length() + c.denominator.bit_length() for c in caps),
        default=0,
    )
    return (len(net.goods) + len(net.edges) + len(net.buyers), bits)


def _text_in_note(args, result):
    return len(args[0].encode())


def _text_out_note(args, result):
    return len(result.encode())


def _event_note(args, result):
    return result.kind


def _solve_note(args, result):
    stats = result[1]
    return (stats.maxflow_calls, stats.phase_count, stats.output_max_denominator.bit_length())


SOLVER_SPANS = (
    "solve",
    "initialize",
    "begin_phase",
    "run_phase",
    "next_event",
    "apply_new_edge",
    "apply_tight_set",
    "apply_money_return",
    "apply_z_events",
)

# (module, function, note) for every traced public function.
TRACED = (
    [(flownet, "max_flow", _network_note)]
    + [(flownet, f, None) for f in ("min_cut_source_side", "maximal_min_cut", "residual_reachable")]
    + [(balanced, "balanced_flow", None)]
    + [(solver, f, {"next_event": _event_note, "solve": _solve_note}.get(f)) for f in SOLVER_SPANS]
    + [(kkt, f, None) for f in ("verify_arctic_kkt", "verify_market_clearing", "verify_cost_kkt")]
    + [(oracle, f, None) for f in ("oracle_solve", "solve_linear", "oracle_cost_solve")]
    + [(costmarket, "solve_cost_market", None)]
    + [
        (market, "parse_instance", _text_in_note),
        (market, "serialize_equilibrium", _text_out_note),
        (costmarket, "parse_cost_instance", _text_in_note),
    ]
)


def _span_name(module, func: str) -> str:
    return f"{module.__name__.rsplit('.', 1)[-1]}.{func}"


class Tracer:
    """Holds every span of a run; ``installed(op)`` traces one operation."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op, note]
        self._stack: list[int] = []
        self._op = None
        # id(original) -> (original, wrapper)
        self._wrappers = {}
        for module, func, note in TRACED:
            original = getattr(module, func)
            self._wrappers[id(original)] = (
                original,
                self._wrap(_span_name(module, func), original, note),
            )

    def _wrap(self, name, fn, note):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if note is not None:
                span[5] = note(args, result)
            return result

        return traced

    def _bindings(self):
        """Every (module, attribute, original, wrapper) that names a traced function."""
        modules = [
            m for name, m in sys.modules.items() if name.split(".")[0] == "arcticauction"
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                pair = self._wrappers.get(id(value))
                if pair is not None and pair[0] is value:
                    yield module, attr, pair[0], pair[1]

    @contextmanager
    def installed(self, op: int):
        patched = list(self._bindings())
        for module, attr, _, wrapper in patched:
            setattr(module, attr, wrapper)
        self._op = op
        try:
            yield
        finally:
            self._op = None
            for module, attr, original, _ in patched:
                setattr(module, attr, original)

    def write(self, path: Path) -> None:
        """One CSV line per span; times in ns relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write("span,parent,op,name,start_ns,end_ns,note\n")
            for k, (name, start, end, parent, op, note) in enumerate(self.spans):
                fh.write(
                    f"{k},{parent},{op},{name},{round((start - t0) * 1e9)},"
                    f"{round((end - t0) * 1e9)},{'' if note is None else repr(note).replace(',', ';')}\n"
                )


def self_times(spans) -> list[float]:
    """Span duration minus the time covered by its direct children."""
    child = [0.0] * len(spans)
    for name, start, end, parent, op, note in spans:
        if parent >= 0:
            child[parent] += end - start
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


CUTS = {"flownet.min_cut_source_side", "flownet.maximal_min_cut", "flownet.residual_reachable"}
KKT = {"kkt.verify_arctic_kkt", "kkt.verify_market_clearing", "kkt.verify_cost_kkt"}
IO = {"market.parse_instance", "market.serialize_equilibrium", "costmarket.parse_cost_instance"}
SOLVER = {f"solver.{f}" for f in SOLVER_SPANS}
EVENT_KINDS = ("new_edge", "tight_set", "money_return", "z_new_edge", "z_removal")


def layer_metrics(spans, ops: set[int]) -> dict[str, float]:
    """Per-layer counts and self times over the spans of the given operations."""
    selfs = self_times(spans)
    calls: Counter = Counter()
    self_s: Counter = Counter()
    arcs = cap_bits = den_bits = io_bytes = 0
    events: Counter = Counter()
    under_balanced = under_next_event = 0
    for k, (name, start, end, parent, op, note) in enumerate(spans):
        if op not in ops:
            continue
        calls[name] += 1
        self_s[name] += selfs[k]
        if note is None:  # the call raised; the operation is counted as failed
            continue
        if name == "flownet.max_flow":
            arcs += note[0]
            cap_bits = max(cap_bits, note[1])
            if parent >= 0 and spans[parent][0] == "solver.next_event":
                under_next_event += 1
            p = parent
            while p >= 0 and spans[p][0] != "balanced.balanced_flow":
                p = spans[p][3]
            under_balanced += p >= 0
        elif name == "solver.next_event":
            events[note] += 1
        elif name == "solver.solve":
            den_bits = max(den_bits, note[2])
        elif name in IO:
            io_bytes += note

    def total(names, table):
        return sum(table[n] for n in names)

    out = {
        "flownet.max_flow.calls": calls["flownet.max_flow"],
        "flownet.max_flow.self_s": self_s["flownet.max_flow"],
        "flownet.max_flow.arcs": arcs,
        "flownet.max_flow.cap_bits_max": cap_bits,
        "flownet.cuts.calls": total(CUTS, calls),
        "flownet.cuts.self_s": total(CUTS, self_s),
        "balanced.balanced_flow.calls": calls["balanced.balanced_flow"],
        "balanced.balanced_flow.self_s": self_s["balanced.balanced_flow"],
        "balanced.maxflow_per_flow": (
            under_balanced / calls["balanced.balanced_flow"]
            if calls["balanced.balanced_flow"]
            else 0.0
        ),
        "solver.self_s": total(SOLVER, self_s),
        "solver.next_event.maxflow_calls": under_next_event,
        "solver.phases": calls["solver.begin_phase"],
    }
    out.update({f"solver.events.{kind}": events[kind] for kind in EVENT_KINDS})
    out.update(
        {
            "solver.output_den_bits_max": den_bits,
            "kkt.verify.calls": total(KKT, calls),
            "kkt.verify.self_s": total(KKT, self_s),
            "oracle.oracle_solve.calls": calls["oracle.oracle_solve"],
            "oracle.oracle_solve.self_s": self_s["oracle.oracle_solve"],
            "oracle.solve_linear.calls": calls["oracle.solve_linear"],
            "oracle.solve_linear.self_s": self_s["oracle.solve_linear"],
            "oracle.cost.self_s": self_s["oracle.oracle_cost_solve"],
            "costmarket.solve_cost_market.self_s": self_s["costmarket.solve_cost_market"],
            "market.io.self_s": total(IO, self_s),
            "market.io.bytes": io_bytes,
        }
    )
    return out


def unit_of(name: str) -> str:
    for suffix, unit in (("self_s", "s"), ("bits_max", "bit"), (".bytes", "B"), ("per_flow", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def solve_crosscheck(spans) -> dict[int, tuple[int, int, int, int]]:
    """Per traced operation: (max-flow spans, RunStats.maxflow_calls,
    begin_phase spans, RunStats.phase_count), summed over its solves."""
    out: dict[int, list[int]] = {}
    for name, start, end, parent, op, note in spans:
        row = out.setdefault(op, [0, 0, 0, 0])
        if name == "flownet.max_flow":
            row[0] += 1
        elif name == "solver.begin_phase":
            row[2] += 1
        elif name == "solver.solve" and note is not None:
            row[1] += note[0]
            row[3] += note[1]
    return {op: tuple(row) for op, row in out.items()}
