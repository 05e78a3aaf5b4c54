"""Spans around the calls into each wallbounce layer, and the per-layer metrics.

The wrappers live here, in the benchmark, not in the library: ``install``
rebinds each library function where it is looked up, that is in every
module that imported it by name (``wallbounce.cli``,
``wallbounce.validation`` and ``wallbounce.bouncer``).  A wrapper records
one span (name, start, end, parent span, request id, and the grid points
or propagator steps of the call) and otherwise calls the original.
Spans are kept in memory; the server writes them out once, at the end.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict
from dataclasses import astuple, dataclass

ORACLE_ERRORS = ("TailCaptureError", "StencilConvergenceError", "PropagationError")
GATES = tuple(f"C{i:02d}" for i in range(1, 12))

#: layers whose functions are wrapped; other names keep their own module
_LAYERS = ("packets", "bouncer", "special", "oracle")


def _x_points(args, kwargs):
    x = args[1] if len(args) > 1 else kwargs["x"]
    return getattr(x, "size", 1), 0


def _grid_points(args, kwargs):
    grid = args[1] if len(args) > 1 else kwargs["grid"]
    return grid.n_points, 0


def _state_points(args, kwargs):
    return args[0].grid.n_points, 0


def _propagate_points(args, kwargs):
    steps = args[2] if len(args) > 2 else kwargs["steps"]
    return args[0].grid.n_points, int(steps)


#: library function -> (span name, counter of points/steps); every other
#: wrapped function is a scalar closed form, spanned as "<layer>.closed_forms"
SPANNED = {
    "psi_free": ("packets.psi_free", _x_points),
    "psi_bouncer": ("bouncer.psi_bouncer", _x_points),
    "psi_node_packet": ("special.psi_node_packet", _x_points),
    "psi_wall_packet": ("special.psi_wall_packet", _x_points),
    "sample": ("oracle.sample", _grid_points),
    "moment_x": ("oracle.moment_x", _state_points),
    "moment_p": ("oracle.moment_p", _state_points),
    "overlap": ("oracle.overlap", _state_points),
    "propagate": ("oracle.propagate", _propagate_points),
    "half_line_grid": ("oracle.grid", None),
    "full_line_grid": ("oracle.grid", None),
}


@dataclass
class Span:
    sid: int
    parent: int | None
    request: int
    name: str
    start: int
    end: int = 0
    points: int = 0
    steps: int = 0
    error: str | None = None

    @property
    def ns(self) -> int:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request = -1
        self.active = False
        self._stack: list[Span] = []

    def begin(self, name: str, points: int = 0, steps: int = 0) -> Span:
        parent = self._stack[-1].sid if self._stack else None
        span = Span(len(self.spans), parent, self.request, name, time.perf_counter_ns(), 0, points, steps)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def call(self, name, count, fn, args, kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        points, steps = count(args, kwargs) if count else (0, 0)
        span = self.begin(name, points, steps)
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            span.error = type(exc).__name__
            raise
        finally:
            self.end(span)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(astuple(span)) + "\n")


def read_spans(path) -> list[Span]:
    with open(path) as fh:
        return [Span(*json.loads(line)) for line in fh]


def _wrapper(tracer: Tracer, name: str, count, fn):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        return tracer.call(name, count, fn, args, kwargs)

    return wrapped


def install(tracer: Tracer, modules) -> int:
    """Rebind every layer function each module imported by name; returns the count."""
    n = 0
    for module in modules:
        for attr, fn in list(vars(module).items()):
            if not inspect.isfunction(fn) or fn.__module__ == module.__name__:
                continue
            layer = fn.__module__.rpartition(".")[2]
            if not fn.__module__.startswith("wallbounce.") or layer not in _LAYERS:
                continue
            name, count = SPANNED.get(attr, (f"{layer}.closed_forms", None))
            setattr(module, attr, _wrapper(tracer, name, count, fn))
            n += 1
    return n


def self_times(spans: list[Span]) -> dict[int, int]:
    """Span id -> its duration minus the part of its interval its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = {}
    for span in spans:
        covered, cursor = 0, span.start
        for lo, hi in sorted(children[span.sid]):
            lo, hi = max(lo, cursor), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.sid] = span.ns - covered
    return out


#: (name, unit, better) of every per-layer metric, in report order
PER_LAYER = [
    ("packets.psi_free.calls", "count", "lower"),
    ("packets.psi_free.points", "count", "lower"),
    ("packets.psi_free.ns_per_point", "ns", "lower"),
    ("bouncer.psi_bouncer.points", "count", "lower"),
    ("bouncer.psi_bouncer.self_ns_per_point", "ns", "lower"),
    ("bouncer.closed_forms.s", "s", "lower"),
    ("special.psi_wall_packet.points", "count", "lower"),
    ("special.psi_wall_packet.ns_per_point", "ns", "lower"),
    ("special.psi_node_packet.points", "count", "lower"),
    ("special.psi_node_packet.ns_per_point", "ns", "lower"),
    ("oracle.sample.self_s", "s", "lower"),
    ("oracle.sample.points", "count", "lower"),
    ("oracle.moment_x.s", "s", "lower"),
    ("oracle.moment_x.ns_per_point", "ns", "lower"),
    ("oracle.moment_p.s", "s", "lower"),
    ("oracle.moment_p.ns_per_point", "ns", "lower"),
    ("oracle.overlap.s", "s", "lower"),
    ("oracle.overlap.ns_per_point", "ns", "lower"),
    ("oracle.propagate.s", "s", "lower"),
    ("oracle.propagate.steps", "count", "lower"),
    ("oracle.propagate.point_steps", "count", "lower"),
    ("oracle.propagate.us_per_step", "us", "lower"),
    ("oracle.state_mb_computed", "MB", "lower"),
    ("oracle.errors", "count", "lower"),
    *((f"validation.{cid}.s", "s", "lower") for cid in GATES),
    ("cli.self_s", "s", "lower"),
    ("cli.self_us_per_record", "us", "lower"),
    ("cli.records", "count", "higher"),
    ("cli.bytes_out", "bytes", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def layer_metrics(spans: list[Span], records: int, bytes_out: int, overhead_s: float) -> dict[str, float]:
    """Per-layer totals over one traced pass.

    ``records`` and ``bytes_out`` are the CLI's data rows and output bytes,
    counted by the benchmark from the output files.
    """
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def seconds(name):
        return sum(s.ns for s in by_name[name]) / 1e9

    def self_seconds(name):
        return sum(selfs[s.sid] for s in by_name[name]) / 1e9

    def points(name):
        return sum(s.points for s in by_name[name])

    def per(value, count, scale):
        return value * scale / count if count else 0.0

    m = {
        "packets.psi_free.calls": len(by_name["packets.psi_free"]),
        "bouncer.closed_forms.s": self_seconds("bouncer.closed_forms"),
        "oracle.sample.self_s": self_seconds("oracle.sample"),
        "oracle.sample.points": points("oracle.sample"),
    }
    for name in ("packets.psi_free", "special.psi_wall_packet", "special.psi_node_packet"):
        m[f"{name}.points"] = points(name)
        m[f"{name}.ns_per_point"] = per(seconds(name), points(name), 1e9)
    m["bouncer.psi_bouncer.points"] = points("bouncer.psi_bouncer")
    m["bouncer.psi_bouncer.self_ns_per_point"] = per(
        self_seconds("bouncer.psi_bouncer"), points("bouncer.psi_bouncer"), 1e9
    )
    for name in ("oracle.moment_x", "oracle.moment_p", "oracle.overlap"):
        m[f"{name}.s"] = seconds(name)
        m[f"{name}.ns_per_point"] = per(seconds(name), points(name), 1e9)
    prop = by_name["oracle.propagate"]
    steps = sum(s.steps for s in prop)
    m["oracle.propagate.s"] = seconds("oracle.propagate")
    m["oracle.propagate.steps"] = steps
    m["oracle.propagate.point_steps"] = sum(s.points * s.steps for s in prop)
    m["oracle.propagate.us_per_step"] = per(m["oracle.propagate.s"], steps, 1e6)
    # computed, not measured: 16 bytes per complex128 grid value
    m["oracle.state_mb_computed"] = 16 * max((s.points for s in spans), default=0) / 1e6
    # an error is counted once, at the innermost span it passed through
    raised_below = {s.parent for s in spans if s.error in ORACLE_ERRORS}
    m["oracle.errors"] = sum(1 for s in spans if s.error in ORACLE_ERRORS and s.sid not in raised_below)
    for cid in GATES:
        m[f"validation.{cid}.s"] = seconds(f"validation.{cid}")
    m["cli.self_s"] = self_seconds("cli")
    m["cli.self_us_per_record"] = per(m["cli.self_s"], records, 1e6)
    m["cli.records"] = records
    m["cli.bytes_out"] = bytes_out
    m["trace.overhead_s"] = overhead_s
    return {name: m[name] for name, _, _ in PER_LAYER}
