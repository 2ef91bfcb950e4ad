"""Spans recorded from outside the package, and their self times.

A span covers one call into a layer's public function.  Spans nest by call:
each records the id of the span that was open when it started.  A span's self
time is its duration minus the part of its interval that its child spans
cover, so the self times of all spans add up to the root span's duration.
"""

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# The package modules that get spans.  `expr` and `multiindex` take under 1%
# of every workload, so their time stays with their caller.  Measurement
# work done by the benchmark itself is billed to a ninth layer, "trace".
LAYERS = ("problem", "assembly", "linalg", "splines", "analysis", "fdcalc", "harness", "cli")


@dataclass
class Span:
    id: int
    parent: int | None
    layer: str
    name: str
    start: float
    end: float | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps spans in memory; nothing is written until the run ends."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, layer: str, name: str, **attrs):
        s = Span(
            id=len(self.spans),
            parent=self._open[-1].id if self._open else None,
            layer=layer,
            name=name,
            start=self.clock(),
            attrs=attrs,
        )
        self.spans.append(s)
        self._open.append(s)
        try:
            yield s
        except BaseException as exc:
            s.attrs["error"] = type(exc).__name__
            raise
        finally:
            s.end = self.clock()
            self._open.pop()

    def wrap(self, layer: str, name: str, fn, after=None, attrs_of=None):
        """fn, recording a span per call.

        after(result, args, kwargs) runs once the span has closed, inside a
        span of the "trace" layer, so measurement work is never billed to
        the layer it measures.  attrs_of(args, kwargs) gives the span's
        attributes, such as the half-length a failure report then names.
        """

        def traced(*args, **kwargs):
            attrs = attrs_of(args, kwargs) if attrs_of is not None else {}
            with self.span(layer, name, **attrs):
                result = fn(*args, **kwargs)
            if after is not None:
                with self.span("trace", f"measure:{name}"):
                    after(result, args, kwargs)
            return result

        return traced


def covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """span id -> duration minus the union of its children's intervals,
    each child clipped to its parent."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        kids = [
            (max(c.start, s.start), min(c.end, s.end))
            for c in children.get(s.id, ())
            if c.end > s.start and c.start < s.end
        ]
        out[s.id] = s.duration - covered(kids)
    return out


def layer_self_times(spans) -> dict:
    """layer -> summed self time of its spans."""
    own = self_times(spans)
    out = {}
    for s in spans:
        out[s.layer] = out.get(s.layer, 0.0) + own[s.id]
    return out


def named_self_times(spans) -> dict:
    """(layer, name) -> summed self time of the spans with that name."""
    own = self_times(spans)
    out = {}
    for s in spans:
        key = (s.layer, s.name)
        out[key] = out.get(key, 0.0) + own[s.id]
    return out


def failure_site(spans) -> tuple:
    """(stage, ell) of the innermost span that an exception passed through."""
    failed = [s for s in spans if "error" in s.attrs]
    if not failed:
        return None, None
    inner = max(failed, key=lambda s: s.start)
    ell = None
    cur = inner
    by_id = {s.id: s for s in spans}
    while cur is not None:
        if "ell" in cur.attrs:
            ell = cur.attrs["ell"]
            break
        cur = by_id.get(cur.parent)
    return f"{inner.layer}.{inner.name}", ell
