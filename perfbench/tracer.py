"""Spans around the calls into each specrange layer, recorded from outside.

The tracer replaces module-level bindings of the public entry points with
wrappers and restores the originals on exit. Names imported into other
modules (``numrange.eig_hermitian``, ``bounds.face``, ``definetti.face``,
``definetti.support``, ...) are separate bindings and are wrapped too, so
calls made inside the library are seen as well as the benchmark's own.
Spans stay in memory: name, start, end, parent index and case id, plus a
small record of the result where a layer metric needs one.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass

from specrange import bounds, definetti, io, linalg, numrange, spinops

# (module, attribute, span name); one span name per layer entry point
BINDINGS = [
    *((spinops, name, "spinops.build") for name in (
        "j_triple", "jsq_pair", "power_vec", "anticomm_vec", "ladder_combo", "scale_uniform", "rotate_frame",
    )),
    (definetti, "power_vec", "spinops.build"),
    (definetti, "anticomm_vec", "spinops.build"),
    (linalg, "eig_hermitian", "linalg.eig"),
    (numrange, "eig_hermitian", "linalg.eig"),
    (numrange, "support", "numrange.support"),
    (definetti, "support", "numrange.support"),
    (numrange, "face", "numrange.face"),
    (bounds, "face", "numrange.face"),
    (definetti, "face", "numrange.face"),
    (numrange, "boundary2d", "numrange.sweep"),
    (numrange, "boundary3d", "numrange.sweep"),
    (numrange, "membership", "numrange.membership"),
    (bounds, "optimize_bounds", "bounds.optimize"),
    (definetti, "limit_region_contains", "definetti.limit"),
    (definetti, "convergence_sweep", "definetti.sweep"),
    *((io, name, "io.serialize") for name in (
        "boundary_csv", "mesh_csv", "gaps_csv", "sweep_csv", "boundary_json", "bounds_json", "ops_json",
    )),
]


def _face_info(sf) -> tuple:
    """Census entry of a SupportFace; three or more vertices (ellipse ring or polygon) count as a ring."""
    nverts = len(sf.vertices)
    shape = "point" if nverts == 1 else "segment" if nverts == 2 else "ring"
    return shape, nverts, bool(sf.exhausted), sf.gap


def _optimize_info(report) -> tuple:
    return len(report.results), sum(len(r.angles) for r in report.results)


INSPECT = {
    "numrange.face": _face_info,
    "bounds.optimize": _optimize_info,
    "io.serialize": len,
}


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at top level
    case: int
    info: object = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; ``installed()`` patches and restores the bindings."""

    def __init__(self):
        self.spans: list[Span] = []
        self.case = -1
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        inspect = INSPECT.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.case)
            spans.append(span)
            stack.append(idx)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if inspect is not None:
                span.info = inspect(out)
            return out

        return traced

    @contextmanager
    def installed(self):
        originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in BINDINGS]
        try:
            for (mod, attr, name), (_, _, fn) in zip(BINDINGS, originals):
                setattr(mod, attr, self._wrap(name, fn))
            yield self
        finally:
            for mod, attr, fn in originals:
                setattr(mod, attr, fn)

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()
        self.case = -1


def _ancestors(spans: list[Span], span: Span):
    while span.parent >= 0:
        span = spans[span.parent]
        yield span


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and seconds of one pass, from its spans."""
    child_seconds = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_seconds[s.parent] += s.seconds

    def named(name):
        return [s for s in spans if s.name == name]

    def self_seconds(layer):
        return sum(s.seconds - child_seconds[i] for i, s in enumerate(spans) if s.name.startswith(layer + "."))

    def under(name, ancestor):
        return [s for s in named(name) if any(a.name == ancestor for a in _ancestors(spans, s))]

    faces = named("numrange.face")
    optimize = named("bounds.optimize")
    face_seconds = sum(s.seconds for s in faces)
    measures = sum(s.info[0] for s in optimize)
    bounds_faces = len(under("numrange.face", "bounds.optimize"))
    gaps = [s.info[3] for s in faces if s.info[3] is not None]
    return {
        "spinops.build_calls": len(named("spinops.build")),
        "spinops.build_s": sum(s.seconds for s in named("spinops.build")),
        "linalg.eig_calls": len(named("linalg.eig")),
        "linalg.eig_s": sum(s.seconds for s in named("linalg.eig")),
        "numrange.sweep_s": sum(s.seconds for s in named("numrange.sweep")),
        "numrange.face_calls": len(faces),
        "numrange.face_s": face_seconds,
        "numrange.face_self_s": face_seconds - sum(s.seconds for s in under("linalg.eig", "numrange.face")),
        "numrange.faces_point": sum(s.info[0] == "point" for s in faces),
        "numrange.faces_segment": sum(s.info[0] == "segment" for s in faces),
        "numrange.faces_ring": sum(s.info[0] == "ring" for s in faces),
        "numrange.faces_exhausted": sum(s.info[2] for s in faces),
        "numrange.vertices": sum(s.info[1] for s in faces),
        # 0 only when the pass builds no face with a gap below its cluster
        "numrange.min_gap": min(gaps, default=0.0),
        "numrange.membership_calls": len(named("numrange.membership")),
        "numrange.membership_s": sum(s.seconds for s in named("numrange.membership")),
        "numrange.self_s": self_seconds("numrange"),
        "bounds.optimize_s": sum(s.seconds for s in optimize),
        "bounds.self_s": self_seconds("bounds"),
        "bounds.face_calls": bounds_faces,
        "bounds.face_calls_per_measure": bounds_faces / measures if measures else 0.0,
        "bounds.angles": sum(s.info[1] for s in optimize),
        "definetti.limit_calls": len(named("definetti.limit")),
        "definetti.limit_s": sum(s.seconds for s in named("definetti.limit")),
        "definetti.self_s": self_seconds("definetti"),
        "io.serialize_s": sum(s.seconds for s in named("io.serialize")),
        "io.bytes": sum(s.info for s in named("io.serialize")),
    }
