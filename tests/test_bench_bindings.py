"""The benchmark's tracer patches library bindings by name and reads fields of their results.

perfbench/tracer.py wraps each (module, attribute) in BINDINGS with a span
recorder, and its INSPECT functions read SupportFace.vertices, .exhausted and
.gap and BoundReport.results from what the wrapped calls return. A renamed or
removed entry point or field would break the traced benchmark run without
failing any library test. The file is read, not edited.
"""

import importlib.util
import json
import os
import sys

from specrange import bounds, io, numrange
from specrange.bounds import MeasureKind
from specrange.spinops import HalfInt, anticomm_vec, jsq_pair

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", os.path.join(ROOT, "perfbench", "tracer.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while the file runs
    spec.loader.exec_module(module)
    return module


def test_tracer_bindings_resolve():
    tracer = _load_tracer()
    assert tracer.BINDINGS
    missing = [
        f"{mod.__name__}.{attr}" for mod, attr, _ in tracer.BINDINGS if not callable(getattr(mod, attr, None))
    ]
    assert not missing, f"tracer binds names the library no longer has: {missing}"


def test_tracer_census_reads_real_results():
    """Every INSPECT function takes the result of the call it is bound to."""
    tracer = _load_tracer()
    vec = jsq_pair(HalfInt(4))
    boundary = numrange.boundary2d(vec, 16)
    results = {
        "numrange.face": numrange.face(vec, numrange.direction2(0.3)),
        "bounds.optimize": bounds.optimize_bounds(vec, boundary, [MeasureKind.h(), MeasureKind.umax()]),
        "io.serialize": io.boundary_csv(boundary),
    }
    assert set(results) == set(tracer.INSPECT)
    shape, nverts, exhausted, gap = tracer.INSPECT["numrange.face"](results["numrange.face"])
    assert (shape, nverts, exhausted) == ("point", 1, False) and gap > 0.0
    measures, angles = tracer.INSPECT["bounds.optimize"](results["bounds.optimize"])
    assert measures == 2 and angles >= 2
    assert tracer.INSPECT["io.serialize"](results["io.serialize"]) == len(results["io.serialize"])


def test_traced_sweep_gives_every_layer_metric():
    """One tiny traced pass: the spans turn into the per-layer metrics BENCHMARK.json declares."""
    tracer = _load_tracer()
    vec = jsq_pair(HalfInt(4))
    recorder, face = tracer.Tracer(), numrange.face
    with recorder.installed():
        boundary = numrange.boundary2d(vec, 16)
        numrange.face(vec, numrange.direction2(0.3))
        bounds.optimize_bounds(vec, boundary, [MeasureKind.h()])
        text = io.boundary_csv(boundary)
        numrange.membership(vec, [0.5, 0.5], 16)
    assert numrange.face is face  # the original bindings are back
    metrics = tracer.layer_metrics(recorder.spans)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    assert set(metrics) <= declared
    assert metrics["numrange.face_calls"] >= 1 and metrics["numrange.faces_exhausted"] == 0
    assert metrics["numrange.faces_point"] + metrics["numrange.faces_segment"] + metrics["numrange.faces_ring"] == (
        metrics["numrange.face_calls"]
    )
    assert metrics["numrange.min_gap"] > 0.0
    assert metrics["numrange.membership_calls"] == 1
    assert metrics["bounds.angles"] >= 1 and metrics["io.bytes"] == len(text)
    assert all(value >= 0.0 for value in metrics.values())


def test_traced_mesh_table_is_one_serialize_span():
    """io.mesh_csv is io.boundary_csv itself: a traced 3D table records one io.serialize span, not one per name."""
    tracer = _load_tracer()
    mesh = numrange.boundary3d(anticomm_vec(HalfInt(2), 1), 4, 8)
    recorder = tracer.Tracer()
    with recorder.installed():
        text = io.mesh_csv(mesh)
    assert [s.name for s in recorder.spans] == ["io.serialize"]
    assert tracer.layer_metrics(recorder.spans)["io.bytes"] == len(text)
