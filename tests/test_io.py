"""Every writer of io on a 2D and a 3D boundary: one writer per output, angle columns by dimension."""

import json

import pytest

from specrange import io
from specrange.bounds import optimize_bounds
from specrange.numrange import Boundary, boundary2d, boundary3d, convex_hull
from specrange.spinops import HalfInt, anticomm_vec, jsq_pair

HEAD_2D = ["phi", "lambda_max", "multiplicity", "v1", "v2", "vertex_index"]
HEAD_3D = ["theta", "phi", "lambda_max", "multiplicity", "v1", "v2", "v3", "vertex_index"]


@pytest.fixture(scope="module")
def pair():
    return boundary2d(jsq_pair(HalfInt(3)), 16)


@pytest.fixture(scope="module")
def mesh():
    return boundary3d(anticomm_vec(HalfInt(2), 1), 4, 8)


def _table(text: str):
    lines = text.splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def test_mesh_writers_are_the_boundary_writers():
    assert io.mesh_csv is io.boundary_csv
    assert io.mesh_svg is io.boundary_svg


@pytest.mark.parametrize("which, head", [("pair", HEAD_2D), ("mesh", HEAD_3D)])
def test_faces_csv_rows_are_angles_face_vertex_index(which, head, request):
    boundary = request.getfixturevalue(which)
    header, rows = _table(io.boundary_csv(boundary))
    assert header == head
    assert len(rows) == len(boundary.all_vertices())
    expected = []
    for f in boundary.faces:
        for idx, v in enumerate(f.vertices):
            expected.append([*map(io.fmt, (*f.direction.angles, f.lambda_max)), str(f.multiplicity)])
            expected[-1] += [*map(io.fmt, v), str(idx)]
    assert rows == expected


def test_mesh_csv_is_boundary_csv_in_3d(mesh):
    assert io.boundary_csv(mesh) == io.mesh_csv(mesh)
    assert io.boundary_csv(mesh).startswith("theta,phi,")


def test_gaps_csv_takes_the_boundary_dimension(pair, mesh):
    for boundary, angles in ((pair, ["phi"]), (mesh, ["theta", "phi"])):
        header, rows = _table(io.gaps_csv(boundary))
        assert header == [*angles, "lambda_max", "gap"]
        assert len(rows) == len(boundary.faces)
        assert [row[: len(angles)] for row in rows] == [list(map(io.fmt, f.direction.angles)) for f in boundary.faces]


def test_empty_boundary_gives_the_header_only():
    assert io.boundary_csv(Boundary(faces=[], grid=16)) == ",".join(HEAD_2D) + "\n"
    assert io.mesh_csv(Boundary(faces=[], grid=(4, 8))) == ",".join(HEAD_3D) + "\n"
    assert io.gaps_csv(Boundary(faces=[], grid=16)) == "phi,lambda_max,gap\n"


def test_boundary_json_names_each_face_angle(pair, mesh):
    j = HalfInt(2)
    for boundary, keys in ((pair, ["phi"]), (mesh, ["theta", "phi"])):
        doc = json.loads(io.boundary_json(boundary, j, "set", 1))
        assert len(doc["faces"]) == len(boundary.faces)
        for entry, f in zip(doc["faces"], boundary.faces):
            assert list(entry)[: len(keys)] == keys
            assert [entry[k] for k in keys] == list(f.direction.angles)
            assert len(entry["vertices"][0]) == boundary.n


def test_bounds_json_names_the_angles_alike(mesh):
    vec = anticomm_vec(HalfInt(2), 1)
    report = optimize_bounds(vec, mesh, ["h", "umax"])
    doc = json.loads(io.bounds_json(report, HalfInt(2), "anticomm", 1))
    for entry, res in zip(doc["measures"], report.results):
        assert entry["angles"] == [{"theta": a[0], "phi": a[1]} for a in res.angles]


def test_svg_projects_onto_v1_v2(pair, mesh):
    for boundary in (pair, mesh):
        svg = io.boundary_svg(boundary)
        assert svg.startswith("<svg") and "<polyline" in svg
    assert io.boundary_svg(mesh) == io.svg_polyline(convex_hull(mesh.all_vertices()[:, :2]))
