import json
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from specrange.cli import make_parser, run
from specrange.numrange import DEG_TOL_DEFAULT, boundary3d, convex_hull
from specrange.spinops import HalfInt, anticomm_vec


def run_cli(args):
    return run(list(args))


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_boundary_csv_satisfies_constraint(tmp_path):
    out = tmp_path / "b.csv"
    assert run_cli(["boundary", "--j", "3/2", "--set", "jsq2d", "--phi-steps", "360", "--format", "csv", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["phi", "lambda_max", "multiplicity", "v1", "v2", "vertex_index"]
    assert len(rows) == 360
    for row in rows:
        v1, v2 = float(row[3]), float(row[4])
        residual = (v1 + v2 - 2.5) ** 2 + (v1 - v2) ** 2 / 3.0 - 1.0
        assert abs(residual) <= 1e-8


def test_boundary_csv_12_digits(tmp_path):
    out = tmp_path / "b.csv"
    run_cli(["boundary", "--j", "2", "--set", "ladder", "--gamma", "2", "--phi-steps", "16", "--out", str(out)])
    _, rows = read_csv(out)
    for row in rows:
        for field in row[:2] + row[3:5]:
            assert field == f"{float(field):.12g}"


def test_bounds_json_schema_and_value(tmp_path):
    out = tmp_path / "bounds.json"
    code = run_cli([
        "bounds", "--j", "5/2", "--set", "jsq2d",
        "--measures", "h,u0.5,u2,umax", "--phi-steps", "360", "--out", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["j_twice"] == 5
    assert doc["set"] == "jsq2d"
    assert set(doc["hyperrect"]) == {"lo", "hi"}
    assert doc["trivial"] is False
    kinds = [m["kind"] for m in doc["measures"]]
    assert kinds == ["h", "u", "u", "umax"]
    assert doc["measures"][1]["kappa"] == 0.5
    h_entry = doc["measures"][0]
    assert h_entry["sense"] == "min"
    assert h_entry["value"] == pytest.approx(0.419, abs=5e-3)
    assert all(set(a) == {"phi"} for a in h_entry["angles"])


def test_bounds_json_roundtrip_identical(tmp_path):
    out = tmp_path / "bounds.json"
    run_cli(["bounds", "--j", "2", "--set", "ladder", "--gamma", "2", "--phi-steps", "90", "--out", str(out)])
    raw = out.read_text()
    assert json.dumps(json.loads(raw), indent=2) + "\n" == raw


def test_boundary_json_roundtrip_identical(tmp_path):
    out = tmp_path / "b.json"
    run_cli(["boundary", "--j", "3/2", "--set", "jsq2d", "--phi-steps", "16", "--format", "json", "--out", str(out)])
    raw = out.read_text()
    assert json.dumps(json.loads(raw), indent=2) + "\n" == raw


@pytest.mark.parametrize(
    "args",
    [
        ["bounds", "--j", "2", "--set", "jsq2d", "--phi-steps", "16"],
        ["boundary", "--j", "2", "--set", "jsq2d", "--gamma", "5", "--phi-steps", "16", "--format", "json"],
    ],
    ids=["bounds", "boundary"],
)
def test_json_gamma_is_the_operators(tmp_path, args):
    # (Jx^2, Jy^2) are squares whatever --gamma says
    out = tmp_path / "doc.json"
    assert run_cli([*args, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["gamma"] == 2


def test_mesh_csv(tmp_path):
    out = tmp_path / "mesh.csv"
    assert run_cli(["mesh", "--j", "3/2", "--set", "anticomm", "--theta-steps", "8", "--phi-steps", "16", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["theta", "phi", "lambda_max", "multiplicity", "v1", "v2", "v3", "vertex_index"]
    for row in rows:
        v = np.array([float(row[4]), float(row[5]), float(row[6])])
        assert np.linalg.norm(v) == pytest.approx(math.sqrt(3), abs=1e-8)


def test_surface_csv_roman(tmp_path):
    out = tmp_path / "surf.csv"
    assert run_cli(["surface", "--family", "anticomm", "--gamma", "1", "--mu-steps", "45", "--nu-steps", "90", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["mu", "nu", "p1", "p2", "p3"]
    for row in rows:
        a1, a2, a3 = (float(x) for x in row[2:])
        lhs = (a1 * a2) ** 2 + (a2 * a3) ** 2 + (a3 * a1) ** 2
        assert abs(lhs - 2 * a1 * a2 * a3) <= 1e-10


def test_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run_cli(["sweep", "--family", "anticomm", "--gamma", "1", "--quantity", "am", "--j-list", "25,50", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["j_twice", "quantity", "value"]
    assert [r[0] for r in rows] == ["50", "100"]
    assert float(rows[1][2]) == pytest.approx(0.991733, abs=1e-5)


def test_gaps_csv(tmp_path):
    out = tmp_path / "gaps.csv"
    assert run_cli(["gaps", "--j", "5/2", "--set", "jpow", "--gamma", "3", "--theta-steps", "8", "--phi-steps", "16", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["theta", "phi", "lambda_max", "gap"]
    assert all(float(r[3]) >= 0 for r in rows)


def test_check_margin(tmp_path, capsys):
    assert run_cli(["check", "--j", "1", "--set", "j", "--point", "0,0,0", "--theta-steps", "12", "--phi-steps", "24"]) == 0
    captured = capsys.readouterr()
    assert float(captured.out.strip()) == pytest.approx(1.0, abs=1e-9)


def test_ops_json(tmp_path):
    out = tmp_path / "ops.json"
    assert run_cli(["ops", "--j", "1/2", "--set", "j", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["dim"] == 2
    assert [op["label"] for op in doc["operators"]] == ["Jx", "Jy", "Jz"]
    assert doc["operators"][2]["re"] == [[0.5, 0.0], [0.0, -0.5]]


def test_svg_output(tmp_path):
    out = tmp_path / "b.svg"
    assert run_cli(["boundary", "--j", "2", "--set", "jsq2d", "--phi-steps", "60", "--format", "svg", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("<svg")
    assert "polyline" in text


def test_mesh_svg_draws_the_projected_hull(tmp_path):
    # anticomm j = 2 on 12x24: 266 vertices project onto the (v1, v2) plane,
    # and the polyline visits the 24 of them that convex_hull keeps, then closes
    vec = anticomm_vec(HalfInt(4), 1)
    pts = boundary3d(vec, 12, 24).all_vertices()[:, :2]
    hull = convex_hull(pts)
    assert (len(pts), len(hull)) == (266, 24)
    out = tmp_path / "m.svg"
    args = ["mesh", "--j", "2", "--set", "anticomm", "--theta-steps", "12", "--phi-steps", "24"]
    assert run_cli([*args, "--format", "svg", "--out", str(out)]) == 0
    points = re.search(r'<polyline points="([^"]*)"', out.read_text()).group(1).split()
    assert len(points) == len(hull) + 1
    assert points[0] == points[-1]


@pytest.mark.parametrize("command", ["boundary", "mesh", "bounds", "gaps"])
def test_deg_tol_default_is_the_library_default(command):
    args = make_parser().parse_args([command, "--j", "2", "--set", "jsq2d" if command == "boundary" else "j"])
    assert args.deg_tol == DEG_TOL_DEFAULT


def test_usage_error_exit_code():
    assert run_cli(["boundary", "--set", "jsq2d"]) == 2  # missing --j
    assert run_cli(["boundary", "--j", "2", "--set", "nope"]) == 2
    assert run_cli(["boundary", "--j", "2", "--set", "jsq2d", "--phi-steps", "4"]) == 2


def test_theta_steps_takes_what_the_grid_takes(tmp_path):
    """--theta-steps accepts any count >= 4, as the 3D grid does; --phi-steps keeps its >= 8."""
    out = tmp_path / "m.json"
    assert run_cli(["mesh", "--j", "1", "--set", "j", "--theta-steps", "4", "--phi-steps", "8", "--out", str(out)]) == 0
    assert out.stat().st_size > 0
    assert run_cli(["mesh", "--j", "1", "--set", "j", "--theta-steps", "3", "--phi-steps", "8"]) == 2
    assert run_cli(["mesh", "--j", "1", "--set", "j", "--theta-steps", "4", "--phi-steps", "7"]) == 2


def test_numeric_failure_exit_code(tmp_path):
    out = tmp_path / "x.json"
    code = run_cli(["bounds", "--j", "1/2", "--set", "jsq2d", "--phi-steps", "16", "--out", str(out)])
    assert code == 1  # degenerate spectral interval


@pytest.mark.parametrize(
    "args",
    [
        ["check", "--j", "1", "--set", "j", "--point", "a,b,c"],
        ["check", "--j", "1", "--set", "j", "--point", "0.4,0.4"],
        ["sweep", "--family", "anticomm", "--quantity", "am", "--j-list", "1,x"],
        ["surface", "--family", "anticomm", "--gamma", "0"],
        ["bounds", "--j", "1", "--set", "jsq2d", "--measures", "uinf", "--phi-steps", "16"],
        ["bounds", "--j", "1", "--set", "jsq2d", "--measures", "u1e400", "--phi-steps", "16"],
    ],
    ids=["check-point", "check-point-count", "sweep-j-list", "surface-gamma", "bounds-kappa-inf", "bounds-kappa-overflow"],
)
def test_malformed_argument_exits_2(args, capsys):
    assert run_cli(args) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("set_name, point, n", [("j", "0.4,0.4", 3), ("jsq2d", "1,2,3", 2)])
def test_check_point_count_names_expected(set_name, point, n, capsys):
    assert run_cli(["check", "--j", "1", "--set", set_name, "--point", point]) == 2
    assert f"takes {n} coordinates" in capsys.readouterr().err


def test_check_non_finite_point_is_numeric_failure(capsys):
    assert run_cli(["check", "--j", "2", "--set", "j", "--point", "nan,0,0", "--theta-steps", "12", "--phi-steps", "24"]) == 1
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "args",
    [
        "sweep --family jpow --gamma 2 --quantity mean_eta1 --j-list 1",
        "sweep --family anticomm --quantity am --j-list 0",
        "sweep --family jpow --quantity lmin_eta1 --j-list 0",
        "sweep --family anticomm --quantity mean_eta1 --j-list 1/2",
    ],
)
def test_sweep_unsupported_j_is_numeric_failure(args, capsys):
    assert run_cli(args.split()) == 1
    assert "numeric failure" in capsys.readouterr().err


# one command line per subcommand (and per sweep quantity) on tiny grids, with {j} to fill in
SMALL_J_COMMANDS = {
    "ops": "ops --set anticomm --j {j}",
    "boundary": "boundary --set ladder --format json --phi-steps 8 --j {j}",
    "mesh": "mesh --set anticomm --format svg --theta-steps 8 --phi-steps 8 --j {j}",
    "bounds-2d": "bounds --set jsq2d --phi-steps 8 --j {j}",
    "bounds-3d": "bounds --set anticomm --theta-steps 8 --phi-steps 8 --j {j}",
    "check": "check --set anticomm --point 0,0,0 --theta-steps 8 --phi-steps 8 --j {j}",
    "gaps": "gaps --set jpow --theta-steps 8 --phi-steps 8 --j {j}",
    "surface": "surface --family anticomm --mu-steps 2 --nu-steps 4",
    **{
        f"sweep-{q}": f"sweep --family anticomm --quantity {q} --j-list {{j}}"
        for q in ("am", "am_min", "lmax_eta1", "lmin_eta1", "mean_eta1")
    },
}


@pytest.mark.parametrize("command", SMALL_J_COMMANDS.values(), ids=SMALL_J_COMMANDS.keys())
def test_small_j_exits_with_a_code(command, tmp_path):
    """At j = 0, 1/2 and 1 every subcommand returns 0, 1 or 2 and raises nothing."""
    for j in ("0", "1/2", "1"):
        assert run_cli([*command.format(j=j).split(), "--out", str(tmp_path / "out")]) in (0, 1, 2), j


def readme_cli_examples():
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("specrange ")]


def test_readme_cli_examples(tmp_path):
    examples = readme_cli_examples()
    assert len(examples) == 10
    for i, args in enumerate(examples):
        out = tmp_path / f"example{i}.out"
        if "--out" in args:
            args[args.index("--out") + 1] = str(out)
        else:
            args += ["--out", str(out)]
        assert run_cli(args) == 0, args
        assert out.stat().st_size > 0, args
