"""CSV/JSON/SVG emitters for sweep results.

Numeric CSV fields carry 12 significant digits; row order is grid order.
JSON documents are emitted with a fixed layout so a read/re-serialize
round-trip is byte-identical.
"""

from __future__ import annotations

import json

import numpy as np

from .bounds import BoundReport
from .numrange import Boundary, convex_hull
from .spinops import HalfInt, ObservableVec

SVG_SIZE = 480
SVG_MARGIN = 24


def fmt(x: float) -> str:
    return f"{float(x):.12g}"


def csv_text(header: list[str], rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(c) if isinstance(c, (str, int)) else fmt(c) for c in row))
    return "\n".join(lines) + "\n"


def _angle_names(n: int) -> tuple[str, ...]:
    """The names of Direction.angles in n dimensions: (phi,) in 2D, (theta, phi) in 3D."""
    return ("theta", "phi")[3 - n :]


def boundary_csv(boundary: Boundary) -> str:
    """One row per face vertex, 2D and 3D alike: the face's angles, lambda_max, multiplicity, the vertex, its index."""
    rows = []
    for f in boundary.faces:
        head = [*f.direction.angles, f.lambda_max, f.multiplicity]
        for idx, v in enumerate(f.vertices.tolist()):
            rows.append([*head, *v, idx])
    n = boundary.n
    coords = [f"v{i + 1}" for i in range(n)]
    return csv_text([*_angle_names(n), "lambda_max", "multiplicity", *coords, "vertex_index"], rows)


mesh_csv = boundary_csv  # an alias, not a wrapper: a traced mesh table is one io.serialize span


def gaps_csv(boundary: Boundary) -> str:
    rows = []
    for f in boundary.faces:
        gap = f.gap if f.gap is not None else float("nan")
        rows.append([*f.direction.angles, f.lambda_max, gap])
    return csv_text([*_angle_names(boundary.n), "lambda_max", "gap"], rows)


def surface_csv(surface) -> str:
    rows = []
    for b, p in zip(surface.bloch, surface.points):
        rows.append([b.mu, b.nu, p[0], p[1], p[2]])
    return csv_text(["mu", "nu", "p1", "p2", "p3"], rows)


def sweep_csv(series, quantity: str) -> str:
    rows = [[j.twice, quantity.lower(), value] for j, value in series]
    return csv_text(["j_twice", "quantity", "value"], rows)


def boundary_json(boundary: Boundary, j: HalfInt, set_name: str, gamma: int) -> str:
    names = _angle_names(boundary.n)
    doc = {
        "j_twice": j.twice,
        "set": set_name,
        "gamma": gamma,
        "faces": [
            {
                **dict(zip(names, f.direction.angles)),
                "lambda_max": f.lambda_max,
                "multiplicity": f.multiplicity,
                "vertices": [[float(c) for c in v] for v in f.vertices],
            }
            for f in boundary.faces
        ],
        "hull": [[float(c) for c in v] for v in convex_hull(boundary.all_vertices())],
    }
    return json.dumps(doc, indent=2) + "\n"


def bounds_json(report: BoundReport, j: HalfInt, set_name: str, gamma: int) -> str:
    measures, names = [], _angle_names(report.rect.n)
    for res in report.results:
        entry: dict = {"kind": res.kind.tag}
        if res.kind.kappa is not None:
            entry["kappa"] = res.kind.kappa
        entry["value"] = res.value
        entry["sense"] = res.sense
        entry["angles"] = [dict(zip(names, a)) for a in res.angles]
        measures.append(entry)
    doc = {
        "j_twice": j.twice,
        "set": set_name,
        "gamma": gamma,
        "measures": measures,
        "trivial": report.trivial,
        "hyperrect": {"lo": list(report.rect.lo), "hi": list(report.rect.hi)},
    }
    return json.dumps(doc, indent=2) + "\n"


def ops_json(vec: ObservableVec, set_name: str) -> str:
    doc = {
        "j_twice": vec.j.twice,
        "set": set_name,
        "gamma": vec.gamma,
        "dim": vec.dim,
        "operators": [
            {
                "label": op.label,
                "eig_min": op.eig_min,
                "eig_max": op.eig_max,
                "re": [[float(x) for x in row] for row in op.mat.real],
                "im": [[float(x) for x in row] for row in op.mat.imag],
            }
            for op in vec.ops
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def svg_polyline(points: np.ndarray) -> str:
    """Minimal closed-polyline plot of a 2D point loop, SVG_SIZE pixels square."""
    pts = np.asarray(points, dtype=float)
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = np.maximum(hi - lo, 1e-30)
    scale = (SVG_SIZE - 2 * SVG_MARGIN) / max(span[0], span[1])

    def to_px(p):
        x = SVG_MARGIN + (p[0] - lo[0]) * scale
        y = SVG_SIZE - SVG_MARGIN - (p[1] - lo[1]) * scale
        return f"{x:.2f},{y:.2f}"

    loop = np.vstack([pts, pts[:1]])
    path = " ".join(to_px(p) for p in loop)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_SIZE}" height="{SVG_SIZE}" '
        f'viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">\n'
        f'  <rect width="{SVG_SIZE}" height="{SVG_SIZE}" fill="white"/>\n'
        f'  <polyline points="{path}" fill="none" stroke="#c02020" stroke-width="1.5"/>\n'
        "</svg>\n"
    )


def boundary_svg(boundary: Boundary) -> str:
    """Outline of the vertices projected onto (v1, v2), 2D and 3D alike: their 2D hull."""
    return svg_polyline(convex_hull(boundary.all_vertices()[:, :2]))


mesh_svg = boundary_svg
