"""Command-line front end: construct operator sets, run sweeps, serialize."""

from __future__ import annotations

import argparse
import sys

from . import io
from .bounds import MeasureKind, optimize_bounds
from .definetti import convergence_sweep, surface_anticomm, surface_jpow
from .errors import SpecRangeError
from .numrange import DEG_TOL_DEFAULT, boundary2d, boundary3d, membership
from .spinops import (
    HalfInt,
    ObservableVec,
    anticomm_vec,
    j_triple,
    jsq_pair,
    ladder_combo,
    power_vec,
)

SETS_2D = ("jsq2d", "ladder")
SETS_3D = ("j", "jpow", "anticomm")


def _arg(parse, ok=lambda value: True, need: str = ""):
    """An argparse type: parse the text, then require ok(value); both failures exit 2."""

    def convert(text: str):
        try:
            value = parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"invalid value {text!r}: {exc}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"invalid value {text!r}: must be {need}")
        return value

    return convert


def _list(parse):
    return lambda text: [parse(tok) for tok in text.split(",") if tok.strip()]


HALF_INT = _arg(HalfInt.parse)
HALF_INTS = _arg(_list(HalfInt.parse))
GAMMA = _arg(int, lambda g: g >= 1, ">= 1")
STEPS = _arg(int, lambda n: n >= 8, ">= 8")
THETA_STEPS = _arg(int, lambda n: n >= 4, ">= 4")
COUNT = _arg(int, lambda n: n >= 0, ">= 0")
TOL = _arg(float, lambda x: x > 0, "positive")
MEASURES = _arg(_list(MeasureKind.parse))
POINT = _arg(lambda text: [float(tok) for tok in text.split(",")])


def build_set(args) -> ObservableVec:
    if args.set == "j":
        return j_triple(args.j)
    if args.set == "jpow":
        return power_vec(args.j, args.gamma)
    if args.set == "jsq2d":
        return jsq_pair(args.j)
    if args.set == "ladder":
        return ladder_combo(args.j, args.gamma)
    if args.set == "anticomm":
        return anticomm_vec(args.j, args.gamma)
    raise ValueError(f"unknown set {args.set!r}")


def _emit(text: str, out_path: str) -> None:
    if out_path in ("-", ""):
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


def _add_common(p, grid: int = 0, deg_tol: bool = True):
    """--j, --gamma and --out; for grid = 2 or 3, the direction grid's step counts and --deg-tol."""
    p.add_argument("--j", required=True, type=HALF_INT, help="quantum number, e.g. 3/2 or 2")
    p.add_argument("--gamma", type=GAMMA, default=1)
    if grid and deg_tol:
        p.add_argument("--deg-tol", type=TOL, default=DEG_TOL_DEFAULT)
    if grid:
        p.add_argument("--phi-steps", type=STEPS, default=360)
    if grid == 3:
        p.add_argument("--theta-steps", type=THETA_STEPS, default=36, help="3D sets only; a 2D set ignores it")
    p.add_argument("--out", default="-")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specrange",
        description="Joint numerical ranges of spin observables and tight mean-value bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ops", help="dump operator matrices")
    _add_common(p)
    p.add_argument("--set", required=True, choices=SETS_2D + SETS_3D)

    p = sub.add_parser("boundary", help="2D boundary sweep")
    _add_common(p, grid=2)
    p.add_argument("--set", required=True, choices=SETS_2D)
    p.add_argument("--format", default="csv", choices=("csv", "json", "svg"))

    p = sub.add_parser("mesh", help="3D boundary sweep")
    _add_common(p, grid=3)
    p.add_argument("--set", required=True, choices=SETS_3D)
    p.add_argument("--format", default="csv", choices=("csv", "svg"))

    p = sub.add_parser("bounds", help="tight uncertainty/certainty bounds")
    _add_common(p, grid=3)
    p.add_argument("--set", required=True, choices=SETS_2D + SETS_3D)
    p.add_argument("--measures", type=MEASURES, default="h,u0.5,u2,umax")

    p = sub.add_parser("check", help="membership margin of a mean vector")
    _add_common(p, grid=3, deg_tol=False)  # membership reads lambda_max only
    p.add_argument("--set", required=True, choices=SETS_2D + SETS_3D)
    p.add_argument("--point", required=True, type=POINT, help="comma-separated coordinates")

    p = sub.add_parser("surface", help="large-j limit surface samples")
    p.add_argument("--family", required=True, choices=("jpow", "anticomm"))
    p.add_argument("--gamma", type=GAMMA, default=1)
    p.add_argument("--mu-steps", type=COUNT, default=90)
    p.add_argument("--nu-steps", type=COUNT, default=180)
    p.add_argument("--out", default="-")

    p = sub.add_parser("sweep", help="finite-j convergence series")
    p.add_argument("--family", required=True, choices=("jpow", "anticomm"))
    p.add_argument("--gamma", type=GAMMA, default=1)
    p.add_argument(
        "--quantity",
        required=True,
        choices=("am", "am_min", "lmax_eta1", "lmin_eta1", "mean_eta1"),
    )
    p.add_argument("--j-list", required=True, type=HALF_INTS, help="comma-separated, e.g. 1,3/2,2")
    p.add_argument("--out", default="-")

    p = sub.add_parser("gaps", help="level-crossing report: top spectral gap per node")
    _add_common(p, grid=3)
    p.add_argument("--set", required=True, choices=SETS_3D)

    return parser


def run(argv) -> int:
    try:
        args = make_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _dispatch(args)
    except SpecRangeError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    if args.command == "ops":
        _emit(io.ops_json(build_set(args), args.set), args.out)
        return 0

    if args.command == "boundary":
        vec = build_set(args)
        b = boundary2d(vec, steps=args.phi_steps, deg_tol=args.deg_tol)
        if args.format == "csv":
            _emit(io.boundary_csv(b), args.out)
        elif args.format == "json":
            _emit(io.boundary_json(b, args.j, args.set, vec.gamma), args.out)
        else:
            _emit(io.boundary_svg(b), args.out)
        return 0

    if args.command == "mesh":
        mesh = boundary3d(build_set(args), args.theta_steps, args.phi_steps, deg_tol=args.deg_tol)
        _emit(io.mesh_csv(mesh) if args.format == "csv" else io.mesh_svg(mesh), args.out)
        return 0

    if args.command == "gaps":
        mesh = boundary3d(build_set(args), args.theta_steps, args.phi_steps, deg_tol=args.deg_tol)
        _emit(io.gaps_csv(mesh), args.out)
        return 0

    if args.command == "bounds":
        vec = build_set(args)
        if vec.n == 2:
            boundary = boundary2d(vec, steps=args.phi_steps, deg_tol=args.deg_tol)
        else:
            boundary = boundary3d(vec, args.theta_steps, args.phi_steps, deg_tol=args.deg_tol)
        report = optimize_bounds(vec, boundary, args.measures)
        _emit(io.bounds_json(report, args.j, args.set, vec.gamma), args.out)
        return 0

    if args.command == "check":
        n = 2 if args.set in SETS_2D else 3
        if len(args.point) != n:  # a usage error, like any malformed argument
            err = f"specrange check: error: --point of the {args.set} set takes {n} coordinates, got {len(args.point)}"
            print(err, file=sys.stderr)
            return 2
        vec = build_set(args)
        grid = args.phi_steps if vec.n == 2 else (args.theta_steps, args.phi_steps)
        margin = membership(vec, args.point, grid)
        _emit(io.fmt(margin) + "\n", args.out)
        return 0

    if args.command == "surface":
        build = surface_jpow if args.family == "jpow" else surface_anticomm
        surf = build(args.gamma, args.mu_steps, args.nu_steps)
        _emit(io.surface_csv(surf), args.out)
        return 0

    if args.command == "sweep":
        series = convergence_sweep(args.family.upper(), args.gamma, args.j_list, args.quantity.upper())
        _emit(io.sweep_csv(series, args.quantity), args.out)
        return 0

    raise ValueError(f"unhandled command {args.command!r}")  # pragma: no cover


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
