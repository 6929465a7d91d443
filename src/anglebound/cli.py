"""Command-line interface: one subcommand per library operation.

Output is JSON on stdout by default (CSV for grid tables); --out writes the
same bytes to a file and drops a `<name>.manifest.json` next to it recording
the subcommand, parameters, seed, and tool version. Outputs contain no
timestamps, so re-running a manifest's command line reproduces them
byte-for-byte. Exit codes: 0 success, 2 precondition/usage errors, 1
internal failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import cardinality_bound
from .constructions import (
    LineArrangement,
    calibrate_constants,
    cover_lines,
    ef_doubling,
    n_bounds,
    obtuse_triple_witness,
    pack_lines,
)
from .convexity import is_convex_position, obtuse_witness
from .curvature import CapTooSmall, cone_cover_certificate, gauss_bonnet_sum
from .errors import OutOfRange, PreconditionError
from .geometry import PointSet, max_angle
from .search import max_cardinality_search, minimize_max_angle

DEFAULT_SEED = 20240


# ---------------------------------------------------------------- file I/O

def read_pointset(path: str) -> PointSet:
    p = Path(path)
    if p.suffix.lower() == ".csv":
        rows = []
        with open(p, newline="") as fh:
            for row in csv.reader(fh):
                if row:
                    rows.append([float(x) for x in row])
        return PointSet(rows)
    with open(p) as fh:
        data = json.load(fh)
    ps = PointSet(data["points"])
    if "dim" in data and int(data["dim"]) != ps.dim:
        raise OutOfRange(f"file says dim={data['dim']} but points have {ps.dim} columns")
    return ps


def write_pointset(ps: PointSet, path: str):
    p = Path(path)
    if p.suffix.lower() == ".csv":
        with open(p, "w", newline="") as fh:
            w = csv.writer(fh)
            for row in ps.points:
                w.writerow([repr(float(x)) for x in row])
    else:
        with open(p, "w") as fh:
            fh.write(_serialize(ps))


def read_lines(path: str) -> LineArrangement:
    with open(path) as fh:
        data = json.load(fh)
    vecs = np.asarray(data["lines"] if isinstance(data, dict) else data, dtype=float)
    if vecs.ndim != 2:
        raise OutOfRange(f"lines must form an (m, dim) array, got shape {vecs.shape}")
    return LineArrangement(dim=vecs.shape[1], lines=vecs)


# ------------------------------------------------------------- arg helpers

def _angle_from(args, name: str, required: bool = True) -> float | None:
    rad = getattr(args, name, None)
    deg = getattr(args, f"{name}_deg", None)
    if rad is not None and deg is not None:
        raise OutOfRange(f"pass either --{name} or --{name}-deg, not both")
    if rad is not None:
        return float(rad)
    if deg is not None:
        return math.radians(float(deg))
    if required:
        raise OutOfRange(f"--{name} or --{name}-deg is required")
    return None


def _add_angle_flags(sp, name: str, help_text: str):
    sp.add_argument(f"--{name}", type=float, help=f"{help_text} (radians)")
    sp.add_argument(f"--{name}-deg", type=float, help=f"{help_text} (degrees)")


def _parse_range(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(text)]


# ------------------------------------------------------------------ table

def table_bound_grid(dims, thetas_rad) -> str:
    """CSV of the cardinality bound over a (dimension, theta) grid.

    Cells with theta beyond theta_(D-1) cannot be evaluated and are flagged
    not-applicable; cells between theta_D and theta_(D-1) evaluate the
    formula with theorem_applicable false.
    """
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["dim", "theta_rad", "theta_deg", "eta", "f_value", "bound",
                "theorem_applicable", "status"])
    for D in dims:
        for th in thetas_rad:
            try:
                rep = cardinality_bound(th, D)
            except OutOfRange:
                w.writerow([D, repr(float(th)), repr(math.degrees(th)),
                            "", "", "", "", "not-applicable"])
                continue
            status = "ok" if rep.theorem_applicable else "formula-only"
            w.writerow([D, repr(float(th)), repr(math.degrees(th)),
                        repr(rep.eta), repr(rep.f_value), repr(rep.bound),
                        rep.theorem_applicable, status])
    return buf.getvalue()


# ------------------------------------------------------------ subcommands

def _cmd_bound(args):
    theta = _angle_from(args, "theta")
    return cardinality_bound(theta, args.dim), 0


def _cmd_angle(args):
    ps = read_pointset(args.infile)
    return {"dim": ps.dim, "n": len(ps), "max_angle": max_angle(ps)}, 0


def _cmd_convex_position(args):
    ps = read_pointset(args.infile)
    verdict = is_convex_position(ps)
    if verdict.in_convex_position:
        return {"in_convex_position": True}, 0
    wit = obtuse_witness(verdict.witness_point, verdict.witness_simplex)
    return {**_fields(verdict), "obtuse_witness": wit}, 0


def _cmd_curvature(args):
    ps = read_pointset(args.infile)
    est = gauss_bonnet_sum(ps, args.samples, args.seed)
    return est, 0


def _cmd_cone_cover(args):
    ps = read_pointset(args.infile)
    eta = _angle_from(args, "eta")
    try:
        cones = cone_cover_certificate(ps, eta)
    except CapTooSmall as e:
        return {
            "covered": False,
            "vertex_index": e.vertex_index,
            "required_radius": e.required_radius,
            "allowed": e.allowed,
        }, 2
    return {"covered": True, "eta": eta, "cones": cones}, 0


def _cmd_pack_lines(args):
    arr = pack_lines(args.m, args.dim, iters=args.iters, seed=args.seed)
    return arr, 0


def _cmd_cover_lines(args):
    rho = _angle_from(args, "rho")
    arr = cover_lines(rho, args.dim, seed=args.seed, probes=args.probes)
    return {**_fields(arr), "probes": args.probes, "rho": rho}, 0


def _cmd_ef_construct(args):
    arr = read_lines(args.lines)
    rho = _angle_from(args, "rho")
    ps = ef_doubling(arr, rho, slack=args.slack, max_scale_doublings=args.max_doublings)
    return {**_fields(ps), "max_angle": max_angle(ps), "certified_below": math.pi - rho}, 0


def _cmd_witness(args):
    ps = read_pointset(args.infile)
    arr = read_lines(args.lines)
    rho = _angle_from(args, "rho")
    wit = obtuse_triple_witness(ps, arr, rho)
    return {**_fields(wit), "threshold": math.pi - rho}, 0


def _cmd_n_bounds(args):
    theta = _angle_from(args, "theta")
    c_d, C_d = args.c_d, args.C_d
    calibrated = False
    if c_d is None or C_d is None:
        cal_c, cal_C = calibrate_constants(args.dim, math.pi - theta, seed=args.seed)
        c_d = c_d if c_d is not None else cal_c
        C_d = C_d if C_d is not None else cal_C
        calibrated = True
    rep = n_bounds(theta, args.dim, c_d, C_d)
    return {**_fields(rep), "calibrated": calibrated}, 0


def _cmd_search_alpha(args):
    res = minimize_max_angle(args.n, args.dim, iters=args.iters,
                             restarts=args.restarts, seed=args.seed)
    return {**_fields(res), **_fields(res.points)}, 0


def _cmd_search_max(args):
    theta = _angle_from(args, "theta")
    res = max_cardinality_search(theta, args.dim, budget=args.budget, seed=args.seed)
    return {**_fields(res), **_fields(res.points)}, 0


def _cmd_table(args):
    if not args.bound_grid:
        raise OutOfRange("table currently supports --bound-grid only")
    dims = _parse_range(args.dims)
    theta_spec = args.theta_deg
    if ".." in theta_spec:
        lo, hi = (float(x) for x in theta_spec.split("..", 1))
    else:
        lo = hi = float(theta_spec)
    step = args.theta_step
    count = max(0, int(round((hi - lo) / step)))
    thetas = [math.radians(lo + k * step) for k in range(count + 1)]
    return table_bound_grid(dims, thetas), 0


# --------------------------------------------------------------- dispatch

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anglebound",
        description="Angle-bounded point sets: cardinality bounds, convex position, "
                    "packings, coverings, and stochastic search.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, seeded=False):
        sp.add_argument("--out", help="write output to this file (plus a manifest)")
        if seeded:
            sp.add_argument("--seed", type=int, default=DEFAULT_SEED)

    sp = sub.add_parser("bound", help="cardinality bound for an angle cap")
    _add_angle_flags(sp, "theta", "maximum angle")
    sp.add_argument("--dim", type=int, required=True, help="ambient dimension D")
    common(sp)
    sp.set_defaults(func=_cmd_bound)

    sp = sub.add_parser("angle", help="maximum angle of a point set file")
    sp.add_argument("--in", dest="infile", required=True)
    common(sp)
    sp.set_defaults(func=_cmd_angle)

    sp = sub.add_parser("convex-position", help="convex position verdict with witnesses")
    sp.add_argument("--in", dest="infile", required=True)
    common(sp)
    sp.set_defaults(func=_cmd_convex_position)

    sp = sub.add_parser("curvature", help="vertex normal-cone fractions (Monte Carlo)")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--samples", type=int, default=100_000)
    common(sp, seeded=True)
    sp.set_defaults(func=_cmd_curvature)

    sp = sub.add_parser("cone-cover", help="per-vertex cone covering certificate")
    sp.add_argument("--in", dest="infile", required=True)
    _add_angle_flags(sp, "eta", "cone half-angle")
    common(sp)
    sp.set_defaults(func=_cmd_cone_cover)

    sp = sub.add_parser("pack-lines", help="spread m lines maximizing the min pairwise angle")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--dim", type=int, required=True)
    sp.add_argument("--iters", type=int, default=1500)
    common(sp, seeded=True)
    sp.set_defaults(func=_cmd_pack_lines)

    sp = sub.add_parser("cover-lines", help="greedy line covering at angular radius rho/2")
    _add_angle_flags(sp, "rho", "covering diameter rho")
    sp.add_argument("--dim", type=int, required=True)
    sp.add_argument("--probes", type=int, default=100_000)
    common(sp, seeded=True)
    sp.set_defaults(func=_cmd_cover_lines)

    sp = sub.add_parser("ef-construct", help="doubling construction: 2^m points under pi - rho")
    sp.add_argument("--lines", required=True, help="line arrangement JSON (from pack-lines)")
    _add_angle_flags(sp, "rho", "separation rho")
    sp.add_argument("--slack", type=float, default=0.05)
    sp.add_argument("--max-doublings", type=int, default=60)
    common(sp)
    sp.set_defaults(func=_cmd_ef_construct)

    sp = sub.add_parser("witness", help="obtuse triple witness from a line covering")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--lines", required=True)
    _add_angle_flags(sp, "rho", "covering diameter rho")
    common(sp)
    sp.set_defaults(func=_cmd_witness)

    sp = sub.add_parser("n-bounds", help="two-sided size bounds from packing/covering constants")
    _add_angle_flags(sp, "theta", "angle cap")
    sp.add_argument("--dim", type=int, required=True)
    sp.add_argument("--c-d", dest="c_d", type=float, help="packing constant (default: calibrated)")
    sp.add_argument("--C-d", dest="C_d", type=float, help="covering constant (default: calibrated)")
    common(sp, seeded=True)
    sp.set_defaults(func=_cmd_n_bounds)

    sp = sub.add_parser("search-alpha", help="minimize the max angle of n points")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--dim", type=int, required=True)
    sp.add_argument("--iters", type=int, default=2000)
    sp.add_argument("--restarts", type=int, default=4)
    common(sp, seeded=True)
    sp.set_defaults(func=_cmd_search_alpha)

    sp = sub.add_parser("search-max", help="grow the largest set under an angle cap")
    _add_angle_flags(sp, "theta", "angle cap")
    sp.add_argument("--dim", type=int, required=True)
    sp.add_argument("--budget", type=int, default=20_000)
    common(sp, seeded=True)
    sp.set_defaults(func=_cmd_search_max)

    sp = sub.add_parser("table", help="CSV tables over parameter grids")
    sp.add_argument("--bound-grid", action="store_true")
    sp.add_argument("--dims", default="2..6", help="dimension range, e.g. 2..6")
    sp.add_argument("--theta-deg", default="91..119",
                    help="degrees, a value or range like 91..119")
    sp.add_argument("--theta-step", type=float, default=1.0)
    common(sp)
    sp.set_defaults(func=_cmd_table)

    return parser


def _fields(obj) -> dict:
    """A dataclass instance's fields by name, values as they are."""
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if dataclasses.is_dataclass(obj):
        return _fields(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _serialize(payload) -> str:
    """JSON text of a payload: numpy arrays become lists, dataclasses dicts of their fields."""
    if isinstance(payload, str):
        return payload
    return json.dumps(payload, indent=2, sort_keys=True, default=_json_default) + "\n"


def _write_manifest(args, outputs: list[str]):
    params = {k: v for k, v in vars(args).items()
              if k not in ("func", "out") and not k.startswith("_")}
    manifest = {
        "subcommand": args.command,
        "parameters": params,
        "seed": getattr(args, "seed", None),
        "tool_version": __version__,
        "outputs": outputs,
    }
    out = Path(outputs[0])
    mpath = out.with_suffix(".manifest.json") if out.suffix else Path(str(out) + ".manifest.json")
    with open(mpath, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 0
        return code
    try:
        payload, code = args.func(args)
    except PreconditionError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (FileNotFoundError, json.JSONDecodeError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # pragma: no cover - internal failures
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    text = _serialize(payload)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        _write_manifest(args, [args.out])
    else:
        sys.stdout.write(text)
    return code


def main():  # pragma: no cover - thin wrapper
    sys.exit(dispatch(sys.argv[1:]))
