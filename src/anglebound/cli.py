"""Command-line interface: one subcommand per library operation.

Output is JSON on stdout by default (CSV for grid tables); --out writes the
same bytes to a file and drops a `<name>.manifest.json` next to it recording
the subcommand, parameters, seed, and tool version. Outputs contain no
timestamps, so re-running a manifest's command line reproduces them
byte-for-byte. Exit codes: 0 success, 2 precondition/usage errors, 1
internal failure.

Library modules are imported inside the handlers and readers that use them,
so each subcommand loads only what it runs: `bound` and `table` load
`bounds` and no numpy.
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

from . import __version__
from .errors import OutOfRange, PreconditionError

DEFAULT_SEED = 20240
# Rows `table` may print: a larger grid is refused before any row is built.
MAX_TABLE_ROWS = 10**6


# ---------------------------------------------------------------- file I/O

def _number(text, what: str, kind=float):
    """kind(text), or OutOfRange naming `what` and the text if that is not a finite
    number; a JSON boolean, or a number that kind would change, is refused too."""
    try:
        value = kind(text)
        if isinstance(text, bool) or (not isinstance(text, str) and value != text):
            value = math.nan
    except (TypeError, ValueError, OverflowError):
        value = math.nan
    if not math.isfinite(value):
        noun = "an integer" if kind is int else "a finite number"
        raise OutOfRange(f"{what} must be {noun}, got {text!r}")
    return value


def read_pointset(path: str):
    from .geometry import PointSet

    p = Path(path)
    if p.suffix.lower() == ".csv":
        rows = []
        with open(p, newline="") as fh:
            for row in csv.reader(fh):
                if row:
                    rows.append([_number(x, f"{path}: coordinate") for x in row])
        return PointSet(rows)
    with open(p) as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "points" not in data:
        raise OutOfRange(f'{path}: expected a JSON object with a "points" key')
    ps = PointSet(data["points"])
    if "dim" in data and _number(data["dim"], f"{path}: dim", int) != ps.dim:
        raise OutOfRange(f"file says dim={data['dim']} but points have {ps.dim} columns")
    return ps


def read_lines(path: str):
    import numpy as np

    from .constructions import LineArrangement

    with open(path) as fh:
        data = json.load(fh)
    try:
        vecs = np.asarray(data.get("lines") if isinstance(data, dict) else data, dtype=float)
    except (TypeError, ValueError) as err:
        raise OutOfRange(f"lines must form an (m, dim) array of numbers: {err}") from None
    if vecs.ndim != 2:
        raise OutOfRange(f"lines must form an (m, dim) array, got shape {vecs.shape}")
    return LineArrangement(dim=vecs.shape[1], lines=vecs)


# ------------------------------------------------------------- arg helpers

def _angle_from(args, name: str) -> float:
    rad = getattr(args, name, None)
    deg = getattr(args, f"{name}_deg", None)
    if rad is not None and deg is not None:
        raise OutOfRange(f"pass either --{name} or --{name}-deg, not both")
    if rad is not None:
        return float(rad)
    if deg is not None:
        return math.radians(float(deg))
    raise OutOfRange(f"--{name} or --{name}-deg is required")


def _add_angle_flags(sp, name: str, help_text: str):
    sp.add_argument(f"--{name}", type=float, help=f"{help_text} (radians)")
    sp.add_argument(f"--{name}-deg", type=float, help=f"{help_text} (degrees)")


def _parse_range(text: str, flag: str, kind=float) -> tuple:
    """(lo, hi) from a value v (lo = hi = v) or a range lo..hi with lo <= hi."""
    lo, sep, hi = text.partition("..")
    lo = _number(lo, flag, kind)
    hi = _number(hi, flag, kind) if sep else lo
    if lo > hi:
        raise OutOfRange(f"{flag} range must run from low to high, got {text!r}")
    return lo, hi


# ------------------------------------------------------------------ table

def table_bound_grid(dims, thetas_deg) -> str:
    """CSV of the cardinality bound over a (dimension, theta) grid, theta in degrees.

    Cells with theta beyond theta_(D-1) cannot be evaluated and are flagged
    not-applicable; cells between theta_D and theta_(D-1) evaluate the
    formula with theorem_applicable false.
    """
    from .bounds import cardinality_bound

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["dim", "theta_rad", "theta_deg", "eta", "f_value", "bound",
                "theorem_applicable", "status"])
    for D in dims:
        for deg in thetas_deg:
            th = math.radians(deg)
            try:
                rep = cardinality_bound(th, D)
            except OutOfRange:
                w.writerow([D, repr(th), repr(float(deg)),
                            "", "", "", "", "not-applicable"])
                continue
            status = "ok" if rep.theorem_applicable else "formula-only"
            w.writerow([D, repr(th), repr(float(deg)),
                        repr(rep.eta), repr(rep.f_value), repr(rep.bound),
                        rep.theorem_applicable, status])
    return buf.getvalue()


# ------------------------------------------------------------ subcommands

def _cmd_bound(args):
    from .bounds import cardinality_bound

    theta = _angle_from(args, "theta")
    return cardinality_bound(theta, args.dim), 0


def _cmd_angle(args):
    from .geometry import max_angle

    ps = read_pointset(args.infile)
    return {"dim": ps.dim, "n": len(ps), "max_angle": max_angle(ps)}, 0


def _cmd_convex_position(args):
    from .convexity import is_convex_position, obtuse_witness

    ps = read_pointset(args.infile)
    verdict = is_convex_position(ps)
    if verdict.in_convex_position:
        return {"in_convex_position": True}, 0
    wit = obtuse_witness(verdict.witness_point, verdict.witness_simplex)
    return {**_fields(verdict), "obtuse_witness": wit}, 0


def _cmd_curvature(args):
    from .curvature import gauss_bonnet_sum

    ps = read_pointset(args.infile)
    est = gauss_bonnet_sum(ps, args.samples, args.seed)
    return est, 0


def _cmd_cone_cover(args):
    from .curvature import CapTooSmall, cone_cover_certificate

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
    from .constructions import pack_lines

    arr = pack_lines(args.m, args.dim, iters=args.iters, seed=args.seed)
    return arr, 0


def _cmd_cover_lines(args):
    from .constructions import cover_lines

    rho = _angle_from(args, "rho")
    arr = cover_lines(rho, args.dim, seed=args.seed, probes=args.probes)
    return {**_fields(arr), "probes": args.probes, "rho": rho}, 0


def _cmd_ef_construct(args):
    from .constructions import ef_doubling
    from .geometry import max_angle

    arr = read_lines(args.lines)
    rho = _angle_from(args, "rho")
    ps = ef_doubling(arr, rho, slack=args.slack, max_scale_doublings=args.max_doublings)
    return {**_fields(ps), "max_angle": max_angle(ps), "certified_below": math.pi - rho}, 0


def _cmd_witness(args):
    from .constructions import obtuse_triple_witness

    ps = read_pointset(args.infile)
    arr = read_lines(args.lines)
    rho = _angle_from(args, "rho")
    wit = obtuse_triple_witness(ps, arr, rho)
    return {**_fields(wit), "threshold": math.pi - rho}, 0


def _cmd_n_bounds(args):
    from .constructions import calibrate_constants, n_bounds

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
    from .search import minimize_max_angle

    res = minimize_max_angle(args.n, args.dim, iters=args.iters,
                             restarts=args.restarts, seed=args.seed)
    return {**_fields(res), **_fields(res.points)}, 0


def _cmd_search_max(args):
    from .search import max_cardinality_search

    theta = _angle_from(args, "theta")
    res = max_cardinality_search(theta, args.dim, budget=args.budget, seed=args.seed)
    return {**_fields(res), **_fields(res.points)}, 0


def _cmd_table(args):
    if not args.bound_grid:
        raise OutOfRange("table currently supports --bound-grid only")
    d_lo, d_hi = _parse_range(args.dims, "--dims", int)
    lo, hi = _parse_range(args.theta_deg, "--theta-deg")
    step = args.theta_step
    if not step > 0:
        raise OutOfRange(f"--theta-step must be positive, got {step!r}")
    if not math.isfinite(step):
        raise OutOfRange(f"--theta-step must be a finite number, got {step!r}")
    rows = (d_hi - d_lo + 1) * ((hi - lo) / step + 1)
    if not rows <= MAX_TABLE_ROWS:  # before the row count meets floor() or range()
        raise OutOfRange(f"the grid has {rows:.3g} rows, more than {MAX_TABLE_ROWS}")
    count = math.floor((hi - lo) / step + 1e-9)  # the last row may not pass hi
    thetas = [lo + k * step for k in range(count + 1)]
    return table_bound_grid(range(d_lo, d_hi + 1), thetas), 0


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

    sp = sub.add_parser("curvature",
                        help="vertex normal-cone fractions (exact in R^2 and R^3, else Monte Carlo)")
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

    sp = sub.add_parser("cover-lines", help="lines within rho/2 of every direction: exact in "
                        "the plane, R^3 and R^4; greedy and probe-checked only in D >= 5")
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

    sp = sub.add_parser("search-max", help="grow the largest set under an angle cap; stops at "
                        "the theorem's bound and, for caps up to 90 degrees, at 2^dim points "
                        "(no larger set exists, Danzer-Gruenbaum 1962)")
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
    if hasattr(obj, "tolist"):  # numpy arrays and scalars, without importing numpy
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
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as e:
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
