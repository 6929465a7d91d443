"""Command-line interface: one subcommand per library operation.

Output is JSON on stdout by default (CSV for grid tables); --out writes the
same bytes to a file and drops a `<name>.manifest.json` next to it recording
the subcommand, parameters, seed, and tool version. Outputs contain no
timestamps, so re-running a manifest's command line reproduces them
byte-for-byte. Exit codes: 0 success, 2 precondition/usage errors, 1
internal failure.

Library modules are imported inside the handlers and readers that use them,
so each subcommand loads only what it runs: `bound`, `table` and `n-bounds`
without constants load `bounds` and no numpy. `dispatch` likewise builds
only the subparser of the subcommand it runs (`build_parser(command)`); the
whole parser, with every subcommand in its usage, answers --help and every
call it cannot route.
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
from .errors import OutOfRange, PreconditionError, check_real

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


def _read_json(path: str):
    """The JSON document in the file at `path`; OutOfRange naming the path if
    the file is not JSON text."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as err:
            raise OutOfRange(f"{path}: {err}") from None


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
    data = _read_json(path)
    if not isinstance(data, dict) or "points" not in data:
        raise OutOfRange(f'{path}: expected a JSON object with a "points" key')
    ps = PointSet(data["points"])
    if "dim" in data and _number(data["dim"], f"{path}: dim", int) != ps.dim:
        raise OutOfRange(f"file says dim={data['dim']} but points have {ps.dim} columns")
    return ps


def read_lines(path: str):
    from .constructions import LineArrangement
    from .geometry import _float_rows

    data = _read_json(path)
    vecs = _float_rows(data.get("lines") if isinstance(data, dict) else data, "line", None)
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


def _arg(*flags, **kwargs) -> tuple:
    """One add_argument call's arguments."""
    return flags, kwargs


def _angle_args(name: str, help_text: str) -> list:
    return [_arg(f"--{name}", type=float, help=f"{help_text} (radians)"),
            _arg(f"--{name}-deg", type=float, help=f"{help_text} (degrees)")]


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
    return {**_fields(arr), "rho": rho}, 0


def _cmd_ef_construct(args):
    from .constructions import ef_doubling
    from .geometry import max_angle

    arr = read_lines(args.lines)
    rho = _angle_from(args, "rho")
    ps = ef_doubling(arr, rho, slack=args.slack)
    return {**_fields(ps), "max_angle": max_angle(ps), "certified_below": math.pi - rho}, 0


def _cmd_witness(args):
    from .constructions import obtuse_triple_witness

    ps = read_pointset(args.infile)
    arr = read_lines(args.lines)
    rho = _angle_from(args, "rho")
    wit = obtuse_triple_witness(ps, arr, rho)
    return {**_fields(wit), "threshold": math.pi - rho}, 0


def _cmd_n_bounds(args):
    theta, D = _angle_from(args, "theta"), args.dim
    if args.c_d is not None or args.C_d is not None:
        from .constructions import n_bounds

        if args.c_d is None or args.C_d is None:
            raise OutOfRange("pass both --c-d and --C-d, or neither")
        return n_bounds(theta, D, args.c_d, args.C_d), 0
    from .bounds import cardinality_bound, theta_d

    check_real(theta, "theta must lie in (pi/2, pi), got {!r}", gt=0.5 * math.pi, lt=math.pi)
    if not 2 <= D < sys.float_info.max_exp:  # from there on 2^D is past every float
        raise OutOfRange(f"d must be an integer in [2, {sys.float_info.max_exp}), got {D}")
    upper, reason = None, f"theta is not below theta_{D} = {theta_d(D):.12g}"
    try:
        rep = cardinality_bound(theta, D)
        if rep.theorem_applicable:
            upper, reason = rep.bound, None
    except OutOfRange:  # eta_(D-1)(theta) is not defined past theta_(D-1)
        reason = f"theta is past theta_{D - 1} = {theta_d(D - 1):.12g}"
    # The cube's 2^D vertices: integer rays, every angle at most pi/2 < theta.
    return {"theta": theta, "d": D, "lower": 2**D, "lower_certificate": "cube", "upper": upper,
            "upper_certificate": None if upper is None else "theorem", "reason": reason}, 0


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
    step = check_real(args.theta_step, "--theta-step must be positive, got {!r}", gt=0.0)
    if not math.isfinite(step):
        raise OutOfRange(f"--theta-step must be a finite number, got {step!r}")
    rows = (d_hi - d_lo + 1) * ((hi - lo) / step + 1)
    if not rows <= MAX_TABLE_ROWS:  # before the row count meets floor() or range()
        raise OutOfRange(f"the grid has {rows:.3g} rows, more than {MAX_TABLE_ROWS}")
    count = math.floor((hi - lo) / step + 1e-9)  # the last row may not pass hi
    thetas = [lo + k * step for k in range(count + 1)]
    return table_bound_grid(range(d_lo, d_hi + 1), thetas), 0


# --------------------------------------------------------------- dispatch

_IN = _arg("--in", dest="infile", required=True)
_DIM = _arg("--dim", type=int, required=True)
_OUT = [_arg("--out", help="write output to this file (plus a manifest)")]
_SEEDED = [*_OUT, _arg("--seed", type=int, default=DEFAULT_SEED)]

# Each subcommand's help line, handler and arguments, in the order of --help.
SUBCOMMANDS = {
    "bound": ("cardinality bound for an angle cap", _cmd_bound, [
        *_angle_args("theta", "maximum angle"),
        _arg("--dim", type=int, required=True, help="ambient dimension D"), *_OUT]),
    "angle": ("maximum angle of a point set file", _cmd_angle, [_IN, *_OUT]),
    "convex-position": ("convex position verdict with witnesses", _cmd_convex_position,
                        [_IN, *_OUT]),
    "curvature": ("vertex normal-cone fractions (exact in R^2 and R^3, else Monte Carlo)",
                  _cmd_curvature, [_IN, _arg("--samples", type=int, default=100_000), *_SEEDED]),
    "cone-cover": ("per-vertex cone covering certificate", _cmd_cone_cover, [
        _IN, *_angle_args("eta", "cone half-angle"), *_OUT]),
    "pack-lines": ("spread m lines maximizing the min pairwise angle", _cmd_pack_lines, [
        _arg("--m", type=int, required=True), _DIM,
        _arg("--iters", type=int, default=1500), *_SEEDED]),
    "cover-lines": ("lines within rho/2 of every direction, certified exactly in every "
                    "dimension", _cmd_cover_lines, [
        *_angle_args("rho", "covering diameter rho"), _DIM,
        _arg("--probes", type=int, default=100_000,
             help="accepted and validated; does not change the cover"), *_SEEDED]),
    "ef-construct": ("doubling construction: 2^m points under pi - rho, certified by the "
                     "pair argument in O(n^2 D); the max_angle field is an exact O(n^3 D) "
                     "rescan that the certificate does not need, and on large sets it takes "
                     "most of the time", _cmd_ef_construct, [
        _arg("--lines", required=True, help="line arrangement JSON (from pack-lines)"),
        *_angle_args("rho", "separation rho"), _arg("--slack", type=float, default=0.05), *_OUT]),
    "witness": ("obtuse triple witness from a line covering", _cmd_witness, [
        _IN, _arg("--lines", required=True), *_angle_args("rho", "covering diameter rho"),
        *_OUT]),
    "n-bounds": ("size bounds: 2^dim (the cube) below, the theorem's bound above or null with "
                 "a reason; the packing/covering formula given --c-d and --C-d", _cmd_n_bounds, [
        *_angle_args("theta", "angle cap"), _DIM,
        _arg("--c-d", dest="c_d", type=float, help="packing constant (needs --C-d)"),
        _arg("--C-d", dest="C_d", type=float, help="covering constant (needs --c-d)"), *_OUT]),
    "search-alpha": ("minimize the max angle of n points", _cmd_search_alpha, [
        _arg("--n", type=int, required=True), _DIM, _arg("--iters", type=int, default=2000),
        _arg("--restarts", type=int, default=4), *_SEEDED]),
    "search-max": ("grow the largest set under an angle cap; stops at the theorem's bound and, "
                   "for caps up to 90 degrees, at 2^dim points (no larger set exists, "
                   "Danzer-Gruenbaum 1962)", _cmd_search_max, [
        *_angle_args("theta", "angle cap"), _DIM, _arg("--budget", type=int, default=20_000),
        *_SEEDED]),
    "table": ("CSV tables over parameter grids", _cmd_table, [
        _arg("--bound-grid", action="store_true"),
        _arg("--dims", default="2..6", help="dimension range, e.g. 2..6"),
        _arg("--theta-deg", default="91..119", help="degrees, a value or range like 91..119"),
        _arg("--theta-step", type=float, default=1.0), *_OUT]),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser, with every subcommand's subparser, or only `command`'s."""
    parser = argparse.ArgumentParser(
        prog="anglebound",
        description="Angle-bounded point sets: cardinality bounds, convex position, "
                    "packings, coverings, and stochastic search.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func, arguments) in SUBCOMMANDS.items():
        if command in (None, name):
            sp = sub.add_parser(name, help=help_text, description=help_text)
            for flags, kwargs in arguments:
                sp.add_argument(*flags, **kwargs)
            sp.set_defaults(func=func)
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
    argv = list(argv)
    # A call names its subcommand first, so only that subparser is built. Any
    # other call, and arguments the subparser leaves over, go to the whole
    # parser, whose usage lists every subcommand.
    command = argv[0] if argv and argv[0] in SUBCOMMANDS else None
    try:
        if command is not None:
            args, rest = build_parser(command).parse_known_args(argv)
        if command is None or rest:
            args = build_parser().parse_args(argv)
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 0
        return code
    try:
        payload, code = args.func(args)
    except PreconditionError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as e:  # a CSV point file may not be text
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
