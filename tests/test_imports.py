"""Start-up cost: each subcommand loads only the modules it runs.

The package is numpy-only at run time; scipy is a test oracle, and `bound`,
`table` and `n-bounds` need no numpy at all. Every subcommand the parser
knows runs in one fresh interpreter (this test
process has already imported scipy and numpy through other test modules),
which reports the scipy, numpy and anglebound modules loaded after `import
anglebound` and after each call. Subcommands are also run alone, so each is
checked without the others' imports before it: none loads numpy.ma, and only
those that draw a seeded stream load numpy.random.
"""

import argparse
import ast
import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import anglebound
from anglebound.cli import build_parser

SRC = str(Path(anglebound.__file__).resolve().parent.parent)
FILES = {
    "square": {"dim": 2, "points": [[0, 0], [1, 0], [1, 1], [0, 1]]},
    "pentagon": {"dim": 2, "points": [[1.0, 0.0], [0.309017, 0.951057], [-0.809017, 0.587785],
                                      [-0.809017, -0.587785], [0.309017, -0.951057]]},
    "lines": {"lines": [[1, 0], [0, 1]]},
    "cube": {"dim": 3, "points": [[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)]},
    "cross4": {"dim": 4, "points": [[s * (i == j) for j in range(4)]
                                    for i in range(4) for s in (1, -1)]},
}
CALLS = [
    ["bound", "--theta-deg", "100", "--dim", "3"],
    ["table", "--bound-grid", "--dims", "2..3", "--theta-deg", "91..95"],
    ["angle", "--in", "{square}"],
    ["convex-position", "--in", "{square}"],
    ["curvature", "--in", "{square}", "--samples", "2000", "--seed", "5"],
    ["cone-cover", "--in", "{square}", "--eta-deg", "50"],
    ["pack-lines", "--m", "3", "--dim", "2", "--iters", "50", "--seed", "1"],
    ["cover-lines", "--rho-deg", "70", "--dim", "3", "--probes", "2000", "--seed", "3"],
    ["ef-construct", "--lines", "{lines}", "--rho", "1.4"],
    ["witness", "--in", "{pentagon}", "--lines", "{lines}", "--rho", "1.6"],
    ["n-bounds", "--theta-deg", "100", "--dim", "2"],
    ["search-alpha", "--n", "4", "--dim", "2", "--iters", "20", "--restarts", "1", "--seed", "1"],
    ["search-max", "--theta-deg", "90", "--dim", "2", "--budget", "50", "--seed", "1"],
]

PROBE = """
import contextlib, io, json, sys
loaded = lambda: {p: sorted(m for m in sys.modules if m.startswith(p))
                  for p in ("scipy", "numpy", "anglebound")}
import anglebound
report = {"import": loaded()}
from anglebound.cli import dispatch
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = dispatch(argv)
    report[argv[0]] = [code, loaded()]
print(json.dumps(report))
"""


def run_probe(tmp_path, argvs):
    """Run `argvs` in one fresh interpreter; return its report of loaded modules."""
    paths = {}
    for name, data in FILES.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(data))
    calls = [[a.format(**paths) for a in argv] for argv in argvs]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", PROBE, json.dumps(calls)], env=env,
                          capture_output=True, text=True, timeout=300)
    return json.loads(proc.stdout or "null"), proc.stderr


def loaded(report, prefix):
    """The report cut down to the modules starting with `prefix`."""
    if report is None:
        return None
    return {"import": report["import"][prefix],
            **{sub: [entry[0], entry[1][prefix]] for sub, entry in report.items()
               if sub != "import"}}


def call(sub):
    return next(argv for argv in CALLS if argv[0] == sub)


# The subcommands that once loaded scipy, or were checked not to, each on its own:
# what each of them uses of scipy is now nothing.
@pytest.mark.parametrize("sub", ["bound", "angle", "convex-position", "cone-cover",
                                 "curvature", "cover-lines"])
def test_subcommand_loads_only_the_scipy_it_uses(tmp_path, sub):
    report, stderr = run_probe(tmp_path, [call(sub)])
    assert loaded(report, "scipy") == {"import": [], sub: [0, []]}, stderr


def test_no_subcommand_loads_scipy(tmp_path):
    report, stderr = run_probe(tmp_path, CALLS)
    subcommands = next(a.choices for a in build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction))
    expected = {"import": [], **{sub: [0, []] for sub in subcommands}}
    assert loaded(report, "scipy") == expected, stderr


def test_import_loads_no_numpy_and_no_module(tmp_path):
    report, stderr = run_probe(tmp_path, [])
    assert report == {"import": {"scipy": [], "numpy": [], "anglebound": ["anglebound"]}}, stderr


@pytest.mark.parametrize("sub", ["bound", "table", "n-bounds"])
def test_subcommand_loads_no_numpy(tmp_path, sub):
    report, stderr = run_probe(tmp_path, [call(sub)])
    assert loaded(report, "numpy") == {"import": [], sub: [0, []]}, stderr


# Every call above, and the R^3 and R^4 inputs that run the hull paths and the
# Monte Carlo sweep, a cover of D >= 5, packings in R^3 with and without a
# closed form, and n-bounds in R^3 and R^4.
CASES = {
    **{argv[0]: argv for argv in CALLS},
    "curvature-R3": ["curvature", "--in", "{cube}", "--seed", "5"],
    "curvature-R4": ["curvature", "--in", "{cross4}", "--samples", "2000", "--seed", "5"],
    "cover-lines-R4": ["cover-lines", "--rho-deg", "70", "--dim", "4", "--probes", "2000",
                       "--seed", "3"],
    "cover-lines-R5": ["cover-lines", "--rho-deg", "90", "--dim", "5", "--probes", "2000",
                       "--seed", "3"],
    "pack-lines-R3": ["pack-lines", "--m", "5", "--dim", "3", "--iters", "50", "--seed", "1"],
    "pack-lines-R3-simplex": ["pack-lines", "--m", "4", "--dim", "3", "--iters", "50",
                              "--seed", "1"],
    "n-bounds-R3": ["n-bounds", "--theta-deg", "100", "--dim", "3"],
    "n-bounds-R4": ["n-bounds", "--theta-deg", "100", "--dim", "4"],
}
# The cases that draw a seeded stream: the Monte Carlo sweep, the packing
# search and the searches. Planar packings, the simplex's m = D + 1 lines and
# the icosahedron's 6 in R^3 are closed forms. No cover and not the
# convex-position screen's directions need numpy.random, and no case loads
# numpy.ma.
DRAW_A_STREAM = {"curvature-R4", "pack-lines-R3", "search-alpha", "search-max"}


@pytest.mark.parametrize("case", sorted(CASES))
def test_numpy_subpackages_load_only_where_used(tmp_path, case):
    argv = CASES[case]
    report, stderr = run_probe(tmp_path, [argv])
    code, modules = report[argv[0]][0], report[argv[0]][1]["numpy"]
    assert code == 0, stderr
    expected = {"numpy.random"} if case in DRAW_A_STREAM else set()
    assert {m for m in modules if m in ("numpy.ma", "numpy.random")} == expected, stderr


# Package modules each subcommand loads, besides the package and `cli` and `errors`.
MODULES = {
    "bound": ["bounds"],
    "table": ["bounds"],
    "angle": ["geometry"],
    "convex-position": ["convexity", "geometry", "sampling"],
    "curvature": ["bounds", "convexity", "curvature", "geometry", "sampling"],
    "cone-cover": ["bounds", "convexity", "curvature", "geometry", "sampling"],
    "pack-lines": ["constructions", "geometry", "sampling"],
    "cover-lines": ["constructions", "geometry", "sampling"],
    "ef-construct": ["constructions", "geometry", "sampling"],
    "witness": ["constructions", "geometry", "sampling"],
    "n-bounds": ["bounds"],
    "search-alpha": ["bounds", "geometry", "sampling", "search"],
    "search-max": ["bounds", "geometry", "sampling", "search"],
}


@pytest.mark.parametrize("sub", sorted(MODULES))
def test_subcommand_loads_only_the_modules_it_runs(tmp_path, sub):
    report, stderr = run_probe(tmp_path, [call(sub)])
    expected = sorted(["anglebound", "anglebound.cli", "anglebound.errors",
                       *(f"anglebound.{m}" for m in MODULES[sub])])
    assert loaded(report, "anglebound") == {"import": ["anglebound"], sub: [0, expected]}, stderr


# The names `anglebound/__init__.py` imported eagerly from each module before
# they were resolved on first access.
EXPORTS = {
    "bounds": ["BoundReport", "asymptotic_envelope", "cardinality_bound", "eta_of_theta",
               "f_fraction", "theta_d"],
    "constructions": ["EdgeColoring", "LineArrangement", "NBoundsReport", "cover_lines",
                      "ef_doubling", "find_mono_odd_cycle", "n_bounds",
                      "obtuse_triple_witness", "pack_lines"],
    "convexity": ["ConvexPositionVerdict", "ObtuseWitness", "caratheodory_decompose",
                  "is_convex_position", "min_pairwise_dot", "obtuse_witness",
                  "simplex_contains_origin"],
    "curvature": ["Cone", "CurvatureEstimate", "SphericalCap", "cone_cover_certificate",
                  "dekster_radius", "gauss_bonnet_sum", "min_enclosing_cap",
                  "normal_cone_fraction_mc"],
    "errors": ["PreconditionError"],
    "geometry": ["PointSet", "angle_at", "geodesic_diameter", "max_angle", "rays_from"],
    "search": ["SearchResult", "max_cardinality_search", "minimize_max_angle"],
}


def test_every_exported_name_resolves_to_its_module_object():
    for module, names in EXPORTS.items():
        mod = importlib.import_module(f"anglebound.{module}")
        for name in names:
            assert getattr(anglebound, name) is getattr(mod, name), name
            assert name in anglebound.__all__, name
    assert anglebound.__version__ == "0.1.0"
    with pytest.raises(AttributeError):
        anglebound.no_such_name


def test_every_top_level_name_is_used():
    # A top-level def, class or assignment of src/anglebound that no module of
    # the package reads (as a name, an attribute or an imported name) is dead
    # code, unless the package exports it, it is the CLI's entry point, or it
    # is a dunder such as __getattr__, which the interpreter reads.
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(Path(anglebound.__file__).parent.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    used |= set(anglebound.__all__) | {"main"}
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for target in targets for t in ast.walk(target)
                         if isinstance(t, ast.Name)]
            else:
                continue
            unused += [f"{module}.{name}" for name in names
                       if name not in used and not (name.startswith("__") and name.endswith("__"))]
    assert unused == []


# Every exported function and input dataclass, with calls it must refuse with a
# PreconditionError (bad numbers, ragged, non-numeric or non-finite rows, None
# and strings for reals), never a ValueError or TypeError from numpy or Python.
# A name that takes a PointSet is refused where its malformed points are built.
# Result types and the error class are built by the library, not from input.
NOT_INPUTS = {"BoundReport", "ConvexPositionVerdict", "CurvatureEstimate", "NBoundsReport",
              "ObtuseWitness", "PreconditionError", "SearchResult"}
RAGGED, NAN_ROWS = [[0.0, 0.0], [1.0]], [[math.nan, 0.0], [1.0, 1.0]]
ab = anglebound


def square():
    return ab.PointSet([[0, 0], [1, 0], [1, 1], [0, 1]])


def frame():
    return ab.LineArrangement(dim=2, lines=[[1.0, 0.0], [0.0, 1.0]])


MALFORMED = {
    "Cone": [lambda: ab.Cone(apex=RAGGED, axis=[0.0, 1.0], half_angle=0.5),
             lambda: ab.Cone(apex=[0.0, 0.0], axis=[0.0, 2.0], half_angle=0.5),
             lambda: ab.Cone(apex=[0.0, 0.0], axis=[0.0, 1.0], half_angle="0.5"),
             lambda: ab.Cone(apex=[0.0, 0.0], axis=[0.0, 1.0], half_angle=0.5).contains(RAGGED)],
    "EdgeColoring": [lambda: ab.EdgeColoring(n="3", m=1, color={}),
                     lambda: ab.EdgeColoring(n=2, m=None, color={(0, 1): 0}),
                     lambda: ab.EdgeColoring(n=3, m=1, color={(0, 1): 0})],
    "LineArrangement": [lambda: ab.LineArrangement(dim=2, lines=RAGGED),
                        lambda: ab.LineArrangement(dim=2, lines=NAN_ROWS),
                        lambda: ab.LineArrangement(dim=2, lines="ab")],
    "PointSet": [lambda: ab.PointSet(RAGGED), lambda: ab.PointSet(NAN_ROWS),
                 lambda: ab.PointSet(None), lambda: ab.PointSet([["a", 0.0]])],
    "SphericalCap": [lambda: ab.SphericalCap(center=RAGGED, radius=0.5),
                     lambda: ab.SphericalCap(center=[0.0, 1.0], radius=None)],
    "angle_at": [lambda: ab.angle_at([0, 0], [1], [1, 1]), lambda: ab.angle_at("a", [0, 0], [1, 1]),
                 lambda: ab.angle_at([0, 0], [math.nan, 0], [1, 1])],
    "asymptotic_envelope": [lambda: ab.asymptotic_envelope("3"), lambda: ab.asymptotic_envelope(1)],
    "caratheodory_decompose": [lambda: ab.caratheodory_decompose(RAGGED, square()),
                               lambda: ab.caratheodory_decompose(None, square()),
                               lambda: ab.caratheodory_decompose([math.nan, 0.0], square())],
    "cardinality_bound": [lambda: ab.cardinality_bound("2", 3), lambda: ab.cardinality_bound(None, 3),
                          lambda: ab.cardinality_bound(2.0, 2.5)],
    "cone_cover_certificate": [lambda: ab.cone_cover_certificate(square(), "0.5"),
                               lambda: ab.cone_cover_certificate(square(), None),
                               lambda: ab.cone_cover_certificate(square(), math.nan)],
    "cover_lines": [lambda: ab.cover_lines("1", 3), lambda: ab.cover_lines(None, 3),
                    lambda: ab.cover_lines(1.0, 3, seed=-1), lambda: ab.cover_lines(1.0, 3, probes=0)],
    "dekster_radius": [lambda: ab.dekster_radius(None, 2), lambda: ab.dekster_radius("1", 2),
                       lambda: ab.dekster_radius(1.0, None)],
    "ef_doubling": [lambda: ab.ef_doubling(frame(), 0.5, slack=None),
                    lambda: ab.ef_doubling(frame(), "0.5"), lambda: ab.ef_doubling(frame(), math.nan)],
    "eta_of_theta": [lambda: ab.eta_of_theta(None, 2), lambda: ab.eta_of_theta("1", 2),
                     lambda: ab.eta_of_theta(1.0, "2")],
    "f_fraction": [lambda: ab.f_fraction(2, "0.5"), lambda: ab.f_fraction(2, None),
                   lambda: ab.f_fraction(None, 0.5)],
    "find_mono_odd_cycle": [
        lambda: ab.find_mono_odd_cycle(ab.EdgeColoring(n=2, m=1, color={(0, 1): 0}))],
    "gauss_bonnet_sum": [lambda: ab.gauss_bonnet_sum(square(), 10, 0),
                         lambda: ab.gauss_bonnet_sum(square(), None, 0),
                         lambda: ab.gauss_bonnet_sum(square(), 2000, "1")],
    "geodesic_diameter": [lambda: ab.geodesic_diameter(RAGGED), lambda: ab.geodesic_diameter(None),
                          lambda: ab.geodesic_diameter(NAN_ROWS), lambda: ab.geodesic_diameter("ab")],
    "is_convex_position": [lambda: ab.is_convex_position(ab.PointSet(RAGGED))],
    "max_angle": [lambda: ab.max_angle(ab.PointSet(NAN_ROWS))],
    "max_cardinality_search": [lambda: ab.max_cardinality_search(None, 2),
                               lambda: ab.max_cardinality_search("2", 2),
                               lambda: ab.max_cardinality_search(2.0, 2, budget=None)],
    "min_enclosing_cap": [lambda: ab.min_enclosing_cap(RAGGED), lambda: ab.min_enclosing_cap(None),
                          lambda: ab.min_enclosing_cap(NAN_ROWS)],
    "min_pairwise_dot": [lambda: ab.min_pairwise_dot(RAGGED), lambda: ab.min_pairwise_dot(None),
                         lambda: ab.min_pairwise_dot(NAN_ROWS)],
    "minimize_max_angle": [lambda: ab.minimize_max_angle("4", 2), lambda: ab.minimize_max_angle(2, 2),
                           lambda: ab.minimize_max_angle(4, 2, iters=5, seed=None)],
    "n_bounds": [lambda: ab.n_bounds(None, 3, 1.0, 4.0), lambda: ab.n_bounds(2.0, 3, "1", 4.0),
                 lambda: ab.n_bounds(2.0, 3, 1.0, None), lambda: ab.n_bounds(2.0, "3", 1.0, 4.0)],
    "normal_cone_fraction_mc": [lambda: ab.normal_cone_fraction_mc(square(), 1.5, 2000, 1),
                                lambda: ab.normal_cone_fraction_mc(square(), 1, None, 1)],
    "obtuse_triple_witness": [
        lambda: ab.obtuse_triple_witness(square(), frame(), None),
        lambda: ab.obtuse_triple_witness(square(), frame(), "1")],
    "obtuse_witness": [lambda: ab.obtuse_witness(RAGGED, [[0, 0], [1, 0], [0, 1]]),
                       lambda: ab.obtuse_witness([0.2, 0.2], RAGGED),
                       lambda: ab.obtuse_witness([0.2, 0.2], [[0, 0], [1, math.nan], [0, 1]])],
    "pack_lines": [lambda: ab.pack_lines("5", 3), lambda: ab.pack_lines(5, None),
                   lambda: ab.pack_lines(5, 3, seed=-1)],
    "rays_from": [lambda: ab.rays_from(RAGGED, square()), lambda: ab.rays_from(None, square()),
                  lambda: ab.rays_from([math.nan, 0.0], square())],
    "simplex_contains_origin": [lambda: ab.simplex_contains_origin(RAGGED),
                                lambda: ab.simplex_contains_origin(None),
                                lambda: ab.simplex_contains_origin(NAN_ROWS)],
    "theta_d": [lambda: ab.theta_d(None), lambda: ab.theta_d("2"), lambda: ab.theta_d(0)],
}


def test_every_exported_callable_refuses_malformed_input():
    assert set(MALFORMED) == set(anglebound.__all__) - NOT_INPUTS
    leaks = []
    for name, calls in MALFORMED.items():
        for k, call in enumerate(calls):
            try:
                call()
                leaks.append(f"{name}[{k}]: accepted")
            except anglebound.PreconditionError:
                pass
            except Exception as err:
                leaks.append(f"{name}[{k}]: {type(err).__name__}: {err}")
    assert leaks == []
