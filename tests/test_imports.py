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
    "witness": ["constructions", "convexity", "geometry", "sampling"],
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
