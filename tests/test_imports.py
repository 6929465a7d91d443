"""Start-up cost: no subcommand loads scipy.

The package is numpy-only at run time; scipy is a test oracle. Every
subcommand the parser knows, calibrating `n-bounds` included, runs in one
fresh interpreter (this test process has already imported scipy through
other test modules), which reports the scipy modules loaded after the import
and after each call. The subcommands that once loaded only part of scipy are
also run alone, so each is checked without the others' imports before it.
"""

import argparse
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
    ["n-bounds", "--theta-deg", "100", "--dim", "2", "--seed", "2"],  # calibrates
    ["search-alpha", "--n", "4", "--dim", "2", "--iters", "20", "--restarts", "1", "--seed", "1"],
    ["search-max", "--theta-deg", "90", "--dim", "2", "--budget", "50", "--seed", "1"],
]

PROBE = """
import contextlib, io, json, sys
scipy = lambda: sorted(m for m in sys.modules if m.startswith("scipy"))
import anglebound
from anglebound.cli import dispatch
report = {"import": scipy()}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = dispatch(argv)
    report[argv[0]] = [code, scipy()]
print(json.dumps(report))
"""


def run_probe(tmp_path, argvs):
    """Run `argvs` in one fresh interpreter; return its report of scipy modules."""
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


# The subcommands that once loaded scipy, or were checked not to, each on its own:
# what each of them uses of scipy is now nothing.
@pytest.mark.parametrize("sub", ["bound", "angle", "convex-position", "cone-cover",
                                 "curvature", "cover-lines"])
def test_subcommand_loads_only_the_scipy_it_uses(tmp_path, sub):
    argv = next(argv for argv in CALLS if argv[0] == sub)
    report, stderr = run_probe(tmp_path, [argv])
    assert report == {"import": [], sub: [0, []]}, stderr


def test_no_subcommand_loads_scipy(tmp_path):
    report, stderr = run_probe(tmp_path, CALLS)
    subcommands = next(a.choices for a in build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction))
    expected = {"import": [], **{sub: [0, []] for sub in subcommands}}
    assert report == expected, stderr
