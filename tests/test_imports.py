"""Start-up cost: scipy is loaded only by the subcommands that use it.

The hull and cap solver is numpy-only, so `convex-position`, `cone-cover` and
`curvature` must not load `scipy.optimize`.

Each case runs in a fresh interpreter, because this test process has already
imported scipy through other test modules.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import anglebound

SRC = str(Path(anglebound.__file__).resolve().parent.parent)
HEAVY = ("scipy.special", "scipy.stats", "scipy.optimize")
SQUARE = {"dim": 2, "points": [[0, 0], [1, 0], [1, 1], [0, 1]]}

# Imports the package, runs the CLI in-process, and reports which heavy scipy
# modules were loaded after each step, with the exit code and stdout.
PROBE = f"""
import contextlib, io, json, sys
loaded = lambda: [m for m in {HEAVY!r} if m in sys.modules]
import anglebound
on_import = loaded()
from anglebound.cli import dispatch
buf = io.StringIO()
with contextlib.redirect_stdout(buf):
    code = dispatch(json.loads(sys.argv[1]))
print(json.dumps({{"on_import": on_import, "code": code, "out": buf.getvalue(),
                  "loaded": loaded()}}))
"""


@pytest.mark.parametrize("argv, loaded", [
    (["bound", "--theta-deg", "100", "--dim", "3"], []),
    (["angle", "--in", "{square}"], []),
    (["convex-position", "--in", "{square}"], []),
    (["cone-cover", "--in", "{square}", "--eta-deg", "50"], []),
    (["curvature", "--in", "{square}", "--samples", "2000", "--seed", "5"],
     ["scipy.special"]),
    (["cover-lines", "--rho-deg", "70", "--dim", "3", "--probes", "2000", "--seed", "3"],
     ["scipy.special", "scipy.stats", "scipy.optimize"]),  # scipy.stats loads the optimizer
], ids=["bound", "angle", "convex-position", "cone-cover", "curvature", "cover-lines"])
def test_subcommand_loads_only_the_scipy_it_uses(tmp_path, argv, loaded):
    square = tmp_path / "square.json"
    square.write_text(json.dumps(SQUARE))
    argv = [a.format(square=square) for a in argv]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", PROBE, json.dumps(argv)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout)
    assert res["on_import"] == []
    assert res["code"] == 0
    assert json.loads(res["out"])
    assert res["loaded"] == loaded
