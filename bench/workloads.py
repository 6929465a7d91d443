"""The four benchmark workloads: seeded inputs, the library calls of each item, and checks.

Inputs are pure functions of (seed, round, cell) and are built with numpy
alone, so the library sees only generated inputs. Each item's `run` calls
the public library API through the tracer `tr`, which records one span per
call when tracing is on. `check` validates an item's output with
`checks.py`; it never calls the library.

A round is one pass over a workload's fixed grid of cells, so every round
has the same mix of item kinds and sizes; only the coordinates and seeds
change with the workload seed and the round. Item `k` of every round
belongs to cell `k`, which is how run.py matches a cell across rounds.
"""

from __future__ import annotations

import csv
import importlib
import io
import json
import math
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import checks as C
import speed
from checks import require


def item_rng(seed: int, workload: int, rnd: int, cell: int) -> np.random.Generator:
    return np.random.default_rng([seed, workload, rnd, cell])


def load_library():
    """The library modules whose public functions the workloads call."""
    names = ("geometry", "bounds", "convexity", "curvature", "constructions", "search", "errors")
    return SimpleNamespace(**{n: importlib.import_module(f"anglebound.{n}") for n in names})


def sphere_points(rng, n: int, D: int, min_sep: float = 0.02) -> np.ndarray:
    """n points on the unit sphere, pairwise at least min_sep apart.

    The separation keeps every point a clear vertex of the hull, far above
    the library's feasibility tolerance.
    """
    pts = []
    while len(pts) < n:
        x = rng.normal(size=D)
        x /= np.linalg.norm(x)
        if all(np.linalg.norm(x - p) >= min_sep for p in pts):
            pts.append(x)
    return np.array(pts)


def below_theta_d(rng, n: int, D: int) -> np.ndarray:
    """Gaussian sets kept only when their max angle is below theta_D (criterion 7)."""
    while True:
        pts = rng.normal(size=(n, D))
        if C.brute_max_angle(pts) < C.theta_d(D) - 1e-6:
            return pts


def cone_eta(theta: float, D: int) -> tuple[float, bool]:
    """Cone half-angle for a set with max angle theta, and whether a cover is guaranteed.

    Below theta_(D-1) the rays at every vertex have diameter at most theta,
    so they fit in a cap of radius eta_(D-1)(theta) and the cover must
    succeed. Above it no theorem applies: a fixed 1.4 rad is refused with
    CapTooSmall on most sphere sets in R^3 and covers those in R^5 and R^8,
    where a refusal at a random vertex would make the item's cost vary.
    """
    d = D - 1
    if theta < (math.pi if d == 1 else C.theta_d(d)) - 1e-9:
        return C.eta_of_theta(theta, d), True
    return 1.4, False


# ---------------------------------------------------------------- certify

# (D, n, kind): one third of the cells plant a strictly interior point.
CERTIFY_CELLS = (
    (2, 4, "below"), (2, 8, "sphere"), (2, 24, "sphere"), (2, 48, "sphere"),
    (2, 9, "interior"), (2, 32, "interior"),
    (3, 5, "below"), (3, 9, "sphere"), (3, 24, "sphere"), (3, 48, "sphere"),
    (3, 8, "interior"), (3, 32, "interior"),
    (5, 7, "below"), (5, 9, "sphere"), (5, 16, "sphere"), (5, 28, "sphere"),
    (5, 9, "interior"), (5, 24, "interior"),
    (8, 10, "sphere"), (8, 12, "sphere"), (8, 16, "sphere"), (8, 20, "sphere"),
    (8, 12, "interior"), (8, 20, "interior"),
)
MC_SAMPLES = 200_000
RESCAN_MAX_N = 9


def certify_item(rng, D: int, n: int, kind: str) -> dict:
    interior = -1
    if kind == "below":
        pts = below_theta_d(rng, n, D)
    elif kind == "sphere":
        pts = sphere_points(rng, n, D)
    else:
        hull = sphere_points(rng, n - 1, D)
        corners = rng.choice(n - 1, size=D + 1, replace=False)
        w = rng.exponential(size=D + 1) + 0.2
        interior = int(rng.integers(n))
        pts = np.insert(hull, interior, (w / w.sum()) @ hull[corners], axis=0)
    eta, guaranteed = cone_eta(C.brute_max_angle(pts), D)
    return {"D": D, "n": n, "kind": kind, "points": pts, "interior": interior,
            "eta": eta, "guaranteed": guaranteed, "mc_seed": int(rng.integers(2**31))}


class Certify:
    name = "certify"

    def items(self, seed: int, rnd: int) -> list[dict]:
        return [certify_item(item_rng(seed, 0, rnd, k), D, n, kind)
                for k, (D, n, kind) in enumerate(CERTIFY_CELLS)]

    def warmup(self) -> list[dict]:
        return [certify_item(item_rng(0, 0, 0, 0), 3, 6, "sphere")]

    def run(self, item, lib, tr) -> dict:
        g, cv, cu = lib.geometry, lib.convexity, lib.curvature
        ps = tr("geometry.PointSet", g.PointSet, item["points"])
        theta, triple = tr("geometry.max_angle_triple", g.max_angle_triple, ps.points)
        verdict = tr("convexity.is_convex_position", cv.is_convex_position, ps)
        out = {"theta": theta, "triple": triple, "verdict": verdict}
        if verdict.in_convex_position:
            out["estimate"] = tr("curvature.gauss_bonnet_sum", cu.gauss_bonnet_sum,
                                 ps, MC_SAMPLES, item["mc_seed"])
            try:
                out["cones"] = tr("curvature.cone_cover_certificate",
                                  cu.cone_cover_certificate, ps, item["eta"])
            except lib.errors.CapTooSmall as refusal:
                out["refusal"] = refusal
        else:
            out["obtuse"] = tr("convexity.obtuse_witness", cv.obtuse_witness,
                               verdict.witness_point, verdict.witness_simplex)
        if theta < C.theta_d(item["D"]):
            out["bound"] = tr("bounds.cardinality_bound", lib.bounds.cardinality_bound,
                              theta, item["D"])
        if item["n"] <= RESCAN_MAX_N:
            pts = ps.points
            n = len(pts)
            out["scalar_max"] = max(
                tr("geometry.angle_at", g.angle_at, pts[i], pts[j], pts[k])
                for j in range(n) for i in range(n) for k in range(i + 1, n)
                if j not in (i, k))
        return out

    def check(self, item, out):
        pts, D, n = item["points"], item["D"], item["n"]
        C.max_angle_triple(pts, out["theta"], out["triple"])
        verdict = out["verdict"]
        if item["kind"] == "interior":
            C.negative_verdict(pts, verdict, item["interior"])
            C.obtuse(out["obtuse"], pts[item["interior"]], verdict.witness_simplex)
        else:
            require(verdict.in_convex_position, "set in convex position reported non-convex")
            C.fractions(out["estimate"], n, MC_SAMPLES)
            if "cones" in out:
                C.cones(pts, out["cones"], item["eta"])
            else:
                C.cap_too_small(out["refusal"], n, item["eta"], item["guaranteed"])
        if out["theta"] < C.theta_d(D):
            C.theorem(n, D, out["theta"], out["bound"])
        if n <= RESCAN_MAX_N:
            C.rescan(pts, out["theta"], out["scalar_max"])

    def facts(self, item, out) -> dict:
        f = {"verdicts": 1, "negative": int(not out["verdict"].in_convex_position)}
        if "estimate" in out:
            f.update(mc_samples=MC_SAMPLES, cover_attempts=1, covered=int("cones" in out))
        return f

    def quality(self, items, outs) -> dict:
        return {}


# ---------------------------------------------------------- constructions

CONSTRUCT_CELLS = tuple((m, D) for D in (2, 3, 4) for m in (4, 5, 6, 7))
# Sizes that keep a cell near 0.15 s, so every cell repeats in several rounds
# of one run: 300 iterations and 2 restarts reach the same packing angles as
# the defaults on this grid, and 20000 probes still pass the covering check.
PACK_ITERS, PACK_RESTARTS = 300, 2
COVER_PROBES = 20_000
# Coarse covering angles with at most four greedy lines: 3 in the plane,
# the coordinate frame in R^3 (needs rho >= 2 arctan(sqrt 2)) and in R^4.
WITNESS_RHO = {2: 1.3, 3: 2.0, 4: 2.2}


class Constructions:
    """One item per (m, D) cell: packing, doubling and covering, then one witness item per D."""

    name = "constructions"

    def items(self, seed: int, rnd: int) -> list[dict]:
        out = []
        for k, (m, D) in enumerate(CONSTRUCT_CELLS):
            s = [int(x) for x in item_rng(seed, 1, rnd, k).integers(2**31, size=3)]
            out.append({"step": "cell", "m": m, "D": D, "pack_seed": s[0], "cover_seed": s[1],
                        "check_seed": s[2]})
        for k, D in enumerate(WITNESS_RHO):
            s = [int(x) for x in item_rng(seed, 1, rnd, 100 + k).integers(2**31, size=3)]
            out.append({"step": "witness", "D": D, "rho": WITNESS_RHO[D], "cover_seed": s[0],
                        "check_seed": s[1], "noise_seed": s[2]})
        return out

    def warmup(self) -> list[dict]:
        return [{"step": "cell", "m": 3, "D": 2, "pack_seed": 0, "cover_seed": 0,
                 "check_seed": 0}]

    def run(self, item, lib, tr) -> dict:
        co, g = lib.constructions, lib.geometry
        D = item["D"]
        if item["step"] == "cell":
            pack = tr("constructions.pack_lines", co.pack_lines, item["m"], D,
                      iters=PACK_ITERS, restarts=PACK_RESTARTS, seed=item["pack_seed"])
            rho = 0.9 * pack.min_pairwise_angle
            ps = tr("constructions.ef_doubling", co.ef_doubling, pack, rho)
            theta, triple = tr("geometry.max_angle_triple", g.max_angle_triple, ps.points)
            cover = tr("constructions.cover_lines", co.cover_lines, rho, D,
                       seed=item["cover_seed"], probes=COVER_PROBES)
            return {"pack": pack, "rho": rho, "points": ps.points, "theta": theta,
                    "triple": triple, "cover": cover}
        # A 2^k + 1 point set built as in criterion 12 from a coarse k-line covering.
        cover = tr("constructions.cover_lines", co.cover_lines, item["rho"], D,
                   seed=item["cover_seed"], probes=COVER_PROBES)
        rng = np.random.default_rng(item["noise_seed"])
        core = tr("constructions.ef_doubling", co.ef_doubling,
                  cover, 0.9 * cover.min_pairwise_angle).points
        diam = float(np.max(np.linalg.norm(core[:, None] - core[None, :], axis=2)))
        pts = np.vstack([core, core[0] + 100.0 * diam * cover.lines[0]])
        gaps = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        min_gap = float(np.min(gaps[~np.eye(len(pts), dtype=bool)]))
        pts = pts + rng.normal(scale=1e-7 * min_gap, size=pts.shape)
        pts = pts * float(rng.uniform(0.5, 2.0)) + rng.normal(size=D)
        A = tr("geometry.PointSet", g.PointSet, pts)
        wit = tr("constructions.obtuse_triple_witness", co.obtuse_triple_witness,
                 A, cover, item["rho"])
        return {"cover": cover, "points": A.points, "witness": wit}

    def check(self, item, out):
        D = item["D"]
        rng = np.random.default_rng(item["check_seed"])
        if item["step"] == "cell":
            C.lines(out["pack"], item["m"], D)
            C.doubling(out["points"], item["m"], out["rho"], out["theta"], out["triple"])
            C.covering(out["cover"], out["rho"], D, rng)
        else:
            C.covering(out["cover"], item["rho"], D, rng)
            require(len(out["points"]) == 2 ** len(out["cover"]) + 1,
                    "witness set has the wrong size")
            C.triple_witness(out["points"], out["witness"], item["rho"])

    def facts(self, item, out) -> dict:
        return {"ef_points": len(out["points"])} if item["step"] == "cell" else {}

    def quality(self, items, outs) -> dict:
        cells = [o for i, o in zip(items, outs) if i["step"] == "cell"]
        return {
            "construct.pack_deg_mean": float(np.mean([math.degrees(o["pack"].min_pairwise_angle)
                                                      for o in cells])),
            "construct.cover_lines_mean": float(np.mean([len(o["cover"]) for o in cells])),
        }


# ----------------------------------------------------------------- search

SEARCH_ALPHA_CELLS = tuple((n, D) for D in (2, 3, 4) for n in range(5, 11))
# Smaller than the test sizes (300 iterations, 2 restarts; budgets 1500-2000)
# so that a round takes about 3 s and every cell repeats within one run.
SEARCH_MAX_CELLS = ((math.pi / 2, 3, 300), (1.85, 2, 300))
ANNEAL_ITERS, ANNEAL_RESTARTS = 60, 1


class Search:
    """One item per search cell: the max-angle grid, then the cardinality searches."""

    name = "search"

    def items(self, seed: int, rnd: int) -> list[dict]:
        out = []
        for k, (n, D) in enumerate(SEARCH_ALPHA_CELLS):
            s = int(item_rng(seed, 2, rnd, k).integers(2**31))
            out.append({"kind": "alpha", "n": n, "D": D, "seed": s})
        for k, (theta, D, budget) in enumerate(SEARCH_MAX_CELLS):
            s = int(item_rng(seed, 2, rnd, 100 + k).integers(2**31))
            out.append({"kind": "max", "theta": theta, "D": D, "budget": budget, "seed": s})
        return out

    def warmup(self) -> list[dict]:
        return [{"kind": "alpha", "n": 4, "D": 2, "seed": 0, "iters": 30}]

    def run(self, item, lib, tr) -> dict:
        s = lib.search
        if item["kind"] == "alpha":
            res = tr("search.minimize_max_angle", s.minimize_max_angle, item["n"], item["D"],
                     iters=item.get("iters", ANNEAL_ITERS), restarts=ANNEAL_RESTARTS,
                     seed=item["seed"])
        else:
            res = tr("search.max_cardinality_search", s.max_cardinality_search,
                     item["theta"], item["D"], budget=item["budget"], seed=item["seed"])
        return {"result": res}

    def check(self, item, out):
        if item["kind"] == "alpha":
            C.search_alpha(out["result"], item["n"], item["D"])
        else:
            C.search_max(out["result"], item["theta"], item["D"])

    def facts(self, item, out) -> dict:
        res = out["result"]
        if item["kind"] == "alpha":
            return {"anneal_iters": res.iterations}
        return {"found_points": len(res.points), "budget": item["budget"]}

    def quality(self, items, outs) -> dict:
        alpha = [o["result"].achieved_angle for i, o in zip(items, outs) if i["kind"] == "alpha"]
        size = [len(o["result"].points) for i, o in zip(items, outs) if i["kind"] == "max"]
        return {"search.alpha_deg_mean": math.degrees(float(np.mean(alpha))),
                "search.size_mean": float(np.mean(size))}


# ---------------------------------------------------------------- library

class Library:
    """The `library` workload: certify, constructions and search cells in every round.

    The three parts stress different layers and each has its own item
    stream. They share one workload so that a run can last long enough to
    average over the machine's slow phases (see run.py) within the time
    allowed for all runs. Each item is tagged with the part that made it.
    """

    name = "library"
    ref_nominal_s = speed.KERNEL_NOMINAL_S

    def __init__(self):
        self.parts = (Certify(), Constructions(), Search())

    def reference(self) -> float:
        return speed.kernel_s()

    def _tag(self, per_part: list[list[dict]]) -> list[dict]:
        return [{**item, "part": p} for p, items in enumerate(per_part) for item in items]

    def items(self, seed: int, rnd: int) -> list[dict]:
        return self._tag([part.items(seed, rnd) for part in self.parts])

    def warmup(self) -> list[dict]:
        return self._tag([part.warmup() for part in self.parts])

    def run(self, item, lib, tr) -> dict:
        return self.parts[item["part"]].run(item, lib, tr)

    def check(self, item, out):
        self.parts[item["part"]].check(item, out)

    def facts(self, item, out) -> dict:
        return self.parts[item["part"]].facts(item, out)

    def quality(self, items, outs) -> dict:
        q = {}
        for p, part in enumerate(self.parts):
            mine = [(i, o) for i, o in zip(items, outs) if i["part"] == p]
            q.update(part.quality([i for i, _ in mine], [o for _, o in mine]))
        return q


# -------------------------------------------------------------------- cli

CLI_SUBCOMMANDS = ("bound", "table", "angle", "convex-position", "curvature", "cone-cover",
                   "pack-lines", "cover-lines", "ef-construct", "witness", "search-alpha")
# The subcommands a run times, every round: the start-up floor (`bound`), a
# file read (`angle`), Monte Carlo sampling (`curvature`) and the only one that
# needs `scipy.stats` (`cover-lines`). A call costs 1.1-1.9 s, so a run cannot
# repeat all eleven; each has a checked payload and a test in test_bench.py.
CLI_TIMED = ("bound", "angle", "curvature", "cover-lines")


def _dump(path: Path, obj):
    path.write_text(json.dumps(obj) + "\n")


def _random_rotation(rng, D: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(D, D)))
    return q * np.sign(np.diag(r))


def cli_inputs(seed: int, workdir: Path) -> list[dict]:
    """Write the input files and return one item per subcommand.

    The command lines are the same in every round, so each later call must
    print exactly the bytes of the first (criterion 14).
    """
    rng = item_rng(seed, 3, 0, 0)
    workdir.mkdir(parents=True, exist_ok=True)
    s = [str(int(x)) for x in rng.integers(2**31, size=4)]
    sphere = sphere_points(rng, 10, 3)
    below = below_theta_d(rng, 5, 3)
    hull = sphere_points(rng, 8, 3)
    w = rng.exponential(size=4) + 0.2
    interior = np.vstack([hull, (w / w.sum()) @ hull[:4]])
    eta, _ = cone_eta(C.brute_max_angle(below), 3)
    frame = _random_rotation(rng, 3)
    ef_rho = 0.9 * 0.5 * math.pi
    wit_pts = rng.normal(size=(9, 3))
    theta_deg = float(rng.uniform(91.0, 104.0))
    lo = int(rng.integers(91, 96))
    files = {"sphere": sphere, "below": below, "interior": interior, "witness": wit_pts}
    for name, pts in files.items():
        _dump(workdir / f"{name}.json", {"dim": 3, "points": pts.tolist()})
    _dump(workdir / "frame.json", {"lines": frame.tolist()})
    f = {name: str(workdir / f"{name}.json") for name in (*files, "frame")}
    argv = {
        "bound": ["--theta-deg", repr(theta_deg), "--dim", "3"],
        "table": ["--bound-grid", "--dims", "2..4", "--theta-deg", f"{lo}..{lo + 10}",
                  "--theta-step", "5"],
        "angle": ["--in", f["sphere"]],
        "convex-position": ["--in", f["interior"]],
        "curvature": ["--in", f["sphere"], "--samples", "100000", "--seed", s[0]],
        "cone-cover": ["--in", f["below"], "--eta", repr(eta)],
        "pack-lines": ["--m", "4", "--dim", "3", "--iters", "300", "--seed", s[1]],
        "cover-lines": ["--rho-deg", "70", "--dim", "3", "--probes", "20000", "--seed", s[2]],
        "ef-construct": ["--lines", f["frame"], "--rho", repr(ef_rho)],
        "witness": ["--in", f["witness"], "--lines", f["frame"], "--rho", "2.0"],
        "search-alpha": ["--n", "5", "--dim", "2", "--iters", "100", "--restarts", "1",
                         "--seed", s[3]],
    }
    data = {"sphere": sphere, "below": below, "interior": interior, "witness": wit_pts,
            "frame": frame, "theta": math.radians(theta_deg), "eta": eta, "ef_rho": ef_rho}
    return [{"sub": sub, "argv": [sub, *argv[sub]], "data": data} for sub in CLI_SUBCOMMANDS]


def run_cli(argv, env) -> tuple[int, bytes]:
    proc = subprocess.run([sys.executable, "-m", "anglebound", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120)
    return proc.returncode, proc.stdout


def _check_cli_payload(sub: str, data: dict, payload):
    if sub == "bound":
        C.theorem(0, 3, data["theta"], SimpleNamespace(
            bound=payload["bound"], theorem_applicable=payload["theorem_applicable"]))
    elif sub == "table":
        rows = list(csv.DictReader(io.StringIO(payload)))
        require(len(rows) == 3 * 3, f"table has {len(rows)} rows")
        for r in rows:
            if r["status"] == "ok":
                D, theta = int(r["dim"]), float(r["theta_rad"])
                expected = 1.0 / C.f_fraction(D - 1, C.eta_of_theta(theta, D - 1))
                require(abs(float(r["bound"]) - expected) <= 1e-8 * expected,
                        "table bound differs from the closed form")
    elif sub == "angle":
        require(C.same_angle(payload["max_angle"], C.min_cos(data["sphere"])),
                "angle output is not the max angle")
    elif sub == "convex-position":
        pts = data["interior"]
        verdict = SimpleNamespace(in_convex_position=payload["in_convex_position"],
                                  witness_point=np.array(payload.get("witness_point", [])),
                                  witness_simplex=np.array(payload.get("witness_simplex", [])))
        C.negative_verdict(pts, verdict, len(pts) - 1)
        wit = {k: np.array(v) if k != "angle" else v
               for k, v in payload["obtuse_witness"].items()}
        C.obtuse(SimpleNamespace(**wit), pts[-1], verdict.witness_simplex)
    elif sub == "curvature":
        C.fractions(SimpleNamespace(fractions=payload["fractions"], samples=payload["samples"]),
                    len(data["sphere"]), 100_000)
    elif sub == "cone-cover":
        require(payload["covered"] is True, "guaranteed cone cover refused")
        C.cones(data["below"], [SimpleNamespace(apex=np.array(c["apex"]), axis=np.array(c["axis"]),
                                                half_angle=c["half_angle"])
                                for c in payload["cones"]], data["eta"])
    elif sub == "pack-lines":
        C.lines(SimpleNamespace(lines=payload["lines"],
                                min_pairwise_angle=payload["min_pairwise_angle"]), 4, 3)
    elif sub == "cover-lines":
        C.covering(SimpleNamespace(lines=payload["lines"]), math.radians(70.0), 3,
                   np.random.default_rng(0))
    elif sub == "ef-construct":
        pts = np.array(payload["points"])
        require(len(pts) == 8, f"doubling gave {len(pts)} points, expected 8")
        c = C.min_cos(pts)
        require(C.same_angle(payload["max_angle"], c), "reported max angle is wrong")
        require(c >= math.cos(math.pi - data["ef_rho"]) - C.COS_TOL, "doubling breaks pi - rho")
    elif sub == "witness":
        wit = SimpleNamespace(**{k: np.array(v) if k != "angle" else v
                                 for k, v in payload.items() if k != "threshold"})
        C.triple_witness(data["witness"], wit, 2.0)
    elif sub == "search-alpha":
        res = SimpleNamespace(points=SimpleNamespace(points=np.array(payload["points"])),
                              achieved_angle=payload["achieved_angle"])
        C.search_alpha(res, 5, 2)


class Cli:
    """One fresh `python -m anglebound` process per item."""

    name = "cli"
    ref_nominal_s = speed.STARTUP_NOMINAL_S

    def __init__(self, env: dict, workdir: Path):
        self.env = env
        self.workdir = workdir
        self._items = None
        self._first_stdout: dict[tuple, bytes] = {}

    def reference(self) -> float:
        return speed.startup_s(self.env)

    def items(self, seed: int, rnd: int) -> list[dict]:
        """The timed subcommands, with the same command lines in every round."""
        if self._items is None:
            self._items = [i for i in cli_inputs(seed, self.workdir) if i["sub"] in CLI_TIMED]
        return self._items

    def warmup(self) -> list[dict]:
        return [{"sub": "bound", "argv": ["bound", "--theta-deg", "100", "--dim", "3"],
                 "data": {"theta": math.radians(100.0)}}]

    def run(self, item, lib, tr) -> dict:
        code, out = tr(f"cli.{item['sub']}", run_cli, item["argv"], self.env)
        return {"code": code, "stdout": out}

    def check(self, item, out):
        require(out["code"] == 0, f"exit code {out['code']}")
        first = self._first_stdout.setdefault(tuple(item["argv"]), out["stdout"])
        require(first == out["stdout"], "repeated call printed different bytes")
        text = out["stdout"].decode()
        _check_cli_payload(item["sub"], item["data"],
                           text if item["sub"] == "table" else json.loads(text))

    def facts(self, item, out) -> dict:
        return {}

    def quality(self, items, outs) -> dict:
        return {}


WORKLOADS = {"library": Library, "cli": Cli}


def python_floor_ms(env, repeats: int = 5) -> float:
    """Median wall time of a bare `python -c pass`."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return 1e3 * float(np.median(times))
