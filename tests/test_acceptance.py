"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines
as they complete. Tolerances are pinned in the assertions.
"""

import json
import math
from contextlib import contextmanager

import numpy as np
import pytest

from anglebound.bounds import (
    asymptotic_envelope,
    cardinality_bound,
    eta_of_theta,
    f_fraction,
    theta_d,
)
from anglebound.cli import dispatch
from anglebound.constructions import LineArrangement, ef_doubling, obtuse_triple_witness
from anglebound.convexity import is_convex_position, min_pairwise_dot, obtuse_witness
from anglebound.curvature import (
    dekster_radius,
    gauss_bonnet_sum,
    min_enclosing_cap,
)
from anglebound.geometry import PointSet, angle_at, geodesic_diameter, max_angle
from anglebound.search import max_cardinality_search, minimize_max_angle
from conftest import (
    brute_max_angle,
    oracle_convex_position,
    planar_interior_angles,
    random_rotation,
    sample_cap_points,
    unit_simplex,
)

SEED = 20240


@contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except Exception:
        print(f"FAIL criterion {num:2d}: {desc}")
        raise
    print(f"PASS criterion {num:2d}: {desc}")


def test_criterion_01_sharp_planar_values():
    with criterion(1, "planar bounds 2, 3, 4 within 1e-9 and 6 at the boundary"):
        assert abs(cardinality_bound(1e-9, 2).bound - 2.0) <= 1e-9
        assert abs(cardinality_bound(math.pi / 3, 2).bound - 3.0) <= 1e-9
        assert abs(cardinality_bound(math.pi / 2, 2).bound - 4.0) <= 1e-9
        boundary = cardinality_bound(2 * math.pi / 3, 2)
        assert abs(boundary.bound - 6.0) <= 1e-9
        assert boundary.theorem_applicable is False


def test_criterion_02_right_angle_three_dims():
    with criterion(2, "bound(pi/2, 3) in [10.85, 10.95]"):
        rep = cardinality_bound(math.pi / 2, 3)
        assert 10.85 <= rep.bound <= 10.95
        assert rep.theorem_applicable is True


def test_criterion_03_quadrature_vs_closed_forms():
    with criterion(3, "f_1, f_2, f_3 match closed forms to 1e-10 at 50 points"):
        def f1(e):
            return 0.5 - e / math.pi

        def f2(e):
            return 0.5 * (1.0 - math.cos(math.pi / 2 - e))

        def f3(e):
            x = math.pi / 2 - e
            return (x / 2 - math.sin(2 * x) / 4) / (math.pi / 2)

        for d, closed in [(1, f1), (2, f2), (3, f3)]:
            for eta in np.linspace(0.0, math.pi / 2, 50):
                assert abs(f_fraction(d, float(eta)) - closed(float(eta))) <= 1e-10


def test_criterion_04_monotonicity():
    with criterion(4, "f decreasing in eta and d; bound nondecreasing in D"):
        grid = np.arange(0.0, 1.5001, 0.1)
        for d in [1, 2, 3, 5, 10]:
            vals = [f_fraction(d, float(e)) for e in grid]
            assert all(b - a < 0 for a, b in zip(vals, vals[1:]))
        for eta in [0.2, 0.8, 1.2]:
            vals = [f_fraction(d, eta) for d in range(1, 21)]
            assert all(b < a for a, b in zip(vals, vals[1:]))
        bounds = [cardinality_bound(1.7, D).bound for D in range(2, 9)]
        assert all(b >= a - 1e-12 for a, b in zip(bounds, bounds[1:]))


def test_criterion_05_claim_envelope():
    with criterion(5, "1/f_d(eta_d(pi/2)) <= 1.5 * 2 (pi/2)^(2d-1) d^(d/2), d = 2..40"):
        for d in range(2, 41):
            bound = 1.0 / f_fraction(d, eta_of_theta(math.pi / 2, d))
            assert bound <= 1.5 * asymptotic_envelope(d)


def test_criterion_06_interior_point_angle_estimates():
    with criterion(6, "10^4 random simplices obey min pairwise dot <= -1/d (+1e-9)"):
        rng = np.random.default_rng(SEED)
        per_d = 2000
        for d in range(2, 7):
            produced = 0
            while produced < per_d:
                batch = per_d - produced
                V = rng.normal(size=(batch, d, d))
                lam = rng.exponential(size=(batch, d)) + 0.05
                v0 = -np.einsum("bi,bij->bj", lam, V)
                pts = np.concatenate([v0[:, None, :], V], axis=1)
                norms = np.linalg.norm(pts, axis=2)
                ok = np.min(norms, axis=1) > 1e-6
                pts = pts[ok]
                norms = norms[ok]
                rays = pts / norms[:, :, None]
                gram = np.einsum("bik,bjk->bij", rays, rays)
                iu, ju = np.triu_indices(d + 1, k=1)
                min_dots = gram[:, iu, ju].min(axis=1)
                assert np.all(min_dots <= -1.0 / d + 1e-9)
                produced += pts.shape[0]
            # Regular simplex attains the bound ...
            regular = unit_simplex(d)
            assert abs(min_pairwise_dot(regular) - (-1.0 / d)) <= 1e-9
            # ... and perturbing a vertex drops strictly below it.
            perturbed = regular.copy()
            perturbed[0] += 1e-3 * rng.normal(size=d)
            perturbed[0] /= np.linalg.norm(perturbed[0])
            assert min_pairwise_dot(perturbed) < -1.0 / d - 1e-9


def _rejection_sample_below(rng, n, D, cap):
    while True:
        pts = rng.normal(size=(n, D))
        if brute_max_angle(pts) < cap and max_angle(PointSet(pts)) < cap:
            return pts


def test_criterion_07_convex_position_equivalence():
    with criterion(7, "angle-capped sets are in convex position; interior points witnessed"):
        rng = np.random.default_rng(SEED + 1)
        sizes = {2: (3, 4), 3: (4, 5), 4: (5, 6)}
        oracle_budget = 100
        for D, ns in sizes.items():
            cap = theta_d(D)
            for idx in range(1000):
                n = ns[idx % 2]
                pts = _rejection_sample_below(rng, n, D, cap)
                verdict = is_convex_position(PointSet(pts))
                assert verdict.in_convex_position
                if idx < oracle_budget // 2:
                    assert oracle_convex_position(pts)
        # Sets with a strictly interior point: verdict false + verified witness.
        for idx in range(1000):
            D = 2 + idx % 3
            hull = rng.normal(size=(D + 3, D))
            w = rng.exponential(size=D + 3) + 0.1
            w /= w.sum()
            inner = w @ hull
            pts = np.vstack([hull, inner])
            verdict = is_convex_position(PointSet(pts))
            assert not verdict.in_convex_position
            wit = obtuse_witness(verdict.witness_point, verdict.witness_simplex)
            k = verdict.witness_simplex.shape[0] - 1
            rays = (verdict.witness_simplex - wit.v)
            rays = rays / np.linalg.norm(rays, axis=1)[:, None]
            assert min_pairwise_dot(rays) <= -1.0 / k + 1e-9
            assert wit.angle >= math.acos(min(1.0, -1.0 / k + 1e-9)) - 1e-12
            assert wit.angle == angle_at(wit.vi, wit.v, wit.vj)
            if idx < oracle_budget:
                assert not oracle_convex_position(pts)


def test_criterion_08_gauss_bonnet():
    with criterion(8, "shared-sample fractions sum to 1 exactly; symmetric shapes within 4 sigma"):
        square = PointSet([[0, 0], [1, 0], [1, 1], [0, 1]])
        cube = PointSet([[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)])
        est_sq = gauss_bonnet_sum(square, 1_000_000, seed=SEED + 2)
        est_cube = gauss_bonnet_sum(cube, 1_000_000, seed=SEED + 3)
        assert math.fsum(est_sq.fractions) == 1.0
        assert math.fsum(est_cube.fractions) == 1.0
        for f, se in zip(est_sq.fractions, est_sq.std_error):
            assert abs(f - 0.25) <= 4 * se
        for f, se in zip(est_cube.fractions, est_cube.std_error):
            assert abs(f - 0.125) <= 4 * se
        rng = np.random.default_rng(SEED + 4)
        for _ in range(3):
            ang = np.sort(rng.uniform(0, 2 * math.pi, size=6))
            while np.min(np.diff(ang)) < 0.05:
                ang = np.sort(rng.uniform(0, 2 * math.pi, size=6))
            poly = np.column_stack([np.cos(ang), np.sin(ang)])
            est = gauss_bonnet_sum(PointSet(poly), 1_000_000, seed=SEED + 5)
            assert math.fsum(est.fractions) == 1.0
            interior = planar_interior_angles(poly)
            for f, se, a in zip(est.fractions, est.std_error, interior):
                assert abs(f - (math.pi - a) / (2 * math.pi)) <= 4 * se + 1e-9


def test_criterion_09_dekster_containment():
    with criterion(9, "enclosing-cap radius <= diameter-derived radius + 1e-7"):
        rng = np.random.default_rng(SEED + 6)
        for d in (2, 3):
            for _ in range(1000):
                n = int(rng.integers(2, 9))
                cap_r = float(rng.uniform(0.05, 0.98 * theta_d(d) / 2))
                H = sample_cap_points(rng, d + 1, n, cap_radius=cap_r)
                diam = geodesic_diameter(H)
                cap = min_enclosing_cap(H)
                assert cap.radius <= dekster_radius(diam, d) + 1e-7


def _check_theorem(points, D):
    theta = max_angle(PointSet(points)) if not isinstance(points, PointSet) else max_angle(points)
    pts = points.points if isinstance(points, PointSet) else points
    n = pts.shape[0]
    if theta <= 0.0 or theta >= theta_d(D):
        return 0
    assert n <= cardinality_bound(theta, D).bound + 1e-9
    return 1


def test_criterion_10_theorem_end_to_end():
    with criterion(10, "no produced set with max angle below theta_D exceeds the bound"):
        rng = np.random.default_rng(SEED + 7)
        checked = 0
        for _ in range(300):
            D = int(rng.integers(2, 5))
            n = int(rng.integers(3, 9))
            checked += _check_theorem(rng.normal(size=(n, D)), D)
        # Rejection-sampled sets are below theta_D by construction, so the
        # theorem check is guaranteed to fire on them.
        for _ in range(20):
            for D, n in [(2, 4), (3, 5), (4, 5)]:
                checked += _check_theorem(_rejection_sample_below(rng, n, D, theta_d(D)), D)
        for n, D in [(3, 2), (4, 2), (5, 2), (4, 3), (6, 3), (8, 3)]:
            res = minimize_max_angle(n, D, iters=300, restarts=2, seed=SEED)
            checked += _check_theorem(res.points, D)
        for theta, D in [(math.pi / 2, 2), (math.pi / 2, 3), (1.85, 2)]:
            res = max_cardinality_search(theta, D, budget=2000, seed=SEED)
            checked += _check_theorem(res.points, D)
        perp = LineArrangement(dim=2, lines=np.array([[1.0, 0.0], [0.0, 1.0]]))
        checked += _check_theorem(ef_doubling(perp, 1.4), 2)
        cube = np.array([[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)], float)
        checked += _check_theorem(cube, 3)
        assert checked >= 100  # the sweep must actually exercise the theorem


def test_criterion_11_ef_doubling():
    with criterion(11, "doubling yields 8 points under pi - 1.0 and 4 under pi - 1.4"):
        ang = np.array([0.0, math.pi / 3, 2 * math.pi / 3])
        triple = LineArrangement(dim=2, lines=np.column_stack([np.cos(ang), np.sin(ang)]))
        ps = ef_doubling(triple, 1.0)
        assert len(ps) == 8
        assert brute_max_angle(ps.points) <= math.pi - 1.0
        perp = LineArrangement(dim=2, lines=np.array([[1.0, 0.0], [0.0, 1.0]]))
        ps = ef_doubling(perp, 1.4)
        assert len(ps) == 4
        assert brute_max_angle(ps.points) <= math.pi - 1.4


def test_criterion_12_covering_witness():
    with criterion(12, "100 randomized coverings yield triples with angle >= pi - rho - 1e-9"):
        rng = np.random.default_rng(SEED + 8)
        done = 0
        while done < 100:
            m = 1 + done % 3
            if m == 1:
                base = np.array([[1.0, 0.0]])
                D = 2
            elif m == 2:
                base = np.eye(2)
                D = 2
            else:
                if done % 2 == 0:
                    ang = np.array([0.0, math.pi / 3, 2 * math.pi / 3])
                    base = np.column_stack([np.cos(ang), np.sin(ang)])
                    D = 2
                else:
                    base = np.eye(3)
                    D = 3
            Q = random_rotation(rng, D)
            arr = LineArrangement(dim=D, lines=base @ Q.T)
            rho_build = 0.9 * arr.min_pairwise_angle
            core = ef_doubling(arr, rho_build).points
            diam = np.max(np.linalg.norm(core[:, None] - core[None, :], axis=2))
            extra = core[0] + 100.0 * diam * arr.lines[0]
            pts = np.vstack([core, extra])
            min_gap = np.min(np.linalg.norm(
                pts[:, None] - pts[None, :], axis=2)[~np.eye(len(pts), dtype=bool)])
            pts = pts + rng.normal(scale=1e-7 * min_gap, size=pts.shape)
            pts = pts * float(rng.uniform(0.5, 2.0)) + rng.normal(size=D)
            A = PointSet(pts)
            rho_w = float(rng.uniform(0.2, 0.5))
            assert len(A) == 2**m + 1
            wit = obtuse_triple_witness(A, arr, rho_w)
            assert wit.angle >= math.pi - rho_w - 1e-9
            assert wit.angle == angle_at(wit.vi, wit.v, wit.vj)
            done += 1


def test_criterion_13_search_sanity():
    with criterion(13, "search reaches pi/3 for triples and for 4 points in space"):
        for D in (2, 3):
            res = minimize_max_angle(3, D, iters=1000, restarts=3, seed=SEED)
            assert res.achieved_angle <= math.pi / 3 + 1e-3
        res = minimize_max_angle(4, 3, iters=1000, restarts=3, seed=SEED)
        assert res.achieved_angle <= math.pi / 3 + 1e-2
        # Four points in R^3 (regular tetrahedron) stay at 60 degrees, far
        # below the 109.5-degree figure sometimes quoted for this minimax.
        print(f"  empirical alpha_3(4) = {math.degrees(res.achieved_angle):.4f} deg "
              f"(tetrahedron: every triple is an equilateral face)")


def test_criterion_14_reproducibility(tmp_path, capsys):
    with criterion(14, "identical CLI invocations produce byte-identical outputs"):
        out_path = tmp_path / "run.json"
        args = ["search-max", "--theta-deg", "90", "--dim", "3", "--budget", "800",
                "--seed", "13", "--out", str(out_path)]
        assert dispatch(args) == 0
        first = out_path.read_bytes()
        first_manifest = (tmp_path / "run.manifest.json").read_bytes()
        assert dispatch(args) == 0
        assert out_path.read_bytes() == first
        assert (tmp_path / "run.manifest.json").read_bytes() == first_manifest
        capsys.readouterr()
        assert dispatch(["bound", "--theta-deg", "107", "--dim", "4"]) == 0
        one = capsys.readouterr().out
        assert dispatch(["bound", "--theta-deg", "107", "--dim", "4"]) == 0
        two = capsys.readouterr().out
        assert one == two
        payload = json.loads(one)
        # theta_4 = 104.48 deg < 107 deg < theta_3 = 109.47 deg: the formula
        # evaluates but the strict hypothesis fails.
        assert payload["theorem_applicable"] is False
