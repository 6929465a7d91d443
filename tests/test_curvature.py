import itertools
import math

import numpy as np
import pytest

from anglebound.bounds import eta_of_theta, f_fraction, theta_d
from anglebound.curvature import (
    cone_cover_certificate,
    dekster_radius,
    gauss_bonnet_sum,
    min_enclosing_cap,
    normal_cone_fraction_mc,
)
from anglebound.errors import (
    CapTooSmall,
    NotConvexPosition,
    NotHemispherical,
    OutOfRange,
)
from anglebound.geometry import PointSet, geodesic_diameter, max_angle
from anglebound.sampling import unit_directions
from conftest import nnls_min_enclosing_cap, planar_interior_angles, sample_cap_points

SQUARE = PointSet([[0, 0], [1, 0], [1, 1], [0, 1]])
CUBE = PointSet([[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)])


def brute_force_cap(H):
    """Smallest covering cap on S^2 among caps determined by <= 3 support points."""
    H = np.asarray(H, dtype=float)
    best = None
    candidates = [(h, 0.0) for h in H]
    for u, v in itertools.combinations(H, 2):
        s = u + v
        if np.linalg.norm(s) < 1e-12:
            continue
        c = s / np.linalg.norm(s)
        candidates.append((c, math.acos(np.clip(u @ c, -1, 1))))
    for u, v, w in itertools.combinations(H, 3):
        nrm = np.cross(u - v, u - w)
        if np.linalg.norm(nrm) < 1e-12:
            continue
        for sign in (1.0, -1.0):
            c = sign * nrm / np.linalg.norm(nrm)
            candidates.append((c, math.acos(np.clip(u @ c, -1, 1))))
    for c, r in candidates:
        if np.min(H @ c) >= math.cos(r) - 1e-9:
            if best is None or r < best:
                best = r
    return best


class TestSampling:
    def test_partition_independence(self):
        full = unit_directions(3, 1000, seed=9)
        part = np.vstack([
            unit_directions(3, 400, seed=9, start=0),
            unit_directions(3, 600, seed=9, start=400),
        ])
        np.testing.assert_array_equal(full, part)

    def test_unit_norm_and_mean_isotropy(self):
        U = unit_directions(5, 20000, seed=4)
        np.testing.assert_allclose(np.linalg.norm(U, axis=1), 1.0, atol=1e-12)
        assert np.linalg.norm(U.mean(axis=0)) < 0.02


class TestNormalConeFraction:
    def test_square_symmetry(self):
        f, se = normal_cone_fraction_mc(SQUARE, 1, 200_000, seed=5)
        assert abs(f - 0.25) <= 4 * se

    def test_cube_symmetry(self):
        f, se = normal_cone_fraction_mc(CUBE, 3, 200_000, seed=6)
        assert abs(f - 0.125) <= 4 * se

    def test_equilateral_triangle_exterior_angle(self):
        tri = PointSet([[0, 0], [1, 0], [0.5, math.sqrt(3) / 2]])
        f, se = normal_cone_fraction_mc(tri, 0, 200_000, seed=7)
        assert abs(f - 1.0 / 3.0) <= 4 * se

    def test_requires_convex_position(self):
        bad = PointSet([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]])
        with pytest.raises(NotConvexPosition):
            normal_cone_fraction_mc(bad, 0, 2000, seed=1)

    def test_requires_enough_samples(self):
        with pytest.raises(OutOfRange):
            normal_cone_fraction_mc(SQUARE, 0, 10, seed=1)


class TestGaussBonnetSum:
    def test_fractions_sum_to_one_exactly(self):
        for seed, samples in [(1, 10_000), (2, 65_536), (3, 999_983)]:
            est = gauss_bonnet_sum(SQUARE, samples, seed)
            assert math.fsum(est.fractions) == 1.0

    def test_simplex_symmetry(self):
        tet = PointSet([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]])
        est = gauss_bonnet_sum(tet, 200_000, seed=8)
        for f, se in zip(est.fractions, est.std_error):
            assert abs(f - 0.25) <= 4 * se

    def test_cube_symmetry(self):
        est = gauss_bonnet_sum(CUBE, 200_000, seed=9)
        for f, se in zip(est.fractions, est.std_error):
            assert abs(f - 0.125) <= 4 * se

    def test_planar_polygon_exterior_angles(self):
        rng = np.random.default_rng(10)
        ang = np.sort(rng.uniform(0, 2 * math.pi, size=6))
        poly = np.column_stack([np.cos(ang), np.sin(ang)])
        ps = PointSet(poly)
        est = gauss_bonnet_sum(ps, 400_000, seed=11)
        interior = planar_interior_angles(poly)
        for f, se, a in zip(est.fractions, est.std_error, interior):
            assert abs(f - (math.pi - a) / (2 * math.pi)) <= 4 * se + 1e-9

    def test_matches_per_vertex_estimator(self):
        rng = np.random.default_rng(12)
        for _ in range(4):
            D = int(rng.integers(2, 5))
            ang = np.sort(rng.uniform(0, 2 * math.pi, size=6))
            if D == 2:
                pts = np.column_stack([np.cos(ang), np.sin(ang)])
            else:
                pts = rng.normal(size=(D + 3, D))
                pts /= np.linalg.norm(pts, axis=1)[:, None]
            from anglebound.convexity import is_convex_position
            if not is_convex_position(PointSet(pts)).in_convex_position:
                continue
            ps = PointSet(pts)
            est = gauss_bonnet_sum(ps, 120_000, seed=13)
            for i in range(len(ps)):
                f, se = normal_cone_fraction_mc(ps, i, 120_000, seed=14)
                combined = math.hypot(se, est.std_error[i])
                assert abs(f - est.fractions[i]) <= 4 * combined + 1e-9

    def test_flat_hull_rejected(self):
        flat = PointSet([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]])
        from anglebound.errors import DegenerateHull
        with pytest.raises(DegenerateHull):
            gauss_bonnet_sum(flat, 2000, seed=1)


class TestDeksterRadius:
    def test_zero_diameter(self):
        assert dekster_radius(0.0, 3) == 0.0

    @pytest.mark.parametrize("d", [1, 2, 4, 8])
    def test_full_range_boundary(self, d):
        assert dekster_radius(theta_d(d), d) == pytest.approx(math.pi / 2, abs=1e-9)

    def test_matches_eta_of_theta(self):
        assert dekster_radius(math.pi / 2, 2) == pytest.approx(0.9553166181245093, abs=1e-14)
        for d in [1, 2, 3, 6]:
            for diam in [0.2, 0.9, 1.4]:
                assert dekster_radius(diam, d) == eta_of_theta(diam, d)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            dekster_radius(theta_d(2) + 1e-6, 2)


class TestMinEnclosingCap:
    def test_singleton(self):
        cap = min_enclosing_cap([[1.0, 0.0, 0.0]])
        assert cap.radius == 0.0

    def test_two_vectors_bisector(self):
        phi = 0.7
        vecs = [[math.cos(phi), math.sin(phi)], [math.cos(phi), -math.sin(phi)]]
        cap = min_enclosing_cap(vecs)
        assert cap.radius == pytest.approx(phi, abs=1e-9)
        np.testing.assert_allclose(cap.center, [1.0, 0.0], atol=1e-9)

    def test_orthonormal_triple(self):
        cap = min_enclosing_cap(np.eye(3))
        assert cap.radius == pytest.approx(math.acos(1 / math.sqrt(3)), abs=1e-9)

    def test_optimal_on_small_inputs(self):
        rng = np.random.default_rng(15)
        for _ in range(40):
            n = int(rng.integers(2, 8))
            H = sample_cap_points(rng, 3, n, cap_radius=1.0)
            cap = min_enclosing_cap(H)
            expected = brute_force_cap(H)
            assert cap.radius == pytest.approx(expected, abs=1e-7)
            assert np.min(H @ cap.center) >= math.cos(cap.radius) - 1e-9

    @pytest.mark.parametrize("half", [1e-6, 1e-4])
    def test_small_caps_keep_relative_accuracy(self, half):
        vecs = [[math.cos(half), math.sin(half)], [math.cos(half), -math.sin(half)]]
        assert min_enclosing_cap(vecs).radius == pytest.approx(half, rel=1e-9)

    def test_radius_reaches_every_ray(self):
        rng = np.random.default_rng(18)
        for cap_radius in (1e-6, 1e-3, 0.3, 1.2):
            for _ in range(20):
                H = sample_cap_points(rng, 3, int(rng.integers(2, 9)), cap_radius=cap_radius)
                cap = min_enclosing_cap(H)
                chords = np.linalg.norm(H - cap.center, axis=1)
                assert all(cap.radius >= 2 * math.asin(c / 2) for c in chords)

    def test_hemisphere_rejected(self):
        with pytest.raises(NotHemispherical):
            min_enclosing_cap(np.vstack([np.eye(3), -np.eye(3)]))

    def test_dekster_containment_end_to_end(self):
        rng = np.random.default_rng(16)
        for d in (2, 3):
            for _ in range(200):
                n = int(rng.integers(2, 9))
                H = sample_cap_points(rng, d + 1, n, cap_radius=0.95 * theta_d(d) / 2)
                diam = geodesic_diameter(H)
                cap = min_enclosing_cap(H)
                assert cap.radius <= dekster_radius(diam, d) + 1e-7

    def test_high_dimensional_fallback(self):
        rng = np.random.default_rng(17)
        H = sample_cap_points(rng, 16, 30, cap_radius=0.6)
        cap = min_enclosing_cap(H)
        assert np.min(H @ cap.center) >= math.cos(cap.radius) - 1e-6

    @pytest.mark.parametrize("D", [8, 12, 16, 20])
    def test_matches_nnls_oracle(self, D):
        rng = np.random.default_rng(17)
        H = sample_cap_points(rng, D, 30, cap_radius=0.6)
        cap = min_enclosing_cap(H)
        center, radius = nnls_min_enclosing_cap(H)
        assert cap.radius == pytest.approx(radius, abs=1e-9)
        np.testing.assert_allclose(cap.center, center, atol=1e-9)
        assert np.min(H @ cap.center) >= math.cos(cap.radius) - 1e-12


class TestConeCover:
    def test_square_passes_just_above_quarter_turn(self):
        cones = cone_cover_certificate(SQUARE, math.pi / 4 + 0.01)
        assert len(cones) == 4
        for cone in cones:
            for p in SQUARE.points:
                assert cone.contains(p)

    def test_square_fails_at_small_eta(self):
        with pytest.raises(CapTooSmall) as err:
            cone_cover_certificate(SQUARE, 0.1)
        assert err.value.required_radius == pytest.approx(math.pi / 4, abs=1e-9)

    def test_regular_simplex_at_dekster_radius(self):
        tet = PointSet([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]])
        eta = dekster_radius(max_angle(tet), 2) + 0.01
        cones = cone_cover_certificate(tet, eta)
        assert len(cones) == 4

    def test_angle_capped_sets_cover_and_obey_bound(self):
        # Sets with max angle theta below theta_(D-1) admit the per-vertex
        # cone covering at half-angle eta(theta), and their size respects the
        # reciprocal-fraction bound.
        from anglebound.bounds import cardinality_bound
        from anglebound.geometry import max_angle_triple
        rng = np.random.default_rng(20)
        for D, n in [(2, 4), (3, 4), (3, 5), (4, 5)]:
            produced = 0
            while produced < 15:
                pts = rng.normal(size=(n, D))
                theta = max_angle_triple(pts)[0]
                if not 0.0 < theta < theta_d(D):
                    continue
                produced += 1
                ps = PointSet(pts)
                eta = eta_of_theta(theta, D - 1)
                cones = cone_cover_certificate(ps, eta)
                assert len(cones) == n
                assert n <= cardinality_bound(theta, D).bound + 1e-9

    def test_links_to_quadrature_fraction(self):
        # Cone-like polytope: apex at the origin plus a dense ring of unit
        # vectors at angle eta from an axis. The normal-cone fraction at the
        # apex approaches the polar-cap fraction f_(D-1)(eta).
        eta = 0.5
        D = 3
        k = 128
        ang = 2 * math.pi * np.arange(k) / k
        ring = np.column_stack([
            math.sin(eta) * np.cos(ang),
            math.sin(eta) * np.sin(ang),
            np.full(k, math.cos(eta)),
        ])
        ps = PointSet(np.vstack([np.zeros(3), ring]))
        f, se = normal_cone_fraction_mc(ps, 0, 300_000, seed=19)
        expected = f_fraction(D - 1, eta)
        assert abs(f - expected) <= 4 * se + 2e-3
