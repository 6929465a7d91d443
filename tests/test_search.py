import math
from collections import Counter

import numpy as np
import pytest

from anglebound.bounds import cardinality_bound, theta_d
from anglebound import geometry
from anglebound.errors import OutOfRange
from anglebound.geometry import max_angle
from anglebound.search import (
    _anneal,
    cross_polytope_vertices,
    hypercube_vertices,
    max_cardinality_search,
    minimize_max_angle,
    regular_simplex,
)


class TestStructuredConfigurations:
    def test_regular_simplex_dots(self):
        for d in (2, 3, 5):
            pts = regular_simplex(d)
            gram = pts @ pts.T
            off = gram[~np.eye(d + 1, dtype=bool)]
            np.testing.assert_allclose(off, -1.0 / d, atol=1e-12)

    def test_hypercube_prefix(self):
        pts = hypercube_vertices(3, 5)
        assert pts.shape == (5, 3)
        assert set(map(tuple, pts)) <= {tuple(map(float, (i, j, k)))
                                        for i in (0, 1) for j in (0, 1) for k in (0, 1)}

    def test_cross_polytope_prefix(self):
        pts = cross_polytope_vertices(3, 4)
        np.testing.assert_array_equal(pts, [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]])


class TestAnneal:
    def test_each_proposal_is_scanned_once(self, monkeypatch):
        scans = Counter()
        ray_grams = geometry._ray_grams

        def counted(pts):
            scans[np.ascontiguousarray(pts).tobytes()] += 1
            return ray_grams(pts)

        monkeypatch.setattr(geometry, "_ray_grams", counted)
        pts = np.random.default_rng(5).normal(size=(6, 3))
        _anneal(pts, 20, np.random.default_rng(6))
        # The start, then three proposals per step; the winner is not rescanned.
        assert sum(scans.values()) == 1 + 3 * 20
        assert max(scans.values()) == 1


class TestMinimizeMaxAngle:
    def test_three_points_reach_equilateral(self):
        for D in (2, 3):
            res = minimize_max_angle(3, D, iters=400, restarts=2, seed=1)
            assert res.achieved_angle <= math.pi / 3 + 1e-3

    def test_four_points_planar_reach_square(self):
        res = minimize_max_angle(4, 2, iters=400, restarts=2, seed=1)
        assert res.achieved_angle <= math.pi / 2 + 1e-2

    def test_four_points_in_space_reach_tetrahedron(self):
        res = minimize_max_angle(4, 3, iters=400, restarts=2, seed=1)
        assert res.achieved_angle <= math.pi / 3 + 1e-2

    def test_achieved_angle_is_recomputed(self):
        res = minimize_max_angle(5, 2, iters=300, restarts=2, seed=2)
        assert res.achieved_angle == max_angle(res.points)

    def test_reproducible(self):
        a = minimize_max_angle(5, 3, iters=300, restarts=2, seed=7)
        b = minimize_max_angle(5, 3, iters=300, restarts=2, seed=7)
        np.testing.assert_array_equal(a.points.points, b.points.points)
        assert a.achieved_angle == b.achieved_angle

    @pytest.mark.parametrize("D", [2, 3])
    def test_empirical_minimax_monotone_in_n(self, D):
        vals = [
            minimize_max_angle(n, D, iters=300, restarts=2, seed=3).achieved_angle
            for n in range(3, 9)
        ]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_consistent_with_cardinality_bound(self):
        for n, D in [(4, 2), (4, 3), (6, 3)]:
            res = minimize_max_angle(n, D, iters=300, restarts=2, seed=4)
            theta = res.achieved_angle
            if 0 < theta < theta_d(D):
                assert len(res.points) <= cardinality_bound(theta, D).bound + 1e-9

    def test_rejects_tiny_problems(self):
        with pytest.raises(OutOfRange):
            minimize_max_angle(2, 2)


class TestMaxCardinalitySearch:
    def test_right_angle_plane_reaches_square(self):
        res = max_cardinality_search(math.pi / 2, 2, budget=2000, seed=1)
        assert len(res.points) >= 4
        assert res.achieved_angle <= math.pi / 2

    def test_right_angle_space_reaches_cube(self):
        res = max_cardinality_search(math.pi / 2, 3, budget=2000, seed=1)
        assert len(res.points) >= 8
        assert res.achieved_angle <= math.pi / 2

    def test_respects_cap_and_bound(self):
        theta = 2 * math.pi / 3 - 0.05
        res = max_cardinality_search(theta, 2, budget=4000, seed=2)
        assert res.achieved_angle <= theta
        assert len(res.points) <= cardinality_bound(theta, 2).bound + 1e-9

    def test_reproducible(self):
        a = max_cardinality_search(1.8, 3, budget=1500, seed=9)
        b = max_cardinality_search(1.8, 3, budget=1500, seed=9)
        np.testing.assert_array_equal(a.points.points, b.points.points)

    def test_theta_range_enforced(self):
        with pytest.raises(OutOfRange):
            max_cardinality_search(0.0, 2)
        with pytest.raises(OutOfRange):
            max_cardinality_search(math.pi, 2)
