import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

from anglebound.bounds import cardinality_bound, theta_d
from anglebound import geometry, search
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
from conftest import digest


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

    def test_vertex_lists_keep_the_row_by_row_bytes(self):
        for dim in range(1, 7):
            for n in range(2**dim + 1):
                rows = np.zeros((n, dim))
                for i in range(n):
                    rows[i] = [(i >> b) & 1 for b in range(dim)]
                assert hypercube_vertices(dim, n).tobytes() == rows.tobytes()
            for n in range(2 * dim + 1):
                rows = np.zeros((n, dim))
                for i in range(n):
                    rows[i, i // 2] = 1.0 if i % 2 == 0 else -1.0
                assert cross_polytope_vertices(dim, n).tobytes() == rows.tobytes()


class TestAnneal:
    def test_each_proposal_is_scanned_once(self, monkeypatch):
        stacks = []
        ray_grams = geometry._ray_grams

        def counted(stack):
            stacks.append(np.array(stack))
            return ray_grams(stack)

        monkeypatch.setattr(geometry, "_ray_grams", counted)
        pts = np.random.default_rng(5).normal(size=(6, 3))
        _anneal(pts[None], 20, [np.random.default_rng(6)])
        # The start alone, then one (3, n, D) stack of the proposals per step;
        # the winner is not rescanned.
        assert [s.shape for s in stacks] == [(1, 6, 3)] + [(3, 6, 3)] * 20
        scans = Counter(p.tobytes() for s in stacks for p in s)
        assert sum(scans.values()) == 1 + 3 * 20
        assert max(scans.values()) == 1

    @pytest.mark.parametrize("n, D, restarts, starts", [
        (6, 3, 2, 4),  # the cross-polytope, the hypercube prefix and 2 random starts
        (5, 2, 2, 3),  # the pentagon and 2 random starts
        (10, 3, 1, 1),
    ])
    def test_starts_are_scanned_in_lockstep(self, monkeypatch, n, D, restarts, starts):
        stacks = []
        ray_grams = geometry._ray_grams

        def counted(stack):
            stacks.append(stack.shape)
            return ray_grams(stack)

        monkeypatch.setattr(geometry, "_ray_grams", counted)
        res = minimize_max_angle(n, D, iters=7, restarts=restarts, seed=1)
        # The starts in one stack, then one stack of every start's proposals
        # per step, then the winner's recomputed angle.
        assert res.restarts == starts
        assert stacks == [(starts, n, D)] + [(3 * starts, n, D)] * 7 + [(1, n, D)]

    def test_triple_entry_by_integers_draws_the_stream_of_choice(self):
        # _anneal picks a vertex of the current triple with t[rng.integers(3)],
        # the cheaper call drawing what rng.choice(list(t)) drew before.
        t = (4, 0, 7)
        a, b = np.random.default_rng(3), np.random.default_rng(3)
        assert ([int(a.choice(list(t))) for _ in range(10_000)]
                == [t[int(b.integers(3))] for _ in range(10_000)])
        assert a.random() == b.random()


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

    @pytest.mark.parametrize("n, D, kwargs, message", [
        (5, 2, {"iters": 0}, "iters must be at least 1, got 0"),
        (5, 2, {"iters": -3}, "iters must be at least 1, got -3"),
        (5, 3, {"restarts": -2}, "restarts must be non-negative, got -2"),
        (10, 3, {"restarts": 0},
         "restarts must be at least 1: no structured start has n=10 points in D=3, got 0"),
    ])
    def test_budgets_checked_on_entry(self, n, D, kwargs, message):
        with pytest.raises(OutOfRange, match=f"^{message}$"):
            minimize_max_angle(n, D, seed=1, **kwargs)

    def test_structured_starts_alone_need_no_restart(self):
        # The cross-polytope, the hypercube prefix and the square.
        res = minimize_max_angle(4, 2, iters=5, restarts=0, seed=1)
        assert res.restarts == 3 and res.iterations == 15


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

    def test_budget_checked_on_entry(self):
        with pytest.raises(OutOfRange, match="^budget must be non-negative, got -5$"):
            max_cardinality_search(math.pi / 2, 2, budget=-5)
        res = max_cardinality_search(math.pi / 2, 2, budget=0)
        assert res.iterations == 0 and len(res.points) == 4

    def test_stops_at_the_theorems_bound(self):
        # The bound at (1.85, D = 2) is 4.86, and the structured start has 4 points.
        res = max_cardinality_search(1.85, 2, budget=2000, seed=3)
        assert len(res.points) == 4
        assert res.iterations < 2000

    def test_bound_just_below_an_integer_allows_that_integer(self, monkeypatch):
        report = dataclasses.replace(cardinality_bound(1.85, 2), bound=math.nextafter(5.0, 0.0))
        monkeypatch.setattr(search, "cardinality_bound", lambda theta, D: report)
        res = max_cardinality_search(1.85, 2, budget=50, seed=3)
        assert res.iterations == 50

    def test_iterations_never_exceed_the_budget(self):
        # These budgets end inside a round of insertion attempts or its repair.
        over = [(seed, budget) for seed in range(40) for budget in (33, 61, 97, 300)
                if max_cardinality_search(2.6, 3, budget=budget, seed=seed).iterations > budget]
        assert over == []

    def test_right_angle_cube_grows_as_before(self):
        # The bound at (pi/2, D = 3) is 10.9, so the cube's 8 points do not stop
        # the search; the result is the one recorded before the bound applied.
        res = max_cardinality_search(math.pi / 2, 3, budget=300, seed=1)
        TestPinnedResults.check(
            res, 8, "0x1.921fb54442d18p+0", 300,
            "e9f28c6bc6e2644a82da4d74358847b9634525c2eafd7f827046303751bac2c5")


class TestPinnedResults:
    """SearchResults recorded before the anneal step scored its proposals in
    one stacked scan. The stacked scan and later speedups must return them
    bit for bit: points (SHA-256 of the little-endian float64 bytes), angle
    (float.hex), iterations and restarts."""

    @pytest.mark.parametrize("n, D, iters, restarts, seed, size, angle, iterations, pinned", [
        (9, 3, 60, 1, 11, 9, "0x1.1dc8f2cdb337ap+1", 60,
         "f21ebeefd3e3b923d8a3e43741784878904be752b6a68537ae288a5f65d92b53"),
        (10, 3, 60, 1, 12, 10, "0x1.273a0e7a824aep+1", 60,
         "c146108b4d3993eb684f4acc5968688f5ff7b26c21de890475813bb08eab9b67"),
        (5, 3, 200, 2, 13, 5, "0x1.7bb9cb3aa6f85p+0", 800,
         "6592dd3d2ff98d292b185121987f30de04f0f99bd9a62be53bf7c645b598b851"),
        (18, 4, 40, 1, 13, 18, "0x1.3ebdcc813fcc5p+1", 40,
         "b2a87c1fb0eaa4fe5ce4c1c89d8e631ceb166032e078f93d43317abad4c50238"),
        # 3 proposals x 30 vertices x 29^2 Gram entries span two kernel blocks.
        (30, 3, 15, 1, 17, 30, "0x1.825a793007ebep+1", 15,
         "63d6be092e7b5fc079341351edc3a8728cdf24cd939683a54a5f1ed66668be9b"),
        # Three to five starts in lockstep, the structured ones first. The
        # cross-polytope and the hypercube prefix tie at 90 deg in (4, 3), (6, 3),
        # (8, 4) and (7, 4); the earlier start keeps the tie.
        (4, 3, 60, 1, 2, 4, "0x1.0c152382d7367p+0", 240,
         "3081d7099ced077c368e6161b4b36e98e34d76ca5b7b801513910f1456e8f636"),
        (5, 2, 80, 2, 4, 5, "0x1.e28c731eb6951p+0", 240,
         "9197d9253f0bd00aacc484182a45da4774c7f9d835411337563400d1bc6fb5b0"),
        (6, 3, 100, 2, 3, 6, "0x1.921fb54442d18p+0", 400,
         "397b9cf5c341e2ab2a6cac4be2113bab2fe1329f6d85db8bd83ac88f6b98c0f7"),
        (8, 4, 80, 2, 5, 8, "0x1.921fb54442d18p+0", 320,
         "3953da82444da5c7199657a3654b9931ef1a79853fb971bafdd5623b87cc7080"),
        (7, 4, 50, 3, 6, 7, "0x1.921fb54442d18p+0", 250,
         "2274d69f164e190ebb8bea5e8a867dbb38a7faa7cc732be55961033b9c764488"),
    ])
    def test_minimize_max_angle(self, n, D, iters, restarts, seed, size, angle, iterations,
                                pinned):
        res = minimize_max_angle(n, D, iters=iters, restarts=restarts, seed=seed)
        self.check(res, size, angle, iterations, pinned)

    @pytest.mark.parametrize("theta, D, budget, seed, size, angle, pinned", [
        (2.0, 3, 300, 14, 9, "0x1.f79183fb158e8p+0",
         "50da7663b5d21e01cb31cd9a09efe471af0882a003972d4f92a4c304cf31f4e4"),
        (2.2, 2, 300, 16, 6, "0x1.0c152382d7366p+1",
         "6ce56e6617d1d8fa8b98323bf48697d54672032cf6e855e2810aed503a713fe2"),
    ])
    def test_max_cardinality_search(self, theta, D, budget, seed, size, angle, pinned):
        res = max_cardinality_search(theta, D, budget=budget, seed=seed)
        self.check(res, size, angle, budget, pinned)

    @staticmethod
    def check(res, size, angle, iterations, pinned):
        assert len(res.points) == size
        assert res.achieved_angle.hex() == angle
        assert res.iterations == iterations
        assert digest(res.points.points) == pinned
