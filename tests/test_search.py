import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

from anglebound.bounds import cardinality_bound, theta_d
from anglebound import geometry, search
from anglebound.errors import OutOfRange
from anglebound.geometry import max_angle, max_angle_triple
from anglebound.search import (
    _anneal,
    _spreads,
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


def largest_passing_candidate(theta, D):
    """Brute force: every structured candidate in search's order (simplex,
    cross-polytope, hypercube, then planar polygons of 64 down to 3 points),
    the largest whose max angle is at most theta, the first on ties; else two
    points of the simplex."""
    candidates = [regular_simplex(D)]
    if theta >= math.pi / 2 - 1e-12:
        candidates += [cross_polytope_vertices(D, 2 * D), hypercube_vertices(D, 2**D)]
    if D == 2:
        for n in range(64, 2, -1):
            ang = 2.0 * math.pi * np.arange(n) / n
            candidates.append(np.column_stack([np.cos(ang), np.sin(ang)]))
    best = regular_simplex(D)[:2]
    for c in candidates:
        if max_angle_triple(c)[0] <= theta and len(c) > len(best):
            best = c
    return best


# A grid of caps, with the polygons' own angles pi - 2 pi / n and their
# neighbouring floats, where the polygon count cut-off is decided.
POLYGON_ANGLES = [math.pi - 2.0 * math.pi / n for n in range(3, 41)]
CAPS = sorted({float(t) for a in POLYGON_ANGLES for t in (np.nextafter(a, 0), a, np.nextafter(a, 4))}
              | set(np.linspace(0.05, 3.0, 120).tolist()) | {math.pi / 2 - 1e-12, 2.5})


class TestLargestStructured:
    def test_matches_the_largest_passing_candidate(self):
        for D in (2, 3, 4, 5):
            for theta in CAPS:
                got = search._largest_structured_under(theta, D)
                want = largest_passing_candidate(theta, D)
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), (D, theta)

    def test_no_candidate_is_scanned_twice(self, monkeypatch):
        scanned = []
        scan = search.max_angle_triple
        monkeypatch.setattr(search, "max_angle_triple",
                            lambda points: scanned.append(points) or scan(points))
        for D in (2, 3, 4, 5):
            for theta in CAPS:
                scanned.clear()
                search._largest_structured_under(theta, D)
                keys = [points.tobytes() for points in scanned]
                assert len(keys) == len(set(keys)), (D, theta)
        # The triangle, the square and the 9-gon: a candidate no larger than
        # the best so far is not scanned.
        scanned.clear()
        assert len(search._largest_structured_under(2.5, 2)) == 9
        assert [len(points) for points in scanned] == [3, 4, 9]


def count_scans(monkeypatch, record):
    """Patch geometry._max_angle_scan, under both its names, to pass every
    stack it scans to record first."""
    scan = geometry._max_angle_scan

    def counted(stack):
        record(stack)
        return scan(stack)

    monkeypatch.setattr(geometry, "_max_angle_scan", counted)
    monkeypatch.setattr(search, "_max_angle_scan", counted)


class RecordingGenerator:
    """A Generator that records the name and output shape of every draw."""

    def __init__(self, rng):
        self.rng, self.calls = rng, []

    def __getattr__(self, name):
        draw = getattr(self.rng, name)

        def recorded(*args, out=None, **kwargs):
            self.calls.append((name, None if out is None else out.shape))
            return draw(*args, out=out, **kwargs)

        return recorded


class PlantedGenerator:
    """Draws the given uniforms, and normals of 1."""

    def __init__(self, uniforms):
        self.uniforms = uniforms

    def random(self, out):
        out[:] = self.uniforms

    def standard_normal(self, out):
        out[:] = 1.0


class TestAnneal:
    def test_each_proposal_is_scanned_once(self, monkeypatch):
        stacks = []
        count_scans(monkeypatch, lambda stack: stacks.append(np.array(stack)))
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
        count_scans(monkeypatch, lambda stack: stacks.append(stack.shape))
        res = minimize_max_angle(n, D, iters=7, restarts=restarts, seed=1)
        # The starts in one stack, then one stack of every start's proposals
        # per step, then each start's best stacked with the starts, for the
        # exact pick.
        assert res.restarts == starts
        assert stacks == [(starts, n, D)] + [(3 * starts, n, D)] * 7 + [(2 * starts, n, D)]

    @pytest.mark.parametrize("R", [1, 3])
    def test_no_angle_is_recomputed_inside_a_step(self, monkeypatch, R):
        recomputed = []
        vertex_angle = geometry._vertex_angle
        monkeypatch.setattr(geometry, "_vertex_angle",
                            lambda x, y, z: recomputed.append(1) or vertex_angle(x, y, z))
        starts = np.random.default_rng(7).normal(size=(R, 6, 3))
        _anneal(starts, 20, [np.random.default_rng(8 + r) for r in range(R)])
        assert recomputed == []

    @pytest.mark.parametrize("R", [1, 3])
    def test_one_draw_of_each_kind_per_start_per_step(self, R):
        rngs = [RecordingGenerator(np.random.default_rng(9 + r)) for r in range(R)]
        starts = np.random.default_rng(10).normal(size=(R, 7, 3))
        _anneal(starts, 25, rngs)
        for rng in rngs:
            assert rng.calls == [("random", (7,)), ("standard_normal", (3, 3))] * 25

    @pytest.mark.parametrize("choice", [0.0, 0.9], ids=["triple-vertex", "any-vertex"])
    def test_the_highest_uniform_picks_the_last_index(self, monkeypatch, choice):
        # 1 - 2^-53 is the highest uniform a Generator draws.
        top = 1.0 - 2.0**-53
        stacks = []
        count_scans(monkeypatch, lambda stack: stacks.append(np.array(stack)))
        for n in (5, 6, 7, 8, 9, 10):
            x = np.random.default_rng(n).normal(size=(n, 3))
            triple = max_angle_triple(x)[1]
            _anneal(x[None], 1, [PlantedGenerator([choice, top] * 3 + [top])])
            # The last scan is the step's, of its three proposals.
            moved = {int(k) for p in stacks[-1] for k in np.flatnonzero((p != x).any(axis=1))}
            assert moved == {triple[2] if choice < 0.6 else n - 1}

    def test_stacked_spreads_match_each_set_alone(self):
        rng = np.random.default_rng(46)
        for _ in range(300):
            R, n, D = int(rng.integers(1, 7)), int(rng.integers(2, 40)), int(rng.integers(1, 13))
            stack = (rng.normal(size=(R, n, D)) * 10.0 ** rng.uniform(-3, 3, size=(R, 1, 1))
                     + rng.normal(size=(R, 1, D)) * 10.0 ** rng.uniform(-3, 6))
            alone = [float(np.sqrt(np.mean(np.sum((x - x.mean(axis=0)) ** 2, axis=1))))
                     for x in stack]
            assert _spreads(stack).tolist() == alone


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
        (5, 2, {"iters": 0}, "iters must be an integer >= 1, got 0"),
        (5, 2, {"iters": -3}, "iters must be an integer >= 1, got -3"),
        (5, 3, {"restarts": -2}, "restarts must be an integer >= 0, got -2"),
        (10, 3, {"restarts": 0},
         "restarts must be at least 1: no structured start has n=10 points in D=3, got 0"),
    ])
    def test_budgets_checked_on_entry(self, n, D, kwargs, message):
        with pytest.raises(OutOfRange, match=f"^{message}$"):
            minimize_max_angle(n, D, seed=1, **kwargs)

    @pytest.mark.parametrize("iters", [1, 5])
    def test_never_worse_than_a_structured_start(self, iters):
        # The anneal goes by scan angles; the winner is picked by exact ones,
        # from each start's best and the starts themselves.
        for n in range(3, 11):
            for D in (2, 3, 4):
                starts = search._structured_starts(n, D)
                for seed in range(4):
                    res = minimize_max_angle(n, D, iters=iters, seed=seed)
                    assert all(res.achieved_angle <= max_angle_triple(x)[0] for x in starts)

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
        with pytest.raises(OutOfRange, match="^budget must be an integer >= 0, got -5$"):
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

    def test_a_repair_is_accepted_by_its_exact_angle(self, monkeypatch):
        # Scan angles of 0 make the repair anneal accept every move and return
        # its start, the overshooting union, whatever its exact angle.
        scan = search._max_angle_scan
        monkeypatch.setattr(search, "_max_angle_scan",
                            lambda stack: (lambda a, r, p: (0.0 * a, r, p))(*scan(stack)))
        repairs = []
        anneal = search._anneal
        monkeypatch.setattr(search, "_anneal",
                            lambda *args, **kwargs: repairs.append(anneal(*args, **kwargs)[0])
                            or repairs[-1][None])
        res = max_cardinality_search(2.0, 3, budget=300, seed=14)
        assert any(max_angle_triple(x)[0] > 2.0 for x in repairs)
        assert res.achieved_angle <= 2.0

    def test_right_angle_cube_grows_as_before(self):
        # The bound at (pi/2, D = 3) is 10.9, but no set with every angle at
        # most pi/2 has more than 2^3 points (Danzer-Gruenbaum), so the cube
        # stops the search before its first step. The points are the ones the
        # full 300-step budget returned before that stop.
        res = max_cardinality_search(math.pi / 2, 3, budget=300, seed=1)
        TestPinnedResults.check(
            res, 8, "0x1.921fb54442d18p+0", 0,
            "e9f28c6bc6e2644a82da4d74358847b9634525c2eafd7f827046303751bac2c5")

    @pytest.mark.parametrize("D", [2, 3, 4])
    def test_right_angle_caps_stop_at_the_hypercube(self, D):
        # Danzer-Gruenbaum: no set in R^D with every angle <= pi/2 has more
        # than 2^D points. A structured start (the square, the cube, the
        # tesseract) has that many, so the search takes no step.
        res = max_cardinality_search(math.pi / 2, D, budget=600, seed=2)
        assert res.iterations == 0 and len(res.points) == 2**D
        assert res.achieved_angle <= math.pi / 2


class TestPinnedResults:
    """SearchResults recorded when the anneal came to draw once per stream
    and kind per step and to go by the scan's own angles; the cells whose
    structured start wins kept the bytes of the first, unstacked scans.
    Later speedups must return them bit for bit: points (SHA-256 of the
    little-endian float64 bytes), angle (float.hex), iterations and
    restarts."""

    @pytest.mark.parametrize("n, D, iters, restarts, seed, size, angle, iterations, pinned", [
        (9, 3, 60, 1, 11, 9, "0x1.3b380b0c4895ap+1", 60,
         "6c79d75e947890fd0975beedbb23a256126232e38150709dfdb0f07c1b764cf3"),
        (10, 3, 60, 1, 12, 10, "0x1.2422fd6612c66p+1", 60,
         "bac79b1bff77b67897045b0946f47b1030d92958f588c8404db9798c42cfedfd"),
        (5, 3, 200, 2, 13, 5, "0x1.7d3fd8635f10ap+0", 800,
         "fea825e6ff190522a414d1144e66c1ee20866dd12a57f26b5e05bec3bb30b3d9"),
        (18, 4, 40, 1, 13, 18, "0x1.444fb0e171de3p+1", 40,
         "8c7c902d772a39082cb66ffd369c375f55a90949c9a1a7ba4e73c3be23a3d5d0"),
        # 3 proposals x 30 vertices x 29^2 Gram entries span two kernel blocks.
        (30, 3, 15, 1, 17, 30, "0x1.82b894c6b4310p+1", 15,
         "1e6372cd30986e168cf8ac10ddff34f55a3c39d181cd328d8fb8dbf231935d95"),
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
        (2.0, 3, 300, 14, 8, "0x1.921fb54442d18p+0",
         "e9f28c6bc6e2644a82da4d74358847b9634525c2eafd7f827046303751bac2c5"),
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
