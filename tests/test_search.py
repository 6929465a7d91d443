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
    _RANK_TIE_TOL,
    _anneal,
    _rank,
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
        # per step, then the winner's recomputed angle.
        assert res.restarts == starts
        assert stacks == [(starts, n, D)] + [(3 * starts, n, D)] * 7 + [(1, n, D)]

    @pytest.mark.parametrize("R", [1, 3])
    def test_each_step_recomputes_one_angle_per_start(self, monkeypatch, R):
        recomputed, stacks = [], []
        vertex_angle, scan = geometry._vertex_angle, geometry._max_angle_scan

        def counted_angle(x, y, z):
            recomputed.append((x.tobytes(), y.tobytes(), z.tobytes()))
            return vertex_angle(x, y, z)

        monkeypatch.setattr(geometry, "_vertex_angle", counted_angle)
        count_scans(monkeypatch, lambda stack: stacks.append(np.array(stack)))
        starts = np.random.default_rng(7).normal(size=(R, 6, 3))
        _anneal(starts, 20, [np.random.default_rng(8 + r) for r in range(R)])
        # R angles for the starts, then per step each start's proposals whose
        # scan angles lie within the guard of its lowest: one per start, but
        # for ties (ranking by recomputed angles took 3R). Every proposal is
        # still scanned exactly once.
        assert [s.shape for s in stacks] == [(R, 6, 3)] + [(3 * R, 6, 3)] * 20
        per_step = [scan(s)[0].reshape(R, 3) for s in stacks[1:]]
        near = [int(np.sum(a <= a.min(axis=1, keepdims=True) + guard(3))) for a in per_step]
        assert len(recomputed) == R + sum(near)
        assert min(near) >= R and sum(near) < 3 * R * 20
        scans = Counter(p.tobytes() for s in stacks for p in s)
        assert sum(scans.values()) == R + 3 * R * 20
        assert max(scans.values()) == 1

    def test_stacked_spreads_match_each_set_alone(self):
        rng = np.random.default_rng(46)
        for _ in range(300):
            R, n, D = int(rng.integers(1, 7)), int(rng.integers(2, 40)), int(rng.integers(1, 13))
            stack = (rng.normal(size=(R, n, D)) * 10.0 ** rng.uniform(-3, 3, size=(R, 1, 1))
                     + rng.normal(size=(R, 1, D)) * 10.0 ** rng.uniform(-3, 6))
            alone = [float(np.sqrt(np.mean(np.sum((x - x.mean(axis=0)) ** 2, axis=1))))
                     for x in stack]
            assert _spreads(stack).tolist() == alone

    def test_triple_entry_by_integers_draws_the_stream_of_choice(self):
        # _anneal picks a vertex of the current triple with t[rng.integers(3)],
        # the cheaper call drawing what rng.choice(list(t)) drew before.
        t = (4, 0, 7)
        a, b = np.random.default_rng(3), np.random.default_rng(3)
        assert ([int(a.choice(list(t))) for _ in range(10_000)]
                == [t[int(b.integers(3))] for _ in range(10_000)])
        assert a.random() == b.random()


def ranked_by_recomputed_angles(stack):
    """Per start of a (3R, n, D) stack, the first proposal of lowest recomputed
    maximum angle, with that angle and triple: (w, angle, (i, j, k))."""
    scores = geometry.max_angle_triples(stack)
    out = []
    for lo in range(0, len(scores), 3):
        mine = scores[lo:lo + 3]
        w = min(range(3), key=lambda p: mine[p][0])
        out.append((w, *mine[w]))
    return out


def guard(D):
    return _RANK_TIE_TOL * math.sqrt(D + 2)


class TestRanking:
    """_rank picks, per start, the proposal that ranking by recomputed angles picks."""

    @staticmethod
    def counting(monkeypatch):
        calls = []
        vertex_angle = geometry._vertex_angle

        def counted(x, y, z):
            calls.append(1)
            return vertex_angle(x, y, z)

        monkeypatch.setattr(geometry, "_vertex_angle", counted)
        return calls

    def test_random_stacks(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            R, n, D = int(rng.integers(1, 6)), int(rng.integers(3, 12)), int(rng.integers(1, 7))
            stack = rng.normal(size=(3 * R, n, D))
            assert _rank(stack, guard(D)) == ranked_by_recomputed_angles(stack)

    def test_duplicated_proposals_tie_exactly(self):
        rng = np.random.default_rng(42)
        patterns = [(0, 0, 0), (0, 1, 0), (1, 0, 0), (0, 0, 1), (0, 1, 1), (1, 0, 1), (2, 1, 0)]
        for _ in range(200):
            R, n, D = int(rng.integers(1, 6)), int(rng.integers(3, 10)), int(rng.integers(2, 5))
            base = rng.normal(size=(R, 3, n, D))
            picks = [patterns[int(i)] for i in rng.integers(len(patterns), size=R)]
            stack = np.array([base[r, list(pick)] for r, pick in enumerate(picks)]).reshape(3 * R, n, D)
            got = _rank(stack, guard(D))
            assert got == ranked_by_recomputed_angles(stack)
            # The first copy of the lowest proposal wins.
            assert all(pick.index(pick[w]) == w for pick, (w, _, _) in zip(picks, got))

    def test_proposals_that_leave_the_winning_triple_untouched(self):
        rng = np.random.default_rng(43)
        tied_starts = 0
        for _ in range(300):
            n, D = int(rng.integers(5, 11)), int(rng.integers(2, 5))
            x = rng.normal(size=(n, D))
            _, triple = max_angle_triple(x)
            free = [v for v in range(n) if v not in triple]
            stack = np.repeat(x[None], 3, axis=0)
            for p in range(3):
                v = triple[int(rng.integers(3))] if rng.random() < 0.3 else free[int(rng.integers(len(free)))]
                stack[p, v] += rng.normal(scale=1e-3, size=D)
            assert _rank(stack, guard(D)) == ranked_by_recomputed_angles(stack)
            angles = [e for e, _ in geometry.max_angle_triples(stack)]
            tied_starts += angles.count(min(angles)) > 1
        assert tied_starts >= 50

    def test_planted_disagreement_inside_the_guard_falls_back_to_recomputed_angles(
            self, monkeypatch):
        rng = np.random.default_rng(44)
        x = rng.normal(size=(7, 3))
        _, (i, j, k) = max_angle_triple(x)
        y = x.copy()
        y[i] += 1e-9 * (x[i] - x[j])  # the same winning triple, a slightly different angle
        far = x.copy()
        far[0] = 0.5 * (x[1] + x[2]) + 1e-3  # a near-straight angle at point 0
        stack = np.array([x, y, far])
        (e0, t0), (e1, t1), (e2, _) = geometry.max_angle_triples(stack)
        if e1 < e0:
            stack[[0, 1]] = stack[[1, 0]]
            (e0, t0), (e1, t1) = (e1, t1), (e0, t0)
        assert e0 < e1 < e0 + guard(3) / 10 and e2 > e1 + 0.1
        true_scan = search._max_angle_scan

        def planted(st):
            # Scan angles within the guard of the recomputed ones, in the reverse order.
            ang, rows, pos = true_scan(st)
            return np.array([e1, e0, ang[2]]), rows, pos

        monkeypatch.setattr(search, "_max_angle_scan", planted)
        calls = self.counting(monkeypatch)
        assert _rank(stack, guard(3)) == [(0, e0, t0)] == ranked_by_recomputed_angles(stack)
        assert len(calls) == 2 + 3  # both tied proposals, then the oracle's three
        # Without the guard, the planted scan angles alone would pick proposal 1.
        assert _rank(stack, 0.0) == [(1, e1, t1)]

    @pytest.mark.parametrize("D", [2, 3, 5, 8, 16])
    def test_scan_and_recompute_differ_by_under_half_the_guard(self, D):
        # Near-straight and near-zero angles, where arccos magnifies the
        # cosines' rounding most, on scaled and translated sets.
        rng = np.random.default_rng(45 + D)
        worst = 0.0
        for t in range(400):
            e = rng.normal(size=D)
            e /= np.linalg.norm(e)
            a, b = rng.uniform(0.1, 10.0, size=2)
            side = -a if t % 2 else a  # straight (pi) or folded (0) angle at point 0
            eps = 10.0 ** rng.uniform(-8, -2)
            pts = np.array([np.zeros(D), side * e + eps * rng.normal(size=D),
                            b * e + eps * rng.normal(size=D)])
            pts = pts * 10.0 ** rng.uniform(-3, 3) + rng.normal(size=D) * 10.0 ** rng.uniform(-3, 3)
            ang, rows, pos = geometry._max_angle_scan(pts[None])
            recomputed, _ = geometry._max_angle_recompute(pts[None], int(rows[0]), int(pos[0]))
            worst = max(worst, abs(float(ang[0]) - recomputed))
        assert worst <= guard(D) / 2


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
