import itertools
import math
import re
import warnings

import numpy as np
import pytest

from anglebound.convexity import min_pairwise_dot
from anglebound.errors import DegenerateTriple, OutOfRange
from anglebound.geometry import (
    _BLOCK_ENTRIES,
    PointSet,
    _check_closed,
    _facet_planes,
    _Hull,
    _max_angle_recompute,
    _max_angle_scan,
    _min_upper_pair,
    _row_blocks,
    angle_at,
    geodesic_diameter,
    max_angle,
    max_angle_triple,
    max_angle_triples,
    rays_from,
    regular_simplex,
)
from anglebound.search import _structured_starts
from conftest import (
    brute_max_angle,
    compacting_join,
    loop_max_angle_triple,
    random_rotation,
    row_major_max_angle_scan,
    traced_peak,
    unit_simplex,
)


class TestAngleAt:
    def test_orthogonal_rays(self):
        assert angle_at([1, 0], [0, 0], [0, 1]) == pytest.approx(math.pi / 2, abs=1e-15)

    def test_collinear_through_vertex(self):
        assert angle_at([1, 0], [0, 0], [-1, 0]) == pytest.approx(math.pi, abs=1e-15)

    def test_equilateral_vertex(self):
        tri = [[0, 0], [1, 0], [0.5, math.sqrt(3) / 2]]
        assert angle_at(tri[1], tri[0], tri[2]) == pytest.approx(math.pi / 3, abs=1e-12)

    def test_symmetric_in_outer_points(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x, y, z = rng.normal(size=(3, 4))
            assert angle_at(x, y, z) == angle_at(z, y, x)

    def test_invariant_under_rigid_motions_and_scaling(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            d = int(rng.integers(2, 6))
            x, y, z = rng.normal(size=(3, d))
            base = angle_at(x, y, z)
            Q = random_rotation(rng, d)
            shift = rng.normal(size=d)
            s = float(rng.uniform(0.1, 10.0))
            moved = [s * (Q @ v) + shift for v in (x, y, z)]
            assert angle_at(*moved) == pytest.approx(base, abs=1e-9)

    def test_degenerate_vertex_rejected(self):
        with pytest.raises(DegenerateTriple):
            angle_at([0, 0], [0, 0], [1, 0])
        with pytest.raises(DegenerateTriple):
            angle_at([1, 0], [1e-12, 0], [0, 0])

    def test_malformed_points_rejected(self):
        with pytest.raises(OutOfRange):
            angle_at([1, 0], [0, 0], [[0, 1]])
        with pytest.raises(OutOfRange):
            angle_at([1, 0], [0, 0], [0, 1, 0])
        with pytest.raises(OutOfRange):
            angle_at(1.0, 0.0, 2.0)
        with pytest.raises(OutOfRange):
            angle_at([1, 0], [0, 0], [np.nan, 1])


class TestRowBlocks:
    @pytest.mark.parametrize("width", [1, 128, 21_000])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 512, 513, 1025, 70_001])
    def test_blocks_tile_the_rows_within_budget(self, n, width):
        blocks = list(_row_blocks(n, width))
        assert [lo for lo, _ in blocks] == [0] + [hi for _, hi in blocks[:-1]]
        assert blocks[-1][1] == n
        assert all(1 <= hi - lo <= max(1, _BLOCK_ENTRIES // width) for lo, hi in blocks)
        assert n == 1 or all(hi - lo >= 2 for lo, hi in blocks)

    @pytest.mark.parametrize("n, width", [(1025, 128), (2 * 1365 + 1, 48), (4, 21_000)])
    def test_blocked_product_is_the_whole_product(self, n, width):
        rng = np.random.default_rng(n)
        U, V = rng.normal(size=(n, 3)), rng.normal(size=(width, 3))
        blocked = np.concatenate([U[lo:hi] @ V.T for lo, hi in _row_blocks(n, width)])
        np.testing.assert_array_equal(blocked, U @ V.T)


class TestMaxAngle:
    def test_unit_square(self):
        sq = PointSet([[0, 0], [1, 0], [1, 1], [0, 1]])
        assert max_angle(sq) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_regular_tetrahedron(self):
        tet = PointSet([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]])
        assert max_angle(tet) == pytest.approx(math.pi / 3, abs=1e-12)

    def test_regular_hexagon_matches_brute_force(self):
        ang = 2 * math.pi * np.arange(6) / 6
        hexagon = np.column_stack([np.cos(ang), np.sin(ang)])
        expected = brute_max_angle(hexagon)
        assert expected == pytest.approx(2 * math.pi / 3, abs=1e-12)
        assert max_angle(PointSet(hexagon)) == expected

    def test_two_or_fewer_points_give_zero(self):
        assert max_angle(PointSet([[0, 0], [1, 0]])) == 0.0
        assert max_angle(PointSet([[2, 3]])) == 0.0

    def test_agrees_exactly_with_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(3, 13))
            d = int(rng.integers(2, 5))
            pts = rng.normal(size=(n, d))
            assert max_angle(PointSet(pts)) == brute_max_angle(pts)

    def test_monotone_under_superset(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            n = int(rng.integers(3, 9))
            pts = rng.normal(size=(n, 3))
            extra = rng.normal(size=3)
            a = max_angle(PointSet(pts))
            b = max_angle(PointSet(np.vstack([pts, extra])))
            assert b >= a - 1e-15

    def test_triple_indices_point_at_the_max(self):
        rng = np.random.default_rng(13)
        pts = rng.normal(size=(8, 3))
        val, (i, j, k) = max_angle_triple(pts)
        assert val == angle_at(pts[i], pts[j], pts[k])

    def test_bad_points_raise_without_warnings(self):
        pts = [[0.0, 0.0], [1.0, 0.0], [2.0, 1.0], [1.0, 0.0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateTriple, match="points 1 and 3"):
                max_angle_triple(pts)
            with pytest.raises(DegenerateTriple, match="points 0 and 2"):
                max_angle_triple([[0.0, 0.0], [1.0, 0.0], [5e-10, 0.0]])
            with pytest.raises(OutOfRange, match="non-finite"):
                max_angle_triple([[0.0, 0.0], [math.inf, 0.0], [1.0, 1.0]])
            with pytest.raises(OutOfRange, match=r"^expected an \(n, dim\) array"):
                max_angle_triple([0.0, 1.0, 2.0])


class TestMaxAngleKernelAgainstLoop:
    """The blocked ray-Gram kernel returns exactly what the per-vertex loop did."""

    def test_random_sets(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            n = int(rng.integers(3, 14))
            d = int(rng.integers(1, 9))
            pts = rng.normal(size=(n, d))
            assert max_angle_triple(pts) == loop_max_angle_triple(pts)

    def test_lattice_sets_with_exact_ties(self):
        rng = np.random.default_rng(22)
        checked = 0
        while checked < 200:
            n = int(rng.integers(3, 12))
            d = int(rng.integers(1, 5))
            pts = rng.integers(-2, 3, size=(n, d)).astype(float)
            if len(np.unique(pts, axis=0)) < n:
                continue
            assert max_angle_triple(pts) == loop_max_angle_triple(pts)
            checked += 1

    def test_structured_search_starts(self):
        for n in range(3, 11):
            for d in range(1, 5):
                for pts in _structured_starts(n, d):
                    assert max_angle_triple(pts) == loop_max_angle_triple(pts)

    @pytest.mark.parametrize("n, d", [(100, 3), (300, 3)])
    def test_sets_spanning_several_blocks(self, n, d):
        pts = np.random.default_rng(n).normal(size=(n, d))
        assert max_angle_triple(pts) == loop_max_angle_triple(pts)


class TestStackedKernelAgainstLoop:
    """Every set of a stack scores exactly as the per-vertex loop scores it alone."""

    @staticmethod
    def check(stack):
        assert max_angle_triples(stack) == [loop_max_angle_triple(s) for s in stack]

    def test_random_stacks(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            P, n, d = int(rng.integers(1, 7)), int(rng.integers(3, 14)), int(rng.integers(1, 9))
            self.check(rng.normal(size=(P, n, d)))

    def test_lattice_stacks_with_exact_ties(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            P, n, d = int(rng.integers(2, 6)), int(rng.integers(3, 10)), int(rng.integers(2, 5))
            stack = []
            while len(stack) < P:
                pts = rng.integers(-2, 3, size=(n, d)).astype(float)
                if len(np.unique(pts, axis=0)) == n:
                    stack.append(pts)
            self.check(np.array(stack))

    def test_stacks_of_structured_search_starts(self):
        rng = np.random.default_rng(33)
        for n in range(3, 11):
            for d in range(1, 5):
                starts = _structured_starts(n, d)
                if starts:
                    # A random set between the starts, so no set is alone.
                    self.check(np.array(starts[:1] + [rng.normal(size=(n, d))] + starts[1:]))

    def test_stack_spanning_several_blocks(self):
        P, n, d = 4, 40, 3
        blocks = list(_row_blocks(P * n, (n - 1) ** 2))
        assert len(blocks) > 2 and any(lo % n for lo, _ in blocks[1:])
        self.check(np.random.default_rng(34).normal(size=(P, n, d)))

    def test_small_sets_have_no_triple(self):
        assert max_angle_triples(np.zeros((3, 2, 2))) == [(0.0, (-1, -1, -1))] * 3
        assert max_angle_triples(np.zeros((0, 5, 2))) == []

    def test_coincident_pair_names_its_set_before_dividing(self):
        stack = np.random.default_rng(35).normal(size=(4, 6, 3))
        stack[2, 3] = stack[2, 1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateTriple, match=r"^set 2: points 1 and 3 are closer than "
                                                       r"1e-09: no angle at vertex 1$"):
                max_angle_triples(stack)

    def test_rejects_a_stack_that_is_not_three_dimensional(self):
        with pytest.raises(OutOfRange, match="stack"):
            max_angle_triples(np.zeros((4, 3)))


class TestCoordinateMajorScan:
    """The coordinate-major kernel returns the row-major kernel's bits."""

    @staticmethod
    def random_stack(rng, P, n, D):
        return (rng.normal(size=(P, n, D)) * 10.0 ** rng.uniform(-3, 3, size=(P, 1, 1))
                + rng.normal(size=(P, 1, D)) * 10.0 ** rng.uniform(-3, 3))

    def test_matches_the_row_major_scan_bit_for_bit(self):
        rng = np.random.default_rng(47)
        for _ in range(400):
            P, n, D = int(rng.integers(1, 16)), int(rng.integers(3, 14)), int(rng.integers(2, 8))
            stack = self.random_stack(rng, P, n, D)
            got = _max_angle_scan(stack)[:3]
            want = row_major_max_angle_scan(stack)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want], (P, n, D)

    def test_matches_the_row_major_scan_on_lattice_ties(self):
        rng = np.random.default_rng(48)
        for _ in range(100):
            P, n, D = int(rng.integers(1, 6)), int(rng.integers(3, 10)), int(rng.integers(2, 5))
            stack = []
            while len(stack) < P:
                pts = rng.integers(-2, 3, size=(n, D)).astype(float)
                if len(np.unique(pts, axis=0)) == n:
                    stack.append(pts)
            stack = np.array(stack)
            got = _max_angle_scan(stack)[:3]
            want = row_major_max_angle_scan(stack)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    @pytest.mark.parametrize("D", [8, 9, 10])
    def test_high_dimensions_give_the_row_major_answers(self, D):
        # From D = 8 numpy sums a contiguous row pairwise, and the scan's
        # one reduce over the coordinate axis does not, so the scan angles
        # may move in their last bits: the winners and the exact angles do not.
        rng = np.random.default_rng(49 + D)
        for _ in range(60):
            P, n = int(rng.integers(1, 8)), int(rng.integers(3, 12))
            stack = self.random_stack(rng, P, n, D)
            ang, rows, pos, _ = _max_angle_scan(stack)
            want_ang, want_rows, want_pos = row_major_max_angle_scan(stack)
            assert rows.tolist() == want_rows.tolist() and pos.tolist() == want_pos.tolist()
            assert max_angle_triples(stack) == [
                _max_angle_recompute(stack, r, w)
                for r, w in zip(want_rows.tolist(), want_pos.tolist())]
            assert np.abs(ang - want_ang).max() <= 2.0**-25 * math.sqrt(D + 2)

    @pytest.mark.parametrize("D", [8, 9, 10])
    def test_high_dimensional_sets_scan_alone_as_in_a_stack(self, D):
        # The block boundaries fall inside sets: each set's scan is its own.
        P, n = 4, 40
        blocks = list(_row_blocks(P * n, (n - 1) ** 2))
        assert len(blocks) > 2 and any(lo % n for lo, _ in blocks[1:])
        stack = self.random_stack(np.random.default_rng(52 + D), P, n, D)
        ang, rows, pos, sumsq = _max_angle_scan(stack)
        for p in range(P):
            alone = _max_angle_scan(stack[p:p + 1])
            assert [a.tobytes() for a in alone] == [
                a.tobytes() for a in (ang[p:p + 1], rows[p:p + 1] - p * n,
                                      pos[p:p + 1], sumsq[p:p + 1])]

    def test_a_stack_spanning_several_blocks_matches(self):
        stack = np.random.default_rng(50).normal(size=(3, 60, 4))
        assert len(list(_row_blocks(3 * 60, 59 ** 2))) > 2
        got = _max_angle_scan(stack)[:3]
        assert [a.tobytes() for a in got] == [
            a.tobytes() for a in row_major_max_angle_scan(stack)]

    @pytest.mark.parametrize("D", list(range(1, 26)) + [127, 128, 129, 136, 137, 300])
    def test_sumsq_is_accurate_in_every_dimension(self, D):
        # Each squared ray norm is one reduce over D coordinates, the sum of
        # its n - 1 norms another: all terms are positive, so the scan's
        # sumsq is within (D + n) u of the correctly rounded sum of the same
        # rounded squares, whatever the coordinates' magnitudes.
        rng = np.random.default_rng(D)
        P, n = 7, 5
        x = rng.normal(size=(P, n, D)) * 10.0 ** rng.uniform(-8, 8, size=(P, n, D))
        got = _max_angle_scan(x)[3]
        for p in range(P):
            d = x[p][:, None, :] - x[p][None, :, :]
            want = math.fsum((d * d).ravel().tolist())
            assert abs(got[p] - want) <= (D + n) * 2.0**-53 * want, (p, got[p], want)

    def test_sumsq_is_the_sum_over_ordered_pairs(self):
        rng = np.random.default_rng(51)
        for _ in range(50):
            P, n, D = int(rng.integers(1, 8)), int(rng.integers(2, 12)), int(rng.integers(2, 6))
            stack = rng.normal(size=(P, n, D))
            want = [sum(float(np.sum((x[i] - x[j]) ** 2)) for i in range(n) for j in range(n))
                    for x in stack]
            np.testing.assert_allclose(_max_angle_scan(stack)[3], want, rtol=1e-13)


class TestScanAngle:
    @pytest.mark.parametrize("D", [2, 3, 5, 8, 16])
    def test_scan_and_recompute_differ_by_under_the_documented_bound(self, D):
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
            ang, rows, pos, _ = _max_angle_scan(pts[None])
            recomputed, _ = _max_angle_recompute(pts[None], int(rows[0]), int(pos[0]))
            worst = max(worst, abs(float(ang[0]) - recomputed))
        assert worst <= 2.0**-25 * math.sqrt(D + 2)


class TestGeodesicDiameter:
    def test_antipodal_pair(self):
        assert geodesic_diameter([[1, 0, 0], [-1, 0, 0]]) == pytest.approx(math.pi)

    def test_singleton(self):
        assert geodesic_diameter([[0, 1, 0]]) == 0.0

    def test_orthonormal_triple(self):
        assert geodesic_diameter(np.eye(3)) == pytest.approx(math.pi / 2, abs=1e-15)

    def test_matches_angle_at_origin_vertex(self):
        rng = np.random.default_rng(14)
        vecs = rng.normal(size=(6, 4))
        vecs /= np.linalg.norm(vecs, axis=1)[:, None]
        expected = max(
            angle_at(vecs[i], np.zeros(4), vecs[j])
            for i in range(6) for j in range(i + 1, 6)
        )
        assert geodesic_diameter(vecs) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("call", [geodesic_diameter, min_pairwise_dot],
                             ids=["geodesic_diameter", "min_pairwise_dot"])
    def test_memory_does_not_grow_with_the_gram(self, call):
        # The whole Gram of 4000 vectors would take 128 MB.
        vecs = np.random.default_rng(3).normal(size=(4000, 3))
        vecs /= np.linalg.norm(vecs, axis=1)[:, None]
        with traced_peak() as peak:
            call(vecs)
        assert peak.bytes < 16e6


class TestGeodesicDiameterChecks:
    """One vectorized norm check, with as_unit's messages for the first bad row."""

    @pytest.mark.parametrize("H, message", [
        ([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [np.nan, 0.0, 0.0]],
         "vector has norm 2, expected 1"),
        ([[1.0, 0.0, 0.0], [np.nan, 0.0, 0.0], [0.0, 2.0, 0.0]],
         "point has non-finite coordinates"),
        ([[1.0, 0.0], [np.inf, 0.0]], "point has non-finite coordinates"),
        ([[1.0, 0.0], [0.0, 1.0 + 2e-12]], "vector has norm 1, expected 1"),
        ([1.0, 0.0, 0.0], "point must be a 1-D coordinate vector, got shape ()"),
        ([[[1.0, 0.0]]], "point must be a 1-D coordinate vector, got shape (1, 2)"),
        (np.zeros((2, 0)), "point must be a 1-D coordinate vector, got shape (0,)"),
        ([], "need at least one unit vector"),
        (np.zeros((0, 3)), "need at least one unit vector"),
    ], ids=["norm-before-nan", "nan-before-norm", "inf", "just-outside-tolerance",
            "flat", "nested", "no-columns", "empty", "no-rows"])
    def test_messages_name_the_first_bad_row_as_as_unit_does(self, H, message):
        with pytest.raises(OutOfRange, match=f"^{re.escape(message)}$"):
            geodesic_diameter(H)

    def test_rows_inside_the_tolerance_pass(self):
        H = np.array([[1.0, 0.0], [0.0, 1.0 + 0.9e-12], [-1.0 + 0.9e-12, 0.0]])
        assert geodesic_diameter(H) == pytest.approx(math.pi)

    def test_no_row_is_checked_one_at_a_time_in_valid_input(self, monkeypatch):
        from anglebound import geometry
        calls = []
        monkeypatch.setattr(geometry, "as_unit", lambda h: calls.append(h))
        vecs = np.random.default_rng(52).normal(size=(500, 3))
        vecs /= np.linalg.norm(vecs, axis=1)[:, None]
        geodesic_diameter(vecs)
        assert calls == []


class TestMinUpperPair:
    """The blocked pair kernel against the minimum over the whole Gram's upper
    triangle, first in row-major order."""

    @staticmethod
    def whole(U: np.ndarray, absolute: bool) -> tuple[float, int, int]:
        G = U @ U.T
        if absolute:
            G = -np.abs(G)
        iu, ju = np.triu_indices(len(U), k=1)
        k = int(np.argmin(G[iu, ju]))
        return float(G[iu[k], ju[k]]), int(iu[k]), int(ju[k])

    @pytest.mark.parametrize("absolute", [False, True])
    @pytest.mark.parametrize("m, D", [(2, 2), (3, 2), (17, 3), (59, 8), (300, 3), (1000, 4)])
    def test_matches_the_whole_gram(self, m, D, absolute):
        rng = np.random.default_rng(m * D)
        for U in (rng.normal(size=(m, D)),
                  rng.integers(-2, 3, size=(m, D)).astype(float),  # exact ties everywhere
                  np.round(rng.normal(size=(m, D)), 1)):
            assert _min_upper_pair(U, absolute) == self.whole(U, absolute)

    def test_ties_across_blocks_go_to_the_first_pair(self):
        rng = np.random.default_rng(5)
        U = rng.normal(size=(1000, 3))
        U /= np.linalg.norm(U, axis=1)[:, None]
        U[[300, 650]] = U[650]
        U[[700, 800, 950]] = -U[650]
        assert any(300 < lo <= 650 for lo, _ in _row_blocks(1000, 1000))  # a tie across blocks
        assert _min_upper_pair(U) == self.whole(U, False)
        assert _min_upper_pair(U)[1:] == (300, 700)
        assert _min_upper_pair(U, absolute=True)[1:] == (300, 650)


class TestRaysFrom:
    def test_scaling(self):
        rays = rays_from([0, 0], PointSet([[2, 0]]))
        np.testing.assert_allclose(rays, [[1, 0]])

    def test_translation(self):
        rays = rays_from([1, 1], PointSet([[2, 1], [1, 2]]))
        np.testing.assert_allclose(rays, [[1, 0], [0, 1]])

    def test_centroid_of_regular_triangle(self):
        tri = unit_simplex(2)
        rays = rays_from(np.zeros(2), PointSet(tri))
        gram = rays @ rays.T
        for i in range(3):
            for j in range(i + 1, 3):
                assert gram[i, j] == pytest.approx(math.cos(2 * math.pi / 3), abs=1e-12)

    def test_apex_on_point_rejected(self):
        with pytest.raises(DegenerateTriple):
            rays_from([2, 0], PointSet([[2, 0], [0, 0]]))


class TestPointSet:
    def test_rejects_duplicate_points(self):
        with pytest.raises(OutOfRange):
            PointSet([[0, 0], [1e-10, 0]])

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(OutOfRange, match=r"\[2, 3\]"):
            PointSet([[0, 0], [1, 0, 0]])

    def test_rejects_non_finite(self):
        with pytest.raises(OutOfRange):
            PointSet([[0, 0], [math.inf, 0]])

    def test_names_the_closest_pair_across_row_blocks(self):
        pts = np.random.default_rng(31).normal(size=(3000, 3))
        pts[2500] = pts[40] + [5e-10, 0.0, 0.0]
        pts[2999] = pts[2900] + [0.0, 2e-10, 0.0]
        with pytest.raises(OutOfRange, match=r"^points 2900 and 2999 are closer than 1e-09$"):
            PointSet(pts)
        pts[2999] = pts[2900]
        pts[2500] = pts[40]
        with pytest.raises(OutOfRange, match=r"^points 40 and 2500 are closer than 1e-09$"):
            PointSet(pts)

    def test_distinctness_check_memory_is_not_quadratic(self):
        pts = np.random.default_rng(32).normal(size=(3000, 3))
        with traced_peak() as peak:
            PointSet(pts)
        assert peak.bytes < 20e6

    @pytest.mark.parametrize("n, D", [(300, 500), (100, 2000), (40, 20_000)])
    def test_distinctness_check_memory_stays_near_the_points(self, n, D):
        # Blocks sized by n x n distances alone build (rows, n, D) differences,
        # which peaked at 262, 160 and 256 MB here, for sets of 1.2-6.4 MB.
        pts = np.random.default_rng(33).normal(size=(n, D))
        with traced_peak() as peak:
            PointSet(pts)
        assert peak.bytes < 16e6

    def test_points_are_immutable(self):
        ps = PointSet([[0, 0], [1, 0]])
        with pytest.raises(ValueError):
            ps.points[0, 0] = 5.0


class TestHull:
    """_Hull keeps every facet it made in one append-only table: each join
    returns the creation ids of the facets it dropped and leaves the live
    hull a loop that compacts the facets at every step leaves."""

    @staticmethod
    def grow(V, F, joins):
        hull = _Hull(V, F)
        ref, ids = (F, *_facet_planes(V, F)), np.arange(len(F))
        for lo, hi in joins(hull):
            table = hull.rows[:hull.made].copy()
            dead = hull.join(V, lo, hi, 1e-12)
            *ref, gone = compacting_join(V, *ref, lo, hi, 1e-12)
            np.testing.assert_array_equal(dead, ids[gone])
            kept = np.delete(ids, gone)
            ids = np.concatenate([kept, len(table) + np.arange(len(ref[0]) - len(kept))])
            assert hull.made == len(table) + len(ref[0]) - len(kept)
            assert hull.rows[:len(table)].tobytes() == table.tobytes()  # committed rows stay
            np.testing.assert_array_equal(hull.ids, ids)
            for got, want in zip((hull.F, hull.N, hull.H), ref):
                assert got.tobytes() == want.tobytes()
        _check_closed(V[:hi], hull.F, 1e-12, "hull", AssertionError)
        return hull

    def test_one_point_joins_in_r3(self):
        V = np.random.default_rng(41).normal(size=(80, 3))
        V /= np.linalg.norm(V, axis=1)[:, None]
        V[:4] = regular_simplex(3)
        hull = self.grow(V, np.array([[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]),
                         lambda hull: ((i, i + 1) for i in range(4, len(V))))
        assert len(hull.ids) == 2 * len(V) - 4

    def test_two_point_joins_in_r4(self):
        # +-l for the deepest hole, then for a random direction, in turn.
        rng = np.random.default_rng(42)
        V = np.empty((88, 4))
        V[0:8:2], V[1:8:2] = np.eye(4), -np.eye(4)

        def joins(hull):
            for n in range(8, len(V), 2):
                l = hull.N[hull.H.argmin()] if n % 4 else rng.normal(size=4)
                V[n], V[n + 1] = l / np.linalg.norm(l), -l / np.linalg.norm(l)
                yield n, n + 2

        self.grow(V, 2 * np.arange(4) + np.array(list(itertools.product((0, 1), repeat=4))),
                  joins)
