import itertools
import math

import numpy as np
import pytest

from anglebound import convexity, sampling
from anglebound.convexity import (
    caratheodory_decompose,
    is_convex_position,
    min_pairwise_dot,
    obtuse_witness,
    simplex_contains_origin,
)
from anglebound.errors import (
    DegenerateSimplex,
    NotInHull,
    NotInterior,
    OutOfRange,
)
from anglebound.geometry import PointSet, rays_from
from anglebound.sampling import rd_directions
from conftest import (
    criterion_7_sets,
    digest,
    oracle_convex_position,
    oracle_in_hull,
    random_rotation,
    sample_simplex_with_interior_origin,
    solve_every_point,
    unit_simplex,
    wolfe_nearest_point,
)


class TestMinPairwiseDot:
    def test_three_planar_at_120_degrees(self):
        ang = 2 * math.pi * np.arange(3) / 3
        vecs = np.column_stack([np.cos(ang), np.sin(ang)])
        assert min_pairwise_dot(vecs) == pytest.approx(-0.5, abs=1e-12)

    def test_antipodal(self):
        assert min_pairwise_dot([[1, 0], [-1, 0]]) == pytest.approx(-1.0)

    @pytest.mark.parametrize("d", [2, 3, 4, 7])
    def test_regular_simplex_attains_equality(self, d):
        assert min_pairwise_dot(unit_simplex(d)) == pytest.approx(-1.0 / d, abs=1e-9)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_perturbation_breaks_equality(self, d):
        rng = np.random.default_rng(71 + d)
        vecs = unit_simplex(d)
        vecs[0] = vecs[0] + 1e-3 * rng.normal(size=d)
        vecs[0] /= np.linalg.norm(vecs[0])
        assert min_pairwise_dot(vecs) < -1.0 / d - 1e-9

    def test_interior_origin_forces_obtuse_pair(self):
        rng = np.random.default_rng(72)
        for _ in range(300):
            d = int(rng.integers(2, 7))
            simplex = sample_simplex_with_interior_origin(rng, d)
            rays = simplex / np.linalg.norm(simplex, axis=1)[:, None]
            assert min_pairwise_dot(rays) <= -1.0 / d + 1e-9


class TestSimplexContainsOrigin:
    def test_triangle_containing_origin(self):
        assert simplex_contains_origin([[1, 0], [-1, 1], [-1, -1]], strict=True)

    def test_separated_triangle(self):
        assert not simplex_contains_origin([[1, 0.5], [2, 1], [1, 2]])

    def test_origin_as_vertex_not_strict_interior(self):
        V = [[0, 0], [1, 0], [0, 1]]
        assert simplex_contains_origin(V, strict=False)
        assert not simplex_contains_origin(V, strict=True)

    def test_lower_dimensional_simplex(self):
        # Segment through the origin in R^3.
        assert simplex_contains_origin([[1, 1, 1], [-1, -1, -1]])
        assert not simplex_contains_origin([[1, 1, 1], [2, 2, 2]])

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateSimplex):
            simplex_contains_origin([[1, 0], [2, 0], [3, 0]])

    @pytest.mark.parametrize("offset, expected", [(1e-4, False), (1e-12, True)])
    def test_verdict_does_not_depend_on_scale(self, offset, expected):
        # The origin 1e-4 (or 1e-12) of the segment's length off its line: the
        # residual and its bar are lengths on the simplex's own scale, with no
        # absolute floor, so the verdict holds from 1e-12 to 1e12.
        V = np.array([[-1.0, offset], [1.0, offset]])
        scales = (1e-12, 1e-6, 1.0, 1e6, 1e12)
        assert [simplex_contains_origin(V * k) for k in scales] == [expected] * len(scales)


class TestCaratheodory:
    def test_triangle_centroid(self):
        tri = PointSet([[0, 0], [3, 0], [0, 3]])
        simplex = caratheodory_decompose([1, 1], tri)
        assert simplex.shape[0] == 3

    def test_edge_midpoint_of_square(self):
        sq = PointSet([[0, 0], [1, 0], [1, 1], [0, 1]])
        simplex = caratheodory_decompose([0.5, 0.0], sq)
        assert simplex.shape[0] == 2
        assert sorted(simplex[:, 0].tolist()) == [0.0, 1.0]

    def test_random_planar_hulls(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            pts = rng.normal(size=(5, 2))
            w = rng.exponential(size=5)
            w /= w.sum()
            p = w @ pts
            simplex = caratheodory_decompose(p, PointSet(pts))
            assert simplex.shape[0] <= 3
            # Independent containment re-check.
            assert oracle_in_hull(p, simplex)

    @pytest.mark.parametrize("p", [[0, 0], [3, 0]])
    def test_point_of_the_set_is_its_own_simplex(self, p):
        simplex = caratheodory_decompose(p, PointSet([[0, 0], [3, 0], [0, 3]]))
        np.testing.assert_array_equal(simplex, [p])

    def test_outside_point_rejected(self):
        tri = PointSet([[0, 0], [1, 0], [0, 1]])
        with pytest.raises(NotInHull):
            caratheodory_decompose([5, 5], tri)


SQUARE = PointSet([[0, 0], [1, 0], [1, 1], [0, 1]])
TRIANGLE = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: caratheodory_decompose([math.nan, 0.5], SQUARE),
                 "point has non-finite coordinates", id="caratheodory-nan"),
    pytest.param(lambda: simplex_contains_origin([[math.nan, 0], [1, 1]]),
                 "point set has non-finite coordinates", id="simplex-nan"),
    pytest.param(lambda: obtuse_witness([math.nan, 0.1], TRIANGLE),
                 "point has non-finite coordinates", id="witness-nan"),
    pytest.param(lambda: obtuse_witness([0.2, 0.2], [[math.inf, 0], [1, 0], [0, 1]]),
                 "point set has non-finite coordinates", id="witness-inf-vertex"),
    pytest.param(lambda: min_pairwise_dot([[math.nan, 0], [1, 0]]),
                 "vectors have non-finite coordinates", id="min-dot-nan"),
    pytest.param(lambda: simplex_contains_origin([[1, 0], [1]]),
                 "simplex vertices must be rows of numbers of one length", id="simplex-ragged"),
    pytest.param(lambda: caratheodory_decompose([0.5, 0.5, 0.5], SQUARE),
                 "point has dimension 3 but the set 2", id="caratheodory-3d"),
    pytest.param(lambda: obtuse_witness([0.2, 0.2, 0.2], TRIANGLE),
                 "point has dimension 3 but the set 2", id="witness-3d"),
    pytest.param(lambda: rays_from([0.2, 0.2, 0.2], PointSet(TRIANGLE)),
                 "apex dimension does not match point set", id="rays-3d"),
    pytest.param(lambda: min_pairwise_dot([[1.0, 0.0]]), "need at least two vectors",
                 id="min-dot-one-row"),
    pytest.param(lambda: simplex_contains_origin([[1.0, 0.0]]),
                 "simplex needs at least two vertices", id="simplex-one-row"),
])
def test_bad_points_refused_before_any_solve(capfd, call, message):
    # NaN used to reach LAPACK, which printed "On entry to DLASCL parameter
    # number 4 had an illegal value" and raised LinAlgError; another
    # dimension, a broadcast ValueError.
    with pytest.raises(OutOfRange, match=f"^{message}$"):
        call()
    assert capfd.readouterr() == ("", "")


def _count_decisions(monkeypatch):
    """Record every point set `_decide_convex_position` is called on."""
    calls, decide = [], convexity._decide_convex_position
    monkeypatch.setattr(convexity, "_decide_convex_position",
                        lambda pts: calls.append(pts) or decide(pts))
    return calls


class TestIsConvexPosition:
    def test_square(self):
        assert is_convex_position(PointSet([[0, 0], [1, 0], [1, 1], [0, 1]])).in_convex_position

    def test_square_plus_center(self):
        ps = PointSet([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]])
        verdict = is_convex_position(ps)
        assert not verdict.in_convex_position
        np.testing.assert_allclose(verdict.witness_point, [0.5, 0.5])
        assert verdict.witness_simplex.shape[0] <= 3
        assert oracle_in_hull(verdict.witness_point, verdict.witness_simplex)

    def test_boundary_point_is_not_a_vertex(self):
        ps = PointSet([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.0]])
        assert not is_convex_position(ps).in_convex_position

    def test_tiny_sets_are_convex(self):
        assert is_convex_position(PointSet([[1, 2]])).in_convex_position
        assert is_convex_position(PointSet([[1, 2], [3, 4]])).in_convex_position

    def test_agrees_with_exhaustive_oracle(self):
        rng = np.random.default_rng(22)
        cases = []
        for _ in range(150):
            d = int(rng.integers(2, 5))
            n = int(rng.integers(3, 11))
            cases.append(rng.normal(size=(n, d)))
        # Integer lattice points: many lie exactly on facets and edges of the
        # others' hull, where the nearest point is 0 only up to rounding.
        for _ in range(150):
            d = int(rng.integers(2, 5))
            grid = np.stack(np.meshgrid(*[np.arange(3)] * d), axis=-1).reshape(-1, d)
            n = int(rng.integers(3, min(11, len(grid)) + 1))
            cases.append(grid[rng.choice(len(grid), size=n, replace=False)].astype(float))
        for pts in cases:
            verdict = is_convex_position(PointSet(pts))
            assert verdict.in_convex_position == oracle_convex_position(pts)
            if not verdict.in_convex_position:
                assert oracle_in_hull(verdict.witness_point, verdict.witness_simplex)
                obtuse_witness(verdict.witness_point, verdict.witness_simplex)

    def test_witness_yields_obtuse_angle(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            d = int(rng.integers(2, 4))
            hull = rng.normal(size=(d + 2, d))
            w = rng.exponential(size=d + 2) + 0.1
            w /= w.sum()
            inner = w @ hull
            ps = PointSet(np.vstack([hull, inner]))
            verdict = is_convex_position(ps)
            assert not verdict.in_convex_position
            wit = obtuse_witness(verdict.witness_point, verdict.witness_simplex)
            k = verdict.witness_simplex.shape[0] - 1
            rays = rays_from(wit.v, PointSet(verdict.witness_simplex))
            assert min_pairwise_dot(rays) <= -1.0 / k + 1e-9


    def test_verdict_is_decided_once_per_point_set(self, monkeypatch):
        decisions = _count_decisions(monkeypatch)
        ps = PointSet([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]])
        first = is_convex_position(ps)
        assert is_convex_position(ps) is first
        assert len(decisions) == 1
        for arr in (first.witness_point, first.witness_simplex):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 7.0
        convex = PointSet([[0, 0], [1, 0], [1, 1], [0, 1]])
        assert is_convex_position(convex).in_convex_position
        assert len(decisions) == 2  # a new set is decided afresh

    def test_curvature_reuses_the_stored_verdict(self, monkeypatch):
        from anglebound.curvature import gauss_bonnet_sum
        decisions = _count_decisions(monkeypatch)
        ps = PointSet([[0, 0], [1, 0], [1, 1], [0, 1]])
        assert is_convex_position(ps).in_convex_position
        assert gauss_bonnet_sum(ps, 2000, seed=1).samples == 2000
        assert len(decisions) == 1


def _outcome(decide, pts):
    """A verdict's bytes, or the RuntimeError a solve raised."""
    try:
        v = decide(pts)
    except RuntimeError as err:
        return "raises", str(err)
    if v.in_convex_position:
        return True, None, None
    return False, v.witness_point.tobytes(), v.witness_simplex.tobytes()


def _sphere_points(rng, n, D, min_sep):
    pts = []
    while len(pts) < n:
        x = rng.normal(size=D)
        x /= np.linalg.norm(x)
        if all(np.linalg.norm(x - p) >= min_sep for p in pts):
            pts.append(x)
    return np.array(pts)


def _near_boundary_case(k, far=False, centroid_of_all=False):
    """(p, pts): p lies 1e-14..1e-2 off the hyperplane through D of the n
    standard-normal points of R^D, on either side, above a random convex
    combination of them; p and the points are then scaled by 1e-3..1e3.
    With far=True the first point off that face is first moved 1e6 from the
    other points' centroid (from all the points' with centroid_of_all), on
    the side away from p."""
    rng = np.random.default_rng([41, k])
    D = int(rng.integers(2, 9))
    pts = rng.normal(size=(int(rng.integers(D + 2, 3 * D + 6)), D))
    on_face = rng.choice(len(pts), size=D, replace=False)
    face = pts[on_face]
    w = rng.random(D)
    normal = np.linalg.svd(face[1:] - face[0])[2][-1]
    p = (w / w.sum()) @ face + 10.0 ** rng.uniform(-14, -2) * rng.choice([-1.0, 1.0]) * normal
    if far:
        j = int(np.setdiff1d(np.arange(len(pts)), on_face)[0])
        centroid = (pts if centroid_of_all else np.delete(pts, j, axis=0)).mean(axis=0)
        pts[j] = centroid + 1e6 * (centroid - p) / np.linalg.norm(centroid - p)
    scale = 10.0 ** rng.uniform(-3, 3)
    return p * scale, pts * scale


def _bench_like_sets():
    """Sphere sets and sphere sets with one planted interior point, D = 2-8, n up to 48."""
    rng = np.random.default_rng(31)
    sets = []
    for D in range(2, 9):
        for n in sorted({D + 2, 16, 32 if D < 5 else 20, 48 if D < 4 else 24}):
            sets.append(_sphere_points(rng, n, D, 0.02))
            hull = _sphere_points(rng, n - 1, D, 0.02)
            corners = rng.choice(n - 1, size=D + 1, replace=False)
            w = rng.exponential(size=D + 1) + 0.2
            sets.append(np.insert(hull, int(rng.integers(n)), (w / w.sum()) @ hull[corners], axis=0))
    return sets


def _count_solves(monkeypatch):
    calls, solve = [], convexity._nearest_points
    monkeypatch.setattr(convexity, "_nearest_points",
                        lambda P, stage: calls.append(stage) or solve(P, stage))
    return calls


class TestDirectionScreen:
    """The screen certifies vertices by exposing directions before any solve;
    outcomes must be those of one solve per point."""

    def test_criterion_7_sets_are_pinned(self):
        # conftest scores the rejection sampler's candidates a block at a time
        # and rewinds the generator past the accepted one: the sets, and their
        # order, are those of one max_angle call per candidate.
        sets = criterion_7_sets()
        assert [(kind, idx) for kind, idx, _ in sets] == (
            [("below", i) for _ in range(3) for i in range(1000)]
            + [("interior", i) for i in range(1000)])
        assert digest(np.concatenate([pts.ravel() for _, _, pts in sets])) == (
            "a4c65caf4f960d49a47f1b4d3ad2df412467e0346f8e16cf89f55882f69b54ba")

    def test_matches_solving_every_point_on_criterion_7_sets(self):
        for _, _, pts in criterion_7_sets():
            assert (_outcome(convexity._decide_convex_position, pts)
                    == _outcome(solve_every_point, pts))

    @pytest.mark.parametrize("shift, scale", [(0.0, 1.0), (1e8, 1.0), (0.0, 1e-3), (0.0, 1e3)],
                             ids=["as-drawn", "translated-1e8", "scaled-1e-3", "scaled-1e3"])
    def test_matches_solving_every_point_on_bench_like_sets(self, shift, scale):
        for pts in _bench_like_sets():
            pts = pts * scale + shift
            assert (_outcome(convexity._decide_convex_position, pts)
                    == _outcome(solve_every_point, pts))

    def test_points_on_the_others_hull_are_never_certified(self):
        rng = np.random.default_rng(32)
        for D in range(2, 9):
            hull = _sphere_points(rng, 2 * D + 2, D, 0.02)
            for k in range(2, D + 1):  # on an edge (k = 2) or a k-point face of a simplex
                corners = hull[rng.choice(len(hull), size=k, replace=False)]
                w = rng.exponential(size=k) + 0.1
                p = (w / w.sum()) @ corners
                for offset in (0.0, 1e8):
                    i = int(rng.integers(len(hull) + 1))
                    pts = np.insert(hull, i, p, axis=0) + offset
                    assert not convexity._screen(pts)[i]
        # Lattice points on the edges and facets of the others' hull.
        for D in (2, 3, 4):
            grid = np.array(list(itertools.product(range(3), repeat=D)), dtype=float)
            for i in np.flatnonzero(np.any(grid == 1, axis=1)):
                assert not convexity._screen(grid)[i]

    @pytest.mark.parametrize("gap", [1e-12, 9e-10])
    @pytest.mark.parametrize("D", [2, 3, 5])
    def test_a_gap_below_the_margin_is_left_to_the_solver(self, D, gap):
        # The screen's first direction u exposes p = gap * u above a face of
        # the others' hull through the origin: p is within FEAS_TOL of that
        # hull, so the solve counts it as inside, and the screen must not.
        u = rd_directions(D, 2)[1]
        W = np.linalg.svd(u[None, :])[2][1:]  # orthonormal basis of u's complement
        pts = np.vstack([W, -W, -u, gap * u])
        assert not convexity._screen(pts)[-1]
        assert (_outcome(convexity._decide_convex_position, pts)
                == _outcome(solve_every_point, pts))
        assert not is_convex_position(PointSet(pts)).in_convex_position

    def test_well_separated_sphere_sets_need_no_solve(self, monkeypatch):
        solves = _count_solves(monkeypatch)
        rng = np.random.default_rng(33)
        sets = [np.column_stack([np.cos(a), np.sin(a)])
                for a in (2 * math.pi * np.arange(n) / n for n in range(3, 49))]
        for D in range(2, 7):
            Q = random_rotation(rng, D)
            cube = np.array(list(itertools.product([-1.0, 1.0], repeat=D))) / math.sqrt(D)
            sets += [cube @ Q.T, np.vstack([np.eye(D), -np.eye(D)]) @ Q.T, unit_simplex(D) @ Q.T]
            sets += [_sphere_points(rng, n, D, 0.2) for n in (D + 2, 12)]
        for pts in sets:
            for shift, scale in ((0.0, 1.0), (1e8, 1.0), (0.0, 1e-3), (0.0, 1e3)):
                assert is_convex_position(PointSet(pts * scale + shift)).in_convex_position
        assert solves == []

    def test_only_unexposed_points_reach_the_solver(self, monkeypatch):
        solves = _count_solves(monkeypatch)
        ps = PointSet(TestSolverAnswersAreRechecked.SQUARE_PLUS.points)
        assert not is_convex_position(ps).in_convex_position
        assert solves == ["hull membership of point 4"]


    def test_directions_are_built_once_per_size_and_read_only(self, monkeypatch):
        # The screen reads the shared cache, which builds a longer array only
        # when a screen needs more rows than it holds.
        built, asked = [], []
        rd, fixed = sampling.rd_directions, sampling.fixed_directions
        monkeypatch.setattr(sampling, "_FIXED", {})
        monkeypatch.setattr(sampling, "rd_directions",
                            lambda dim, n: built.append((dim, n)) or rd(dim, n))
        monkeypatch.setattr(convexity, "fixed_directions",
                            lambda dim, count: asked.append((dim, count)) or fixed(dim, count))
        rng = np.random.default_rng(34)
        verdicts = [convexity._screen(rng.normal(size=(n, D)))
                    for _ in range(3) for D in (2, 5) for n in (8, 40)]
        assert built == [(2, 257), (2, 321), (5, 257), (5, 321)]
        assert asked == [(2, 256), (2, 320), (5, 256), (5, 320)] * 3
        assert all(v.dtype == bool for v in verdicts)
        U = fixed(5, 256)
        assert not U.flags.writeable and np.shares_memory(U, sampling._FIXED[5])
        assert U.tobytes() == rd_directions(5, 257)[1:].tobytes()


class TestSolverAnswersAreRechecked:
    SQUARE_PLUS = PointSet([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]])

    def test_step_cap_raises_naming_the_stage(self, monkeypatch):
        monkeypatch.setattr(convexity, "NEAREST_STEPS_PER_POINT", 0)
        with pytest.raises(RuntimeError, match=r"hull membership of point 4: .*cap of 0 steps"):
            is_convex_position(self.SQUARE_PLUS)

    def test_outside_answer_without_separation_raises(self, monkeypatch):
        # A nonzero z that does not separate the point from the others must
        # not read as "in convex position".
        fake = lambda P, stage: (np.array([[0.0, 1.0]]), [np.array([0])], np.ones(1))
        monkeypatch.setattr(convexity, "_nearest_points", fake)
        with pytest.raises(RuntimeError, match="separation margin"):
            is_convex_position(self.SQUARE_PLUS)

    def test_inside_answer_with_bad_support_raises(self, monkeypatch):
        # z = 0 claimed, but the support alone does not contain the point.
        fake = lambda P, stage: (np.zeros((1, 2)), [np.array([0])], np.ones(1))
        monkeypatch.setattr(convexity, "_nearest_points", fake)
        with pytest.raises(RuntimeError, match="fails its re-check"):
            caratheodory_decompose([0.5, 0.5], self.SQUARE_PLUS)

    @pytest.mark.parametrize("scale", [1.0, 1e-3, 1e3])
    def test_far_translated_sets_keep_their_witness(self, scale):
        # The support re-check must not depend on where the set sits: solved
        # in uncentred coordinates, its system loses rank near 1e8.
        for pts in _bench_like_sets()[1::2]:  # the sets with a planted interior point
            near = is_convex_position(PointSet(pts * scale))
            i = int(np.flatnonzero(np.all(pts * scale == near.witness_point, axis=1))[0])
            moved = pts * scale + 1e8
            v = is_convex_position(PointSet(moved))
            assert not v.in_convex_position
            np.testing.assert_array_equal(v.witness_point, moved[i])
            assert obtuse_witness(v.witness_point, v.witness_simplex).angle > math.pi / 2

    # The cases k < 20000 whose support failed its re-check when "inside" was
    # decided on the largest |q - p| of all points and the residual barred at
    # 1e-9 max(1, largest entry of V - p): two scales that disagree.
    MIXED_SCALE_FAILURES = (
        214, 458, 665, 1473, 1798, 2677, 3327, 4308, 4769, 5179, 5300, 6519, 7628,
        7961, 8279, 9468, 10705, 10768, 10963, 11644, 11852, 12692, 14197, 14562,
        15857, 16703, 16713, 16927, 17212, 17244, 17314, 17616, 17947, 18010,
        18041, 18956, 19187, 19674,
    )

    def test_near_boundary_points_get_a_checked_verdict(self):
        for k in (*self.MIXED_SCALE_FAILURES, *range(300)):
            p, pts = _near_boundary_case(k)
            simplex, z = convexity._hull_simplex(p, pts, f"case {k}")
            if simplex is None:
                assert float(np.min((pts - p) @ z)) >= 0.5 * float(z @ z), k
            else:
                assert obtuse_witness(p, simplex).angle > math.pi / 2, k


    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_tight_cluster_with_one_far_point_is_separated(self, scale):
        # p is 1e-8 above the edge ab, 1e-15 from a; the hull's other points
        # are 1 and 1e6 away. Stopped on the largest |q - p|, the solve ends
        # at the vertex a, whose z does not separate p; the stop and the
        # decision both belong on the support's radius |b - p| = 1.
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, -1.0], [0.5, -1e6]]) * scale
        p = np.array([1e-15, 1e-8]) * scale
        simplex, z = convexity._hull_simplex(p, pts, "cluster")
        assert simplex is None
        assert float(np.min((pts - p) @ z)) >= 0.5 * float(z @ z)

    def test_far_point_keeps_its_pull_in_the_support(self):
        # One point off the face 1e6 away, on the side away from p: its corral
        # weight can fall below COEFF_TOL while its pull
        # w |P| stays above FEAS_TOL times the others' radius: dropping it
        # left an "inside" whose support failed its re-check in 96 of these
        # 3000 cases, so the support keeps it and the interior test counts it.
        verdicts = {"inside": 0, "outside": 0}
        for k in range(3000):
            p, pts = _near_boundary_case(k, far=True)
            simplex, z = convexity._hull_simplex(p, pts, f"case {k}")
            if simplex is None:
                assert float(np.min((pts - p) @ z)) >= 0.5 * float(z @ z), k
                verdicts["outside"] += 1
            else:
                assert obtuse_witness(p, simplex).angle > math.pi / 2, k
                verdicts["inside"] += 1
        assert min(verdicts.values()) >= 100, verdicts

    def test_far_point_past_both_bars_passes_the_recheck(self):
        # With the far point moved from the centroid of all the points, case
        # 1076's kernel weight on it is 5.9e-15, a pull 1.31 times the bar at
        # which the support keeps it; the re-check's coordinate is 2.7e-15,
        # 0.59 times that bar. Above PULL_MARGIN times the bar it counts.
        p, pts = _near_boundary_case(1076, far=True, centroid_of_all=True)
        simplex, _ = convexity._hull_simplex(p, pts, "case 1076")
        assert simplex is not None and len(simplex) == 8
        assert obtuse_witness(p, simplex).angle > math.pi / 2
        coords, _, _, _ = convexity._barycentric(p, simplex)
        dist = np.linalg.norm(simplex - p, axis=1)
        pull = coords * dist / (convexity.FEAS_TOL * convexity._others_max(dist))
        assert convexity.PULL_MARGIN < pull.min() < 1.0


class TestNearestPoints:
    """The lockstep kernel answers each problem of a stack as one Wolfe solve
    of that problem alone does (conftest.wolfe_nearest_point)."""

    @staticmethod
    def stacks(rng):
        """(P, rays): 800 random (S, m, D) stacks, a quarter each of Gaussian
        points, unit rays (in an open hemisphere or not), near-degenerate
        points close to a hyperplane or to each other, and points and an apex
        both translated by 1e8 before the difference; then scaled by
        1e-3..1e3 (all but the rays)."""
        for t in range(800):
            D, S = int(rng.integers(2, 9)), int(rng.integers(1, 10))
            m = int(rng.integers(2, 3 * D + 6))
            kind = t % 4
            P = rng.normal(size=(S, m, D))
            if kind == 1:
                P += rng.normal(size=(S, 1, D)) * rng.uniform(0.0, 3.0)
                yield P / np.linalg.norm(P, axis=2)[:, :, None], True
                continue
            if kind == 2:
                P[:, :, -1] *= 10.0 ** rng.uniform(-12, -3)
                P[:, 1::2] = P[:, ::2][:, :m // 2] + 10.0 ** rng.uniform(-12, -3) * rng.normal(
                    size=(S, m // 2, D))
            elif kind == 3:
                shift = rng.normal(size=D) * 1e8
                P = (P + shift) - (rng.normal(size=(S, 1, D)) + shift)
            yield P * 10.0 ** rng.uniform(-3, 3), False

    def test_matches_one_solve_per_problem(self):
        rng = np.random.default_rng(44)
        problems = refusals = 0
        for P, rays in self.stacks(rng):
            z, support, r = convexity._nearest_points(P, "stack")
            for s in range(len(P)):
                z0, support0, r0 = wolfe_nearest_point(P[s], "oracle")
                assert np.flatnonzero(support[s]).tolist() == support0.tolist()
                assert r[s] == r0
                assert np.linalg.norm(z[s] - z0) <= 1e-12 * r0
                if rays:
                    refused = np.linalg.norm(z0) <= convexity.FEAS_TOL
                    assert (np.linalg.norm(z[s]) <= convexity.FEAS_TOL) == refused
                    refusals += refused
                problems += 1
        assert problems >= 3000 and refusals >= 50

    def test_step_cap_names_the_first_problem_still_running(self, monkeypatch):
        monkeypatch.setattr(convexity, "NEAREST_STEPS_PER_POINT", 0)
        with pytest.raises(RuntimeError, match=r"stack: .*cap of 0 steps on problem 0 of 3"):
            convexity._nearest_points(np.ones((3, 4, 2)), "stack")

    def test_step_cap_reports_the_problem_scale(self, monkeypatch):
        monkeypatch.setattr(convexity, "NEAREST_STEPS_PER_POINT", 0)
        P = np.ones((3, 4, 2)) * np.array([1.0, 3.0, 5.0])[:, None, None]
        with pytest.raises(RuntimeError, match=r"on problem 0 of 3 .*scale=1\.41421\)"):
            convexity._nearest_points(P, "stack")


class TestObtuseWitness:
    def test_center_of_square_on_diagonal(self):
        simplex = np.array([[0.0, 0.0], [1.0, 1.0]])
        wit = obtuse_witness([0.5, 0.5], simplex)
        assert wit.angle == pytest.approx(math.pi, abs=1e-7)

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_regular_simplex_centroid_attains_bound(self, k):
        wit = obtuse_witness(np.zeros(k), unit_simplex(k))
        assert wit.angle == pytest.approx(math.acos(-1.0 / k), abs=1e-9)

    def test_500_random_triangles(self):
        rng = np.random.default_rng(24)
        theta2 = 2 * math.pi / 3
        for _ in range(500):
            simplex = sample_simplex_with_interior_origin(rng, 2)
            wit = obtuse_witness(np.zeros(2), simplex)
            assert wit.angle >= theta2 - 1e-9
            # The witness pair is the global minimum over all pairs.
            rays = simplex / np.linalg.norm(simplex, axis=1)[:, None]
            best = math.acos(max(-1.0, min(1.0, min_pairwise_dot(rays))))
            assert wit.angle == pytest.approx(best, abs=1e-12)

    def test_exterior_point_rejected(self):
        with pytest.raises(NotInterior):
            obtuse_witness([5.0, 5.0], np.array([[0, 0], [1, 0], [0, 1]], dtype=float))

    def test_boundary_point_rejected(self):
        with pytest.raises(NotInterior):
            obtuse_witness([0.5, 0.0], np.array([[0, 0], [1, 0], [0, 1]], dtype=float))

    @pytest.mark.parametrize("shift", [0.0, 1e8])
    def test_point_off_a_far_segment_rejected(self, shift):
        # 0.01 off a unit segment: the residual bar is set by the simplex
        # around p, not by how far the pair sits from the origin.
        with pytest.raises(NotInterior, match=r"residual 0\.01"):
            obtuse_witness([shift + 0.5, shift + 0.01], [[shift, shift], [shift + 1, shift]])

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_far_vertex_with_a_tiny_coordinate_counts(self, scale):
        # p is 1e-5 above the unit edge: its coordinate on the apex 1e6 away is
        # 1e-11, below COEFF_TOL, but that vertex's pull 1e-11 * 1e6 holds p
        # off the edge by far more than FEAS_TOL times the edge's radius.
        V = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1e6]]) * scale
        p = np.array([0.5, 1e-5]) * scale
        assert obtuse_witness(p, V).angle > math.pi / 2
        assert simplex_contains_origin(V - p, strict=True)
        with pytest.raises(NotInterior):  # a vertex is still not interior
            obtuse_witness(V[0], V)

    def test_degenerate_simplex_rejected(self):
        with pytest.raises(DegenerateSimplex):
            obtuse_witness([0.5, 0.1], np.array([[0, 0], [1, 0], [2, 0]], dtype=float))
        with pytest.raises(DegenerateSimplex, match="^simplex needs at least two vertices$"):
            obtuse_witness([0.5, 0.1], [[0.5, 0.1]])
