import math

import numpy as np
import pytest

from anglebound import convexity
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
)
from anglebound.geometry import PointSet, rays_from
from conftest import (
    oracle_convex_position,
    oracle_in_hull,
    sample_simplex_with_interior_origin,
    unit_simplex,
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

    def test_outside_point_rejected(self):
        tri = PointSet([[0, 0], [1, 0], [0, 1]])
        with pytest.raises(NotInHull):
            caratheodory_decompose([5, 5], tri)


def _no_solve(P, stage):
    raise AssertionError(f"{stage} solved again")


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
        ps = PointSet([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]])
        first = is_convex_position(ps)
        monkeypatch.setattr(convexity, "_nearest_point", _no_solve)
        assert is_convex_position(ps) is first
        for arr in (first.witness_point, first.witness_simplex):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 7.0
        convex = PointSet([[0, 0], [1, 0], [1, 1], [0, 1]])
        with pytest.raises(AssertionError, match="solved again"):
            is_convex_position(convex)  # a new set is decided afresh

    def test_curvature_reuses_the_stored_verdict(self, monkeypatch):
        from anglebound.curvature import gauss_bonnet_sum
        ps = PointSet([[0, 0], [1, 0], [1, 1], [0, 1]])
        assert is_convex_position(ps).in_convex_position
        monkeypatch.setattr(convexity, "_nearest_point", _no_solve)
        assert gauss_bonnet_sum(ps, 2000, seed=1).samples == 2000


class TestSolverAnswersAreRechecked:
    SQUARE_PLUS = PointSet([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]])

    def test_step_cap_raises_naming_the_stage(self, monkeypatch):
        monkeypatch.setattr(convexity, "NEAREST_STEPS_PER_POINT", 0)
        with pytest.raises(RuntimeError, match=r"hull membership of point 0: .*cap of 0 steps"):
            is_convex_position(self.SQUARE_PLUS)

    def test_outside_answer_without_separation_raises(self, monkeypatch):
        # A nonzero z that does not separate the point from the others must
        # not read as "in convex position".
        fake = lambda P, stage: (np.array([0.0, 1.0]), np.array([0]), np.ones(1))
        monkeypatch.setattr(convexity, "_nearest_point", fake)
        with pytest.raises(RuntimeError, match="separation margin"):
            is_convex_position(self.SQUARE_PLUS)

    def test_inside_answer_with_bad_support_raises(self, monkeypatch):
        # z = 0 claimed, but the support alone does not contain the point.
        fake = lambda P, stage: (np.zeros(2), np.array([0]), np.ones(1))
        monkeypatch.setattr(convexity, "_nearest_point", fake)
        with pytest.raises(RuntimeError, match="fails its re-check"):
            caratheodory_decompose([0.5, 0.5], self.SQUARE_PLUS)


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

    def test_degenerate_simplex_rejected(self):
        with pytest.raises(DegenerateSimplex):
            obtuse_witness([0.5, 0.1], np.array([[0, 0], [1, 0], [2, 0]], dtype=float))
