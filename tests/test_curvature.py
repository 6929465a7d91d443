import itertools
import math
import tracemalloc

import numpy as np
import pytest

from anglebound import constructions, convexity, curvature, geometry, sampling
from anglebound.bounds import eta_of_theta, f_fraction, theta_d
from anglebound.curvature import (
    BLOCK,
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
from anglebound.sampling import (
    canonical_lines,
    rd_directions,
    rng_stream,
)
from conftest import (
    canonical_line,
    hull_defect_fractions,
    loop_planar_cone_axes,
    nnls_min_enclosing_cap,
    planar_interior_angles,
    row_major_rd_directions,
    sample_cap_points,
    whole_gauss_bonnet_counts,
    whole_raw_rows,
    wolfe_nearest_point,
)

SQUARE = PointSet([[0, 0], [1, 0], [1, 1], [0, 1]])
CUBE = PointSet([[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)])
TESSERACT = PointSet(list(itertools.product((0, 1), repeat=4)))
CROSS_4 = PointSet(np.vstack([np.eye(4), -np.eye(4)]))
TETRAHEDRON = PointSet([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]])
OCTAHEDRON = PointSet(np.vstack([np.eye(3), -np.eye(3)]))
CUBOCTAHEDRON = PointSet([p for p in itertools.product((-1, 0, 1), repeat=3)
                          if np.count_nonzero(p) == 2])
# A regular 7-gon prism: square side faces, coplanar 7-point end faces.
PRISM_7 = PointSet([[math.cos(a), math.sin(a), z] for z in (-1.0, 1.0)
                    for a in 0.4 + 2 * math.pi * np.arange(7) / 7])


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


def identity_blocks(dim: int, n: int, seed: int, width: int, samples=None) -> list:
    """curvature._paired_products's (PT, paired) over 2n samples (or `samples`)
    for P the identity padded with zero rows to `width` rows, each PT cut to
    its first dim rows: its block's raw rows, one per column."""
    P = np.eye(width, dim)
    return [(PT[:dim].copy(), paired) for PT, paired in
            curvature._paired_products(P, 2 * n if samples is None else samples, seed)]


def raw_rows(blocks: list, dim: int) -> np.ndarray:
    """The raw rows of identity_blocks, one per row."""
    return np.hstack([PT[:dim] for PT, _ in blocks]).T


class TestSampling:
    def test_partition_independence(self, monkeypatch):
        # The rows do not depend on the column-block size the width sets.
        full = whole_raw_rows(3, 3 * BLOCK + 1000, seed=9)
        for width in (3, 400, 1 << 13):
            z = raw_rows(identity_blocks(3, 3 * BLOCK + 1000, 9, width), 3)
            np.testing.assert_allclose(z, full, rtol=0.0, atol=1e-15)
        # The smallest blocks, two columns each, as a width of 2^15 gives.
        monkeypatch.setattr(geometry, "_BLOCK_ENTRIES", 6)
        blocks = identity_blocks(3, 3 * BLOCK + 1000, 9, 3)
        assert {PT.shape[1] for PT, _ in blocks} == {2}
        np.testing.assert_allclose(raw_rows(blocks, 3), full, rtol=0.0, atol=1e-15)

    def test_unit_norm_and_mean_isotropy(self):
        z = raw_rows(identity_blocks(5, 20000, 4, 5), 5)
        np.testing.assert_allclose(z, whole_raw_rows(5, 20000, 4), rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(np.linalg.norm(z, axis=1), 1.0, atol=1e-12)
        assert np.linalg.norm(z.mean(axis=0)) < 0.02

    def test_base_set_is_the_cached_unshifted_rd_set(self, monkeypatch):
        asked = []
        fixed = curvature.fixed_directions
        monkeypatch.setattr(curvature, "fixed_directions",
                            lambda dim, count: asked.append((dim, count)) or fixed(dim, count))
        for dim in (1, 2, 5, 8):
            list(curvature._paired_products(np.eye(dim), 2000, 0))
            base = fixed(dim, BLOCK)
            assert np.shares_memory(base, fixed(dim, BLOCK)) and not base.flags.writeable
            assert base.tobytes() == rd_directions(dim, BLOCK + 1)[1:].tobytes()
        assert asked == [(1, BLOCK), (2, BLOCK), (5, BLOCK), (8, BLOCK)]

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 8, 12])
    def test_rotations_are_orthogonal(self, dim):
        dets = []
        for Q in curvature._rotations(np.random.default_rng(3), 40, dim):
            assert np.linalg.norm(Q.T @ Q - np.eye(dim)) <= 1e-12
            dets.append(np.linalg.det(Q))
        np.testing.assert_allclose(np.abs(dets), 1.0, atol=1e-12)
        assert min(dets) < 0.0 < max(dets)  # Haar on O(dim): both components

    def test_same_seed_same_bytes(self):
        def stream(n, seed, width=6):
            return raw_rows(identity_blocks(6, n, seed, width), 6)

        first = stream(3 * BLOCK + 17, 11)
        assert stream(3 * BLOCK + 17, 11).tobytes() == first.tobytes()
        wide = stream(3 * BLOCK + 17, 11, width=300)
        assert stream(3 * BLOCK + 17, 11, width=300).tobytes() == wide.tobytes()
        np.testing.assert_allclose(wide, first, rtol=0.0, atol=1e-15)
        # A longer stream extends a shorter one.
        assert first.tobytes().startswith(stream(BLOCK + 5, 11).tobytes())
        assert not np.allclose(stream(3 * BLOCK + 17, 12), first)

    def test_vectorized_canonicalization_matches_canonical_line(self):
        rng = np.random.default_rng(3)
        tiny = [0.0, 1e-13, -1e-13, 1e-12, -1e-12]  # tol is a strict >: 1e-12 is not above it
        for D in range(2, 9):
            V = rng.normal(size=(480, D))
            V[:60, 0] = rng.uniform(-1e-12, 1e-12, size=60)  # leading coordinate within tol of 0
            V[:20, 1] = rng.uniform(-1e-12, 1e-12, size=20)
            V[:5, D - 1] = 0.0
            for j in range(D):  # leading entries from `tiny`, then a signed entry or more tiny ones
                V[100 + 40 * j:140 + 40 * j, :j] = rng.choice(tiny, size=(40, j))
            V[420:460] = rng.choice(tiny, size=(40, D))  # nothing above tol: left as it is
            V[460] = [-1e-12] * D
            V[461] = [1e-12, -2e-12] + [0.0] * (D - 2)
            V[462] = [0.0] * (D - 1) + [-1e-12]
            V[463] = [-0.0] * D
            got = canonical_lines(V)
            for row, v in zip(got, V):
                assert row.tobytes() == canonical_line(v).tobytes()

    @pytest.mark.parametrize("dim", range(2, 13))
    def test_directions_are_pinned_to_the_row_major_formula(self, dim):
        for n in (1, 2, 5, 20_000):
            U = rd_directions(dim, n)
            assert U.shape == (n, dim) and U.flags.c_contiguous
            assert U.tobytes() == row_major_rd_directions(dim, n).tobytes()

    @pytest.mark.parametrize("dim", range(1, 13))
    def test_builds_are_prefixes_and_the_cache_grows_only_when_asked(self, dim, monkeypatch):
        full = rd_directions(dim, 20_001)
        for n in (1, 2, 257, 4097, 20_000):
            assert rd_directions(dim, n).tobytes() == full[:n].tobytes()
        built, rd = [], sampling.rd_directions
        monkeypatch.setattr(sampling, "_FIXED", {})
        monkeypatch.setattr(sampling, "rd_directions",
                            lambda d, n: built.append(n) or rd(d, n))
        for count in (256, 100, BLOCK, 320, BLOCK, 5000, 256):
            U = sampling.fixed_directions(dim, count)
            assert U.shape == (count, dim) and U.flags.c_contiguous and not U.flags.writeable
            assert U.tobytes() == full[1:count + 1].tobytes()
        assert built == [257, BLOCK + 1, 5001]

    @pytest.mark.parametrize("terms", [1, 2, 7, 8, 9, 15, 16, 17, 127, 128, 129, 136, 300])
    def test_square_sums_add_in_the_order_of_the_row_norm(self, terms):
        # np.linalg.norm's pairwise order of addition changes at 8 and at 128
        # terms; rows built coordinate-major keep the row-major bits across both.
        U = rd_directions(terms, 5000)
        assert U.tobytes() == row_major_rd_directions(terms, 5000).tobytes()

    def test_unshifted_directions_are_unit_after_row_0(self):
        for dim in range(1, 9):
            U = rd_directions(dim, 400)
            np.testing.assert_array_equal(U[0], np.zeros(dim))
            np.testing.assert_allclose(np.linalg.norm(U[1:], axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("seed", [-1, 2.5, math.nan, math.inf, -math.inf])
    def test_seeded_entry_points_refuse_bad_seeds(self, seed):
        for call in (lambda: normal_cone_fraction_mc(TESSERACT, 0, 2000, seed),
                     lambda: gauss_bonnet_sum(TESSERACT, 2000, seed),
                     lambda: constructions.pack_lines(3, 2, seed=seed),
                     lambda: rng_stream(seed), lambda: constructions.cover_lines(1.0, 3, seed)):
            with pytest.raises(OutOfRange, match=f"seed must be a non-negative integer, "
                                                 f"got {seed!r}"):
                call()

    def test_seed_is_checked_before_any_work(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the seed was checked")

        monkeypatch.setattr(constructions, "_min_line_angle", no_work)
        monkeypatch.setattr(convexity, "_nearest_points", no_work)
        calls = [lambda: constructions.pack_lines(3, 2, seed=-1),
                 lambda: gauss_bonnet_sum(PointSet(SQUARE.points), 2000, -1),
                 lambda: normal_cone_fraction_mc(PointSet(SQUARE.points), 0, 2000, -1)]
        for call in calls:
            with pytest.raises(OutOfRange, match="seed must be a non-negative integer, got -1"):
                call()

    @pytest.mark.parametrize("call, message", [
        (lambda: gauss_bonnet_sum(PointSet(np.zeros((10, 0))), 2000, 1),
         r"expected an \(n, dim\) array with n, dim >= 1, got \(10, 0\)"),
        (lambda: normal_cone_fraction_mc(TESSERACT, 0, 999, 1),
         "need at least 1000 samples, an integer, got 999"),
        (lambda: cone_cover_certificate(SQUARE, 0.0),
         r"^eta must lie in \(0, pi/2\), got 0\.0$"),
        (lambda: cone_cover_certificate(SQUARE, math.pi / 2),
         r"^eta must lie in \(0, pi/2\), got 1\.5707963267948966$"),
        (lambda: cone_cover_certificate(PointSet([[0.0, 1.0]]), 0.5),
         "^need at least two points$"),
        (lambda: min_enclosing_cap([]), "^need a nonempty list of unit vectors$"),
        (lambda: curvature.Cone(apex=np.zeros(2), axis=[0.0, 1.0], half_angle=math.pi / 2),
         r"^half_angle must lie in \(0, pi/2\), got 1\.5707963267948966$"),
        (lambda: curvature.SphericalCap(center=[0.0, 1.0], radius=4.0),
         r"^cap radius must lie in \[0, pi\], got 4\.0$"),
    ], ids=["dim", "n", "eta-zero", "eta-right-angle", "cover-one-point", "cap-empty",
            "cone-half-angle", "cap-radius"])
    def test_bad_sizes_raise_out_of_range(self, call, message):
        with pytest.raises(OutOfRange, match=message):
            call()

    @pytest.mark.parametrize("call, message", [
        (lambda: normal_cone_fraction_mc(PointSet([[0, 0], [1, 0], [0, 1]]), 1.5, 2000, 1),
         r"vertex index must be an integer, got 1\.5"),
        (lambda: normal_cone_fraction_mc(TESSERACT, 16, 2000, 1), "vertex index 16 out of range"),
    ], ids=["vertex-index", "vertex-index-range"])
    def test_fractional_and_nan_sizes_refused_by_name(self, call, message):
        # A fractional index used to escape as a raw IndexError.
        with pytest.raises(OutOfRange, match=f"^{message}$"):
            call()

    @pytest.mark.parametrize("dim, n, width, seed", [
        (3, 5000, 3, 0), (1, 70_001, 1, 0), (2, 524_289, 7, 0),
        (5, 4000, 48, 260_644), (8, 1366, 300, 17),
    ])
    def test_blocks_are_one_draw_per_chunk(self, dim, n, width, seed):
        # A chunk is BLOCK raw rows under one rotation draw; its column blocks
        # stay within the _row_blocks budget and never straddle two chunks.
        # Over 2n - 1 samples only the last raw row has no partner.
        blocks = identity_blocks(dim, n, seed, width, samples=2 * n - 1)
        cols = [PT.shape[1] for PT, _ in blocks]
        step = max(1, (1 << 16) // max(dim, width))
        assert all(2 <= c <= step for c in cols[:-1]) and cols[-1] <= step
        ends = np.cumsum(cols)
        assert set(range(BLOCK, n, BLOCK)) <= set(ends.tolist())
        assert [paired for _, paired in blocks] == cols[:-1] + [cols[-1] - 1]
        np.testing.assert_allclose(raw_rows(blocks, dim), whole_raw_rows(dim, n, seed),
                                   rtol=0.0, atol=1e-15)


def _sphere_set(seed: int, n: int, dim: int) -> PointSet:
    x = np.random.default_rng(seed).normal(size=(n, dim))
    return PointSet(x / np.linalg.norm(x, axis=1)[:, None])


class TestBlockedSweeps:
    """The row-blocked sweeps count exactly what the whole-matrix sweeps counted.

    gauss_bonnet_sum is exact in D = 2 and 3, so its Monte Carlo sweep
    (`_shared_sample_counts`) is pinned there directly, and through
    gauss_bonnet_sum on D = 4 sets of the same sizes.
    """

    CASES = [(2, 7, 267_144), (2, 9, 262_145), (3, 48, 20_000), (5, 13, 70_001),
             (8, 20, 1366), (3, 300, 4000), (4, 7, 267_144), (4, 9, 262_145),
             (4, 48, 20_000), (4, 300, 4000)]

    @pytest.mark.parametrize("dim, n, samples", CASES)
    def test_gauss_bonnet_counts_match_whole_sweep(self, dim, n, samples):
        ps = _sphere_set(n + dim, n, dim)
        counts = whole_gauss_bonnet_counts(ps.points, samples, seed=n)
        sweep = curvature._shared_sample_counts(ps.points, samples, seed=n)
        np.testing.assert_array_equal(sweep, counts)
        if dim <= 3:
            return
        est = gauss_bonnet_sum(ps, samples, seed=n)
        assert est.method == "monte_carlo"
        np.testing.assert_array_equal(np.rint(est.fractions * samples).astype(int), counts)
        close = int(np.argmin(counts))
        exact = np.arange(n) != close
        np.testing.assert_array_equal(est.fractions[exact], counts[exact] / samples)

    @pytest.mark.parametrize("dim, n, samples", CASES)
    def test_normal_cone_counts_match_whole_sweep(self, dim, n, samples):
        ps = _sphere_set(n + dim, n, dim)
        for i in (0, n - 1):
            f, _ = normal_cone_fraction_mc(ps, i, samples, seed=i + 1)
            assert f == whole_gauss_bonnet_counts(ps.points, samples, seed=i + 1)[i] / samples

    @pytest.mark.parametrize("extreme, arg", [(np.max, np.argmax), (np.min, np.argmin)],
                             ids=["max", "min"])
    def test_packed_bit_counts_equal_counting_the_matches(self, extreme, arg):
        rng = np.random.default_rng(53)
        for _ in range(200):
            n, cols = int(rng.integers(1, 50)), int(rng.integers(1, 700))
            PT = rng.normal(size=(n, cols))
            if rng.random() < 0.3:  # exact ties between rows
                PT = np.round(PT)
            want = np.bincount(arg(PT, axis=0), minlength=n)
            got = curvature._first_extreme_counts(PT, extreme, arg)
            assert got.tolist() == want.tolist()
            if int(np.count_nonzero(PT == extreme(PT, axis=0))) == cols:  # no tie
                assert got.tolist() == np.count_nonzero(PT == extreme(PT, axis=0),
                                                        axis=1).tolist()

    @pytest.fixture(scope="class")
    def big_set(self):
        ps = _sphere_set(300, 300, 3)
        assert convexity.is_convex_position(ps).in_convex_position
        return ps

    @pytest.mark.parametrize("sweep", [
        lambda ps: gauss_bonnet_sum(ps, 100_000, seed=1),
        lambda ps: normal_cone_fraction_mc(ps, 0, 100_000, seed=1),
    ], ids=["gauss_bonnet_sum", "normal_cone_fraction_mc"])
    def test_sweep_memory_does_not_grow_with_samples(self, big_set, sweep):
        tracemalloc.start()
        try:
            sweep(big_set)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6


class TestExactTies:
    """Integer directions against the square and the cube meet vertices in
    exact ties and give exact zero products. The vertex-major sweeps must
    count them as first-index argmax/argmin on the row-major product U @ V.T
    do, and normal_cone_fraction_mc must read its vertex's count from them."""

    @staticmethod
    def blocks(dim: int) -> list:
        grid = np.array(list(itertools.product([-1.0, 0.0, 1.0], repeat=dim)))
        wide = np.random.default_rng(dim).integers(-3, 4, size=(700, dim)).astype(float)
        # Even and odd `paired`: in the last two blocks the final row is unpaired.
        return [(wide, 700), (np.tile(grid, (20, 1)), 20 * len(grid) - 1),
                (grid[::-1].copy(), len(grid) - 1)]

    @pytest.mark.parametrize("ps", [SQUARE, CUBE, TESSERACT, CROSS_4],
                             ids=["square", "cube", "tesseract", "cross-polytope"])
    def test_counts_equal_first_index_row_major_counts(self, monkeypatch, ps):
        blocks = self.blocks(ps.dim)
        monkeypatch.setattr(curvature, "_paired_products", lambda P, samples, seed: (
            (P @ U.T, paired) for U, paired in blocks))
        samples = sum(len(U) + paired for U, paired in blocks)
        V = ps.points
        expected = np.zeros(len(V), dtype=int)
        for U, paired in blocks:
            P = U @ V.T
            expected += np.bincount(np.argmax(P, axis=1), minlength=len(V))
            expected += np.bincount(np.argmin(P[:paired], axis=1), minlength=len(V))
        if ps.dim <= 3:  # gauss_bonnet_sum is exact there; pin its Monte Carlo sweep
            counts = curvature._shared_sample_counts(V, samples, seed=1)
        else:
            est = gauss_bonnet_sum(ps, samples, seed=1)
            counts = np.rint(est.fractions * samples).astype(int)
        np.testing.assert_array_equal(counts, expected)
        for i in range(len(V)):
            assert normal_cone_fraction_mc(ps, i, samples, seed=1)[0] == expected[i] / samples


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

    def test_vertex_counts_partition_the_sample(self):
        ps, samples = _sphere_set(4, 12, 4), 20_001
        fractions = np.array([normal_cone_fraction_mc(ps, i, samples, seed=3)[0]
                              for i in range(len(ps))])
        counts = np.rint(fractions * samples).astype(int)
        np.testing.assert_array_equal(counts / samples, fractions)
        assert counts.sum() == samples

    def test_requires_convex_position(self):
        bad = PointSet([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]])
        with pytest.raises(NotConvexPosition):
            normal_cone_fraction_mc(bad, 0, 2000, seed=1)

    def test_requires_enough_samples(self):
        with pytest.raises(OutOfRange):
            normal_cone_fraction_mc(SQUARE, 0, 10, seed=1)

    def test_one_point_is_refused_by_name(self):
        for ps in (PointSet([[0.0, 0.0]]), PointSet([[1.0, 2.0, 3.0, 4.0]])):
            with pytest.raises(OutOfRange, match="need at least two points"):
                normal_cone_fraction_mc(ps, 0, 2000, seed=1)

    @pytest.mark.parametrize("samples", [1000.5, 2000.25, math.nan, math.inf])
    def test_non_integer_samples_are_refused_before_any_work(self, monkeypatch, samples):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the sample count was checked")

        monkeypatch.setattr(curvature, "_require_convex_position", no_work)
        for call in (gauss_bonnet_sum, lambda ps, n, seed: normal_cone_fraction_mc(ps, 0, n, seed)):
            for ps in (SQUARE, TESSERACT):
                with pytest.raises(OutOfRange, match=f"need at least 1000 samples, an integer, "
                                                     f"got {samples!r}"):
                    call(ps, samples, 1)

    @pytest.mark.parametrize("samples, seed", [(2000.0, 4), (2000, 4.0), (2000.0, 4.0)])
    def test_integral_float_samples_and_seeds_are_taken_as_integers(self, samples, seed):
        f, _ = normal_cone_fraction_mc(TESSERACT, 3, samples, seed)
        assert f == normal_cone_fraction_mc(TESSERACT, 3, 2000, seed=4)[0]
        for ps in (SQUARE, TESSERACT):
            est = gauss_bonnet_sum(ps, samples, seed)
            assert type(est.samples) is int and est.samples == 2000
            np.testing.assert_array_equal(est.fractions, gauss_bonnet_sum(ps, 2000, 4).fractions)


def _hexagon() -> np.ndarray:
    """Six points on the unit circle at seeded angles, in order."""
    ang = np.sort(np.random.default_rng(10).uniform(0, 2 * math.pi, size=6))
    return np.column_stack([np.cos(ang), np.sin(ang)])


class TestGaussBonnetSum:
    def test_fractions_sum_to_one_exactly(self):
        for seed, samples in [(1, 10_000), (2, 65_536), (3, 999_983)]:
            est = gauss_bonnet_sum(SQUARE, samples, seed)
            assert math.fsum(est.fractions) == 1.0

    def test_simplex_symmetry(self):
        tet = PointSet([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]])
        est = gauss_bonnet_sum(tet, 200_000, seed=8)
        for f, se in zip(est.fractions, est.std_error):
            assert abs(f - 0.25) <= 4 * se + 1e-12

    def test_cube_symmetry(self):
        est = gauss_bonnet_sum(CUBE, 200_000, seed=9)
        for f, se in zip(est.fractions, est.std_error):
            assert abs(f - 0.125) <= 4 * se + 1e-12

    def test_planar_polygon_exterior_angles(self):
        poly = _hexagon()
        est = gauss_bonnet_sum(PointSet(poly), 400_000, seed=11)
        interior = planar_interior_angles(poly)
        for f, se, a in zip(est.fractions, est.std_error, interior):
            assert abs(f - (math.pi - a) / (2 * math.pi)) <= 4 * se + 1e-9

    def test_antithetic_pairs_split_evenly_between_antipodal_cube_vertices(self):
        # -u goes to the complement of u's vertex (index 2^D - 1 - i), so an
        # even sample count gives antipodal vertices equal counts, exactly:
        # in the Monte Carlo sweep on the cube, and through gauss_bonnet_sum
        # on the tesseract.
        counts = curvature._shared_sample_counts(CUBE.points, 200_000, seed=9)
        np.testing.assert_array_equal(counts, counts[::-1])
        est = gauss_bonnet_sum(TESSERACT, 200_000, seed=9)
        counts = np.rint(est.fractions * 200_000).astype(int)
        np.testing.assert_array_equal(counts, counts[::-1])

    @pytest.mark.parametrize("points, exact", [
        (SQUARE.points, np.full(4, 0.25)),
        (CUBE.points, np.full(8, 0.125)),
        (_hexagon(), (math.pi - planar_interior_angles(_hexagon())) / (2 * math.pi)),
        (TESSERACT.points, np.full(16, 1 / 16)),
        (CROSS_4.points, np.full(8, 1 / 8)),
    ], ids=["square", "cube", "hexagon", "tesseract", "cross-polytope"])
    def test_odd_sample_count_leaves_one_row_unpaired(self, points, exact):
        samples = 200_001
        counts = curvature._shared_sample_counts(points, samples, seed=15)
        fractions = counts / samples
        se = np.sqrt(fractions * (1 - fractions) / samples)
        assert counts.sum() == samples
        assert np.all(np.abs(fractions - exact) <= 5 * se)
        if points.shape[1] > 3:  # gauss_bonnet_sum samples only there
            est = gauss_bonnet_sum(PointSet(points), samples, seed=15)
            assert np.rint(est.fractions * samples).astype(int).sum() == samples
            assert math.fsum(est.fractions) == 1.0
            assert np.all(np.abs(est.fractions - exact) <= 5 * est.std_error)

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


def _circle_points(rng, n: int, min_sep: float = 0.02) -> np.ndarray:
    """n points on the unit circle, pairwise at least min_sep apart."""
    while True:
        ang = np.sort(rng.uniform(0, 2 * math.pi, size=n))
        if np.min(np.diff(ang, append=ang[0] + 2 * math.pi)) >= min_sep:
            return np.column_stack([np.cos(ang), np.sin(ang)])[rng.permutation(n)]


class TestEstimatorStatistics:
    """The rotated-block estimates are unbiased, and their variance is at most
    binomial, so the reported binomial standard error is conservative. The
    sets and seeds were fixed before these tests first ran."""

    @pytest.mark.parametrize("ps", [PointSet(_circle_points(np.random.default_rng(2301), 7)),
                                    _sphere_set(2302, 10, 3)], ids=["R2", "R3"])
    def test_mean_over_seeds_is_within_4_standard_errors_of_the_exact_fraction(self, ps):
        exact = gauss_bonnet_sum(ps, 20_000, seed=0)
        assert exact.method == "exact"
        seeds = range(40)
        for i, target in enumerate(exact.fractions):
            f, se = np.array([normal_cone_fraction_mc(ps, i, 20_000, seed) for seed in seeds]).T
            assert abs(f.mean() - target) <= 4.0 * math.sqrt(np.sum(se**2)) / len(seeds)

    @pytest.mark.parametrize("ps", [TESSERACT, _sphere_set(2305, 12, 5), _sphere_set(2308, 20, 8)],
                             ids=["D4", "D5", "D8"])
    def test_fraction_variance_is_at_most_binomial(self, ps):
        samples = 20_000
        F = np.array([gauss_bonnet_sum(ps, samples, seed).fractions for seed in range(120)])
        p = F.mean(axis=0)
        assert np.all(F.var(axis=0, ddof=1) <= p * (1.0 - p) / samples)


class TestExactFractions:
    """In R^2 and R^3 gauss_bonnet_sum returns the exterior angles and the
    angular defects, checked against symmetric shapes, independent oracles
    and the Monte Carlo stream of normal_cone_fraction_mc."""

    @pytest.mark.parametrize("ps, value", [
        (SQUARE, 1 / 4), (CUBE, 1 / 8), (TETRAHEDRON, 1 / 4), (OCTAHEDRON, 1 / 6),
        (CUBOCTAHEDRON, 1 / 12), (PRISM_7, 1 / 14),
        *[(PointSet(np.column_stack([np.cos(a), np.sin(a)]) * 3.0 + [5.0, -2.0]), 1 / k)
          for k in (3, 5, 6, 7, 12, 50) for a in [0.3 + 2 * math.pi * np.arange(k) / k]],
    ], ids=["square", "cube", "tetrahedron", "octahedron", "cuboctahedron", "7-gon-prism",
            *[f"{k}-gon" for k in (3, 5, 6, 7, 12, 50)]])
    def test_symmetric_shapes(self, ps, value):
        est = gauss_bonnet_sum(ps, 1000, seed=3)
        assert (est.method, est.samples, est.seed) == ("exact", 1000, 3)
        np.testing.assert_array_equal(est.std_error, np.zeros(len(ps)))
        assert math.fsum(est.fractions) == 1.0
        np.testing.assert_allclose(est.fractions, value, rtol=0, atol=1e-12)

    def test_random_polygons_match_exterior_angles_and_monte_carlo(self):
        rng = np.random.default_rng(40)
        for n in (3, 4, 8, 24, 48):
            pts = _circle_points(rng, n) * rng.uniform(0.5, 2.0, size=2)  # on an ellipse
            ps = PointSet(pts)
            est = gauss_bonnet_sum(ps, 1000, seed=1)
            order = np.argsort(np.arctan2(pts[:, 1], pts[:, 0]))
            exterior = (math.pi - planar_interior_angles(pts[order])) / (2 * math.pi)
            np.testing.assert_allclose(est.fractions[order], exterior, rtol=0, atol=1e-12)
            for i in range(0, n, max(1, n // 6)):
                f, se = normal_cone_fraction_mc(ps, i, 40_000, seed=i)
                assert abs(f - est.fractions[i]) <= 5 * se

    @pytest.mark.parametrize("n", [4, 5, 9, 24, 48, 100])
    def test_sphere_sets_match_hull_defects_and_monte_carlo(self, n):
        ps = _sphere_set(n, n, 3)
        est = gauss_bonnet_sum(ps, 1000, seed=1)
        np.testing.assert_allclose(est.fractions, hull_defect_fractions(ps.points),
                                   rtol=0, atol=1e-12)
        for i in range(0, n, max(1, n // 6)):
            f, se = normal_cone_fraction_mc(ps, i, 40_000, seed=i)
            assert abs(f - est.fractions[i]) <= 5 * se

    @pytest.mark.parametrize("shift, scale", [(1e8, 1.0), (0.0, 1e-3), (0.0, 1e3)],
                             ids=["translated-1e8", "scaled-1e-3", "scaled-1e3"])
    def test_far_and_scaled_sets(self, shift, scale):
        rng = np.random.default_rng(41)
        for pts in (_sphere_set(7, 24, 3).points, CUBE.points, OCTAHEDRON.points,
                    CUBOCTAHEDRON.points, PRISM_7.points, _circle_points(rng, 24)):
            moved = pts * scale + shift
            est = gauss_bonnet_sum(PointSet(moved), 1000, seed=1)
            if pts.shape[1] == 3:
                expected = hull_defect_fractions(moved)
            else:
                order = np.argsort(np.arctan2(pts[:, 1], pts[:, 0]))
                expected = np.empty(len(pts))
                expected[order] = 0.5 - planar_interior_angles(moved[order]) / (2 * math.pi)
            np.testing.assert_allclose(est.fractions, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("ps", [CUBE, CUBOCTAHEDRON, PRISM_7, _sphere_set(9, 24, 3)],
                             ids=["cube", "cuboctahedron", "7-gon-prism", "sphere-24"])
    def test_coplanar_faces_split_into_triangles(self, monkeypatch, ps):
        # Every hull is a triangulated sphere: 2n - 4 triangles, each ridge
        # shared by two, every point a vertex, coplanar faces included.
        hulls, check = [], curvature._check_closed

        def spy(V, F, *rest):  # the facets the fractions' certificate checks
            hulls.append(F)
            return check(V, F, *rest)

        monkeypatch.setattr(curvature, "_check_closed", spy)
        est = gauss_bonnet_sum(ps, 1000, seed=1)
        [F] = hulls
        assert len(F) == 2 * len(ps) - 4
        np.testing.assert_array_equal(np.unique(F), np.arange(len(ps)))
        np.testing.assert_allclose(est.fractions, hull_defect_fractions(ps.points),
                                   rtol=0, atol=1e-12)
        if ps is CUBE:
            np.testing.assert_array_equal(est.fractions, np.full(8, 0.125))

    @pytest.mark.parametrize("plant, message", [
        (lambda V, F: (V, F[1:]), "3 ridges do not bound exactly two facets"),
        (lambda V, F: (V * np.where(np.arange(len(V)) == len(V) - 1, 1.5, 1.0)[:, None], F),
         "a vertex lies .* above a facet plane"),
        (lambda V, F: (np.vstack([V, 0.5 * V[:1]]), F), "1 points are vertices of no facet"),
    ], ids=["facet-dropped", "vertex-pushed-out", "point-left-inside"])
    def test_a_broken_hull_fails_its_certificate(self, monkeypatch, plant, message):
        check = curvature._check_closed

        def planted(V, F, N, H, *rest):
            V, F = plant(V, F)
            return check(V, F, *geometry._facet_planes(V, F), *rest)

        monkeypatch.setattr(curvature, "_check_closed", planted)
        with pytest.raises(RuntimeError, match=f"^exact normal-cone fractions in R\\^3: hull "
                                               f"re-check: {message}$"):
            gauss_bonnet_sum(_sphere_set(9, 24, 3), 1000, seed=1)

    def test_wrong_fractions_fail_the_sum_check(self, monkeypatch):
        defects = curvature._defect_fractions
        monkeypatch.setattr(curvature, "_defect_fractions", lambda pts: 1.25 * defects(pts))
        with pytest.raises(RuntimeError, match=r"^exact normal-cone fractions in R\^3: sum 1\.25"):
            gauss_bonnet_sum(PointSet(CUBE.points), 1000, seed=1)

    def test_bad_input_is_still_refused_by_name(self):
        with pytest.raises(OutOfRange, match="need at least 1000 samples"):
            gauss_bonnet_sum(CUBE, 999, seed=1)
        with pytest.raises(OutOfRange, match="seed must be a non-negative integer"):
            gauss_bonnet_sum(CUBE, 1000, seed=-3)


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
        for diam, shown in ((4.0, "4"), (math.inf, "inf")):
            with pytest.raises(OutOfRange, match=f"^diameter {shown} exceeds the invertible range"):
                dekster_radius(diam, 2)


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

    @pytest.mark.parametrize("shift, scale", [(0.0, 1.0), (1e8, 1.0), (0.0, 1e-3), (0.0, 1e3)],
                             ids=["as-drawn", "translated-1e8", "scaled-1e-3", "scaled-1e3"])
    def test_planar_caps_match_the_nearest_point_solve(self, shift, scale):
        # Planar sets of the bench's certify sizes, with and without a planted
        # interior point (whose rays need more than a half-turn).
        rng = np.random.default_rng(43)
        sets = []
        for n in (4, 8, 9, 24, 32, 48):
            sets.append(_circle_points(rng, n))
            hull = _circle_points(rng, n - 1)
            w = rng.exponential(size=3) + 0.2
            corners = hull[rng.choice(n - 1, size=3, replace=False)]
            sets.append(np.insert(hull, int(rng.integers(n)), (w / w.sum()) @ corners, axis=0))
        refused = 0
        for pts in sets:
            pts = pts * scale + shift
            for i in range(len(pts)):
                diffs = np.delete(pts, i, axis=0) - pts[i]
                rays = diffs / np.linalg.norm(diffs, axis=1)[:, None]
                z, _, _ = wolfe_nearest_point(rays, "oracle")
                if np.linalg.norm(z) <= convexity.FEAS_TOL:
                    refused += 1
                    with pytest.raises(NotHemispherical):
                        min_enclosing_cap(rays)
                    continue
                center = z / np.linalg.norm(z)
                radius = 2 * math.asin(min(1.0, 0.5 * np.max(np.linalg.norm(rays - center, axis=1))))
                cap = min_enclosing_cap(rays)
                assert abs(cap.radius - radius) <= 1e-12
                np.testing.assert_allclose(cap.center, center, rtol=0, atol=1e-12)
        assert refused >= len(sets) // 2

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


class TestCone:
    AXIS = np.array([0.0, 0.0, 1.0])

    @pytest.mark.parametrize("apex, message", [
        (np.zeros(2), "apex has dimension 2, axis 3"),
        (np.array([0.0, math.inf, 0.0]), "point has non-finite coordinates"),
        (np.array([math.nan, 0.0, 0.0]), "point has non-finite coordinates"),
        (np.zeros((1, 3)), r"point must be a 1-D coordinate vector, got shape \(1, 3\)"),
    ], ids=["dimension", "inf", "nan", "shape"])
    def test_bad_apex_is_refused(self, apex, message):
        with pytest.raises(OutOfRange, match=f"^{message}$"):
            curvature.Cone(apex=apex, axis=self.AXIS, half_angle=0.5)

    def test_point_of_another_dimension_is_refused(self):
        cone = curvature.Cone(apex=np.zeros(3), axis=self.AXIS, half_angle=0.5)
        assert cone.contains([0.0, 0.1, 1.0]) and not cone.contains([0.0, 1.0, 0.1])
        with pytest.raises(OutOfRange, match="^point has dimension 2, the cone 3$"):
            cone.contains([0.0, 1.0])
        with pytest.raises(OutOfRange, match="^point has non-finite coordinates$"):
            cone.contains([0.0, 0.0, math.inf])


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

    @staticmethod
    def planar_cone_sets(rng):
        """Convex planar sets of the bench's certify sizes: points on ellipses,
        on arcs shorter than a half-turn (whose end vertices need wide caps),
        regular polygons, squares and triangles, each scaled by 1e-3 to 1e3
        and translated by up to 1e6."""
        sets = []
        for t in range(400):
            n = int(rng.choice([3, 4, 8, 9, 24, 32, 48]))
            kind = t % 4
            if kind == 0:
                ang = np.sort(rng.uniform(0, 2 * np.pi, n))
                pts = np.c_[np.cos(ang), np.sin(ang)] * rng.uniform(0.3, 3.0, size=2)
            elif kind == 1:
                ang = np.sort(rng.uniform(0, rng.uniform(0.5, 3.0), n))
                pts = np.c_[np.cos(ang), np.sin(ang)]
            elif kind == 2:
                ang = 2 * np.pi * np.arange(n) / n + rng.uniform(0, 2 * np.pi)
                pts = np.c_[np.cos(ang), np.sin(ang)]
            else:
                pts = SQUARE.points if t % 8 == 3 else np.array([[0.0, 0.0], [1.0, 0.0], [0.3, 0.8]])
            pts = pts * 10.0 ** rng.uniform(-3, 3) + rng.normal(size=2) * 10.0 ** rng.integers(0, 7)
            sets.append((pts, float(rng.uniform(0.05, 1.5707))))
        return sets

    def test_planar_cones_match_the_per_vertex_caps(self):
        # One sort per row for all vertices returns each vertex's cap centre
        # bit for bit, and refuses at the same first vertex with the same
        # radius. (A convex polygon's vertex always has its rays in an open
        # half-plane, so every refusal here is by radius.)
        rng = np.random.default_rng(23)
        outcomes = {"cones": 0, "refusals": 0}
        for pts, eta in self.planar_cone_sets(rng):
            try:
                ps = PointSet(pts)
            except OutOfRange:
                continue
            if not convexity.is_convex_position(ps).in_convex_position:
                continue
            try:
                expected = loop_planar_cone_axes(ps.points, eta)
            except CapTooSmall as want:
                with pytest.raises(CapTooSmall) as got:
                    cone_cover_certificate(ps, eta)
                assert (got.value.vertex_index, got.value.required_radius, got.value.allowed) == (
                    want.vertex_index, want.required_radius, want.allowed)
                assert str(got.value) == str(want)
                outcomes["refusals"] += 1
                continue
            cones = cone_cover_certificate(ps, eta)
            assert [c.axis.tobytes() for c in cones] == [a.tobytes() for a in expected]
            assert all(c.apex.tobytes() == p.tobytes() for c, p in zip(cones, ps.points))
            outcomes["cones"] += 1
        assert min(outcomes.values()) >= 20, outcomes

    def test_stacked_caps_refuse_rays_that_fit_no_half_plane_in_vertex_order(self):
        # Only a point that is not a vertex has its rays in no open half-plane,
        # so the stacked caps are called directly on sets with interior points.
        # Every set gets a radius; a refused one's is NaN.
        rng = np.random.default_rng(24)
        refused = []
        for _ in range(200):
            n = int(rng.integers(4, 12))
            pts = rng.normal(size=(n, 2))
            diffs = pts[[[j for j in range(n) if j != i] for i in range(n)]] - pts[:, None]
            centers, radii = curvature._enclosing_caps(
                diffs / np.linalg.norm(diffs, axis=2)[:, :, None])
            assert radii.shape == (n,)
            try:
                want = loop_planar_cone_axes(pts, 1.5)
            except CapTooSmall as err:
                i = err.vertex_index
                assert all(r <= 1.5 + curvature.CONE_FIT_TOL for r in radii[:i])
                if err.required_radius == 0.5 * math.pi:  # the first set refused
                    assert math.isnan(radii[i])
                else:
                    assert radii[i] == err.required_radius
                refused.append(err.required_radius == 0.5 * math.pi)
                continue
            assert not np.any(np.isnan(radii))
            assert [a.tobytes() for a in centers] == [a.tobytes() for a in want]
        assert sum(refused) >= 50

    @staticmethod
    def per_vertex_refusal(pts, eta):
        """The first (vertex, radius) a cover refuses, or None, from one
        one-problem Wolfe solve per vertex (the conftest oracle)."""
        for i in range(len(pts)):
            diffs = np.delete(pts, i, axis=0) - pts[i]
            rays = diffs / np.linalg.norm(diffs, axis=1)[:, None]
            z, _, _ = wolfe_nearest_point(rays, "oracle")
            if np.linalg.norm(z) <= convexity.FEAS_TOL:
                return i, 0.5 * math.pi
            center = z / np.linalg.norm(z)
            radius = 2 * math.asin(min(1.0, 0.5 * np.max(np.linalg.norm(rays - center, axis=1))))
            if radius > eta + curvature.CONE_FIT_TOL:
                return i, radius
        return None

    def test_solid_cover_is_one_stacked_solve(self, monkeypatch):
        # In D >= 3 every vertex's cap comes from one lockstep solve of all n
        # vertices, refused or not; the refusal names the vertex and radius
        # that per-vertex solves refuse first.
        calls = []
        stacked = curvature._nearest_points

        def counted(P, stage):
            calls.append(P.shape)
            return stacked(P, stage)

        monkeypatch.setattr(curvature, "_nearest_points", counted)
        refused_at = []
        for seed in range(12):
            for D, eta in ((3, 1.4), (4, 1.2), (5, 1.1)):
                ps = _sphere_set(seed, 12, D)
                convexity.is_convex_position(ps)
                calls.clear()
                want = self.per_vertex_refusal(ps.points, eta)
                try:
                    cone_cover_certificate(ps, eta)
                except CapTooSmall as err:
                    assert err.vertex_index == want[0]
                    assert abs(err.required_radius - want[1]) <= 1e-12
                    refused_at.append(err.vertex_index)
                else:
                    assert want is None
                assert calls == [(12, 11, D)]
        assert len(set(refused_at)) >= 3 and len(refused_at) < 36

    @pytest.mark.parametrize("ps, eta", [(SQUARE, 1.0), (CUBE, 1.2), (TESSERACT, 1.3)],
                             ids=["square", "cube", "tesseract"])
    def test_axes_are_checked_once_as_cone_checks_them(self, monkeypatch, ps, eta):
        # The cones skip Cone's per-cone checks, so they must equal the checked
        # construction, and an axis off the unit sphere is refused by as_unit.
        cones = cone_cover_certificate(ps, eta)
        for cone, p in zip(cones, ps.points):
            want = curvature.Cone(apex=p.copy(), axis=cone.axis, half_angle=eta)
            assert cone.apex.tobytes() == want.apex.tobytes() == p.tobytes()
            assert cone.half_angle == eta and cone.apex.flags.writeable
        stacked = curvature._enclosing_caps
        for scale, message in ((1.0 + 0.8e-12, None), (1.0 + 1e-9, "1.000000001")):
            def scaled(rays):
                axes, radii = stacked(rays)
                axes[2] *= scale
                return axes, radii

            monkeypatch.setattr(curvature, "_enclosing_caps", scaled)
            if message is None:
                assert cone_cover_certificate(ps, eta)[2].axis.tobytes() == (
                    cones[2].axis * scale).tobytes()
            else:
                with pytest.raises(OutOfRange, match=f"^vector has norm {message}, expected 1$"):
                    cone_cover_certificate(ps, eta)

    def test_two_planar_points_take_their_rays_as_axes(self):
        ps = PointSet([[0.0, 0.0], [3.0, 4.0]])
        cones = cone_cover_certificate(ps, 0.3)
        np.testing.assert_array_equal(cones[0].axis, [0.6, 0.8])
        np.testing.assert_array_equal(cones[1].axis, [-0.6, -0.8])

    def test_planar_cones_are_still_rechecked_on_all_pairs(self, monkeypatch):
        # A wrong axis from the stacked caps is caught by the all-pairs check.
        stacked = curvature._enclosing_caps

        def tilted(rays):
            centers, radii = stacked(rays)
            centers[2] = -centers[2]
            return centers, radii

        monkeypatch.setattr(curvature, "_enclosing_caps", tilted)
        with pytest.raises(RuntimeError, match="outside cone 2"):
            cone_cover_certificate(SQUARE, math.pi / 4 + 0.01)

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
