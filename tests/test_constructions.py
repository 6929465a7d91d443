import math
import sys
import threading

import numpy as np
import pytest

from anglebound import constructions, geometry
from anglebound.bounds import (
    asymptotic_envelope,
    cardinality_bound,
    eta_of_theta,
    f_fraction,
    sin_half_theta_d,
    theta_d,
)
from anglebound.constructions import (
    EdgeColoring,
    LineArrangement,
    cover_lines,
    ef_doubling,
    find_mono_odd_cycle,
    n_bounds,
    obtuse_triple_witness,
    pack_lines,
)
from anglebound import curvature
from anglebound.curvature import cone_cover_certificate, dekster_radius, min_enclosing_cap
from anglebound.errors import (
    ColoringFailed,
    CoverageFailed,
    HypothesisViolated,
    OutOfRange,
    ScaleExhausted,
)
from anglebound.geometry import PointSet, angle_at, max_angle, max_angle_triple
from anglebound.search import max_cardinality_search, minimize_max_angle
from conftest import (
    brute_max_angle,
    digest,
    loop_hole_insertion,
    loop_pack_lines,
    random_rotation,
    traced_peak,
    whole_cover_lines,
)

PLANAR_TRIPLE = LineArrangement(
    dim=2,
    lines=np.array([
        [1.0, 0.0],
        [math.cos(math.pi / 3), math.sin(math.pi / 3)],
        [math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3)],
    ]),
)


# The packings pack_lines returns in closed form past the frame and the plane,
# each with the largest |cos| that any m lines in R^D must reach: Welch's
# bound for the simplexes' m = D + 1 lines and the icosahedron's 6, the
# orthoplex bound for 7 lines in R^3.
PROVEN_OPTIMA = [(4, 3, 1 / 3), (5, 4, 1 / 4), (6, 5, 1 / 5), (7, 6, 1 / 6),
                 (6, 3, 1 / math.sqrt(5)), (7, 3, 1 / math.sqrt(3))]


class TestLineArrangement:
    def test_antipodal_identification(self):
        arr = LineArrangement(dim=2, lines=np.array([[-1.0, 0.0], [0.0, 1.0]]))
        assert arr.lines[0, 0] > 0  # canonical representative
        assert arr.min_pairwise_angle == pytest.approx(math.pi / 2)

    def test_min_angle_matches_pair_scan(self):
        rng = np.random.default_rng(31)
        vecs = rng.normal(size=(6, 3))
        vecs /= np.linalg.norm(vecs, axis=1)[:, None]
        arr = LineArrangement(dim=3, lines=vecs)
        direct = min(
            math.acos(min(1.0, abs(float(np.dot(arr.lines[i], arr.lines[j])))))
            for i in range(6) for j in range(i + 1, 6)
        )
        assert arr.min_pairwise_angle == pytest.approx(direct, abs=1e-12)

    def test_min_angle_of_many_lines_matches_the_whole_gram(self):
        # 700 lines take several row blocks of the Gram.
        rng = np.random.default_rng(5)
        vecs = rng.normal(size=(700, 3))
        arr = LineArrangement(dim=3, lines=vecs / np.linalg.norm(vecs, axis=1)[:, None])
        gram = np.abs(arr.lines @ arr.lines.T)
        assert arr.min_pairwise_angle == float(np.arccos(gram[np.triu_indices(700, 1)].max()))

    def test_singleton_uses_vacuous_maximum(self):
        arr = LineArrangement(dim=2, lines=np.array([[1.0, 0.0]]))
        assert arr.min_pairwise_angle == math.pi / 2


class TestPackLines:
    def test_two_planar_lines_are_perpendicular(self):
        arr = pack_lines(2, 2, seed=1)
        assert arr.min_pairwise_angle == pytest.approx(math.pi / 2, abs=1e-6)

    def test_three_planar_lines_reach_sixty_degrees(self):
        arr = pack_lines(3, 2, seed=1)
        assert arr.min_pairwise_angle >= math.pi / 3 - 1e-6
        # Never better than the known planar optimum.
        assert arr.min_pairwise_angle <= math.pi / 3 + 1e-9

    def test_three_lines_in_space_are_coordinate_like(self):
        arr = pack_lines(3, 3, seed=1)
        assert arr.min_pairwise_angle == pytest.approx(math.pi / 2, abs=1e-6)

    def test_deterministic_for_fixed_seed(self):
        a = pack_lines(5, 3, seed=5, iters=400)
        b = pack_lines(5, 3, seed=5, iters=400)
        np.testing.assert_array_equal(a.lines, b.lines)

    @pytest.mark.parametrize("iters,restarts", [(1500, 8), (50, 1), (1, 1)])
    def test_closed_forms_whatever_the_seed_and_budget(self, iters, restarts):
        for seed in range(4):
            for D in (2, 3, 5):
                for m in range(2, D + 1):  # the coordinate frame
                    arr = pack_lines(m, D, iters=iters, seed=seed, restarts=restarts)
                    np.testing.assert_array_equal(
                        arr.lines, LineArrangement(dim=D, lines=np.eye(D)[:m]).lines)
                    assert arr.min_pairwise_angle == math.pi / 2
            # The planar equiangular lines, divided by their row norms before
            # LineArrangement renormalizes them, as pack_lines once did.
            for m in range(3, 201):
                ang = np.arange(m) * math.pi / m
                U = np.column_stack([np.cos(ang), np.sin(ang)])
                U /= np.linalg.norm(U, axis=1)[:, None]
                arr = pack_lines(m, 2, iters=iters, seed=seed, restarts=restarts)
                assert arr.lines.tobytes() == LineArrangement(dim=2, lines=U).lines.tobytes()
                assert arr.min_pairwise_angle == pytest.approx(math.pi / m, rel=1e-12)

    @pytest.mark.parametrize("iters,restarts", [(1500, 8), (300, 2), (1, 1)])
    def test_proven_optima_whatever_the_seed_and_budget(self, iters, restarts):
        for m, D, cos in PROVEN_OPTIMA:
            first = pack_lines(m, D, iters=iters, restarts=restarts, seed=0)
            assert abs(first.min_pairwise_angle - math.acos(cos)) <= 1e-15
            for seed in range(1, 4):
                again = pack_lines(m, D, iters=iters, restarts=restarts, seed=seed)
                assert again.lines.tobytes() == first.lines.tobytes()

    @pytest.mark.parametrize("m, D, cos", PROVEN_OPTIMA)
    def test_descent_never_beats_a_proven_optimum(self, m, D, cos):
        # The search the closed forms replaced, forced at its defaults.
        proven = pack_lines(m, D).min_pairwise_angle
        for seed in range(4):
            lines = constructions._descend(m, D, 1500, seed, 8)
            assert LineArrangement(dim=D, lines=lines).min_pairwise_angle <= proven + 1e-12

    @pytest.mark.parametrize("m, D, iters, restarts, seed, angle, pinned", [
        # The defaults: 1500 iterations, 8 restarts.
        (5, 3, 1500, 8, 0, "0x1.1b5349a1c061ep+0",
         "4aac1add68de752b3042ae06edab250478282d035ff4e233c38fd5a4ff4ed704"),
        (7, 4, 1500, 8, 0, "0x1.2b6269393fed0p+0",
         "10318cdf876a7bb1dee8e03b70bc745da38e93956b1a89d163aac7bda7eaa664"),
        (12, 4, 1500, 8, 0, "0x1.0bfc08721406ap+0",
         "661b54bf8c1b420d1b622dd0a66ec2e4b2594902ac4c235fe96c4ad8a970aece"),
        # The bench's 300 iterations and 2 restarts.
        (5, 3, 300, 2, 1, "0x1.1b3d86dd98df4p+0",
         "8167126a7ab4a4c02af8b94852ae3558df20dfeb284829e36ae2e431ac9da7e3"),
        (5, 3, 300, 2, 2, "0x1.1b24f0127e9b6p+0",
         "17236fb49dc0f4a4e52492c29bfa7b142b4f0ac691eb510510466d7af53d74d7"),
        (5, 3, 300, 2, 3, "0x1.1b148d1a002e8p+0",
         "473f59b9cde9829eb740293b7225f61448800f0575a944bbdccdbad386ffdb6e"),
        (6, 4, 300, 2, 1, "0x1.3ac3b7c3df3bdp+0",
         "fe2d7def12626a3e3df1675d5f19d90578fd979da2ac6112978902b77b45030e"),
        (6, 4, 300, 2, 2, "0x1.3ac2f4a436edcp+0",
         "49756d96be66a83c37bf12fb125f00ddc5838b07d4e23045c5e431b432039bce"),
        (6, 4, 300, 2, 3, "0x1.3ac1185feeaa5p+0",
         "9767fc3421a378294de970fce5f8af93e3d82ed59f628305ea4d3e22ed002c16"),
        (7, 4, 300, 2, 1, "0x1.2af6be4550ff0p+0",
         "8f340f8407e5f40fc4ca5bf6dbbe94ae0dbb3b96d97d6cf243990b4aa2486639"),
        (7, 4, 300, 2, 2, "0x1.2b23973e32ffcp+0",
         "247127e9ea76809452cf38c3eec0df87ae84f129f666b57bd80b09060d7a41e2"),
        (7, 4, 300, 2, 3, "0x1.2aef67d61e0f8p+0",
         "52d7169e4e8888c76eed099ec69d9ed63e08ea97dac62c54287441dc3ee59b56"),
    ])
    def test_pinned_packings(self, m, D, iters, restarts, seed, angle, pinned):
        # Recorded when each restart still ran alone: lines (SHA-256 of the
        # little-endian float64 bytes) and separation (float.hex).
        arr = pack_lines(m, D, iters=iters, restarts=restarts, seed=seed)
        assert arr.min_pairwise_angle.hex() == angle
        assert digest(arr.lines) == pinned

    @pytest.mark.parametrize("grad_stop", [10.0, 0.9, 0.5, 0.36, 1e-14])
    def test_each_restart_stops_on_its_own(self, grad_stop):
        # pack_lines has no gradient stop: each restart stops on its own after
        # its `iters` steps. For m > D the gradient norm never falls below
        # 4 (m - D) / (D m (m - 1)^2) (Welch), so a reference that stops a
        # restart under that floor runs every step and must match bit for bit.
        # Gradient norms fall to about 0.36, so the raised bars stop restarts
        # early and change the result; 1e-14 lies under the floor and stops none.
        m, D = 5, 3
        floor = 4.0 * (m - D) / (D * m * (m - 1) ** 2)
        arr = pack_lines(m, D, iters=200, seed=3, restarts=4)
        expected = LineArrangement(dim=D, lines=loop_pack_lines(m, D, 200, 3, 4, floor))
        np.testing.assert_array_equal(arr.lines, expected.lines)
        assert arr.min_pairwise_angle == expected.min_pairwise_angle
        barred = LineArrangement(dim=D, lines=loop_pack_lines(m, D, 200, 3, 4, grad_stop))
        assert np.array_equal(arr.lines, barred.lines) == (grad_stop < floor)

    @pytest.mark.parametrize("m, D, iters, restarts, message", [
        (5, 3, 1500, 0, "restarts must be an integer >= 1, got 0"),
        (5, 3, 0, 8, "iters must be an integer >= 1, got 0"),
        (3, 3, 1500, -1, "restarts must be an integer >= 1, got -1"),  # the coordinate frame
        (4, 2, -3, 8, "iters must be an integer >= 1, got -3"),  # the equiangular lines
        (4, 3, 1500, 0, "restarts must be an integer >= 1, got 0"),  # the simplex
        (6, 3, 0, 8, "iters must be an integer >= 1, got 0"),  # the icosahedron
        (7, 3, 1500, -2, "restarts must be an integer >= 1, got -2"),  # axes and cube diagonals
    ])
    def test_budgets_are_checked_before_the_closed_forms(self, m, D, iters, restarts, message):
        with pytest.raises(OutOfRange) as err:
            pack_lines(m, D, iters=iters, restarts=restarts)
        assert str(err.value) == message

    @pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint8, np.float64],
                             ids=["int64", "int32", "uint8", "float64"])
    def test_numpy_budgets_are_named_as_plain_numbers(self, kind):
        # A numpy scalar reads as the number it holds, not as its repr.
        with pytest.raises(OutOfRange) as err:
            pack_lines(5, 3, iters=kind(0))
        shown = "0.0" if kind is np.float64 else "0"
        assert str(err.value) == f"iters must be an integer >= 1, got {shown}"
        with pytest.raises(OutOfRange) as err:
            pack_lines(5, 3, restarts=np.float64(2.5))
        assert str(err.value) == "restarts must be an integer >= 1, got 2.5"
        with pytest.raises(OutOfRange) as err:
            pack_lines(kind(1), 3)
        shown = "1.0" if kind is np.float64 else "1"
        assert str(err.value) == f"m must be an integer >= 2, got {shown}"


class TestCoverLines:
    def test_barely_obtuse_planar_cover_needs_two(self):
        arr = cover_lines(math.pi / 2 + 0.01, 2, seed=3, probes=20_000)
        assert len(arr) <= 2

    def test_sixty_degree_planar_cover_needs_three(self):
        arr = cover_lines(math.pi / 3, 2, seed=3, probes=20_000)
        assert len(arr) <= 3
        # 60 degree spacing, up to rotation.
        angles = sorted(math.atan2(v[1], v[0]) % math.pi for v in arr.lines)
        gaps = np.diff(angles + [angles[0] + math.pi])
        np.testing.assert_allclose(gaps, math.pi / 3, atol=1e-9)

    def test_certificate_holds_on_probes(self):
        from anglebound.sampling import rd_directions
        rho = 1.1
        arr = cover_lines(rho, 3, seed=4, probes=20_000)
        probes = rd_directions(3, 20_001)[1:]  # row 0 is the zero vector
        cover = np.max(np.abs(probes @ arr.lines.T), axis=1)
        assert np.all(cover >= math.cos(rho / 2) - 1e-12)

    @pytest.mark.parametrize("probes", [0, -3])
    def test_empty_probe_set_is_refused_by_name(self, probes):
        with pytest.raises(OutOfRange, match=f"^probes must be an integer >= 1, got {probes}$"):
            cover_lines(1.0, 3, probes=probes)

    def test_rho_out_of_range(self):
        with pytest.raises(OutOfRange):
            cover_lines(0.0, 2)
        with pytest.raises(OutOfRange):
            cover_lines(math.pi, 2)

    def test_a_cover_finished_in_the_last_round_is_returned(self, monkeypatch, fresh_insertions):
        # The insertion cap counts insertions: exactly enough returns the R^5
        # cover, and one fewer is refused by name.
        whole = cover_lines(1.6, 5, seed=4, probes=5000)
        monkeypatch.setattr(constructions, "_MAX_ROUNDS", len(whole) - 5)
        capped = cover_lines(1.6, 5, seed=4, probes=5000)
        np.testing.assert_array_equal(capped.lines, whole.lines)
        monkeypatch.setattr(constructions, "_MAX_ROUNDS", len(whole) - 6)
        with pytest.raises(CoverageFailed, match=f"^{len(whole) - 1} lines after "
                                                 f"{len(whole) - 6} insertions leave"):
            cover_lines(1.6, 5, seed=4, probes=5000)

    @pytest.mark.parametrize("rho", [0.05, 0.3, 0.9, math.pi / 3, math.pi / 4, math.pi / 5,
                                     math.pi / 3 * (1 + 1e-10), math.pi / 3 * (1 - 1e-10),
                                     math.pi / 4 * (1 + 1e-6), math.pi / 4 * (1 - 1e-6),
                                     1.5703, math.pi / 2, 1.6, 2.0, 3.0])
    def test_planar_cover_is_the_equiangular_family(self, rho):
        # At pi/3 (1 - 1e-10), pi/rho lies 3e-10 above 3: three lines leave
        # the directions midway between them about 5e-11 rad too far.
        k = math.ceil(math.pi / rho - 1e-9) + (rho == math.pi / 3 * (1 - 1e-10))
        arr = cover_lines(rho, 2, seed=3, probes=2000)
        assert len(arr) == k
        np.testing.assert_array_equal(arr.lines, whole_cover_lines(rho, 2))
        # k - 1 lines would not do: their midway directions are too far.
        assert math.cos(0.5 * math.pi / (k - 1)) < math.cos(0.5 * rho) - 1e-12
        angles = np.sort(np.arctan2(arr.lines[:, 1], arr.lines[:, 0]) % math.pi)
        np.testing.assert_allclose(np.diff(np.append(angles, angles[0] + math.pi)), math.pi / k,
                                   atol=1e-12)
        # Every direction is covered, not only the probes: a dense grid and
        # the directions halfway between neighbouring lines.
        t = np.concatenate([np.linspace(0.0, math.pi, 100_001), angles + 0.5 * math.pi / k])
        worst = np.arccos(np.max(np.abs(np.column_stack([np.cos(t), np.sin(t)]) @ arr.lines.T),
                                 axis=1).min())
        assert worst <= 0.5 * rho * (1 + 1e-9)

    def test_planar_cover_is_the_least_family_covering_its_holes(self):
        # The j-line family's deepest holes, midway between its lines, lie
        # pi/(2j) from every line. At pi/rho = j + eps they miss rho/2 by
        # about pi^2 eps / (4 j^3) in the cosine: j lines do while that stays
        # within the 1e-12 of every covering test, and j + 1 are needed past it.
        for j, eps, lines in [(3, 5e-12, 3), (3, 1e-10, 4), (4, 1e-11, 4), (4, 1e-10, 5),
                              (7, 1e-10, 7), (7, 5e-10, 8), (63, 1e-8, 63), (63, 2e-7, 64)]:
            rho = math.pi / (j + eps)
            assert len(cover_lines(rho, 2, seed=3, probes=2000)) == lines, (j, eps)
            hole = math.cos(0.5 * math.pi / lines)
            assert hole >= math.cos(0.5 * rho) - 1e-12
            assert math.cos(0.5 * math.pi / (lines - 1)) < math.cos(0.5 * rho) - 1e-12

    def test_planar_cover_needs_no_rounds(self, monkeypatch, fresh_insertions):
        # The closed form runs no insertion, so no round cap applies.
        monkeypatch.setattr(constructions, "_MAX_ROUNDS", 0)
        assert len(cover_lines(0.05, 2, seed=1, probes=5000)) == 63

    @pytest.mark.parametrize("rho, lines", [(math.pi / 10_002.5, 10_003), (1e-4, 31_404),
                                            (1e-7, 1_110_056)])
    def test_planar_family_past_the_cap_is_refused_by_name(self, monkeypatch, rho, lines):
        # Refused before the family is built: the separation check of more
        # than a million lines would run for about an hour.
        monkeypatch.setattr(constructions, "_equiangular", None)
        with pytest.raises(CoverageFailed) as err:
            cover_lines(rho, 2)
        assert str(err.value) == (f"R^2: leaving every direction within rho/2 = {0.5 * rho:.6g} "
                                  f"of a line takes {lines} lines, past the cap of 10002")

    def test_planar_family_at_the_cap_is_built(self):
        assert len(cover_lines(math.pi / 10_001.5, 2)) == 10_002

    @pytest.mark.parametrize("D", [3, 4, 5, 6])
    @pytest.mark.parametrize("above", [0.0, 1e-9, 0.1])
    def test_frame_is_the_cover_from_its_threshold(self, D, above):
        rho = 2.0 * math.acos(1.0 / math.sqrt(D)) + above
        arr = cover_lines(rho, D, seed=1, probes=5000)
        np.testing.assert_array_equal(arr.lines, np.eye(D))
        np.testing.assert_array_equal(arr.lines, whole_cover_lines(rho, D))
        # Every direction is covered: a grid on the cube [-1, 1]^D, corners
        # (the farthest directions from the frame) included.
        ticks = np.linspace(-1.0, 1.0, {3: 59, 4: 21, 5: 11, 6: 7}[D])
        grid = np.array(np.meshgrid(*[ticks] * D)).reshape(D, -1).T
        grid = grid[np.any(grid != 0.0, axis=1)]
        grid /= np.linalg.norm(grid, axis=1)[:, None]
        worst = np.arccos(np.abs(grid @ arr.lines.T).max(axis=1).min())
        assert worst <= 0.5 * rho * (1 + 1e-9)

    @pytest.mark.parametrize("D, lines, radius", [(5, 9, 1.0511732850883002),
                                                  (6, 22, 0.8410686705679301),
                                                  (7, 15, 1.0749078686775384),
                                                  (8, 16, 1.173713776019985)],
                             ids=["R5", "R6", "R7", "R8"])
    def test_insertion_runs_just_below_the_frame_threshold(self, D, lines, radius):
        rho = 2.0 * math.acos(1.0 / math.sqrt(D)) - 1e-6
        arr = cover_lines(rho, D, seed=1, probes=5000)
        np.testing.assert_array_equal(arr.lines[:D], np.eye(D))  # grown from the frame
        assert len(arr) == lines
        assert math.acos(qhull_offsets(arr.lines).min()) == pytest.approx(radius, rel=1e-12)


class TestCoversBuildNoProbes:
    """No cover builds probes or draws a seeded stream, in any dimension."""

    @pytest.fixture
    def no_draws(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a cover drew a seeded stream")

        monkeypatch.setattr(constructions, "rng_stream", refuse)

    def test_proven_covers_build_no_probes(self, no_draws):
        for rho, lines in ((0.3, 11), (math.pi / 3, 3), (math.pi / (3 + 1e-10), 4), (2.5, 2)):
            assert len(cover_lines(rho, 2, seed=1, probes=5000)) == lines
        for D in (3, 4, 5, 6):
            for above in (0.0, 0.1):
                rho = 2.0 * math.acos(1.0 / math.sqrt(D)) + above
                np.testing.assert_array_equal(cover_lines(rho, D, seed=1).lines, np.eye(D))
        for D, rho in ((3, 0.9), (3, 1.5), (4, 0.8), (4, 1.3), (5, 1.6), (6, 1.8)):
            arr = cover_lines(rho, D, seed=1)
            np.testing.assert_array_equal(arr.lines[:D], np.eye(D))
            assert len(arr) > D

    @pytest.mark.parametrize("D", [2, 3])
    @pytest.mark.parametrize("seed, probes, message", [
        (-1, 100, "seed must be a non-negative integer, got -1"),
        (math.nan, 100, "seed must be a non-negative integer, got nan"),
        (1, 0, "probes must be an integer >= 1, got 0"),
    ], ids=["negative-seed", "nan-seed", "no-probes"])
    def test_bad_arguments_are_still_refused(self, no_draws, D, seed, probes, message):
        with pytest.raises(OutOfRange, match=f"^{message}$"):
            cover_lines(1.0, D, seed=seed, probes=probes)


def qhull_offsets(lines: np.ndarray) -> np.ndarray:
    """Distances from the origin of the facet planes of conv{+-l_i}, by qhull."""
    from scipy.spatial import ConvexHull

    return -ConvexHull(np.vstack([lines, -lines])).equations[:, -1]


class TestHoleInsertion:
    """Covers in D >= 3: deepest-hole insertion on one hull, and its certificate."""

    @pytest.mark.parametrize("D", [3, 4, 5, 6])
    def test_every_direction_is_covered(self, D):
        # Caps of radius rho/2 about +-l_i cover the sphere exactly when every
        # facet of conv{+-l_i} lies at least cos(rho/2) from the origin.
        frame = 2.0 * math.acos(1.0 / math.sqrt(D))
        for rho in [*np.linspace({3: 0.5, 4: 0.8, 5: 1.4, 6: 1.6}[D], frame, 9)[:-1],
                    frame - 1e-6]:
            arr = cover_lines(rho, D, seed=1, probes=2000)
            np.testing.assert_array_equal(arr.lines[:D], np.eye(D))  # grown from the frame
            assert qhull_offsets(arr.lines).min() >= math.cos(0.5 * rho) - 1e-12

    @pytest.mark.parametrize("D, rho", [(3, 1.1), (4, 1.2), (5, 1.6), (6, 1.8)])
    def test_stopping_one_insertion_early_is_refused(self, D, rho):
        cos_half = math.cos(0.5 * rho)
        V, F = constructions._hole_insertion(D, cos_half, 10_000)
        constructions._check_hull(V, F, cos_half)
        early = len(V) // 2 - D - 1
        V, F = constructions._hole_insertion(D, cos_half, early)
        assert qhull_offsets(V[0::2]).min() < cos_half - 1e-12  # the planted hole is real
        with pytest.raises(CoverageFailed, match=f"^{D + early} lines after {early} insertions "
                                                 f"leave a direction [0-9.]+ from every line, "
                                                 f"above rho/2 = {0.5 * rho:.6g}$"):
            constructions._check_hull(V, F, cos_half)

    @pytest.mark.parametrize("D, rho, lines, radius", [(5, 1.4, 47, 0.6984232179425077),
                                                       (5, 1.6, 33, 0.7971439595698366),
                                                       (5, 1.8, 18, 0.8899586751444921),
                                                       (6, 1.6, 68, 0.7993447664577829),
                                                       (6, 1.8, 22, 0.8410686705679301)],
                             ids=["R5-1.4", "R5-1.6", "R5-1.8", "R6-1.6", "R6-1.8"])
    def test_covers_in_r5_and_r6_are_pinned(self, D, rho, lines, radius):
        # The exact radius, arccos of the nearest facet offset, is within rho/2.
        arr = cover_lines(rho, D, seed=1)
        assert len(arr) == lines
        offset = qhull_offsets(arr.lines).min()
        assert offset >= math.cos(0.5 * rho) - constructions._COVER_TOL
        assert math.acos(offset) == pytest.approx(radius, rel=1e-12)

    @pytest.mark.parametrize("D, rho, message", [
        (7, 1.6, "R^7: 102 lines span 61864 facets, past the budget of 61224, and leave a "
                 "direction 0.808963 from every line, above rho/2 = 0.8"),
        (8, 1.6, "R^8: 45 lines span 49188 facets, past the budget of 46875, and leave a "
                 "direction 0.991888 from every line, above rho/2 = 0.8"),
        (9, 2.0, "R^9: 24 lines span 40956 facets, past the budget of 37037, and leave a "
                 "direction 1.1832 from every line, above rho/2 = 1"),
        (10, 2.2, "R^10: 19 lines span 38156 facets, past the budget of 30000, and leave a "
                  "direction 1.19304 from every line, above rho/2 = 1.1"),
        (11, 2.4, "R^11: 17 lines span 33444 facets, past the budget of 24793, and leave a "
                  "direction 1.26452 from every line, above rho/2 = 1.2"),
        (12, 2.4, "R^12: 15 lines span 27942 facets, past the budget of 20833, and leave a "
                  "direction 1.27795 from every line, above rho/2 = 1.2"),
        (13, 2.5, "R^13: 14 lines span 18876 facets, past the budget of 17751, and leave a "
                  "direction 1.28976 from every line, above rho/2 = 1.25"),
        (14, 2.5, "R^14: 14 lines span 16384 facets, past the budget of 15306, and leave a "
                  "direction 1.30025 from every line, above rho/2 = 1.25"),
    ], ids=["R7", "R8", "R9", "R10", "R11", "R12", "R13", "R14"])
    def test_facet_budget_refused_by_name(self, fresh_insertions, D, rho, message):
        # Unbounded, (8, 1.6) grows to 656 k facets, and (12, 2.4) to 1.5 M before
        # an unnamed LinAlgError. The insertions do not depend on rho, so these
        # are the last joins in R^7-R^13, none with a ridge key near int64;
        # R^14's frame alone passes the budget.
        with traced_peak() as peak, pytest.raises(CoverageFailed) as err:
            cover_lines(rho, D)
        assert str(err.value) == message
        assert peak.bytes < 50e6

    @pytest.mark.parametrize("D, rho", [(6, 1.6), (7, 2.0), (8, 2.1)])
    def test_ridge_keys_are_distinct_in_high_dimensions(self, monkeypatch, fresh_insertions, D,
                                                        rho):
        # Keyed in base len(V) = 2 (D + 10 000), these ridges' keys pass int64
        # from D = 6; in base hi, the points joined so far, no join's can.
        calls, ridges = [], geometry._ridges

        def record(F, base, tags=1):
            R, key = ridges(F, base, tags)
            calls.append((R, key.copy()))  # _Hull.join adds its tags in place
            return R, key

        monkeypatch.setattr(geometry, "_ridges", record)
        cos_half = math.cos(0.5 * rho)
        V, F = constructions._hole_insertion(D, cos_half, 10_000)
        assert len(calls) == len(V) // 2 - D  # one call per join
        constructions._check_hull(V, F, cos_half)  # _check_closed's ridges are recorded too
        for R, key in calls:
            order = np.argsort(key, kind="stable")
            R, key = R[order], key[order]
            # In key order, neighbours share a key exactly when they are one ridge.
            assert key[0] >= 0
            np.testing.assert_array_equal(key[1:] == key[:-1], np.all(R[1:] == R[:-1], axis=1))
        base = 2 * (D + 10_000)
        with pytest.raises(OverflowError, match=f"^ridge keys of {D - 1} digits in base {base} "
                                                f"times 2 tags pass int64$"):
            ridges(F, base, 2)

    def test_an_open_or_dented_hull_is_refused(self):
        cos_half = math.cos(0.55)
        V, F = constructions._hole_insertion(3, cos_half, 10_000)
        with pytest.raises(CoverageFailed, match="^hull re-check: 3 ridges do not bound exactly "
                                                 "two facets$"):
            constructions._check_hull(V, F[1:], cos_half)
        pushed = V.copy()
        pushed[-1] *= 2.0
        # Every facet plane of the dented hull stays 0.76 or more from the origin,
        # so at radius 1 only the vertex test can refuse it.
        with pytest.raises(CoverageFailed, match="^hull re-check: a vertex lies .* above a facet "
                                                 "plane$"):
            constructions._check_hull(pushed, F, math.cos(1.0))

    @pytest.mark.parametrize("D, radius", [(3, "0.955317"), (4, "1.0472")])
    def test_insertion_cap_reported(self, monkeypatch, fresh_insertions, D, radius):
        # From the frame, the holes at the cross-polytope's 2^D facets remain.
        monkeypatch.setattr(constructions, "_MAX_ROUNDS", 2)
        with pytest.raises(CoverageFailed) as err:
            cover_lines(0.05, D, seed=1, probes=5000)
        assert str(err.value) == (f"{D + 2} lines after 2 insertions leave a direction {radius} "
                                  f"from every line, above rho/2 = 0.025")

    @pytest.mark.parametrize("D, rho", [(3, 1.1), (4, 1.2)])
    def test_a_cover_finished_in_the_last_insertion_is_returned(self, monkeypatch,
                                                                 fresh_insertions, D, rho):
        whole = cover_lines(rho, D, seed=4, probes=5000)
        monkeypatch.setattr(constructions, "_MAX_ROUNDS", len(whole) - D)
        np.testing.assert_array_equal(cover_lines(rho, D, seed=4, probes=5000).lines, whole.lines)

    @pytest.mark.parametrize("D, rho, lines", [(3, 0.1, 1694), (4, 0.4, 886)])
    def test_memory_does_not_grow_with_the_products(self, fresh_insertions, D, rho, lines):
        # Whole, the certificate's (vertex, facet) products would take 183 MB
        # here in R^3 (3388 x 6772 x 8 B) and 158 MB in R^4 (1772 x 11178),
        # and the Gram of the lines 23 MB and 6 MB.
        with traced_peak() as peak:
            arr = cover_lines(rho, D, seed=2, probes=2000)
        assert len(arr) == lines
        assert peak.bytes < 8e6

    @pytest.mark.parametrize("D, rho", [(3, 0.9), (4, 1.3)])
    def test_lines_do_not_depend_on_the_seed(self, D, rho):
        # The insertion builds no probes, so the seed moves nothing.
        first = cover_lines(rho, D, seed=0, probes=3000).lines.tobytes()
        for seed in (0, 1, 7, 2**31):
            assert cover_lines(rho, D, seed=seed, probes=3000).lines.tobytes() == first


# Covers in R^3-R^5, each with a neighbour of fewer and one of more lines.
RECORD_COVERS = [(3, 1.3), (3, 0.9), (3, 0.6), (4, 1.4), (4, 1.1), (4, 0.9), (5, 1.8), (5, 1.7),
                 (5, 1.6)]
# Covers in R^3-R^8 and the digest of their lines, in this order, pinned
# while the record still kept a live copy of the hull's facet rows.
DIGEST_COVERS = [(3, 1.3), (3, 0.9), (3, 0.6), (3, 0.4), (4, 1.4), (4, 1.1), (4, 0.9), (4, 0.7),
                 (5, 1.8), (5, 1.7), (5, 1.6), (5, 1.4), (6, 1.9), (6, 1.8), (6, 1.6),
                 (7, 2.1), (7, 2.0), (7, 1.9), (7, 1.8), (8, 2.3), (8, 2.2), (8, 2.1), (8, 2.0)]
COVERS_DIGEST = "2fdb8abad2a03945b623ec09760fc124efe826b8b38c9e02ba23e8bec66c575f"


@pytest.mark.usefixtures("fresh_insertions")
class TestInsertionRecord:
    """Covers served from the record of each dimension's insertion
    (constructions._INSERTIONS) are those of an insertion grown afresh."""

    @staticmethod
    def assert_fresh(D, rho, rounds=10_000):
        cos_half = math.cos(0.5 * rho)
        V, F = constructions._hole_insertion(D, cos_half, rounds)
        V0, F0 = loop_hole_insertion(D, cos_half, rounds)
        assert V.tobytes() == V0.tobytes() and F.tobytes() == F0.tobytes()
        if rounds == 10_000:
            lines = cover_lines(rho, D).lines
            assert lines.tobytes() == LineArrangement(dim=D, lines=V0[0::2]).lines.tobytes()

    @pytest.mark.parametrize("order", [
        RECORD_COVERS,  # falling rho: each grows the record further
        RECORD_COVERS[::-1],  # rising rho: each is a prefix of the first
        RECORD_COVERS[::3] + RECORD_COVERS[1::3] + RECORD_COVERS[2::3],  # dimensions interleaved
    ], ids=["falling", "rising", "interleaved"])
    def test_covers_are_those_of_a_fresh_insertion(self, order):
        for D, rho in order + order[::-1]:
            self.assert_fresh(D, rho)

    @pytest.mark.parametrize("order", [
        DIGEST_COVERS,
        DIGEST_COVERS[::-1],
        DIGEST_COVERS[::3] + DIGEST_COVERS[1::3] + DIGEST_COVERS[2::3],
    ], ids=["falling", "rising", "interleaved"])
    def test_covers_keep_their_bytes(self, order):
        got = {}
        for D, rho in order + order[::-1]:
            lines = cover_lines(rho, D).lines
            assert got.setdefault((D, rho), lines).tobytes() == lines.tobytes()
        assert digest(np.concatenate([got[c].ravel() for c in DIGEST_COVERS])) == COVERS_DIGEST

    def test_few_rounds_give_the_fresh_prefix(self):
        for D, rho in RECORD_COVERS[::-1]:
            for rounds in (0, 1, 3):
                self.assert_fresh(D, rho, rounds)
            self.assert_fresh(D, rho)
            for rounds in (0, 2, 5):
                self.assert_fresh(D, rho, rounds)

    def test_arrays_are_read_only(self):
        for rounds in (10_000, 2):  # the live hull, then one rebuilt from the facet rows
            V, F = constructions._hole_insertion(4, math.cos(0.5), rounds)
            for a in (V, F):
                with pytest.raises(ValueError, match="read-only"):
                    a[0] = 0

    def test_budget_refusal_drops_the_record(self, monkeypatch):
        self.assert_fresh(4, 1.1)
        monkeypatch.setattr(constructions, "_FACET_BUDGET", 16 * 500)
        with pytest.raises(CoverageFailed, match="past the budget of 500"):
            cover_lines(0.7, 4)
        assert 4 not in constructions._INSERTIONS
        monkeypatch.undo()
        for D, rho in RECORD_COVERS:
            self.assert_fresh(D, rho)

    def test_round_cap_refusal_drops_the_record(self, monkeypatch):
        self.assert_fresh(3, 0.6)
        monkeypatch.setattr(constructions, "_MAX_ROUNDS", 3)
        with pytest.raises(CoverageFailed, match="^6 lines after 3 insertions leave"):
            cover_lines(0.9, 3)
        assert 3 not in constructions._INSERTIONS
        monkeypatch.undo()
        for D, rho in RECORD_COVERS:
            self.assert_fresh(D, rho)

    def test_failed_recheck_drops_the_record(self, monkeypatch):
        self.assert_fresh(5, 1.7)

        def fail(*args):
            raise CoverageFailed("hull re-check: refused")

        monkeypatch.setattr(constructions, "_check_closed", fail)
        with pytest.raises(CoverageFailed, match="^hull re-check: refused$"):
            cover_lines(1.8, 5)
        assert 5 not in constructions._INSERTIONS
        monkeypatch.undo()
        self.assert_fresh(5, 1.8)

    def test_threads_share_the_record(self):
        # Four threads ask for the covers in different orders, switching
        # every microsecond; each cover is still the fresh one.
        want = {(D, rho): LineArrangement(dim=D, lines=loop_hole_insertion(
            D, math.cos(0.5 * rho), 10_000)[0][0::2]).lines for D, rho in RECORD_COVERS}
        mixed = RECORD_COVERS[::3] + RECORD_COVERS[1::3] + RECORD_COVERS[2::3]
        orders = [RECORD_COVERS, RECORD_COVERS[::-1], mixed, mixed[::-1]]
        got = [[] for _ in orders]

        def work(order, out):
            out.extend((D, rho, cover_lines(rho, D).lines) for D, rho in order)

        threads = [threading.Thread(target=work, args=a) for a in zip(orders, got)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for order, out in zip(orders, got):
            assert [(D, rho) for D, rho, _ in out] == order
            for D, rho, lines in out:
                assert lines.tobytes() == want[D, rho].tobytes()

    def test_a_frame_past_the_budget_leaves_no_record(self):
        with pytest.raises(CoverageFailed, match="^R\\^14: 14 lines span 16384 facets"):
            cover_lines(2.5, 14)
        assert constructions._INSERTIONS == {}


def record_scans(monkeypatch) -> list:
    """Copies of the point sets ef_doubling passes to max_angle_triple, in order."""
    scans = []

    def scan(points):
        scans.append(np.array(points))
        return max_angle_triple(points)

    monkeypatch.setattr(constructions, "max_angle_triple", scan)
    return scans


class TestEfDoubling:
    def test_single_line_gives_collinear_pair(self, monkeypatch):
        scans = record_scans(monkeypatch)
        arr = LineArrangement(dim=2, lines=np.array([[1.0, 0.0]]))
        ps = ef_doubling(arr, 1.0)
        assert len(ps) == 2
        assert max_angle(ps) == 0.0
        assert scans == []  # two points have no angle to certify

    @pytest.mark.parametrize("m, D, seed", [(3, 2, 0), (4, 3, 6), (5, 3, 1), (6, 4, 2)])
    def test_pairs_certify_without_a_scan(self, monkeypatch, m, D, seed):
        arr = pack_lines(m, D, iters=300, restarts=2, seed=seed)
        rho = 0.9 * arr.min_pairwise_angle
        scans = record_scans(monkeypatch)
        ps = ef_doubling(arr, rho)
        assert scans == []
        assert len(ps) == 2**m
        assert max_angle_triple(ps.points)[0] <= math.pi - rho

    def test_a_failing_pair_check_leaves_the_verdict_to_the_scan(self, monkeypatch):
        arr = pack_lines(5, 3, iters=300, restarts=2, seed=1)
        rho = 0.9 * arr.min_pairwise_angle
        certified = ef_doubling(arr, rho)
        monkeypatch.setattr(constructions, "_pairs_certify", lambda *args: False)
        scans = record_scans(monkeypatch)
        assert ef_doubling(arr, rho).points.tobytes() == certified.points.tobytes()
        assert [s.tobytes() for s in scans] == [certified.points.tobytes()]
        # A scan that finds an angle past pi - rho refuses the set.
        monkeypatch.setattr(constructions, "max_angle_triple", lambda points: (3.0, (5, 1, 2)))
        with pytest.raises(ScaleExhausted, match=r"^line 2: the doubled set has an angle 3 "
                                                 r"above pi - rho = "):
            ef_doubling(arr, rho)

    def test_rounding_of_far_copies_is_left_to_the_scan(self, monkeypatch):
        # At 99% of the separation the 7 lines of R^3 put the last copy near
        # 5e13, whose rounding bends its unit segments past the slack: the
        # pair check fails and the scan certifies the set.
        arr = pack_lines(7, 3)
        rho = 0.99 * arr.min_pairwise_angle
        scans = record_scans(monkeypatch)
        ps = ef_doubling(arr, rho)
        assert not constructions._pairs_certify(ps.points, arr, rho,
                                                0.49 * (arr.min_pairwise_angle - rho))
        assert [s.tobytes() for s in scans] == [ps.points.tobytes()]
        assert max_angle_triple(ps.points)[0] <= math.pi - rho

    @pytest.mark.parametrize("arr", [PLANAR_TRIPLE, pack_lines(4, 3), pack_lines(5, 4)])
    def test_a_huge_slack_is_capped_and_certified(self, monkeypatch, arr):
        rho = 0.8 * arr.min_pairwise_angle
        capped = ef_doubling(arr, rho, slack=0.49 * (arr.min_pairwise_angle - rho))
        scans = record_scans(monkeypatch)
        ps = ef_doubling(arr, rho, slack=3.0)
        assert scans == []
        assert ps.points.tobytes() == capped.points.tobytes()
        assert brute_max_angle(ps.points) <= math.pi - rho

    def test_pair_check_accepts_only_sets_under_the_bound(self):
        # Doublings, jittered more and more, checked at slacks on both sides
        # of the bound's room: every set the pair check accepts has its
        # angles below pi - rho by the scalar triple loop.
        rng = np.random.default_rng(32)
        verdicts = []
        for arr in (PLANAR_TRIPLE, pack_lines(3, 3), pack_lines(4, 3), pack_lines(3, 2)):
            for fraction in (0.5, 0.9):
                rho = fraction * arr.min_pairwise_angle
                gap = arr.min_pairwise_angle - rho
                P = ef_doubling(arr, rho, slack=0.3).points
                for jitter in (0.0, 0.01, 0.1, 0.3):
                    Q = P + rng.normal(scale=jitter, size=P.shape)
                    for s in (0.05, 0.3, 0.49 * gap, 0.6 * gap, 1.0):
                        ok = constructions._pairs_certify(Q, arr, rho, s)
                        verdicts.append(ok)
                        if ok:
                            assert brute_max_angle(Q) <= math.pi - rho
        assert 0 < sum(verdicts) < len(verdicts)

    def test_two_perpendicular_lines(self):
        arr = LineArrangement(dim=2, lines=np.array([[1.0, 0.0], [0.0, 1.0]]))
        ps = ef_doubling(arr, 1.4)
        assert len(ps) == 4
        assert brute_max_angle(ps.points) <= math.pi - 1.4

    def test_three_planar_lines(self):
        ps = ef_doubling(PLANAR_TRIPLE, 1.0)
        assert len(ps) == 8
        assert brute_max_angle(ps.points) <= math.pi - 1.0

    def test_output_size_is_power_of_two(self):
        arr = pack_lines(4, 3, seed=6)
        ps = ef_doubling(arr, 1.0)
        assert len(ps) == 16
        assert max_angle(ps) <= math.pi - 1.0

    def test_rho_must_be_below_separation(self):
        with pytest.raises(OutOfRange):
            ef_doubling(PLANAR_TRIPLE, math.pi / 3)

    def test_doubling_budget_exhaustion_reported(self, monkeypatch):
        # At 99.7% of the icosahedron's separation the rounding of the far
        # copies bends their lowest segments: the pair check fails, and the
        # scan finds a level-1 triple past pi - rho.
        arr = pack_lines(6, 3)
        scans = record_scans(monkeypatch)
        with pytest.raises(ScaleExhausted, match=r"^line 1: the doubled set has an angle "
                                                 r"2\.0431 above pi - rho = 2\.03777$"):
            ef_doubling(arr, 0.997 * arr.min_pairwise_angle)
        assert [len(s) for s in scans] == [64]

    @pytest.mark.parametrize("eps", [1e-9, 1e-12, 1e-14])
    def test_scale_that_swallows_the_unit_offsets_is_refused_by_name(self, eps):
        # rho just below the lines' min angle makes the third line's first
        # scale about 4e18 or more, where the copy's rounding eats the unit
        # segment on the first line: refused before any scan, not left to
        # the scan's coincident-point error.
        with pytest.raises(ScaleExhausted, match="^line 2: "):
            ef_doubling(PLANAR_TRIPLE, PLANAR_TRIPLE.min_pairwise_angle - eps)

    def test_doublings_past_the_size_cap_are_refused_before_any_row(self, monkeypatch):
        # 2^4 points pass a cap of 8: refused before the first vstack builds a row.
        monkeypatch.setattr(constructions, "_MAX_DOUBLED_POINTS", 8)
        frame = LineArrangement(dim=4, lines=np.eye(4))
        assert len(ef_doubling(LineArrangement(dim=3, lines=np.eye(3)), 1.0)) == 8
        stacked = []
        vstack = np.vstack
        monkeypatch.setattr(np, "vstack", lambda *args, **kwargs: stacked.append(args)
                            or vstack(*args, **kwargs))
        with pytest.raises(OutOfRange, match=r"^4 lines double to 2\^4 = 16 points, past the "
                                             r"cap of 8$"):
            ef_doubling(frame, 1.0, slack=1.0)
        assert stacked == []

    def test_demonstrates_size_against_calibrated_lower_bound(self):
        # A 2^m-point construction at cap pi - rho is consistent with the
        # packing-derived lower bound evaluated at the same instance.
        arr = PLANAR_TRIPLE
        rho = 1.0
        ps = ef_doubling(arr, rho)
        theta = math.pi - rho
        c_d = arr.min_pairwise_angle * len(arr) ** (1.0 / (arr.dim - 1))
        rep = n_bounds(theta, arr.dim, c_d, 4.0)
        assert rep.lower <= len(ps) + 1e-9


class TestFindMonoOddCycle:
    def test_single_color_triangle(self):
        ec = EdgeColoring(n=3, m=1, color={(0, 1): 0, (0, 2): 0, (1, 2): 0})
        c, cycle = find_mono_odd_cycle(ec)
        assert c == 0
        assert len(cycle) == 3

    def test_below_threshold_rejected(self):
        with pytest.raises(HypothesisViolated):
            find_mono_odd_cycle(EdgeColoring(n=2, m=1, color={(0, 1): 0}))

    def test_adversarial_two_coloring(self):
        # Color class 0 forms C5 (odd); class 1 is the complement.
        n = 5
        color = {}
        for i in range(n):
            for j in range(i + 1, n):
                color[(i, j)] = 0 if (j - i) in (1, n - 1) else 1
        c, cycle = find_mono_odd_cycle(EdgeColoring(n=n, m=2, color=color))
        assert len(cycle) % 2 == 1
        for t in range(len(cycle)):
            a, b = cycle[t], cycle[(t + 1) % len(cycle)]
            assert color[(min(a, b), max(a, b))] == c

    def test_first_non_bipartite_class_is_used(self):
        # Class 0 is the complete bipartite graph between {0, 1} and {2, 3, 4};
        # class 1 holds the triangle 2, 3, 4.
        color = {(i, j): 0 if (i < 2) != (j < 2) else 1 for i in range(5) for j in range(i + 1, 5)}
        c, cycle = find_mono_odd_cycle(EdgeColoring(n=5, m=2, color=color))
        assert c == 1 and sorted(cycle) == [2, 3, 4]

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
    def test_random_colorings_always_yield_verified_cycles(self, m):
        rng = np.random.default_rng(40 + m)
        n = 2**m + 1
        for _ in range({5: 50, 8: 3}.get(m, 1000)):
            color = {
                (i, j): int(rng.integers(0, m))
                for i in range(n) for j in range(i + 1, n)
            }
            c, cycle = find_mono_odd_cycle(EdgeColoring(n=n, m=m, color=color))
            assert len(cycle) % 2 == 1 and len(cycle) >= 3
            for t in range(len(cycle)):
                a, b = cycle[t], cycle[(t + 1) % len(cycle)]
                assert color[(min(a, b), max(a, b))] == c

    def test_uncolored_pair_rejected(self):
        with pytest.raises(OutOfRange, match=r"^pair \(0, 2\) is uncolored"):
            EdgeColoring(n=3, m=1, color={(0, 1): 0, (1, 2): 0})
        with pytest.raises(OutOfRange, match=r"^pair \(0, 1\) is uncolored or its color is not"):
            EdgeColoring(n=3, m=1, color={(0, 1): 0.5, (0, 2): 0, (1, 2): 0})

    def test_numpy_integer_colors_accepted(self):
        color = {(0, 1): np.int64(0), (0, 2): np.uint8(0), (1, 2): 0}
        assert find_mono_odd_cycle(EdgeColoring(n=3, m=1, color=color)) == (0, [1, 0, 2])

    @pytest.mark.parametrize("bad, value", [((1, 3), 2), ((2, 3), -1), ((0, 3), "1"),
                                            ((1, 2), None), ((0, 2), 1.0)])
    def test_first_bad_pair_in_row_major_order_is_named(self, bad, value):
        color = {(i, j): (i + j) % 2 for i in range(4) for j in range(i + 1, 4)}
        color[bad] = value
        color[(2, 3)] = 7 if bad < (2, 3) else color[(2, 3)]  # a later bad pair is not named
        with pytest.raises(OutOfRange, match=rf"^pair \({bad[0]}, {bad[1]}\) is uncolored or "
                                             rf"its color is not an integer in \[0, 2\)$"):
            EdgeColoring(n=4, m=2, color=color)

    def test_matrix_matches_the_pairs_for_any_integer_types(self):
        rng = np.random.default_rng(5)
        n = 40
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        values = rng.integers(0, 3, size=len(pairs))
        # Python ints, numpy signed and unsigned integers and booleans mixed.
        kinds = [int, np.int64, np.uint64, np.int8, lambda v: bool(v) if v < 2 else int(v)]
        color = {p: kinds[k % len(kinds)](v) for k, (p, v) in enumerate(zip(pairs, values))}
        K = EdgeColoring(n=n, m=3, color=color)._matrix
        for (i, j), v in zip(pairs, values):
            assert K[i, j] == K[j, i] == v
        np.testing.assert_array_equal(np.diag(K), -1)


class TestObtuseTripleWitness:
    def test_three_collinear_points(self):
        A = PointSet([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        arr = LineArrangement(dim=2, lines=np.array([[1.0, 0.0]]))
        wit = obtuse_triple_witness(A, arr, 0.2)
        assert wit.angle == pytest.approx(math.pi, abs=1e-12)
        np.testing.assert_allclose(wit.v, [1.0, 0.0])

    def test_jittered_line(self):
        A = PointSet([[0, 0.001], [1, -0.002], [2, 0.0015], [3, -0.001], [4, 0.002]])
        arr = LineArrangement(dim=2, lines=np.array([[1.0, 0.0]]))
        wit = obtuse_triple_witness(A, arr, 0.3)
        assert wit.angle >= math.pi - 0.3 - 1e-9
        assert wit.angle == angle_at(wit.vi, wit.v, wit.vj)

    def test_five_points_two_lines(self):
        A = PointSet([[0, 0], [1, 0], [2, 0], [0, 50], [1, 50]])
        arr = LineArrangement(dim=2, lines=np.array([[1.0, 0.0], [0.0, 1.0]]))
        wit = obtuse_triple_witness(A, arr, 0.3)
        assert wit.angle >= math.pi - 0.3 - 1e-9

    def test_size_hypothesis_enforced(self):
        A = PointSet([[0, 0], [1, 0], [2, 0], [0, 50]])
        arr = LineArrangement(dim=2, lines=np.array([[1.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(HypothesisViolated):
            obtuse_triple_witness(A, arr, 0.3)

    def test_coloring_failure_reported(self):
        A = PointSet([[0, 0], [1, 1], [2, 0]])
        arr = LineArrangement(dim=2, lines=np.array([[1.0, 0.0]]))
        with pytest.raises(ColoringFailed):
            constructions._pair_colors(A, arr, 0.2)


def loop_colors(A, L, rho):
    """The pairwise loop: each pair i < j in row-major order takes the first line
    within rho/2 of its direction, and the first pair none covers is named."""
    colors = {}
    for i in range(len(A)):
        for j in range(i + 1, len(A)):
            d = A.points[j] - A.points[i]
            hits = np.flatnonzero(np.abs(L.lines @ (d / np.linalg.norm(d))) >= math.cos(rho / 2))
            if hits.size == 0:
                raise ColoringFailed(f"segment ({i}, {j}) is not within {rho / 2:.6g} of any line")
            colors[(i, j)] = int(hits[0])
    return colors


def pair_colors(A, L, rho):
    """{(i, j): color} from constructions._pair_colors."""
    i, j, c = constructions._pair_colors(A, L, rho)
    return dict(zip(zip(i.tolist(), j.tolist()), c.tolist()))


class TestColorEdgesByLines:
    def test_colors_and_refusals_match_the_pairwise_loop(self):
        rng = np.random.default_rng(46)
        colored = refused = 0
        for _ in range(200):
            D, n, m = int(rng.integers(2, 5)), int(rng.integers(2, 30)), int(rng.integers(1, 12))
            lines = rng.normal(size=(m, D))
            L = LineArrangement(dim=D, lines=lines / np.linalg.norm(lines, axis=1)[:, None])
            A = PointSet(rng.normal(size=(n, D)) * 10.0 ** rng.uniform(-3, 3))
            rho = float(rng.uniform(0.3, 3.0))
            try:
                expected = loop_colors(A, L, rho)
            except ColoringFailed as err:
                with pytest.raises(ColoringFailed) as got:
                    pair_colors(A, L, rho)
                assert str(got.value) == str(err)
                refused += 1
                continue
            assert pair_colors(A, L, rho) == expected
            colored += 1
        assert colored > 50 and refused > 50

    def test_first_uncovered_pair_is_named(self):
        # (0, 1) and (0, 2) lie on the two lines; (0, 3) and (1, 2) on neither,
        # and (0, 3) comes first in row-major order.
        A = PointSet([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
        L = LineArrangement(dim=2, lines=np.eye(2))
        with pytest.raises(ColoringFailed, match=r"^segment \(0, 3\) is not within 0\.1 of"):
            pair_colors(A, L, 0.2)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: LineArrangement(dim=2, lines=np.array([[1.0, 0.0], [math.nan, 0.0]])),
                 "lines must be unit vectors", id="LineArrangement"),
    pytest.param(lambda: min_enclosing_cap([[1.0, 0.0], [math.nan, math.nan]]),
                 "inputs must be unit vectors", id="min_enclosing_cap"),
    pytest.param(lambda: f_fraction(2, math.nan), "eta must lie in", id="f_fraction"),
    pytest.param(lambda: dekster_radius(math.nan, 2), "diameter must be nonnegative, got nan",
                 id="dekster_radius"),
    pytest.param(lambda: ef_doubling(PLANAR_TRIPLE, 0.5, slack=math.nan),
                 "slack must be positive, got nan", id="ef_doubling"),
    pytest.param(lambda: n_bounds(2.0, 2, math.nan, 4.0),
                 "constants must be positive, got c_d=nan", id="n_bounds"),
    pytest.param(lambda: n_bounds(2.0, 2, 1.0, math.nan),
                 r"constants must be positive, got c_d=1\.0, C_d=nan$", id="n_bounds-C_d"),
    pytest.param(lambda: eta_of_theta(math.nan, 2), r"theta must lie in \(0, pi\], got nan$",
                 id="eta_of_theta"),
    pytest.param(lambda: cover_lines(math.nan, 3), r"rho must lie in \(0, pi\), got nan$",
                 id="cover_lines"),
    pytest.param(lambda: max_cardinality_search(math.nan, 2),
                 r"theta must lie in \(0, pi\), got nan$", id="max_cardinality_search"),
    pytest.param(lambda: curvature.Cone(apex=np.zeros(2), axis=[0.0, 1.0], half_angle=math.nan),
                 r"half_angle must lie in \(0, pi/2\), got nan$", id="Cone"),
    pytest.param(lambda: curvature.SphericalCap(center=[0.0, 1.0], radius=math.nan),
                 r"cap radius must lie in \[0, pi\], got nan$", id="SphericalCap"),
])
def test_nan_arguments_refused_by_name(call, message):
    # Each check is written so that NaN fails it, not passes it.
    with pytest.raises(OutOfRange, match=f"^{message}"):
        call()


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: LineArrangement(dim=3, lines=np.eye(2)),
                 r"expected an \(m, 3\) array of lines$", id="LineArrangement-shape"),
    pytest.param(lambda: EdgeColoring(n=1, m=1, color={}),
                 "need n >= 2 vertices and m >= 1 colors$", id="EdgeColoring-n"),
    pytest.param(lambda: EdgeColoring(n=2, m=0, color={(0, 1): 0}),
                 "need n >= 2 vertices and m >= 1 colors$", id="EdgeColoring-m"),
    pytest.param(lambda: ef_doubling(PLANAR_TRIPLE, 0.0),
                 r"rho must lie in \(0, pi\), got 0\.0$", id="ef_doubling-rho"),
    pytest.param(lambda: obtuse_triple_witness(PointSet([[0, 0], [1, 0], [0, 1]]),
                                               PLANAR_TRIPLE, math.pi),
                 r"rho must lie in \(0, pi\), got 3\.141592653589793$",
                 id="obtuse_triple_witness-rho"),
    pytest.param(lambda: n_bounds(2.0, 2, 4.0, 1.0),
                 r"constants c_d=4\.0, C_d=1\.0 are inconsistent: lower 5\.672075702880992 "
                 r">= upper 4\.670481159771903$", id="n_bounds-order"),
    # A string or None for a real: each used to raise a TypeError.
    pytest.param(lambda: cardinality_bound("2", 3), r"theta must lie in \(0, pi\], got '2'$",
                 id="cardinality_bound-str"),
    pytest.param(lambda: eta_of_theta(None, 2), r"theta must lie in \(0, pi\], got None$",
                 id="eta_of_theta-none"),
    pytest.param(lambda: f_fraction(2, "0.5"), r"eta must lie in \[0, pi/2\], got '0\.5'$",
                 id="f_fraction-str"),
    pytest.param(lambda: dekster_radius(None, 2), "diameter must be nonnegative, got None$",
                 id="dekster_radius-none"),
    pytest.param(lambda: cover_lines("1", 3), r"rho must lie in \(0, pi\), got '1'$",
                 id="cover_lines-str"),
    pytest.param(lambda: ef_doubling(PLANAR_TRIPLE, 0.5, slack=None),
                 "slack must be positive, got None$", id="ef_doubling-slack-none"),
    pytest.param(lambda: n_bounds(None, 2, 1.0, 4.0),
                 r"theta must lie in \(pi/2, pi\), got None$", id="n_bounds-theta-none"),
    pytest.param(lambda: n_bounds(2.0, 2, "1", 4.0),
                 r"constants must be positive, got c_d='1', C_d=4\.0$", id="n_bounds-c_d-str"),
    pytest.param(lambda: cone_cover_certificate(PointSet([[0, 0], [1, 0], [0, 1]]), "0.5"),
                 r"eta must lie in \(0, pi/2\), got '0\.5'$", id="cone_cover_certificate-str"),
    pytest.param(lambda: max_cardinality_search(None, 2),
                 r"theta must lie in \(0, pi\), got None$", id="max_cardinality_search-none"),
    pytest.param(lambda: curvature.Cone(apex=np.zeros(2), axis=[0.0, 1.0], half_angle=None),
                 r"half_angle must lie in \(0, pi/2\), got None$", id="Cone-half_angle-none"),
    pytest.param(lambda: curvature.SphericalCap(center=[0.0, 1.0], radius="1"),
                 r"cap radius must lie in \[0, pi\], got '1'$", id="SphericalCap-radius-str"),
    pytest.param(lambda: obtuse_triple_witness(PointSet([[0, 0], [1, 0], [0, 1]]),
                                               PLANAR_TRIPLE, None),
                 r"rho must lie in \(0, pi\), got None$", id="obtuse_triple_witness-rho-none"),
    # Ragged rows: each used to raise numpy's ValueError.
    pytest.param(lambda: LineArrangement(dim=2, lines=[[1.0, 0.0], [1.0]]),
                 r"line rows have different lengths \[1, 2\]$", id="LineArrangement-ragged"),
    pytest.param(lambda: min_enclosing_cap([[1.0, 0.0], [0.0]]),
                 r"vector rows have different lengths \[1, 2\]$", id="min_enclosing_cap-ragged"),
    pytest.param(lambda: curvature.Cone(apex=np.zeros(2), axis=[0.0, 1.0],
                                        half_angle=0.5).contains([[0.0], [0.0, 1.0]]),
                 r"point rows have different lengths \[1, 2\]$", id="Cone.contains-ragged"),
    pytest.param(lambda: curvature.SphericalCap(center=[[0.0], [0.0, 1.0]], radius=0.5),
                 r"point rows have different lengths \[1, 2\]$", id="SphericalCap-center-ragged"),
])
def test_out_of_range_arguments_refused_by_name(call, message):
    with pytest.raises(OutOfRange, match=f"^{message}"):
        call()


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: theta_d(math.nan), "d must be a positive integer, got nan",
                 id="theta_d"),
    pytest.param(lambda: sin_half_theta_d(math.nan), "d must be a positive integer, got nan",
                 id="sin_half_theta_d"),
    pytest.param(lambda: f_fraction(math.nan, 0.5), "d must be a positive integer, got nan",
                 id="f_fraction"),
    pytest.param(lambda: eta_of_theta(2.0, math.nan), "d must be a positive integer, got nan",
                 id="eta_of_theta"),
    pytest.param(lambda: cardinality_bound(2.0, math.nan),
                 "ambient_dim must be an integer >= 2, got nan", id="cardinality_bound"),
    pytest.param(lambda: asymptotic_envelope(math.nan), "d must be an integer >= 2, got nan",
                 id="asymptotic_envelope"),
    pytest.param(lambda: n_bounds(2.0, math.nan, 1.0, 4.0), "d must be an integer >= 2, got nan",
                 id="n_bounds"),
    pytest.param(lambda: dekster_radius(0.5, math.nan), "d must be a positive integer, got nan",
                 id="dekster_radius"),
    pytest.param(lambda: minimize_max_angle(4.5, 2), r"n must be an integer >= 3, got 4\.5",
                 id="minimize_max_angle-n"),
    pytest.param(lambda: minimize_max_angle(4, 2.5), r"dimension must be an integer >= 2, got 2\.5",
                 id="minimize_max_angle-D"),
    pytest.param(lambda: minimize_max_angle(4, 2, iters=2.5),
                 r"iters must be an integer >= 1, got 2\.5",
                 id="minimize_max_angle-iters"),
    pytest.param(lambda: max_cardinality_search(2.0, 2.5),
                 r"dimension must be an integer >= 2, got 2\.5", id="max_cardinality_search-D"),
    pytest.param(lambda: max_cardinality_search(2.0, 2, budget=2.5),
                 r"budget must be an integer >= 0, got 2\.5", id="max_cardinality_search-budget"),
    pytest.param(lambda: pack_lines(5.5, 3), r"m must be an integer >= 2, got 5\.5",
                 id="pack_lines-m"),
    pytest.param(lambda: pack_lines(5, 3.5), r"dimension must be an integer >= 2, got 3\.5",
                 id="pack_lines-D"),
    pytest.param(lambda: pack_lines(5, 3, iters=2.5), r"iters must be an integer >= 1, got 2\.5",
                 id="pack_lines-iters"),
    pytest.param(lambda: pack_lines(5, 3, restarts=2.5),
                 r"restarts must be an integer >= 1, got 2\.5",
                 id="pack_lines-restarts"),
    pytest.param(lambda: cover_lines(1.0, 2.5), r"dimension must be an integer >= 2, got 2\.5",
                 id="cover_lines-D"),
    pytest.param(lambda: cover_lines(1.0, 3, probes=10.5),
                 r"probes must be an integer >= 1, got 10\.5",
                 id="cover_lines-probes"),
])
def test_fractional_and_nan_sizes_refused_by_name(call, message):
    # int() would raise a raw ValueError on nan and a TypeError deeper in on
    # 2.5, or let a fractional budget run.
    with pytest.raises(OutOfRange, match=f"^{message}$"):
        call()


def test_integral_float_sizes_are_taken_as_integers():
    a = minimize_max_angle(4.0, 2.0, iters=5.0, restarts=1.0, seed=1)
    b = minimize_max_angle(4, 2, iters=5, restarts=1, seed=1)
    assert digest(a.points.points) == digest(b.points.points) and a.iterations == b.iterations
    a, b = pack_lines(5.0, 3.0, iters=20.0, restarts=2.0), pack_lines(5, 3, iters=20, restarts=2)
    assert digest(a.lines) == digest(b.lines)
    a = max_cardinality_search(2.3, 3.0, budget=50.0, seed=1)
    b = max_cardinality_search(2.3, 3, budget=50, seed=1)
    assert digest(a.points.points) == digest(b.points.points) and a.iterations == b.iterations == 50
    assert theta_d(3.0) == theta_d(3) and cardinality_bound(2.0, 3.0) == cardinality_bound(2.0, 3)


class TestNBounds:
    def test_unit_ratio_gives_unit_lower(self):
        rep = n_bounds(math.pi - 1.0, 2, 1.0, 4.0)
        assert rep.lower == pytest.approx(1.0, rel=1e-12)

    def test_planar_exponent_arithmetic(self):
        rep = n_bounds(math.pi - 1.0 / 3.0, 2, 1.0, 4.0)
        assert rep.lower == pytest.approx(4.0, rel=1e-9)

    def test_cubic_upper(self):
        rep = n_bounds(math.pi - 1.0, 3, 1.0, 4.0)
        assert rep.upper == pytest.approx(1 + 2**17, rel=1e-12)

    def test_overflow_flagged(self):
        rep = n_bounds(math.pi - 1e-3, 3, 1.0, 4.0)
        assert rep.overflow and rep.upper == math.inf

    def test_ordering_always_reported(self):
        rng = np.random.default_rng(44)
        for _ in range(100):
            theta = float(rng.uniform(math.pi / 2 + 0.05, math.pi - 0.05))
            d = int(rng.integers(2, 6))
            c = float(rng.uniform(0.1, 2.0))
            C = c + float(rng.uniform(0.0, 3.0))
            rep = n_bounds(theta, d, c, C)
            assert rep.lower < rep.upper or (rep.overflow and rep.lower == rep.upper == math.inf)

    def test_theta_range_enforced(self):
        with pytest.raises(OutOfRange):
            n_bounds(math.pi / 2, 2, 1.0, 4.0)
        with pytest.raises(OutOfRange):
            n_bounds(math.pi, 2, 1.0, 4.0)


class TestCrossModule:
    def test_packing_feeds_doubling_and_size_bound(self):
        rng = np.random.default_rng(45)
        for seed in range(3):
            D = 2 + seed % 2
            arr = pack_lines(3, D, seed=seed)
            rho = 0.9 * arr.min_pairwise_angle
            ps = ef_doubling(arr, rho)
            assert len(ps) == 8
            assert max_angle(ps) <= math.pi - rho
            # Random rigid motions leave the certificate intact.
            Q = random_rotation(rng, D)
            moved = ps.points @ Q.T + rng.normal(size=D)
            assert brute_max_angle(moved) <= math.pi - rho + 1e-9
