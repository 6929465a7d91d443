"""Normal-cone fractions, cap containment, and cone-covering certificates.

The fraction of directions u on the unit sphere with u . (v_j - v_i) <= 0
for all j is the outward-normal-cone fraction of vertex v_i; over all
vertices of a polytope in convex position these fractions sum to 1. They are
estimated by seeded Monte Carlo, one cache-sized block of directions at a
time (sampling.direction_blocks), so memory does not grow with the sample
count; the convex-position precondition reuses the verdict stored on the
PointSet. Each block's product is formed vertex-major, one contiguous row
per vertex and one column per direction, and reduced along its columns: a
few elementwise passes over long rows instead of one short reduction per
direction, whose fixed cost dominated. A diameter-to-cap-radius inequality
on the sphere converts a maximum-angle bound at a vertex into an enclosing
cap for its rays, which yields a covering of the polytope by congruent
cones. The smallest enclosing cap comes from the point of the rays' convex
hull nearest the origin, found by the same nearest-point kernel as hull
membership.

The Monte Carlo directions come in antithetic pairs (Hammersley & Morton
1956). N samples draw ceil(N/2) raw standard normal rows u_k; sample 2k is
u_k and sample 2k + 1 is -u_k, and for odd N the last u has no partner. One
product per block serves both samples of a pair, since (-u) . x = -(u . x)
exactly. Each sample is uniform on the sphere, so the estimate stays
unbiased. u and -u both lie in one vertex's normal cone only if u is
orthogonal to every edge there, which has probability 0; the two indicators
are then mutually exclusive, their covariance is -p^2 <= 0, and the
binomial standard error over N samples stays a conservative bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import sin_half_theta_d
from .convexity import FEAS_TOL, _nearest_point, is_convex_position
from .errors import (
    CapTooSmall,
    DegenerateHull,
    NotConvexPosition,
    NotHemispherical,
    OutOfRange,
)
from .geometry import PointSet, as_unit
from .sampling import _check_seed, direction_blocks

CONE_FIT_TOL = 1e-9


@dataclass(frozen=True)
class Cone:
    """Solid circular cone: apex + directions within half_angle of axis."""

    apex: np.ndarray
    axis: np.ndarray
    half_angle: float

    def __post_init__(self):
        as_unit(self.axis)
        if not 0.0 < self.half_angle < 0.5 * math.pi:
            raise OutOfRange(f"half_angle must lie in (0, pi/2), got {self.half_angle}")

    def contains(self, x, tol: float = CONE_FIT_TOL) -> bool:
        v = np.asarray(x, dtype=float) - self.apex
        r = float(np.linalg.norm(v))
        if r == 0.0:
            return True
        return float(np.dot(v, self.axis)) >= r * math.cos(self.half_angle) - tol * r


@dataclass(frozen=True)
class SphericalCap:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        as_unit(self.center)
        if not 0.0 <= self.radius <= math.pi:
            raise OutOfRange(f"cap radius must lie in [0, pi], got {self.radius}")


@dataclass(frozen=True)
class CurvatureEstimate:
    fractions: np.ndarray
    samples: int
    seed: int
    std_error: np.ndarray


def _require_convex_position(V: PointSet):
    if not is_convex_position(V).in_convex_position:
        raise NotConvexPosition("point set has a non-vertex point")


def _paired_blocks(dim: int, samples: int, seed: int, width: int):
    """Yield (U, paired) over the ceil(samples/2) raw rows of the paired stream.

    Row u_k is sample 2k and its negation is sample 2k + 1; the first
    `paired` rows of block U have their partner within the sample count.
    """
    rows = 0
    for U in direction_blocks(dim, -(-samples // 2), seed, width):
        rows += len(U)
        yield U, len(U) - max(0, 2 * rows - samples)  # 1 short only at odd N's last row


def _first_extreme_counts(PT: np.ndarray, extreme, arg) -> np.ndarray:
    """Per row of PT, the number of columns whose extreme (np.max or np.min)
    is first attained in that row: np.bincount(arg(PT, axis=0)).

    Each row's matches are counted along its length; only a block with an
    exact tie, where the matches outnumber the columns, pays for `arg`.
    """
    counts = np.count_nonzero(PT == extreme(PT, axis=0), axis=1)
    if counts.sum() > PT.shape[1]:
        counts = np.bincount(arg(PT, axis=0), minlength=PT.shape[0])
    return counts


def normal_cone_fraction_mc(V: PointSet, i: int, samples: int, seed: int) -> tuple[float, float]:
    """Monte Carlo normal-cone fraction of vertex i, with binomial std error.

    Draws `samples` uniform directions u on the unit sphere, in antithetic
    pairs, and counts those satisfying u . (v_j - v_i) <= 0 for every j, one
    direction block at a time: -u satisfies it when every u . (v_j - v_i) >= 0.
    A direction counts when its column maximum of the vertex-major product
    is <= 0 (for -u, its column minimum >= 0), which is np.all on its row of
    the row-major product.
    """
    _check_seed(seed)
    if samples < 1000:
        raise OutOfRange("need at least 1000 samples")
    if not 0 <= i < len(V):
        raise OutOfRange(f"vertex index {i} out of range")
    _require_convex_position(V)
    diffs = np.delete(V.points, i, axis=0) - V.points[i]
    count = 0
    for U, paired in _paired_blocks(V.dim, samples, seed, len(diffs)):
        PT = diffs @ U.T  # one row per other vertex, one column per direction
        count += int(np.count_nonzero(PT.max(axis=0) <= 0.0))
        count += int(np.count_nonzero(PT[:, :paired].min(axis=0) >= 0.0))
    frac = count / samples
    se = math.sqrt(max(frac * (1.0 - frac), 0.0) / samples)
    return frac, se


def gauss_bonnet_sum(V: PointSet, samples: int, seed: int) -> CurvatureEstimate:
    """All vertex normal-cone fractions from one shared direction sample.

    Each direction is assigned to the vertex maximizing u . v_i (ties to the
    lowest index), so the counts partition the sample and the fractions sum
    to one. The directions come in antithetic pairs: -u goes to the argmin
    row of the same product, which breaks ties to the lowest index as the
    argmax of its negation would. The directions are counted one block at a
    time, from the vertex-major product: each vertex counts the columns whose
    maximum (or, for -u, minimum) it attains, and a block with an exact tie
    falls back to the first-index argmax/argmin of its columns. Requires the
    hull to be full-dimensional.
    """
    _check_seed(seed)
    if samples < 1000:
        raise OutOfRange("need at least 1000 samples")
    _require_convex_position(V)
    centered = V.points - V.points.mean(axis=0)
    if np.linalg.matrix_rank(centered, tol=1e-9 * max(1.0, np.abs(centered).max())) < V.dim:
        raise DegenerateHull("hull is not full-dimensional")
    n = len(V)
    counts = np.zeros(n, dtype=np.int64)
    for U, paired in _paired_blocks(V.dim, samples, seed, n):
        PT = V.points @ U.T  # one row per vertex, one column per direction
        counts += _first_extreme_counts(PT, np.max, np.argmax)
        counts += _first_extreme_counts(PT[:, :paired], np.min, np.argmin)
    fractions = counts.astype(float) / samples
    # Closing entry: recompute the smallest fraction from the others so the
    # float fractions sum to exactly 1.0 (adjustment is at most a few ulps).
    close = int(np.argmin(counts))
    others = math.fsum(fractions[j] for j in range(n) if j != close)
    fractions[close] = 1.0 - others
    se = np.sqrt(np.maximum(fractions * (1.0 - fractions), 0.0) / samples)
    return CurvatureEstimate(fractions=fractions, samples=samples, seed=seed, std_error=se)


def dekster_radius(diam: float, d: int) -> float:
    """Smallest cap radius R with diam <= 2 arcsin(sin(theta_d/2) sin R).

    A subset of the sphere S^d with geodesic diameter `diam` fits in a closed
    cap of this radius. Defined for 0 <= diam <= theta_d.
    """
    if diam < 0.0:
        raise OutOfRange(f"diameter must be nonnegative, got {diam}")
    s = sin_half_theta_d(d)
    ratio = math.sin(0.5 * diam) / s
    if diam > math.pi or ratio > 1.0 + 1e-12:
        raise OutOfRange(
            f"diameter {diam:.12g} exceeds the invertible range (max {2.0 * math.asin(s):.12g})"
        )
    return math.asin(min(ratio, 1.0))


def min_enclosing_cap(H) -> SphericalCap:
    """Smallest spherical cap containing the given unit vectors.

    With p* the point of conv(H) nearest the origin, the cap has center
    c = p*/|p*| and cos(radius) = |p*|: every h has h . p* >= |p*|^2, and by
    minimax duality no center does better. The radius is taken as the max of
    2 asin(|h - c| / 2), the exact angle from c to the farthest h, which
    keeps full relative accuracy for small caps where acos(|p*|) does not.
    Requires the vectors to fit in an open hemisphere (|p*| bounded away
    from 0). The cap is re-checked to contain every vector.
    """
    vecs = np.asarray(H, dtype=float)
    if vecs.ndim != 2 or vecs.shape[0] < 1:
        raise OutOfRange("need a nonempty list of unit vectors")
    norms = np.linalg.norm(vecs, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-9):
        raise OutOfRange("inputs must be unit vectors")
    if vecs.shape[0] == 1:
        return SphericalCap(center=vecs[0].copy(), radius=0.0)
    z, _, _ = _nearest_point(vecs, "enclosing cap")
    nz = float(np.linalg.norm(z))
    if nz <= FEAS_TOL:
        raise NotHemispherical("cap would cover a hemisphere or more")
    center = z / nz
    chord = float(np.max(np.linalg.norm(vecs - center, axis=1)))
    radius = 2.0 * math.asin(min(1.0, 0.5 * chord))
    worst = float(np.min(vecs @ center))
    if worst < math.cos(radius) - 1e-9:
        raise NotHemispherical(f"cap of radius {radius:.12g} misses a vector (cos {worst:.12g})")
    return SphericalCap(center=center, radius=radius)


def cone_cover_certificate(V: PointSet, eta: float) -> list[Cone]:
    """Per-vertex cones of half-angle eta whose intersection contains conv V.

    For each vertex the rays toward all other vertices must fit in a cap of
    radius at most eta; the cone's axis is that cap's center. Membership of
    every vertex in every cone is re-checked, which certifies hull coverage
    because cones are convex.
    """
    if not 0.0 < eta < 0.5 * math.pi:
        raise OutOfRange(f"eta must lie in (0, pi/2), got {eta}")
    _require_convex_position(V)
    n = len(V)
    if n < 2:
        raise OutOfRange("need at least two points")
    cones = []
    for i in range(n):
        diffs = np.delete(V.points, i, axis=0) - V.points[i]  # V's points are distinct
        rays = diffs / np.linalg.norm(diffs, axis=1)[:, None]
        try:
            cap = min_enclosing_cap(rays)
        except NotHemispherical:
            raise CapTooSmall(i, 0.5 * math.pi, eta) from None
        if cap.radius > eta + CONE_FIT_TOL:
            raise CapTooSmall(i, cap.radius, eta)
        cones.append(Cone(apex=V.points[i].copy(), axis=cap.center, half_angle=eta))
    # Every vertex j in every cone i, by Cone.contains's test on all pairs at once.
    v = V.points[None, :, :] - V.points[:, None, :]
    r = np.linalg.norm(v, axis=2)
    axes = np.array([cone.axis for cone in cones])
    outside = np.argwhere(~(np.einsum("ijk,ik->ij", v, axes)
                            >= r * math.cos(eta) - CONE_FIT_TOL * r))
    if outside.size:
        i, j = outside[0]
        raise RuntimeError(f"cap fit passed but vertex {j} is outside cone {i}")
    return cones
