"""Normal-cone fractions, cap containment, and cone-covering certificates.

The fraction of directions u on the unit sphere with u . (v_j - v_i) <= 0
for all j is the outward-normal-cone fraction of vertex v_i; over all
vertices of a polytope in convex position these fractions sum to 1. They are
estimated by seeded Monte Carlo. A diameter-to-cap-radius inequality on the
sphere converts a maximum-angle bound at a vertex into an enclosing cap for
its rays, which yields a covering of the polytope by congruent cones. The
smallest enclosing cap comes from the point of the rays' convex hull nearest
the origin, found by the same nearest-point kernel as hull membership.
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
from .geometry import PointSet, as_unit, rays_from
from .sampling import unit_directions

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


def normal_cone_fraction_mc(V: PointSet, i: int, samples: int, seed: int) -> tuple[float, float]:
    """Monte Carlo normal-cone fraction of vertex i, with binomial std error.

    Draws `samples` uniform directions u on the unit sphere and counts those
    satisfying u . (v_j - v_i) <= 0 for every j.
    """
    if samples < 1000:
        raise OutOfRange("need at least 1000 samples")
    if not 0 <= i < len(V):
        raise OutOfRange(f"vertex index {i} out of range")
    _require_convex_position(V)
    diffs = np.delete(V.points, i, axis=0) - V.points[i]
    count = 0
    for start in range(0, samples, 262144):
        n = min(262144, samples - start)
        U = unit_directions(V.dim, n, seed, start=start)
        count += int(np.sum(np.all(U @ diffs.T <= 0.0, axis=1)))
    frac = count / samples
    se = math.sqrt(max(frac * (1.0 - frac), 0.0) / samples)
    return frac, se


def gauss_bonnet_sum(V: PointSet, samples: int, seed: int) -> CurvatureEstimate:
    """All vertex normal-cone fractions from one shared direction sample.

    Each direction is assigned to the vertex maximizing u . v_i (ties to the
    lowest index), so the counts partition the sample and the fractions sum
    to one. Requires the hull to be full-dimensional.
    """
    if samples < 1000:
        raise OutOfRange("need at least 1000 samples")
    _require_convex_position(V)
    centered = V.points - V.points.mean(axis=0)
    if np.linalg.matrix_rank(centered, tol=1e-9 * max(1.0, np.abs(centered).max())) < V.dim:
        raise DegenerateHull("hull is not full-dimensional")
    n = len(V)
    counts = np.zeros(n, dtype=np.int64)
    for start in range(0, samples, 262144):
        k = min(262144, samples - start)
        U = unit_directions(V.dim, k, seed, start=start)
        assign = np.argmax(U @ V.points.T, axis=1)
        counts += np.bincount(assign, minlength=n)
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
        others = PointSet(np.delete(V.points, i, axis=0))
        rays = rays_from(V.points[i], others)
        try:
            cap = min_enclosing_cap(rays)
        except NotHemispherical:
            raise CapTooSmall(i, 0.5 * math.pi, eta) from None
        if cap.radius > eta + CONE_FIT_TOL:
            raise CapTooSmall(i, cap.radius, eta)
        cones.append(Cone(apex=V.points[i].copy(), axis=cap.center, half_angle=eta))
    for cone in cones:
        for j in range(n):
            if not cone.contains(V.points[j]):
                raise RuntimeError("cap fit passed but vertex membership failed")
    return cones
