"""Normal-cone fractions, cap containment, and cone-covering certificates.

The fraction of directions u on the unit sphere with u . (v_j - v_i) <= 0
for all j is the outward-normal-cone fraction of vertex v_i; over all
vertices of a polytope in convex position these fractions sum to 1. In the
plane and in R^3 they have closed forms (discrete Gauss-Bonnet): a polygon
vertex's fraction is its exterior angle over 2 pi, and a polyhedron
vertex's is its angular defect over 4 pi (Descartes), 2 pi minus the
angles there of the triangles of its hull, which grows by the same
beneath-beyond steps as the line covers (`geometry._Hull`).
`gauss_bonnet_sum` returns those there, checks that they sum to 1, and
says so in its `method`. In other dimensions, and in
`normal_cone_fraction_mc` everywhere, one seeded Monte Carlo count gives
each direction to its first maximizing vertex (`_shared_sample_counts`), a
cache-sized block of directions at a time (`_paired_products`), so memory
does not grow with the sample count; the convex-position precondition
reuses the verdict stored on the PointSet.
Each block's product is formed vertex-major, one contiguous row per vertex
and one column per direction, and reduced along its columns: a few
elementwise passes over long rows instead of one short reduction per
direction, whose fixed cost dominated. A diameter-to-cap-radius inequality
on the sphere converts a maximum-angle bound at a vertex into an enclosing
cap for its rays, which yields a covering of the polytope by congruent
cones. The smallest enclosing caps of a stack of ray sets come from one
path, `_enclosing_caps`, for all sets at once: each from the point of its
rays' convex hull nearest the origin, found by one lockstep solve of the
same nearest-point kernel as hull membership, or in the plane as the
complement of the largest gap between the rays' angles. A cone cover is
one such stack, one set of rays per vertex, refused or not.

Monte Carlo directions are one fixed set under random rotations, with no
per-sample draw: raw row i is row i % BLOCK of the unshifted R_d directions
1..BLOCK (`sampling.fixed_directions`, shared with the convex-position
screen) under the (i // BLOCK)-th rotation from default_rng(seed), the Q of
a standard normal matrix's QR with R's diagonal signs moved into it, so
Haar on O(dim) (Mezzadri 2007). Each row is so uniform on the sphere and
every Monte Carlo fraction unbiased. Rows of one rotation are dependent,
their covariance set by the angle between their base rows; over the evenly
spread base these sum below zero, so the variance stays under the binomial
p(1 - p)/N (0.1-0.6 of it in D = 4, 5, 8). The rows are never built: since
x . (Q b) = (x Q) . b, `_paired_products` turns its points by each Q once,
then multiplies them by the base rows.

The directions come in antithetic pairs (Hammersley & Morton 1956). N
samples take ceil(N/2) raw rows u_k; sample 2k is u_k and 2k + 1 is -u_k,
and for odd N the last u has no partner. One product per block serves both
samples of a pair, since (-u) . x = -(u . x) exactly. Each sample is uniform
on the sphere, so the estimate is unbiased. u and -u both lie in one
vertex's normal cone only if u is orthogonal to every edge there, which has
probability 0, so their indicators' covariance is -p^2 <= 0; with the other
rows', the binomial standard error over N samples stays a conservative
bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import _cap_radius, sin_half_theta_d
from .convexity import FEAS_TOL, _nearest_points, is_convex_position
from .errors import (
    CapTooSmall,
    DegenerateHull,
    NotConvexPosition,
    NotHemispherical,
    OutOfRange,
    check_int,
    check_real,
)
from .geometry import (LOOSE_UNIT_NORM_TOL, UNIT_NORM_TOL, PointSet, _as_point, _check_closed,
                       _check_unit_rows, _float_rows, _Hull, _others, _row_blocks, as_unit)
from .sampling import _check_seed, fixed_directions

# Slack on the cosine, and on the radius, with which a ray fits a cone or a cap.
CONE_FIT_TOL = 1e-9
# Closed-form fractions must sum to 1 within this (Gauss-Bonnet); each
# fraction is a sum of at most n angles, so its rounding is near n * 1e-16.
GAUSS_BONNET_TOL = 1e-9
BLOCK = 1 << 12  # raw Monte Carlo rows per rotation
# Height over a facet's plane, relative to the points' radius, that sees it.
_HULL_REL_TOL = 1e-12
# Singular values under this times max(1, |coordinate|) are 0 in the hull's rank.
_RANK_TOL = 1e-9


def _in_cone(v: np.ndarray, axis: np.ndarray, half_angle: float, tol: float = CONE_FIT_TOL):
    """Whether each apex-relative point v (last axis) lies within half_angle
    of axis, up to tol times its distance from the apex; broadcasts."""
    r = np.linalg.norm(v, axis=-1)
    return np.einsum("...k,...k->...", v, axis) >= r * math.cos(half_angle) - tol * r


@dataclass(frozen=True)
class Cone:
    """Solid circular cone: apex + directions within half_angle of axis, its
    apex and the points `contains` tests finite and of the axis's dimension."""

    apex: np.ndarray
    axis: np.ndarray
    half_angle: float

    def __post_init__(self):
        apex, axis = _as_point(self.apex), as_unit(self.axis)
        if apex.size != axis.size:
            raise OutOfRange(f"apex has dimension {apex.size}, axis {axis.size}")
        check_real(self.half_angle, "half_angle must lie in (0, pi/2), got {!r}", gt=0.0,
                   lt=0.5 * math.pi)

    def contains(self, x, tol: float = CONE_FIT_TOL) -> bool:
        p = _as_point(x)
        if p.size != np.size(self.apex):
            raise OutOfRange(f"point has dimension {p.size}, the cone {np.size(self.apex)}")
        return bool(_in_cone(p - self.apex, self.axis, self.half_angle, tol))


@dataclass(frozen=True)
class SphericalCap:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        as_unit(self.center)
        check_real(self.radius, "cap radius must lie in [0, pi], got {!r}", ge=0.0, le=math.pi)


@dataclass(frozen=True)
class CurvatureEstimate:
    fractions: np.ndarray
    samples: int
    seed: int
    std_error: np.ndarray
    method: str  # "exact" (closed form, std_error 0) or "monte_carlo"


def _require_convex_position(V: PointSet):
    if not is_convex_position(V).in_convex_position:
        raise NotConvexPosition("point set has a non-vertex point")


def _rotations(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """(count, dim, dim): count Haar rotations on O(dim), drawn in turn from rng
    with one stacked normal draw and QR, equal bit for bit to one at a time."""
    q, r = np.linalg.qr(rng.standard_normal((count, dim, dim)))
    return q * np.copysign(1.0, np.diagonal(r, axis1=1, axis2=2))[:, None, :]


def _check_samples(samples) -> int:
    return check_int(samples, "need at least 1000 samples, an integer, got {!r}", 1000)


def _paired_products(P: np.ndarray, samples: int, seed: int):
    """Yield (PT, paired) over the ceil(samples/2) raw rows of the paired stream.

    PT = P @ U.T for a block U of raw rows under one rotation Q, formed as
    (P @ Q) @ base-block.T: each rotation turns P once, and no rotated row is
    built. Raw row u_k is sample 2k and -u_k sample 2k + 1; the first
    `paired` columns have their partner within the sample count.
    """
    half, D = -(-samples // 2), P.shape[1]
    base, rng = fixed_directions(D, BLOCK), np.random.default_rng(seed)
    for lo, Q in zip(range(0, half, BLOCK), _rotations(rng, -(-half // BLOCK), D)):
        PQ = P @ Q
        for a, b in _row_blocks(min(BLOCK, half - lo), max(D, len(P))):
            yield PQ @ base[a:b].T, max(0, min(b, samples // 2 - lo) - a)


def _first_extreme_counts(PT: np.ndarray, extreme, arg) -> np.ndarray:
    """Per row of PT, the number of columns whose extreme (np.max or np.min)
    is first attained in that row: np.bincount(arg(PT, axis=0)).

    Each row's matches are counted along its length, as the set bits of the
    row packed eight to a byte; only a block with an exact tie, where the
    matches outnumber the columns, pays for `arg`.
    """
    counts = np.add.reduce(np.bitwise_count(np.packbits(PT == extreme(PT, axis=0), axis=1)),
                           axis=1, dtype=np.intp)
    if counts.sum() > PT.shape[1]:
        counts = np.bincount(arg(PT, axis=0), minlength=PT.shape[0])
    return counts


def normal_cone_fraction_mc(V: PointSet, i: int, samples: int, seed: int) -> tuple[float, float]:
    """Monte Carlo normal-cone fraction of vertex i, with binomial std error.

    The share of `samples` uniform directions u, in antithetic pairs, whose
    first maximizing vertex is i: vertex i's entry of `_shared_sample_counts`,
    the split `gauss_bonnet_sum` makes in D >= 4. A direction with
    u . v_j = u . v_i for some j < i counts for j only, so the fractions of
    the n vertices partition the sample.
    """
    seed = _check_seed(seed)
    samples = _check_samples(samples)
    if len(V) < 2:
        raise OutOfRange("need at least two points")
    i = check_int(i, "vertex index must be an integer, got {!r}")
    if not 0 <= i < len(V):
        raise OutOfRange(f"vertex index {i} out of range")
    _require_convex_position(V)
    frac = int(_shared_sample_counts(V.points, samples, seed)[i]) / samples
    se = math.sqrt(max(frac * (1.0 - frac), 0.0) / samples)
    return frac, se


def _polygon_fractions(pts: np.ndarray) -> np.ndarray:
    """Exterior angle over 2 pi at each vertex of a convex polygon.

    With every point a vertex, the order by angle about the centroid is the
    hull order; a vertex's turn is atan2(cross, dot) of its incoming and
    outgoing edges.
    """
    c = pts - pts.mean(axis=0)
    order = np.argsort(np.arctan2(c[:, 1], c[:, 0]))
    ring = pts[order]
    out_edge = np.roll(ring, -1, axis=0) - ring
    in_edge = np.roll(out_edge, 1, axis=0)
    turn = np.arctan2(in_edge[:, 0] * out_edge[:, 1] - in_edge[:, 1] * out_edge[:, 0],
                      np.einsum("ij,ij->i", in_edge, out_edge))
    fractions = np.empty(len(pts))
    fractions[order] = turn / (2.0 * math.pi)
    return fractions


def _defect_fractions(pts: np.ndarray) -> np.ndarray:
    """Angular defect over 4 pi at each vertex of a convex polytope in R^3:
    2 pi minus the angles at the vertex of its hull's triangles, each as
    atan2(|a x b|, a . b).

    The hull grows from a fat tetrahedron (the point of largest x, the point
    farthest from it, then the points farthest from their line and from
    their plane), centred on its centroid, by joining the other points in
    index order (geometry._Hull). The four come first, so each later
    point is the highest vertex so far. A point sees a facet when it lies
    more than _HULL_REL_TOL times the points' radius above its plane, so coplanar
    points, as on the cube's faces, split a face into triangles. The hull is
    re-checked (geometry._check_closed) before any angle is summed.
    """
    n = len(pts)
    a = int(np.argmax(pts[:, 0]))
    E = pts - pts[a]
    b = int(np.argmax(np.einsum("ij,ij->i", E, E)))
    X = np.cross(E, E[b])
    c = int(np.argmax(np.einsum("ij,ij->i", X, X)))
    d = int(np.argmax(np.abs(E @ X[c])))
    rest = np.ones(n, dtype=bool)  # not np.setdiff1d: its np.unique imports numpy.ma
    rest[[a, b, c, d]] = False
    order = np.concatenate([[a, b, c, d], np.flatnonzero(rest)])
    V = pts[order] - pts[order[:4]].mean(axis=0)
    tol = _HULL_REL_TOL * math.sqrt(float(np.max(np.einsum("ij,ij->i", V, V))))
    hull = _Hull(V, np.array([[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]))
    for i in range(4, n):
        hull.join(V, i, i + 1, tol)
    F = hull.F
    _check_closed(V, F, tol, "exact normal-cone fractions in R^3: hull re-check", RuntimeError)
    T = np.concatenate([F, np.roll(F, -1, axis=1), np.roll(F, -2, axis=1)])  # each corner first
    A, B = V[T[:, 1]] - V[T[:, 0]], V[T[:, 2]] - V[T[:, 0]]
    X = np.cross(A, B)
    angles = np.bincount(order[T[:, 0]], np.arctan2(np.sqrt(np.einsum("ij,ij->i", X, X)),
                                                    np.einsum("ij,ij->i", A, B)), minlength=n)
    return (2.0 * math.pi - angles) / (4.0 * math.pi)


def _shared_sample_counts(pts: np.ndarray, samples: int, seed: int) -> np.ndarray:
    """Per vertex, the shared-sample directions u maximizing u . v_i, for
    gauss_bonnet_sum and normal_cone_fraction_mc.

    Ties go to the lowest index, so the counts partition the sample. The
    directions come in antithetic pairs: -u goes to the argmin row of the same product, which breaks ties to the
    lowest index as the argmax of its negation would. The directions are
    counted one block at a time, from the vertex-major product: each vertex
    counts the columns whose maximum (or, for -u, minimum) it attains, and a
    block with an exact tie falls back to the first-index argmax/argmin of
    its columns.
    """
    counts = np.zeros(len(pts), dtype=np.int64)
    for PT, paired in _paired_products(pts, samples, seed):  # one row per vertex
        counts += _first_extreme_counts(PT, np.max, np.argmax)
        counts += _first_extreme_counts(PT[:, :paired], np.min, np.argmin)
    return counts


def gauss_bonnet_sum(V: PointSet, samples: int, seed: int) -> CurvatureEstimate:
    """All vertex normal-cone fractions, summing to exactly 1.0 by fsum.

    In R^2 and R^3 they are exact (`_polygon_fractions`, `_defect_fractions`):
    the sum must be 1 within GAUSS_BONNET_TOL and every fraction
    nonnegative, or RuntimeError names the stage and the sum; std_error is
    0, and `samples` and `seed` are checked and echoed. In other dimensions
    one shared Monte Carlo sample is split among the vertices
    (`_shared_sample_counts`), so the counts partition it. Either way the
    closing entry, the smallest fraction, is recomputed from the others so
    the floats sum to exactly 1.0. Requires the hull to be full-dimensional.
    """
    seed = _check_seed(seed)
    samples = _check_samples(samples)
    _require_convex_position(V)
    centered = V.points - V.points.mean(axis=0)
    if np.linalg.matrix_rank(centered, tol=_RANK_TOL * max(1.0, np.abs(centered).max())) < V.dim:
        raise DegenerateHull("hull is not full-dimensional")
    n = len(V)
    if V.dim in (2, 3):
        fractions = (_polygon_fractions(V.points) if V.dim == 2
                     else _defect_fractions(V.points))
        total = math.fsum(fractions)
        if not (abs(total - 1.0) <= GAUSS_BONNET_TOL and np.all(fractions >= 0.0)):
            raise RuntimeError(f"exact normal-cone fractions in R^{V.dim}: sum {total!r}, "
                               f"smallest {float(np.min(fractions))!r}")
        method = "exact"
    else:
        fractions = _shared_sample_counts(V.points, samples, seed) / samples
        method = "monte_carlo"
    # Closing entry: recompute the smallest fraction from the others so the
    # float fractions sum to exactly 1.0 (adjustment is at most a few ulps).
    close = int(np.argmin(fractions))
    others = math.fsum(fractions[j] for j in range(n) if j != close)
    fractions[close] = 1.0 - others
    se = (np.zeros(n) if method == "exact"
          else np.sqrt(np.maximum(fractions * (1.0 - fractions), 0.0) / samples))
    return CurvatureEstimate(fractions=fractions, samples=samples, seed=seed, std_error=se,
                             method=method)


def dekster_radius(diam: float, d: int) -> float:
    """Smallest cap radius R with diam <= 2 arcsin(sin(theta_d/2) sin R).

    A subset of the sphere S^d with geodesic diameter `diam` fits in a closed
    cap of this radius. Defined for 0 <= diam <= theta_d.
    """
    diam = check_real(diam, "diameter must be nonnegative, got {!r}", ge=0.0)
    s = sin_half_theta_d(d)
    radius = _cap_radius(diam, s) if diam <= math.pi else None
    if radius is None:
        raise OutOfRange(
            f"diameter {diam:.12g} exceeds the invertible range (max {2.0 * math.asin(s):.12g})"
        )
    return radius


def _largest_gaps(rays: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(z, |z|) per set of an (S, m, 2) stack of planar unit rays, m >= 2: z
    is the midpoint of the chord joining the two rays at the ends of the
    set's largest gap g between consecutive angles (the first largest in
    angle order), and |z| = -cos(g / 2), negative or zero when no open
    half-plane holds the rays. One arctan2 and one sort per row serve all S
    sets.
    """
    S, m, _ = rays.shape
    ang = np.arctan2(rays[..., 1], rays[..., 0])
    order = np.argsort(ang, axis=1)
    ang = np.take_along_axis(ang, order, axis=1)
    gaps = np.diff(ang, axis=1, append=ang[:, :1] + 2.0 * math.pi)
    k = np.argmax(gaps, axis=1)
    s = np.arange(S)
    z = 0.5 * (rays[s, order[s, k]] + rays[s, order[s, (k + 1) % m]])
    return z, -np.cos(0.5 * gaps[s, k])


def _enclosing_caps(rays: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(centers, radii) of the smallest caps holding the sets of an (S, m, D)
    stack of unit rays, one of each per set; a refused set's radius is NaN.

    With z the point of a set's hull nearest the origin (from _largest_gaps
    in the plane, else from one lockstep _nearest_points solve of all S
    sets), every ray h has h . z >= |z|^2, so the cap has center z/|z| and
    cos(radius) = |z|; the set is refused when |z| <= FEAS_TOL (no open
    hemisphere holds it) or the cap misses a ray on the re-check. The radius
    is the exact angle 2 asin(|h - c| / 2) to the farthest ray, which keeps
    full relative accuracy for small caps where acos(|z|) does not. The
    norms and the re-check are stacked matmuls: one set's 1-D dot and
    matrix-vector product, row by row. A lone ray is its own center.
    """
    S, m, D = rays.shape
    if m == 1:
        return rays[:, 0].copy(), np.zeros(S)
    if D == 2:
        z, signed = _largest_gaps(rays)  # |z|, negative when no half-plane holds the set
    else:
        z = _nearest_points(rays, "enclosing cap")[0]
    nz = np.sqrt(z[:, None] @ z[:, :, None])[:, 0]
    fits = (signed if D == 2 else nz[:, 0]) > FEAS_TOL
    centers = z / np.where(fits[:, None], nz, 1.0)
    d = rays - centers[:, None]
    chords = np.sqrt(np.add.reduce(d * d, axis=2)).max(axis=1)
    worst = (rays @ centers[:, :, None]).min(axis=(1, 2))
    radii = []
    for fit, chord, w in zip(fits.tolist(), chords.tolist(), worst.tolist()):
        radius = 2.0 * math.asin(min(1.0, 0.5 * chord))
        radii.append(radius if fit and w >= math.cos(radius) - CONE_FIT_TOL else math.nan)
    return centers, np.array(radii)


def min_enclosing_cap(H) -> SphericalCap:
    """Smallest spherical cap containing the given unit vectors.

    `_enclosing_caps` on a one-set stack: the center is the direction of the
    point of conv(H) nearest the origin, found in the plane from the largest
    gap between the vectors' angles. Raises NotHemispherical unless the
    vectors fit in an open hemisphere and the cap passes its re-check.
    """
    vecs = _float_rows(H, "vector", None)
    if vecs.ndim != 2 or vecs.shape[0] < 1:
        raise OutOfRange("need a nonempty list of unit vectors")
    _check_unit_rows(vecs, LOOSE_UNIT_NORM_TOL, "inputs must be unit vectors")
    centers, radii = _enclosing_caps(vecs[None])
    if math.isnan(radii[0]):
        raise NotHemispherical("no cap smaller than a hemisphere holds the vectors")
    return SphericalCap(center=centers[0], radius=float(radii[0]))


def cone_cover_certificate(V: PointSet, eta: float) -> list[Cone]:
    """Per-vertex cones of half-angle eta whose intersection contains conv V.

    For each vertex the rays toward all other vertices must fit in a cap of
    radius at most eta; the cone's axis is that cap's center. Every vertex's
    cap comes from one stacked pass; CapTooSmall names the first vertex
    whose cap is wider than eta, or that no open hemisphere holds (radius
    pi/2). Membership of every vertex in every cone is re-checked, which
    certifies hull coverage because cones are convex.
    """
    eta = check_real(eta, "eta must lie in (0, pi/2), got {!r}", gt=0.0, lt=0.5 * math.pi)
    _require_convex_position(V)
    n = len(V)
    if n < 2:
        raise OutOfRange("need at least two points")
    # All vertices in one block: one sort per row in the plane, else one
    # lockstep nearest-point solve of every vertex's rays.
    diffs = V.points[_others(1, n)] - V.points[:, None]  # V's points are distinct
    axes, radii = _enclosing_caps(diffs / np.linalg.norm(diffs, axis=2)[:, :, None])
    refused = np.flatnonzero(~(radii <= eta + CONE_FIT_TOL))
    if refused.size:
        i = int(refused[0])
        raise CapTooSmall(i, 0.5 * math.pi if math.isnan(radii[i]) else float(radii[i]), eta)
    _check_unit_rows(axes, UNIT_NORM_TOL)
    cones = [object.__new__(Cone) for _ in range(n)]  # PointSet rows need no Cone checks
    for cone, apex, axis in zip(cones, V.points.copy(), axes):
        cone.__dict__.update(apex=apex, axis=axis, half_angle=eta)
    # Every vertex in every cone, by Cone.contains's test: diffs[i, k] is vertex k + (k >= i).
    outside = np.argwhere(~_in_cone(diffs, axes[:, None, :], eta))
    if outside.size:
        i, k = outside[0]
        raise RuntimeError(f"cap fit passed but vertex {k + (k >= i)} is outside cone {i}")
    return cones
