"""Floating-point primitives for angles, point sets, and rays.

Angles are radians throughout. Points and vectors are 1-D numpy arrays of
float64; a PointSet wraps an (n, dim) array and validates it once at
construction so downstream code can trust the invariants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DegenerateTriple, OutOfRange

# Points closer than this are considered coincident; normalized directions
# between them would be numerically meaningless.
DISTINCTNESS_TOL = 1e-9

UNIT_NORM_TOL = 1e-12

# Entries per block of the pairwise scans (ray Grams, PointSet distances): a
# block holds a few arrays of about this many float64s, whatever n is.
_BLOCK_ENTRIES = 1 << 16


def _as_point(x) -> np.ndarray:
    p = np.asarray(x, dtype=float)
    if p.ndim != 1 or p.size < 1:
        raise OutOfRange(f"point must be a 1-D coordinate vector, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise OutOfRange("point has non-finite coordinates")
    return p


@dataclass(frozen=True)
class PointSet:
    """Ordered list of pairwise-distinct points sharing one ambient dimension."""

    points: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        try:
            pts = np.asarray(self.points, dtype=float)
        except ValueError as err:  # ragged rows, or entries that are not numbers
            lengths = sorted({len(row) if hasattr(row, "__len__") else 1 for row in self.points})
            if len(lengths) > 1:
                raise OutOfRange(f"point rows have different lengths {lengths}") from None
            raise OutOfRange(f"point coordinates must be numbers: {err}") from None
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise OutOfRange(f"expected an (n, dim) array with n, dim >= 1, got {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise OutOfRange("point set has non-finite coordinates")
        n = pts.shape[0]
        # Closest pair, first in row-major order on ties, over one block of
        # rows of the squared-distance matrix at a time.
        best_d2, best_pair = math.inf, (-1, -1)
        step = max(1, _BLOCK_ENTRIES // n)
        for lo in range(0, n, step):
            hi = min(lo + step, n)
            d2 = np.sum((pts[lo:hi, None, :] - pts[None, :, :]) ** 2, axis=-1)
            d2.reshape(-1)[lo :: n + 1] = np.inf  # entries (i, i) of these rows
            a, b = divmod(int(np.argmin(d2)), n)
            if d2[a, b] < best_d2:
                best_d2, best_pair = float(d2[a, b]), (lo + a, b)
        if best_d2 <= DISTINCTNESS_TOL**2:
            i, j = best_pair
            raise OutOfRange(f"points {i} and {j} are closer than {DISTINCTNESS_TOL}")
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "dim", int(pts.shape[1]))

    def __len__(self) -> int:
        return int(self.points.shape[0])


def as_unit(v) -> np.ndarray:
    """Validate that v is a unit vector (norm within tolerance of 1)."""
    u = _as_point(v)
    if abs(np.linalg.norm(u) - 1.0) > UNIT_NORM_TOL:
        raise OutOfRange(f"vector has norm {np.linalg.norm(u):.12g}, expected 1")
    return u


def angle_at(x, y, z) -> float:
    """Angle in [0, pi] at vertex y between rays toward x and z.

    Symmetric in x and z. The normalized dot product is clamped to [-1, 1]
    before arccos to absorb floating-point overshoot near 0 and pi.
    """
    # One array and one finiteness check for the whole triple: brute-force
    # scans call this once per triple, so validation must stay cheap.
    try:
        p = np.array((x, y, z), dtype=float)
    except ValueError:  # ragged: name a point that is not a vector, else the mismatch
        for q in (x, y, z):
            _as_point(q)
        raise OutOfRange("the three points have different dimensions") from None
    if p.ndim != 2 or p.shape[1] < 1:
        raise OutOfRange(f"point must be a 1-D coordinate vector, got shape {p.shape[1:]}")
    if not np.isfinite(p).all():
        raise OutOfRange("point has non-finite coordinates")
    u = p[0] - p[1]
    v = p[2] - p[1]
    nu = math.sqrt(u.dot(u))
    nv = math.sqrt(v.dot(v))
    if nu <= DISTINCTNESS_TOL or nv <= DISTINCTNESS_TOL:
        raise DegenerateTriple("angle vertex coincides with one of its ray endpoints")
    c = float(u.dot(v)) / (nu * nv)
    return float(np.arccos(min(1.0, max(-1.0, c))))


@lru_cache(maxsize=16)
def _others(n: int) -> np.ndarray:
    """(n, n-1) array whose row j lists the indices other than j, ascending."""
    cols = np.arange(n - 1)
    others = cols + (cols >= np.arange(n)[:, None])
    others.setflags(write=False)
    return others


def _ray_grams(pts: np.ndarray):
    """Yield (lo, gram) over blocks of vertices lo, lo+1, ...: gram[b] is the
    Gram matrix of the unit rays from vertex lo+b toward _others(n)[lo+b].

    The one kernel behind every max-angle scan. A block holds at most
    _BLOCK_ENTRIES Gram entries, or one vertex's Gram where that alone is
    larger, so working memory does not grow with the number of blocks. Each
    vertex's Gram equals, bit for bit, the one a per-vertex scan would build.
    Raises DegenerateTriple when two points lie within DISTINCTNESS_TOL of
    each other, before any division by their distance, and OutOfRange on
    non-finite coordinates.
    """
    if not np.isfinite(pts).all():
        raise OutOfRange("point set has non-finite coordinates")
    n = pts.shape[0]
    others = _others(n)
    step = max(1, _BLOCK_ENTRIES // (n - 1) ** 2)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        rays = pts[others[lo:hi]] - pts[lo:hi, None]
        norms = np.linalg.norm(rays, axis=2)
        if norms.min() <= DISTINCTNESS_TOL:
            b, a = map(int, np.argwhere(norms <= DISTINCTNESS_TOL)[0])
            raise DegenerateTriple(
                f"points {lo + b} and {int(others[lo + b, a])} are closer than "
                f"{DISTINCTNESS_TOL}: no angle at vertex {lo + b}"
            )
        rays /= norms[:, :, None]
        yield lo, rays @ rays.transpose(0, 2, 1)


def max_angle_triple(points: np.ndarray) -> tuple[float, tuple[int, int, int]]:
    """Return (max angle, (i, j, k)) over all triples with vertex j.

    Direct O(n^3 * dim) scan over the ray Grams of _ray_grams. Ties go to the
    first vertex j, then to the first (i, k) in row-major order of its Gram;
    the winning triple's angle is recomputed with angle_at so the result is
    bit-identical to a scalar triple enumeration. For n <= 2 there is no
    triple and the result is (0.0, (-1, -1, -1)). Raises DegenerateTriple if
    two points are closer than DISTINCTNESS_TOL, OutOfRange if a coordinate
    is not finite.
    """
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    if n <= 2:
        return 0.0, (-1, -1, -1)
    m = n - 1
    others = _others(n)
    best = -1.0
    best_triple = (-1, -1, -1)
    for lo, gram in _ray_grams(pts):
        flat = gram.reshape(gram.shape[0], m * m)
        flat[:, :: m + 1] = 1.0
        pos = np.argmin(flat, axis=1)
        c = flat[np.arange(flat.shape[0]), pos]
        ang = np.arccos(np.clip(c, -1.0, 1.0))
        b = int(np.argmax(ang))
        if ang[b] > best:
            best = float(ang[b])
            a, k = divmod(int(pos[b]), m)
            j = lo + b
            best_triple = (int(others[j, a]), j, int(others[j, k]))
        # Free this Gram before the kernel builds the next one, so that
        # large-n scans reuse one buffer while it is still in cache.
        del gram, flat
    i, j, k = best_triple
    return angle_at(pts[i], pts[j], pts[k]), best_triple


def max_angle(A: PointSet) -> float:
    """Largest angle formed at any point of A by two others; 0 if |A| <= 2."""
    return max_angle_triple(A.points)[0]


def _min_upper_pair(gram: np.ndarray) -> tuple[float, int, int]:
    """(value, i, j) of the minimum of gram[i, j] over i < j, first in row-major order."""
    iu, ju = np.triu_indices(gram.shape[0], k=1)
    k = int(np.argmin(gram[iu, ju]))
    return float(gram[iu[k], ju[k]]), int(iu[k]), int(ju[k])


def geodesic_diameter(H) -> float:
    """Max pairwise angular distance arccos(u . v) over unit vectors H; 0 for a singleton."""
    vecs = np.asarray([as_unit(h) for h in np.asarray(H, dtype=float)])
    m = vecs.shape[0]
    if m < 1:
        raise OutOfRange("need at least one unit vector")
    if m == 1:
        return 0.0
    c = _min_upper_pair(vecs @ vecs.T)[0]
    return float(np.arccos(min(1.0, max(-1.0, c))))


def rays_from(apex, A: PointSet) -> np.ndarray:
    """Unit vectors from apex toward each point of A, order preserved.

    Raises DegenerateTriple if the apex coincides with a point of A.
    """
    apex = _as_point(apex)
    if apex.shape[0] != A.dim:
        raise OutOfRange("apex dimension does not match point set")
    diffs = A.points - apex[None, :]
    norms = np.linalg.norm(diffs, axis=1)
    if np.any(norms <= DISTINCTNESS_TOL):
        raise DegenerateTriple("apex coincides with a point of the set")
    return diffs / norms[:, None]
