"""Floating-point primitives for angles, point sets, and rays.

Angles are radians throughout. Points and vectors are 1-D numpy arrays of
float64; a PointSet wraps an (n, dim) array and validates it once at
construction so downstream code can trust the invariants. The one
incremental convex hull, `_Hull` and its `_check_closed`, serves the
exact R^3 normal-cone fractions and the line covers in every D >= 3: one
append-only table of every facet it made, the live facets as creation ids.
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
# The bar for unit rows not kept as given: a LineArrangement renormalizes
# its lines, and an enclosing cap is re-checked against the caller's rays.
LOOSE_UNIT_NORM_TOL = 1e-9

# Entries per block of the pairwise scans (ray Grams, PointSet distances): a
# block holds a few arrays of about this many float64s, whatever n is.
_BLOCK_ENTRIES = 1 << 16


def _row_blocks(n: int, width: int):
    """Yield (lo, hi) ranges covering rows 0..n-1, each of at most
    _BLOCK_ENTRIES // width rows (at least one).

    The sample sweeps multiply one block of rows (base directions, in Monte
    Carlo) at a time and must count what the whole product counts. numpy
    multiplies a one-row matrix with a matrix-vector kernel whose rounding
    differs from the matrix-matrix kernel's, so no block has a single row
    unless n does (or a row alone holds more than a third of the budget).
    """
    step = max(1, _BLOCK_ENTRIES // width)
    lo = 0
    while lo < n:
        hi = min(lo + step, n)
        if n - hi == 1 and hi - lo > 2:
            hi -= 1
        yield lo, hi
        lo = hi


_AXES = {1: "{} must be a 1-D coordinate vector", 2: "expected an (n, dim) array of {}s",
         3: "expected a (P, n, dim) stack of {} sets"}


def _float_rows(V, what: str, axes: int | None = 2) -> np.ndarray:
    """np.asarray(V, dtype=float) with `axes` axes and finite entries, else
    OutOfRange naming `what` ("point", "line"): ragged rows by their lengths,
    entries that are not numbers, then the shape and non-finite entries,
    which axes None leaves to the caller's _check_unit_rows."""
    try:
        A = np.asarray(V, dtype=float)
    except (TypeError, ValueError) as err:  # ragged rows, or entries that are not numbers
        rows = V if isinstance(V, (list, tuple, np.ndarray)) else ()
        lengths = sorted({len(row) if hasattr(row, "__len__") else 1 for row in rows})
        if len(lengths) > 1:
            raise OutOfRange(f"{what} rows have different lengths {lengths}") from None
        raise OutOfRange(f"{what} coordinates must be numbers: {err}") from None
    if axes is not None and A.ndim != axes:
        raise OutOfRange(f"{_AXES[axes].format(what)}, got shape {A.shape}")
    if axes is not None and not np.isfinite(A).all():
        raise OutOfRange(f"{what}{' set' if axes > 1 else ''} has non-finite coordinates")
    return A


def _as_point(x) -> np.ndarray:
    p = _float_rows(x, "point", 1)
    if p.size < 1:
        raise OutOfRange(f"point must be a 1-D coordinate vector, got shape {p.shape}")
    return p


def _check_unit_rows(U: np.ndarray, tol: float, message: str | None = None) -> np.ndarray:
    """np.linalg.norm(U, axis=1), each within tol of 1 (no non-finite row's is), else
    OutOfRange: `message`, or the first bad row's fault as as_unit words it."""
    norms = np.sqrt(np.add.reduce(U * U, axis=1))
    bad = np.flatnonzero(~(np.abs(norms - 1.0) <= tol))
    if bad.size:
        if message is None:
            _as_point(U[bad[0]])
            message = f"vector has norm {norms[bad[0]]:.12g}, expected 1"
        raise OutOfRange(message)
    return norms


@dataclass(frozen=True)
class PointSet:
    """Ordered list of pairwise-distinct points sharing one ambient dimension."""

    points: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        pts = _float_rows(self.points, "point")
        if 0 in pts.shape:
            raise OutOfRange(f"expected an (n, dim) array with n, dim >= 1, got {pts.shape}")
        n = pts.shape[0]
        # Closest pair, first in row-major order on ties, over one block of
        # rows of the squared-distance matrix at a time, sized by the (rows, n,
        # D) differences each block builds.
        best_d2, best_pair = math.inf, (-1, -1)
        for lo, hi in _row_blocks(n, n * pts.shape[1]):
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
        # convexity.is_convex_position's re-checked verdict, stored by its first
        # call: the points are read-only, so it cannot go stale. Not a field, so
        # it stays out of payloads built from the fields.
        object.__setattr__(self, "_convex_verdict", None)

    def __len__(self) -> int:
        return int(self.points.shape[0])


def as_unit(v) -> np.ndarray:
    """Validate that v is a unit vector (norm within UNIT_NORM_TOL of 1)."""
    u = _as_point(v)
    _check_unit_rows(u[None], UNIT_NORM_TOL)
    return u


@dataclass(frozen=True)
class ObtuseWitness:
    vi: np.ndarray
    v: np.ndarray
    vj: np.ndarray
    angle: float


def regular_simplex(dim: int) -> np.ndarray:
    """dim+1 unit vectors in R^dim with pairwise dot exactly -1/dim."""
    corners = np.eye(dim + 1) - np.full((dim + 1, dim + 1), 1.0 / (dim + 1))
    u, s, _ = np.linalg.svd(corners)
    pts = u[:, :dim] * s[:dim]
    return pts / np.linalg.norm(pts, axis=1)[:, None]


def angle_at(x, y, z) -> float:
    """Angle in [0, pi] at vertex y between rays toward x and z.

    Symmetric in x and z. The normalized dot product is clamped to [-1, 1]
    before arccos to absorb floating-point overshoot near 0 and pi.
    """
    # One array and one finiteness check for the whole triple: brute-force
    # scans call this once per triple, so validation must stay cheap.
    try:
        p = _float_rows((x, y, z), "point")
    except OutOfRange:  # name a point that is not a finite vector, else the mismatch
        for q in (x, y, z):
            _as_point(q)
        raise OutOfRange("the three points have different dimensions") from None
    if p.shape[1] < 1:
        raise OutOfRange("point must be a 1-D coordinate vector, got shape (0,)")
    return _vertex_angle(p[0], p[1], p[2])


def _vertex_angle(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> float:
    """angle_at(x, y, z) for finite 1-D arrays of one length, without the
    input checks."""
    u = x - y
    v = z - y
    nu = math.sqrt(u.dot(u))
    nv = math.sqrt(v.dot(v))
    if nu <= DISTINCTNESS_TOL or nv <= DISTINCTNESS_TOL:
        raise DegenerateTriple("angle vertex coincides with one of its ray endpoints")
    c = float(u.dot(v)) / (nu * nv)
    return float(np.arccos(min(1.0, max(-1.0, c))))


def _others(P: int, n: int) -> np.ndarray:
    """(P*n, n-1) array for a stack of P sets of n points, rows numbered p*n + j:
    row p*n + j lists the rows of the other points of set p, ascending."""
    cols = np.arange(n - 1)
    others = cols + (cols >= np.arange(n)[:, None])
    return (others + n * np.arange(P)[:, None, None]).reshape(P * n, n - 1)


@lru_cache(maxsize=64)
def _scan_index(P: int, n: int):
    """The index arrays of a max-angle scan of a (P, n, D) stack, built once
    per shape: the kernel blocks (lo, hi, cols, offsets), cols being
    _others(P, n)[lo:hi] transposed to (n - 1, hi - lo) and offsets[b]
    where Gram row lo+b starts in its block's flat buffer, and the row p*n
    of the first vertex of every set. An entry holds P n (n - 1) indices;
    the 64 entries hold the 50 shapes a round of the bench's `library`
    workload scans (0.27 MB of indices in all), where 32 missed 188 times
    in 4670 scans of seed 2's rounds 0-3."""
    m2 = (n - 1) ** 2
    others = _others(P, n)
    blocks = tuple((lo, hi, np.ascontiguousarray(others[lo:hi].T), np.arange(hi - lo) * m2)
                   for lo, hi in _row_blocks(P * n, m2))
    return blocks, n * np.arange(P)


def _max_angle_scan(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Scan half of max_angle_triples: (angle, row, pos, sumsq), one entry
    per set of a finite float (P, n, D) stack with n >= 3 (or n = 2, where
    only sumsq means anything).

    The one ray-Gram kernel behind every max-angle scan. Row p*n + j is
    vertex j of set p, and its Gram is that of the unit rays toward the other
    points of its set, _others(P, n)[p*n + j]. The rows go in _scan_index's
    blocks of at most _BLOCK_ENTRIES Gram entries, or one vertex's Gram where
    that alone is larger, so working memory does not grow with the number of
    blocks, and a block may span several sets. The rays are built
    coordinate-major, (D, n - 1, rows), so that their differences, norms and
    quotients run along the block's rows, not along D; the squared norms are
    one reduce over the coordinate axis, and the Gram multiplies contiguous
    (rows, n - 1, D) and (rows, D, n - 1) operands. So each vertex's Gram
    equals, bit for bit, the one a scan of its set alone would build. For
    D <= 7 it also equals a row-major build's, whose norms numpy sums in the
    same order; from D = 8 numpy sums a contiguous row pairwise, and the
    two differ in the last bits. Raises DegenerateTriple
    when two points of a set lie within DISTINCTNESS_TOL of each other,
    before any division by their distance.

    Set p's winning vertex is row = p*n + j and its winning Gram entry is
    pos = a*(n-1) + b, the rays toward the a-th and b-th other points; angle
    is arccos of that entry, clamped to [-1, 1]. Ties go to the first vertex
    j of a set, then to the first (a, b) in row-major order of its Gram.
    sumsq is the sum over ordered pairs i != j of the set of |x_i - x_j|^2,
    the squared ray lengths the norms are built from: sqrt(sumsq / (2 n^2))
    is the root-mean-square distance of the set's points from its centroid.
    The angle is the scan's own, and can differ from the winning triple's
    angle as _max_angle_recompute returns it through the last bits of the
    cosine. With u = 2^-53, each half's cosine is within (2D + 4) u of the
    exact one to first order: the scan through the norms of its rays (a
    square root of D squares), the unit entries and their dot, the
    recompute through a.b and the quotient by the product of the two norms.
    arccos moves two cosines delta = 4 (D + 2) u apart by at most
    arccos(1 - delta), about sqrt(2 delta), its worst case at +-1 (angles
    near 0 and pi). So the two angles differ by at most about
    2^-25 sqrt(D + 2) rad, 6.7e-8 at D = 3, plus an ulp or two of arccos.
    """
    P, n, D = stack.shape
    m = n - 1
    pts = np.ascontiguousarray(stack.reshape(P * n, D).T)
    blocks, firsts = _scan_index(P, n)
    ang = np.empty(P * n)
    pos = np.empty(P * n, dtype=np.intp)
    sumsq = np.empty(P * n)
    for lo, hi, cols, offsets in blocks:
        rays = pts.take(cols, axis=1)
        rays -= pts[:, None, lo:hi]
        norms = np.add.reduce(rays * rays, axis=0)
        np.add.reduce(norms, axis=0, out=sumsq[lo:hi])
        np.sqrt(norms, out=norms)
        if np.minimum.reduce(norms, axis=None) <= DISTINCTNESS_TOL:
            b, a = map(int, np.argwhere(norms.T <= DISTINCTNESS_TOL)[0])
            p, j = divmod(lo + b, n)
            i = int(cols[a, b]) - p * n
            where = f"set {p}: " if P > 1 else ""
            raise DegenerateTriple(
                f"{where}points {j} and {i} are closer than "
                f"{DISTINCTNESS_TOL}: no angle at vertex {j}"
            )
        rays /= norms
        # Contiguous operands make numpy multiply with gemm; a transposed view
        # would send it to syrk, which is slower at these sizes.
        gram = np.ascontiguousarray(rays.transpose(2, 1, 0)) @ np.ascontiguousarray(
            rays.transpose(2, 0, 1))
        flat = gram.reshape(hi - lo, m * m)
        flat[:, :: m + 1] = 1.0
        w = flat.argmin(axis=1, out=pos[lo:hi])
        # Each row holds its diagonal's 1.0, so its lowest entry is at most
        # 1: clamping to [-1, 1] only ever raises it to -1.
        c = gram.take(w + offsets)
        np.arccos(np.maximum(c, -1.0, out=c), out=ang[lo:hi])
        # Free this block's arrays before the next block builds its own, so
        # that large-n scans reuse their buffers while they are in cache.
        del rays, norms, gram, flat
    # argmax keeps the first vertex of each set among equal angles: the
    # later vertex wins only when strictly greater.
    rows = ang.reshape(P, n).argmax(axis=1) + firsts
    return ang[rows], rows, pos[rows], np.add.reduce(sumsq.reshape(P, n), axis=1)


def _scan_triple(n: int, row: int, pos: int) -> tuple[int, tuple[int, int, int]]:
    """(p, (i, j, k)): the set and the triple that _max_angle_scan names by
    its vertex row and Gram position in a stack of n-point sets."""
    p, j = divmod(row, n)
    a, b = divmod(pos, n - 1)
    # The a-th other point of vertex j skips j itself.
    return p, (a + (a >= j), j, b + (b >= j))


def _max_angle_recompute(stack: np.ndarray, row: int, pos: int) -> tuple[float, tuple[int, int, int]]:
    """Recompute half of max_angle_triples: (angle, (i, j, k)) of the triple
    that _max_angle_scan names by its vertex row and Gram position, the angle
    in angle_at's arithmetic."""
    p, (i, j, k) = _scan_triple(stack.shape[1], row, pos)
    return _vertex_angle(stack[p, i], stack[p, j], stack[p, k]), (i, j, k)


def max_angle_triples(stack) -> list[tuple[float, tuple[int, int, int]]]:
    """(max angle, (i, j, k)) of every set of a (P, n, dim) stack, in one scan.

    One pass of _max_angle_scan over all P*n vertex rows, so a stack of
    small sets costs about one call's fixed numpy overhead instead of P. Per
    set, ties go to the first vertex j (a later vertex or block wins only
    when strictly greater), then to the first (i, k) in row-major order of
    its Gram; the winning triple's angle is recomputed with angle_at's
    arithmetic (_max_angle_recompute). A set's result therefore does not
    depend on the other sets or on where the block boundaries fall. A set
    of n <= 2 points has no triple: (0.0, (-1, -1, -1)). Raises
    DegenerateTriple naming the set and the two points when two points of a
    set are closer than DISTINCTNESS_TOL, OutOfRange if a coordinate is not
    finite, whatever n is.
    """
    stack = _float_rows(stack, "point", 3)
    P, n, _ = stack.shape
    if n <= 2:
        return [(0.0, (-1, -1, -1))] * P
    _, rows, pos, _ = _max_angle_scan(stack)
    return [_max_angle_recompute(stack, r, w) for r, w in zip(rows.tolist(), pos.tolist())]


def max_angle_triple(points: np.ndarray) -> tuple[float, tuple[int, int, int]]:
    """Return (max angle, (i, j, k)) over all triples with vertex j.

    Direct O(n^3 * dim) scan: max_angle_triples of the one-set stack, with
    its tie rules, so the result is bit-identical to a scalar triple
    enumeration. For n <= 2 there is no triple and the result is
    (0.0, (-1, -1, -1)). Raises DegenerateTriple if two points are closer
    than DISTINCTNESS_TOL, OutOfRange if a coordinate is not finite.
    """
    return max_angle_triples(_float_rows(points, "point")[None])[0]


def max_angle(A: PointSet) -> float:
    """Largest angle formed at any point of A by two others; 0 if |A| <= 2."""
    return max_angle_triple(A.points)[0]


def _min_upper_pair(U: np.ndarray, absolute: bool = False) -> tuple[float, int, int]:
    """(value, i, j) of the minimum over i < j of u_i . u_j, or of -|u_i . u_j|
    when `absolute` is set, first in row-major order on ties; m >= 2 rows.
    One _row_blocks(m, m) block of rows of U U^T at a time, entries j <= i
    set to +inf, so memory does not grow with m^2; a later block wins only
    when strictly smaller."""
    m = len(U)
    best = (math.inf, -1, -1)
    for lo, hi in _row_blocks(m, m):
        G = U[lo:hi] @ U.T
        if absolute:
            np.negative(np.abs(G, out=G), out=G)
        G[np.arange(lo, hi)[:, None] >= np.arange(m)] = np.inf
        a, b = divmod(int(np.argmin(G)), m)
        if G[a, b] < best[0]:
            best = (float(G[a, b]), lo + a, b)
    return best


def geodesic_diameter(H) -> float:
    """Max pairwise angular distance arccos(u . v) over unit vectors H; 0 for a singleton.

    Each row is checked as as_unit checks it, the first bad row named, in
    one vectorized pass (_check_unit_rows).
    """
    vecs = _float_rows(H, "vector", None)
    if vecs.ndim != 2:  # rows that are not vectors, which as_unit names
        for h in np.atleast_1d(vecs):
            as_unit(h)
    if vecs.ndim != 2 or len(vecs) < 1:
        raise OutOfRange("need at least one unit vector")
    _check_unit_rows(vecs, UNIT_NORM_TOL)
    if len(vecs) == 1:
        return 0.0
    c = _min_upper_pair(vecs)[0]
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


@lru_cache(maxsize=None)
def _hull_index(D: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only index arrays of a simplicial hull in R^D, built once per D:
    the (D, D - 1) columns of a facet row that make its D ridges (the row
    without one vertex each) and the (D, 1) right-hand side of ones that
    _facet_planes solves against."""
    cols = np.nonzero(~np.eye(D, dtype=bool))[1].reshape(D, D - 1)
    ones = np.ones((D, 1))
    cols.setflags(write=False)
    ones.setflags(write=False)
    return cols, ones


def _facet_planes(V: np.ndarray, F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit normals N and offsets H of the facets F (rows of vertex indices
    into V) of a hull about the origin: one stacked solve of V_f x = 1 gives
    x = N / H."""
    x = np.linalg.solve(V[F], _hull_index(F.shape[1])[1])[:, :, 0]
    norm = np.sqrt(np.einsum("ij,ij->i", x, x))
    return x / norm[:, None], 1.0 / norm


def _ridges(F: np.ndarray, base: int, tags: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Each facet's D ridges (its row without one vertex), facet by facet, and
    a key per ridge: `tags` times its vertex indices, all below `base`, read as
    digits, so a tag below `tags` can be added. Rows in ascending order give
    ridges in ascending order, so equal ridges share a key. Raises
    OverflowError where a key could pass int64."""
    D = F.shape[1]
    if tags * base ** (D - 1) >= 2**63:
        raise OverflowError(f"ridge keys of {D - 1} digits in base {base} times {tags} tags "
                            f"pass int64")
    R = F[:, _hull_index(D)[0]].reshape(-1, D - 1)
    return R, R @ (tags * base ** np.arange(D - 1))


def _grown(a: np.ndarray, rows: int) -> np.ndarray:
    """a, or a copy of it with room for at least `rows` rows, at least twice
    as many, when it has fewer."""
    if rows <= len(a):
        return a
    b = np.empty((max(rows, 2 * len(a)),) + a.shape[1:], dtype=a.dtype)
    b[:len(a)] = a
    return b


class _Hull:
    """A simplicial hull about the origin, grown beneath-beyond (`join`).

    Every facet ever made is a row of ascending vertex indices into V in
    `rows`, in creation order: the first `made` rows, the rest unset room to
    grow by doubling. The live hull is `ids`, the creation ids of its
    facets, ascending, with their unit normals N and offsets H.
    """

    def __init__(self, V: np.ndarray, F: np.ndarray):
        self.rows, self.made, self.ids = F.copy(), len(F), np.arange(len(F))
        self.N, self.H = _facet_planes(V, F)

    @property
    def F(self) -> np.ndarray:
        """The live facets' rows, in creation order."""
        return self.rows.take(self.ids, axis=0)

    def join(self, V: np.ndarray, lo: int, hi: int, tol: float) -> np.ndarray:
        """Join the points V[lo:hi] and return the creation ids of the facets
        dropped, ascending. Each point drops the facets whose planes it lies
        more than tol above and is joined to their horizon, the ridges of
        exactly one of its dropped facets. No facet may be seen by two of the
        points; a ridge key tagged with the point that sees its facet keeps
        their horizons apart. Keys count in base hi, above every vertex
        index. With every old index below lo, the new rows stay ascending.
        The facets kept stay in their order and the new ones follow them.
        """
        D, tags = self.rows.shape[1], hi - lo
        sees = V[lo:hi] @ self.N.T > self.H + tol  # a row per point: any() over rows is one pass
        drop = sees.any(axis=0)
        gone, keep = drop.nonzero()[0], (~drop).nonzero()[0]  # take() gathers rows faster
        dead = self.ids.take(gone)
        R, key = _ridges(self.rows.take(dead, axis=0), hi, tags)
        key += sees[:, gone].argmax(axis=0).repeat(D)
        order = key.argsort()
        key = np.concatenate(([-1], key[order], [-1]))  # keys are >= 0
        once = (key[1:-1] != key[:-2]) & (key[1:-1] != key[2:])
        m, new = self.made, np.count_nonzero(once)
        self.rows = _grown(self.rows, m + new)
        rows = self.rows[m:m + new]
        rows[:, :-1] = R[order[once]]
        rows[:, -1] = lo + key[1:-1][once] % tags
        N, H = _facet_planes(V, rows)
        self.ids = np.concatenate([self.ids.take(keep), np.arange(m, m + new)])
        self.N = np.concatenate([self.N.take(keep, axis=0), N])
        self.H = np.concatenate([self.H.take(keep), H])
        self.made = m + new
        return dead


def _check_closed(V, F, tol: float, stage: str, error: type) -> np.ndarray:
    """Raise error naming `stage` unless the facets F close up around the
    vertices V, in O(F V): every ridge bounds exactly two facets, every point
    of V is a vertex of some facet, and every point lies at most tol above
    every facet plane, solved afresh, a block of facets at a time. Returns
    those planes' offsets."""
    open_ridges = np.count_nonzero(np.unique(_ridges(F, len(V))[1], return_counts=True)[1] != 2)
    if open_ridges:
        raise error(f"{stage}: {open_ridges} ridges do not bound exactly two facets")
    # Not len(np.unique(F)): np.unique without counts imports numpy.ma.
    unused = len(V) - np.count_nonzero(np.bincount(F.ravel(), minlength=len(V)))
    if unused:
        raise error(f"{stage}: {unused} points are vertices of no facet")
    N, H = _facet_planes(V, F)
    # A block of normals times V's transpose makes long rows of products even
    # where a block holds a few facets; V times a few normals ran 5x slower
    # (the 13 220 points and 26 436 facets of R^3 at rho = 0.05). Rounding
    # is monotone, so each facet's largest product less its offset is its
    # largest difference, with one subtraction per facet.
    VT = V.T.copy()
    above = max(float(np.max((N[lo:hi] @ VT).max(axis=1) - H[lo:hi]))
                for lo, hi in _row_blocks(len(N), len(V)))
    if above > tol:
        raise error(f"{stage}: a vertex lies {above:.3g} above a facet plane")
    return H
