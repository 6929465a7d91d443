"""Convex-position decisions with constructive witnesses.

A set is in convex position when every point is a vertex (extreme point) of
its convex hull; points on facets or edges of the hull do not count. A
negative verdict comes with a witness: the offending point together with an
affinely independent subset (at most dim+1 points) of the others whose hull
contains it, from which an obtuse-angle witness can be extracted.

Every hull question here, and the enclosing caps in `curvature`, reduces to
one primitive: the point of a polytope nearest a given point, found by
Wolfe's algorithm in plain numpy. Its answers are re-checked after the solve.
Every simplex test takes one barycentric solve, centred on the point tested.

Before any solve, `is_convex_position` screens the vertices with linear
functionals (the frame screening of Dula & Helgason 1996 and Clarkson 1994):
a unit direction u with u . v_i - max_{j != i} u . v_j = delta > 0 puts v_i
at distance at least delta from the others' hull. When delta also exceeds
twice the solver's "inside" distance bound, the solve would have answered
"outside", so only the points no direction certifies are solved, in index
order, and verdicts and witnesses are those of one solve per point.

A positive verdict also keeps one exposing direction per vertex: the screen's
direction with the widest gap, or, for a solved vertex, the direction from
the nearest point of the others' hull toward it. `curvature` builds the
exact normal-cone fractions in R^3 in a frame around these directions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateSimplex, NotInHull, NotInterior, OutOfRange
from .geometry import PointSet, _min_upper_pair, _row_blocks, angle_at, rays_from
from .sampling import rd_directions

# Barycentric/convex coefficients above -1e-10 count as nonnegative; strict
# interiority requires them above +1e-10.
COEFF_TOL = 1e-10
# p is in conv(S), or on a simplex's affine hull, when its distance or residual
# is at most this times the radius max_j |v_j - p| of the points that decide.
FEAS_TOL = 1e-9
# Wolfe's algorithm stops once |x| exceeds the lower bound min_j P_j . x / |x|
# on the distance by at most this fraction of its support's radius.
NEAREST_GAP_TOL = 1e-12
# Major plus minor cycles allowed per row of P before the solver gives up.
NEAREST_STEPS_PER_POINT = 50


@dataclass(frozen=True)
class ConvexPositionVerdict:
    in_convex_position: bool
    witness_point: Optional[np.ndarray] = None
    witness_simplex: Optional[np.ndarray] = None
    # A positive verdict on three or more points sets this to a read-only
    # (n, D) array: row i is a unit u with u . (v_j - v_i) < 0 for all j != i.
    # Not a field, so it stays out of payloads and comparisons.
    _exposing = None


@dataclass(frozen=True)
class ObtuseWitness:
    vi: np.ndarray
    v: np.ndarray
    vj: np.ndarray
    angle: float


def min_pairwise_dot(W) -> float:
    """Minimum of w_i . w_j over unordered pairs of the given unit vectors."""
    vecs = np.asarray(W, dtype=float)
    if vecs.ndim != 2 or vecs.shape[0] < 2:
        raise OutOfRange("need at least two vectors")
    return _min_upper_pair(vecs @ vecs.T)[0]


def _nearest_point(P: np.ndarray, stage: str):
    """Min-norm point of conv(rows of P) by Wolfe's algorithm (1976).

    Returns (z, support, r): z is the final corral's weighted sum, the support
    (ascending, affinely independent) its points weighted above COEFF_TOL and
    r = max |P_j| over it, the one scale of the stop and the callers' verdicts.
    Stops once |z| <= FEAS_TOL r or |z| exceeds the lower bound min_j P_j . z
    / |z| on the distance by at most NEAREST_GAP_TOL r, or when no progress is
    possible in floating point (the most opposed point is in the corral, or
    |z| did not shrink). Hitting the step cap raises RuntimeError naming
    `stage`; callers re-check every answer, so a stalled solve cannot pass.
    """
    n, D = P.shape
    sq = np.einsum("ij,ij->i", P, P)
    scale = math.sqrt(float(np.max(sq)))
    corral, w = np.array([int(np.argmin(sq))]), np.ones(1)
    x = P[corral[0]]
    major, last = True, math.inf
    for _ in range(NEAREST_STEPS_PER_POINT * n):
        if major:  # add the point most opposed to x, unless x is optimal
            nx = math.sqrt(float(x @ x))
            dots = P @ x
            j = int(np.argmin(dots))
            gap = nx * nx - float(dots[j])
            stuck, last = j in corral or nx >= last, nx
            # Both bounds at the radius r <= scale, so r is taken only near a stop.
            if stuck or nx <= FEAS_TOL * scale or gap <= NEAREST_GAP_TOL * nx * scale:
                support = np.sort(corral[w > COEFF_TOL])
                r = math.sqrt(float(np.max(sq[support])))
                if stuck or nx <= FEAS_TOL * r or gap <= NEAREST_GAP_TOL * nx * r:
                    return x, support, r
            corral, w = np.append(corral, j), np.append(w, 0.0)
        # Minor cycle: weights of the min-norm point of the corral's affine hull.
        V = P[corral]
        M = (V[1:] - V[0]).T
        c = np.linalg.lstsq(M, -V[0], rcond=None)[0]
        v = np.concatenate([[1.0 - c.sum()], c])
        major = bool(np.all(v > 0))
        if major:
            # V[0] + M c cancels down to |x| with rounding of 1e-16 |V[0]|; one
            # refinement step projects that off the affine hull, so the gap and
            # separation tests see x to rounding in |x|, not in |P|.
            x = V[0] + M @ c
            w, x = v, x - M @ np.linalg.lstsq(M, x, rcond=None)[0]
            continue
        # Step from w toward v until the first weight reaches zero; drop it.
        neg = np.flatnonzero(v <= 0)
        ratios = np.divide(w[neg], w[neg] - v[neg], out=np.zeros(neg.size), where=w[neg] > 0)
        k = int(np.argmin(ratios))
        w = w + ratios[k] * (v - w)
        w[neg[k]] = 0.0
        corral, w = corral[w > 0], w[w > 0]
    raise RuntimeError(f"{stage}: nearest-point solver hit its cap of {NEAREST_STEPS_PER_POINT * n}"
                       f" steps (n={n}, D={D}, |x|={math.sqrt(x @ x):.6g}, scale={scale:.6g})")


def _barycentric(p: np.ndarray, V: np.ndarray):
    """Barycentric coordinates of p in the affine frame of V, with residual.

    Returns (coords, residual, on_hull). V is a (k+1, D) array of simplex
    vertices; coords solves [(V - p)^T; r 1] c = [0; r] in least squares with
    r = max_j |v_j - p| (1 when V is p alone), the coordinates of [V^T; 1] c =
    [p; 1] in a frame centred on p and scaled by r. The residual is a length,
    and p is on V's affine hull when it is at most FEAS_TOL r: a relative,
    Euclidean bar with no floor, unchanged by scaling or moving V and p
    together. Raises DegenerateSimplex unless V's rows are affinely
    independent (more than D + 1 rows never are).
    """
    R = (V - p).T
    r = float(np.max(np.linalg.norm(R, axis=0)))
    A = np.vstack([R, np.full((1, V.shape[0]), r or 1.0)])
    b = np.append(np.zeros(R.shape[0]), r or 1.0)
    coords, _, rank, _ = np.linalg.lstsq(A, b, rcond=None)
    if rank < V.shape[0]:
        raise DegenerateSimplex(f"simplex vertices are affinely dependent (rank {rank})")
    residual = float(np.linalg.norm(A @ coords - b))
    return coords, residual, residual <= FEAS_TOL * r


def simplex_contains_origin(V, strict: bool = False) -> bool:
    """True when the simplex with vertices V contains the origin.

    V holds k+1 affinely independent points of R^D (k <= D). With strict=True
    the origin must be interior (all barycentric coordinates > tolerance);
    otherwise boundary points count as contained.
    """
    V = np.asarray(V, dtype=float)
    if V.ndim != 2 or V.shape[0] < 2:
        raise OutOfRange("simplex needs at least two vertices")
    coords, _, on_hull = _barycentric(np.zeros(V.shape[1]), V)
    return on_hull and bool(np.all(coords > COEFF_TOL if strict else coords >= -COEFF_TOL))


def _check_interior(p: np.ndarray, V: np.ndarray):
    """Raise unless p lies strictly inside the simplex with vertices V."""
    coords, residual, on_hull = _barycentric(p, V)
    if not on_hull or np.any(coords <= COEFF_TOL):
        raise NotInterior(f"point is not strictly inside the simplex (residual {residual:.3g}, "
                          f"smallest coordinate {float(np.min(coords)):.3g})")


def _hull_simplex(p: np.ndarray, pts: np.ndarray, stage: str):
    """(simplex, z): affinely independent rows of pts whose hull holds p, or
    None if p is outside, and the point z of conv(pts - p) nearest the origin.

    z decides on the radius r of the solver's support, the scale of its stop:
    p is inside when |z| <= FEAS_TOL r, else -z exposes p. Both answers are
    re-checked in O(n D): the simplex by obtuse_witness's checks, "outside" by
    (q - p) . z >= |z|^2 / 2 for every q, a plane separating p from pts, which
    a gap stop leaves short of |z|^2 only by 1e-3 |z|^2 and the rounding
    (about D * 1e-16 * |z| * |q - p|).
    """
    P = pts - p
    z, support, radius = _nearest_point(P, stage)
    dist = math.sqrt(float(z @ z))
    if dist > FEAS_TOL * radius:
        margin, half = float(np.min(P @ z)), 0.5 * dist * dist
        if not margin >= half:
            raise RuntimeError(f"{stage}: separation margin {margin:.6g} < |z|^2/2 = {half:.6g}")
        return None, z
    simplex = pts[support]
    try:
        _check_interior(p, simplex)
    except (DegenerateSimplex, NotInterior) as err:
        raise RuntimeError(f"{stage}: nearest-point support fails its re-check: {err}") from None
    return simplex, z


def caratheodory_decompose(p, S: PointSet) -> np.ndarray:
    """Affinely independent points of S (at most dim+1) whose hull contains p.

    The support of the point of conv(S) nearest p, with every point of
    positive weight; it is re-checked before it is returned.
    """
    simplex, _ = _hull_simplex(np.asarray(p, dtype=float), S.points, "caratheodory_decompose")
    if simplex is None:
        raise NotInHull("point is not in the convex hull of the set")
    return simplex


def is_convex_position(A: PointSet) -> ConvexPositionVerdict:
    """Decide whether every point of A is a vertex of conv(A).

    The first point (lowest index) found inside the hull of the others is
    returned as the witness, together with its containing simplex. Points on
    the boundary of the others' hull are counted as inside: they are not
    vertices of conv(A). The verdict is decided once per PointSet and stored
    on it; its witness arrays are read-only.
    """
    if A._convex_verdict is None:
        object.__setattr__(A, "_convex_verdict", _decide_convex_position(A.points))
    return A._convex_verdict


def _exposing_directions(pts: np.ndarray) -> np.ndarray:
    """Per point, a fixed direction that proves it a vertex, or a NaN row.

    v_i is certified when some unit direction u of the unshifted R_d
    sequence (max(256, 8n) of them) exposes it with a gap
    u . v_i - max_{j != i} u . v_j > 2 FEAS_TOL F_i, F_i = |c_i| + max_j |c_j|
    for the centered points c. That gap is a lower bound on the distance from
    v_i to the others' hull, and F_i >= max_q |q - v_i|, which is at least the
    radius of any support the solve keeps, so the solve in `_hull_simplex`
    would answer "outside" too: the factor 2 leaves room for the rounding of
    the centered products, which is relative to |c|, not |v|.
    Of the directions certifying v_i, the one with the widest gap is kept.
    The product is formed one block of directions at a time.
    """
    n, D = pts.shape
    C = pts - pts.mean(axis=0)
    norms = np.sqrt(np.einsum("ij,ij->i", C, C))
    margin = 2.0 * FEAS_TOL * (norms + np.max(norms))
    U = rd_directions(D, max(256, 8 * n) + 1)[1:]  # row 0 is the zero vector
    tops, gaps = [], []
    for lo, hi in _row_blocks(len(U), n):
        Y = U[lo:hi] @ C.T
        rows = np.arange(hi - lo)
        top = np.argmax(Y, axis=1)
        best = Y[rows, top]
        Y[rows, top] = -np.inf
        tops.append(top)
        gaps.append(best - np.max(Y, axis=1))
    top, gap = np.concatenate(tops), np.concatenate(gaps)
    k = np.flatnonzero(gap > margin[top])
    k = k[np.lexsort((gap[k], top[k]))]  # by point, then by gap
    last = np.ones(k.size, dtype=bool)
    last[:-1] = top[k[1:]] != top[k[:-1]]
    widest = k[last]
    directions = np.full((n, D), np.nan)
    directions[top[widest]] = U[widest]
    return directions


def _decide_convex_position(pts: np.ndarray) -> ConvexPositionVerdict:
    if len(pts) <= 2:
        return ConvexPositionVerdict(True)
    directions = _exposing_directions(pts)
    for i in np.flatnonzero(np.isnan(directions[:, 0])):
        simplex, z = _hull_simplex(pts[i], np.delete(pts, i, axis=0),
                                   f"hull membership of point {i}")
        if simplex is not None:
            point = pts[i].copy()
            point.setflags(write=False)
            simplex.setflags(write=False)
            return ConvexPositionVerdict(
                in_convex_position=False,
                witness_point=point,
                witness_simplex=simplex,
            )
        directions[i] = -z / math.sqrt(float(z @ z))
    verdict = ConvexPositionVerdict(True)
    directions.setflags(write=False)
    object.__setattr__(verdict, "_exposing", directions)
    return verdict


def obtuse_witness(p, simplex) -> ObtuseWitness:
    """Widest-angle pair seen from p among rays to the simplex vertices.

    p must lie strictly inside the simplex (relative interior). For a
    simplex with k+1 affinely independent vertices the returned angle is at
    least arccos(-1/k): some pair of unit rays from an interior point has
    dot product at most -1/k, with equality exactly for the regular
    configuration.
    """
    p = np.asarray(p, dtype=float)
    V = np.asarray(simplex, dtype=float)
    if V.ndim != 2 or V.shape[0] < 2:
        raise DegenerateSimplex("simplex needs at least two vertices")
    _check_interior(p, V)
    rays = rays_from(p, PointSet(V))
    _, a, b = _min_upper_pair(rays @ rays.T)
    ang = angle_at(V[a], p, V[b])
    return ObtuseWitness(vi=V[a].copy(), v=p.copy(), vj=V[b].copy(), angle=ang)
