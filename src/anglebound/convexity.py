"""Convex-position decisions with constructive witnesses.

A set is in convex position when every point is a vertex (extreme point) of
its convex hull; points on facets or edges of the hull do not count. A
negative verdict comes with a witness: the offending point together with an
affinely independent subset (at most dim+1 points) of the others whose hull
contains it, from which an obtuse-angle witness can be extracted.

Every hull question here, and the enclosing caps in `curvature`, reduces to
one primitive: the point of a polytope nearest a given point, found by
Wolfe's algorithm in plain numpy. Its answers are re-checked after the solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateSimplex, NotInHull, NotInterior, OutOfRange
from .geometry import PointSet, _min_upper_pair, angle_at, rays_from

# Barycentric/convex coefficients above -1e-10 count as nonnegative; strict
# interiority requires them above +1e-10.
COEFF_TOL = 1e-10
# Relative residual of the barycentric checks. p also counts as inside conv(S)
# when its distance to it is at most FEAS_TOL times the largest |q - p|.
FEAS_TOL = 1e-9
# Wolfe's algorithm stops once |x| exceeds the lower bound min_j P_j . x / |x|
# on the distance by at most this fraction of the largest |P_j|.
NEAREST_GAP_TOL = 1e-12
# Major plus minor cycles allowed per row of P before the solver gives up.
NEAREST_STEPS_PER_POINT = 50


@dataclass(frozen=True)
class ConvexPositionVerdict:
    in_convex_position: bool
    witness_point: Optional[np.ndarray] = None
    witness_simplex: Optional[np.ndarray] = None


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

    Returns (z, support, weights) with z = weights @ P[support] up to rounding:
    the support (the final corral, ascending) is affinely independent and its
    weights are positive and sum to one. Stops early once |z| <= FEAS_TOL *
    max |P_j|, and when the most opposed point is already in the corral (no
    progress is possible in floating point).
    Hitting the step cap raises RuntimeError naming `stage`; callers re-check
    every answer, so a stalled solve cannot pass as a verdict.
    """
    n, D = P.shape
    sq = np.einsum("ij,ij->i", P, P)
    scale = math.sqrt(float(np.max(sq)))
    corral, w = np.array([int(np.argmin(sq))]), np.ones(1)
    x = P[corral[0]]
    major = True
    for _ in range(NEAREST_STEPS_PER_POINT * n):
        if major:  # add the point most opposed to x, unless x is optimal
            nx = math.sqrt(float(x @ x))
            dots = P @ x
            j = int(np.argmin(dots))
            if (nx <= FEAS_TOL * scale or nx * nx - dots[j] <= NEAREST_GAP_TOL * nx * scale
                    or j in corral):
                order = np.argsort(corral)
                return x, corral[order], w[order]
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

    Returns (coords, residual, rank). V is a (k+1, D) array of simplex
    vertices; coords solves [V^T; 1] c = [p; 1] in least squares.
    """
    A = np.vstack([V.T, np.ones((1, V.shape[0]))])
    b = np.concatenate([p, [1.0]])
    coords, _, rank, _ = np.linalg.lstsq(A, b, rcond=None)
    residual = float(np.linalg.norm(A @ coords - b))
    return coords, residual, int(rank)


def simplex_contains_origin(V, strict: bool = False) -> bool:
    """True when the simplex with vertices V contains the origin.

    V holds k+1 affinely independent points of R^D (k <= D). With strict=True
    the origin must be interior (all barycentric coordinates > tolerance);
    otherwise boundary points count as contained.
    """
    V = np.asarray(V, dtype=float)
    if V.ndim != 2 or V.shape[0] < 2:
        raise OutOfRange("simplex needs at least two vertices")
    k1, D = V.shape
    if k1 > D + 1:
        raise DegenerateSimplex(f"{k1} points cannot be affinely independent in R^{D}")
    scale = max(1.0, float(np.max(np.abs(V))))
    coords, residual, rank = _barycentric(np.zeros(D), V)
    if rank < k1:
        raise DegenerateSimplex("simplex vertices are affinely dependent")
    if residual > FEAS_TOL * scale:
        return False  # origin outside the affine hull
    if strict:
        return bool(np.all(coords > COEFF_TOL))
    return bool(np.all(coords >= -COEFF_TOL))


def _check_interior(p: np.ndarray, V: np.ndarray):
    """Raise unless p lies strictly inside the simplex with vertices V."""
    coords, residual, rank = _barycentric(p, V)
    if rank < V.shape[0]:
        raise DegenerateSimplex(f"simplex vertices are affinely dependent (rank {rank})")
    scale = max(1.0, float(np.max(np.abs(V))))
    if residual > FEAS_TOL * scale or np.any(coords <= COEFF_TOL):
        raise NotInterior(f"point is not strictly inside the simplex (residual {residual:.3g}, "
                          f"smallest coordinate {float(np.min(coords)):.3g})")


def _hull_simplex(p: np.ndarray, pts: np.ndarray, stage: str) -> Optional[np.ndarray]:
    """Affinely independent rows of pts whose hull holds p, or None if p is outside.

    The point z of conv(pts - p) nearest the origin decides. Both answers are
    re-checked in O(n D): the simplex (support weights above COEFF_TOL) must
    pass obtuse_witness's checks, and "outside" needs (q - p) . z >= |z|^2 / 2
    for every q, a plane separating p from pts. As |z| > FEAS_TOL * max |q - p|,
    that margin is far above the rounding (about D * 1e-16 * |z| * |q - p|).
    """
    P = pts - p
    z, support, weights = _nearest_point(P, stage)
    dist = math.sqrt(float(z @ z))
    if dist > FEAS_TOL * math.sqrt(float(np.max(np.einsum("ij,ij->i", P, P)))):
        margin, half = float(np.min(P @ z)), 0.5 * dist * dist
        if not margin >= half:
            raise RuntimeError(f"{stage}: separation margin {margin:.6g} < |z|^2/2 = {half:.6g}")
        return None
    simplex = pts[support[weights > COEFF_TOL]]
    try:
        _check_interior(p, simplex)
    except (DegenerateSimplex, NotInterior) as err:
        raise RuntimeError(f"{stage}: nearest-point support fails its re-check: {err}") from None
    return simplex


def caratheodory_decompose(p, S: PointSet) -> np.ndarray:
    """Affinely independent points of S (at most dim+1) whose hull contains p.

    The support of the point of conv(S) nearest p, with every point of
    positive weight; it is re-checked before it is returned.
    """
    simplex = _hull_simplex(np.asarray(p, dtype=float), S.points, "caratheodory_decompose")
    if simplex is None:
        raise NotInHull("point is not in the convex hull of the set")
    return simplex


def is_convex_position(A: PointSet) -> ConvexPositionVerdict:
    """Decide whether every point of A is a vertex of conv(A).

    The first point (lowest index) found inside the hull of the others is
    returned as the witness, together with its containing simplex. Points on
    the boundary of the others' hull are counted as inside: they are not
    vertices of conv(A).
    """
    pts = A.points
    if len(A) <= 2:
        return ConvexPositionVerdict(True)
    for i in range(len(A)):
        simplex = _hull_simplex(pts[i], np.delete(pts, i, axis=0), f"hull membership of point {i}")
        if simplex is not None:
            return ConvexPositionVerdict(
                in_convex_position=False,
                witness_point=pts[i].copy(),
                witness_simplex=simplex,
            )
    return ConvexPositionVerdict(True)


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
