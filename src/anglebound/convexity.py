"""Convex-position decisions with constructive witnesses.

A set is in convex position when every point is a vertex (extreme point) of
its convex hull; points on facets or edges of the hull do not count. A
negative verdict comes with a witness: the offending point together with an
affinely independent subset (at most dim+1 points) of the others whose hull
contains it, from which an obtuse-angle witness can be extracted.

Every hull question here, and the enclosing caps in `curvature`, reduces to
one primitive: the point of a polytope nearest a given point, found by
Wolfe's algorithm in plain numpy. One kernel, `_nearest_points`, solves a
stack of such problems in lockstep, one stacked solve per minor cycle; a
hull question is a one-problem stack, and `curvature` solves all the caps
of a set at once. Its answers are re-checked after the solve. Every simplex
test takes one barycentric solve, centred on the point tested.

Before any solve, `is_convex_position` screens the vertices with linear
functionals (the frame screening of Dula & Helgason 1996 and Clarkson 1994):
a unit direction u with u . v_i - max_{j != i} u . v_j = delta > 0 puts v_i
at distance at least delta from the others' hull. When delta also exceeds
twice the solver's "inside" distance bound, the solve would have answered
"outside", so only the points no direction certifies are solved, in index
order, and verdicts and witnesses are those of one solve per point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateSimplex, NotInHull, NotInterior, OutOfRange
from .geometry import (ObtuseWitness, PointSet, _as_point, _float_rows, _min_upper_pair,
                       _row_blocks, angle_at, rays_from)
from .sampling import fixed_directions

# Barycentric/convex coefficients above -1e-10 count as nonnegative; strict
# interiority requires them above +1e-10, or a pull c_j |v_j - p| above
# PULL_MARGIN times the FEAS_TOL distance bar of the other vertices (see
# _barycentric).
COEFF_TOL = 1e-10
# p is in conv(S), or on a simplex's affine hull, when its distance or residual
# is at most this times the radius max_j |v_j - p| of the points that decide.
FEAS_TOL = 1e-9
# Wolfe's algorithm stops once |x| exceeds the lower bound min_j P_j . x / |x|
# on the distance by at most this fraction of its support's radius.
NEAREST_GAP_TOL = 1e-12
# Major plus minor cycles allowed per row of P before the solver gives up.
NEAREST_STEPS_PER_POINT = 50
# _nearest_points keeps a light corral point whose pull w_j |P_j| exceeds
# FEAS_TOL times the others' largest |P_i|; the re-check (_barycentric)
# counts such a pull as interior above PULL_MARGIN times that bar. Weights
# near 10 ulps, as a point 1e6 support radii away gets, come out of the two
# solves up to about 2x apart, so one shared bar could keep a point that
# the re-check then refuses.
PULL_MARGIN = 0.1


@dataclass(frozen=True)
class ConvexPositionVerdict:
    in_convex_position: bool
    witness_point: Optional[np.ndarray] = None
    witness_simplex: Optional[np.ndarray] = None


def min_pairwise_dot(W) -> float:
    """Minimum of w_i . w_j over unordered pairs of the given unit vectors."""
    vecs = _float_rows(W, "vector")
    if vecs.shape[0] < 2:
        raise OutOfRange("need at least two vectors")
    return _min_upper_pair(vecs)[0]


def _others_max(dist: np.ndarray) -> np.ndarray:
    """max_{i != j} dist_i for every j along the last axis."""
    k = dist.shape[-1]
    return np.max(np.where(np.eye(k, dtype=bool), 0.0, dist[..., None, :]), axis=-1)


def _affine_min_norm(E: np.ndarray, v0: np.ndarray, free: np.ndarray):
    """(v, y) per row of an (L, K, D) stack of edge rows E from points v0:
    c minimizes |y| for y = v0 + E^T c, the least-squares solution lstsq
    gives, y is that affine min-norm point and v = (1 - sum c, c) its
    weights on the K + 1 points. Edges marked `free` are zero and get c = 0.

    Solved from the normal equations (E E^T) c = -E v0 by stacked LU, and
    refined by one step: v0 + E^T c cancels down to |y| with rounding of
    1e-16 |v0|, and projecting y off the edges' span again (t below) lets
    the gap and separation tests see y to rounding in |y|, not in |v0|. The
    same t corrects c. A row whose t exceeds FEAS_TOL (1 + |c|), where
    squaring the edges' condition number in E E^T costs the digits that
    matter, is solved again by SVD with lstsq's cutoff for small singular
    values, as is every row when a Gram matrix is exactly singular. The rows
    are tested only when some |t| exceeds FEAS_TOL, which that bar implies.
    """
    L, K, _ = E.shape
    G = E @ E.transpose(0, 2, 1)
    np.copyto(G.reshape(L, K * K)[:, ::K + 1], 1.0, where=free)  # a free edge's diagonal is 0
    v = np.empty((L, K + 1))
    c = v[:, 1:]
    try:
        np.negative(np.linalg.solve(G, E @ v0[:, :, None])[:, :, 0], out=c)
        y = v0 + np.einsum("li,lid->ld", c, E)
        t = np.linalg.solve(G, E @ y[:, :, None])[:, :, 0]
        c -= t
        y -= np.einsum("li,lid->ld", t, E)
        ill = None if np.abs(t).max(initial=0.0) <= FEAS_TOL else (
            np.abs(t) > FEAS_TOL * (1.0 + np.abs(c))).any(axis=1)
    except np.linalg.LinAlgError:
        c[:], y, ill = 0.0, v0.copy(), np.ones(L, dtype=bool)
    if ill is not None and ill.any():
        Ei, vi = E[ill], v0[ill]
        u, s, vt = np.linalg.svd(Ei, full_matrices=False)
        kept = s > max(K, E.shape[2]) * np.finfo(float).eps * s[:, :1]
        ci = -np.einsum("lik,lk->li", u, np.divide(kept, s, out=np.zeros_like(s), where=kept)
                        * np.einsum("lkd,ld->lk", vt, vi))
        yi = vi + np.einsum("li,lid->ld", ci, Ei)
        yi -= np.einsum("lk,lkd->ld", kept * np.einsum("lkd,ld->lk", vt, yi), vt)
        c[ill], y[ill] = ci * ~free[ill], yi
    np.subtract(1.0, np.add.reduce(c, axis=1), out=v[:, 0])
    return v, y


def _nearest_points(P: np.ndarray, stage: str):
    """Min-norm point of conv(rows of P[s]) for every problem s of an (S, m, D)
    stack, by Wolfe's algorithm (1976), all S problems in lockstep.

    Returns (z, support, r): z[s] is problem s's final corral's weighted
    sum; support[s], a row of an (S, m) mask, marks its corral points
    weighted above COEFF_TOL (affinely independent), and r[s] = max |P_j|
    over those is the one scale of the stops and the callers' verdicts. The
    support also keeps a lighter corral point whose pull w_j |P_j| exceeds
    FEAS_TOL times the largest |P_i| of the others: dropping it would move z
    by more than the distance bars allow. A problem stops, and leaves the
    loop, once |z| <= FEAS_TOL r or |z| exceeds the lower bound
    min_j P_j . z / |z| on the distance by at most NEAREST_GAP_TOL r, or when
    no progress is possible in floating point: the most opposed point is in
    the corral, or |z| did not shrink (as when the corral has no free slot
    for the point).

    A corral is a row of D + 2 slots (at most m) holding flat row numbers
    s m + j of P, its points in the order they came, the occupied slots a
    prefix; a free slot repeats the first point, so its edge is zero. A
    minor cycle gathers every running corral's points from the flat rows in
    one take and makes one stacked solve (_affine_min_norm) of their edges
    from the first point: the affine min-norm weights and x, refined once,
    as lstsq gave them one problem at a time. A stopped problem's x, r,
    weights and corral are written to its row, and its support is formed
    with the others' after the last stop. Hitting the step cap raises
    RuntimeError naming `stage` and the first problem still running;
    callers re-check every answer, so a stalled solve cannot pass.
    """
    S, m, D = P.shape
    cap = NEAREST_STEPS_PER_POINT * m
    W = min(m, D + 2)
    flat = P.reshape(S * m, D)
    sq = np.einsum("ij,ij->i", flat, flat)
    z, radius = np.empty((S, D)), np.empty(S)  # x, r, weights and corral by stack row
    weights, corrals = np.empty((S, W)), np.empty((S, W), dtype=np.intp)
    # The running problems: ids in the stack, their first flat row, points,
    # corrals, weights and x.
    ids = rows = np.arange(S)
    base = ids * m
    Q = P
    corral = (sq.reshape(S, m).argmin(axis=1) + base)[:, None].repeat(W, axis=1)
    valid = np.zeros((S, W), dtype=bool)
    valid[:, 0] = True
    w = valid.astype(float)
    x = flat.take(corral[:, 0], axis=0)
    major, last = np.ones(S, dtype=bool), math.inf
    for _ in range(cap):
        if major.any():  # add the point most opposed to x, unless x is optimal
            nx = np.sqrt(np.einsum("ld,ld->l", x, x))
            dots = (Q @ x[:, :, None])[:, :, 0]
            j = dots.argmin(axis=1)
            gap = nx * nx - dots[rows, j]
            j += base
            stuck = np.logical_or.reduce(corral == j[:, None], axis=1) | (nx >= last)
            last = nx  # a row past its last major step still has that step's x
            r = np.sqrt(np.maximum.reduce(np.where(w > COEFF_TOL, sq.take(corral), 0.0), axis=1))
            done = major & (stuck | (nx <= FEAS_TOL * r) | (gap <= NEAREST_GAP_TOL * nx * r))
            stop = done.any()
            if stop:  # write the stopped problems out; their weights are positive on valid slots
                d = done.nonzero()[0]
                s = ids[d]
                z[s], radius[s], weights[s], corrals[s] = x[d], r[d], w[d], corral[d]
                if len(d) == len(ids):
                    break
            new = (valid[:, :-1] > valid[:, 1:]) & major[:, None]  # the first free slot
            np.copyto(corral[:, 1:], j[:, None], where=new)
            valid[:, 1:] |= new
            if stop:
                run = (~done).nonzero()[0]
                ids, Q, corral, valid, w, x, last = (
                    a[run] for a in (ids, Q, corral, valid, w, x, last))
                rows, base = np.arange(len(ids)), ids * m
        # Minor cycle: weights of the min-norm point of each corral's affine hull.
        V = flat.take(corral, axis=0)
        v, y = _affine_min_norm(V[:, 1:] - V[:, :1], V[:, 0], ~valid[:, 1:])
        major = np.logical_and.reduce((v > 0) == valid, axis=1)  # a free slot's weight is 0
        if major.all():
            x, w = y, v
            continue
        x = np.where(major[:, None], y, x)
        w = np.where(major[:, None], v, w)
        # Step from w toward v until the first weight reaches zero; drop it.
        neg = valid & (v <= 0)
        ratios = np.where(neg, 0.0, math.inf)
        np.divide(w, w - v, out=ratios, where=neg & (w > 0))
        k = ratios.argmin(axis=1)
        w = w + np.where(major, 0.0, ratios[rows, k])[:, None] * (v - w)
        w[rows, k] *= major
        # Flat indices into the (L, W) slots, each row's kept slots first.
        order = (w <= 0).argsort(axis=1, kind="stable") + rows[:, None] * W
        w = np.maximum(w.take(order), 0.0)
        valid = w > 0
        corral = corral.take(order)
        corral = np.where(valid, corral, corral[:, :1])
    else:
        raise RuntimeError(f"{stage}: nearest-point solver hit its cap of {cap} steps on problem "
                           f"{ids[0]} of {S} (m={m}, D={D}, |x|={math.sqrt(x[0] @ x[0]):.6g}, "
                           f"scale={math.sqrt(sq[base[0]:base[0] + m].max()):.6g})")
    keep = weights > COEFF_TOL
    valid = weights > 0
    if (valid & ~keep).any():  # a light point stays if its pull is too large
        dist = np.sqrt(sq.take(corrals)) * valid
        keep |= weights * dist > FEAS_TOL * _others_max(dist)
    support = np.zeros(S * m, dtype=bool)
    support[corrals[keep]] = True
    return z, support.reshape(S, m), radius


def _barycentric(p: np.ndarray, V: np.ndarray):
    """Barycentric coordinates of p in the affine frame of V, with residual.

    Returns (coords, residual, on_hull, interior). V is a (k+1, D) array of
    simplex vertices; coords solves [(V - p)^T; r 1] c = [0; r] in least
    squares with r = max_j |v_j - p| (1 when V is p alone), the coordinates
    of [V^T; 1] c = [p; 1] in a frame centred on p and scaled by r. The
    residual is a length, and p is on V's affine hull when it is at most
    FEAS_TOL r: a relative, Euclidean bar with no floor, unchanged by scaling
    or moving V and p together. p is strictly inside (`interior`) when it is
    on the hull and every coordinate c_j is above COEFF_TOL or, for a far
    vertex, positive with a pull c_j |v_j - p| above PULL_MARGIN FEAS_TOL
    times the largest |v_i - p| of the other vertices: PULL_MARGIN times the
    bar by which _nearest_points keeps a light support point. Raises
    DegenerateSimplex unless V's rows are affinely independent (more than
    D + 1 rows never are).
    """
    R = (V - p).T
    dist = np.linalg.norm(R, axis=0)
    r = float(np.max(dist))
    A = np.vstack([R, np.full((1, V.shape[0]), r or 1.0)])
    b = np.append(np.zeros(R.shape[0]), r or 1.0)
    coords, _, rank, _ = np.linalg.lstsq(A, b, rcond=None)
    if rank < V.shape[0]:
        raise DegenerateSimplex(f"simplex vertices are affinely dependent (rank {rank})")
    residual = float(np.linalg.norm(A @ coords - b))
    on_hull = residual <= FEAS_TOL * r
    pulls = (coords > COEFF_TOL) | (coords * dist > PULL_MARGIN * FEAS_TOL * _others_max(dist))
    return coords, residual, on_hull, on_hull and bool(np.all(pulls))


def _point_of(p, V: np.ndarray) -> np.ndarray:
    """p as a finite point of the (k, D) set V's dimension, else OutOfRange
    before any solve: NaN reaches LAPACK, which prints to stdout."""
    p = _as_point(p)
    if p.shape[0] != V.shape[1]:
        raise OutOfRange(f"point has dimension {p.shape[0]} but the set {V.shape[1]}")
    return p


def simplex_contains_origin(V, strict: bool = False) -> bool:
    """True when the simplex with vertices V contains the origin.

    V holds k+1 affinely independent points of R^D (k <= D). With strict=True
    the origin must be interior (see _barycentric: every barycentric
    coordinate above tolerance, or a far vertex's pull above the distance
    bar); otherwise boundary points count as contained.
    """
    V = _float_rows(V, "point")
    if V.shape[0] < 2:
        raise OutOfRange("simplex needs at least two vertices")
    coords, _, on_hull, interior = _barycentric(np.zeros(V.shape[1]), V)
    return interior if strict else on_hull and bool(np.all(coords >= -COEFF_TOL))


def _check_interior(p: np.ndarray, V: np.ndarray):
    """Raise unless p lies strictly inside the simplex with vertices V."""
    coords, residual, _, interior = _barycentric(p, V)
    if not interior:
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
    [z], [support], [radius] = _nearest_points(P[None], stage)
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
    simplex, _ = _hull_simplex(_point_of(p, S.points), S.points, "caratheodory_decompose")
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


def _screen(pts: np.ndarray) -> np.ndarray:
    """Mask of the points a fixed direction proves vertices.

    v_i is certified when some unit direction u of the unshifted R_d
    sequence (max(256, 8n) of them) exposes it with a gap
    u . v_i - max_{j != i} u . v_j > 2 FEAS_TOL F_i, F_i = |c_i| + max_j |c_j|
    for the centered points c. That gap is a lower bound on the distance from
    v_i to the others' hull, and F_i >= max_q |q - v_i|, which is at least the
    radius of any support the solve keeps, so the solve in `_hull_simplex`
    would answer "outside" too: the factor 2 leaves room for the rounding of
    the centered products, which is relative to |c|, not |v|.
    The product is formed one block of directions at a time.
    """
    n, D = pts.shape
    C = pts - pts.mean(axis=0)
    norms = np.sqrt(np.einsum("ij,ij->i", C, C))
    margin = 2.0 * FEAS_TOL * (norms + np.max(norms))
    U = fixed_directions(D, max(256, 8 * n))
    certified = np.zeros(n, dtype=bool)
    for lo, hi in _row_blocks(len(U), n):
        Y = U[lo:hi] @ C.T
        rows = np.arange(hi - lo)
        top = np.argmax(Y, axis=1)
        best = Y[rows, top]
        Y[rows, top] = -np.inf
        certified[top[best - np.max(Y, axis=1) > margin[top]]] = True
    return certified


def _decide_convex_position(pts: np.ndarray) -> ConvexPositionVerdict:
    if len(pts) <= 2:
        return ConvexPositionVerdict(True)
    for i in np.flatnonzero(~_screen(pts)):
        simplex, _ = _hull_simplex(pts[i], np.delete(pts, i, axis=0),
                                   f"hull membership of point {i}")
        if simplex is not None:
            point = pts[i].copy()
            point.setflags(write=False)
            simplex.setflags(write=False)
            return ConvexPositionVerdict(False, point, simplex)
    return ConvexPositionVerdict(True)


def obtuse_witness(p, simplex) -> ObtuseWitness:
    """Widest-angle pair seen from p among rays to the simplex vertices.

    p must lie strictly inside the simplex (relative interior). For a
    simplex with k+1 affinely independent vertices the returned angle is at
    least arccos(-1/k): some pair of unit rays from an interior point has
    dot product at most -1/k, with equality exactly for the regular
    configuration.
    """
    V = _float_rows(simplex, "point")
    if V.shape[0] < 2:
        raise DegenerateSimplex("simplex needs at least two vertices")
    p = _point_of(p, V)
    _check_interior(p, V)
    rays = rays_from(p, PointSet(V))
    _, a, b = _min_upper_pair(rays)
    ang = angle_at(V[a], p, V[b])
    return ObtuseWitness(vi=V[a].copy(), v=p.copy(), vj=V[b].copy(), angle=ang)
