"""Shared test fixtures and independent oracle implementations.

Oracles here deliberately avoid the library's vectorized code paths: hull
membership is decided by exhaustive subset enumeration with least-squares
barycentric solves, enclosing caps by scipy's NNLS, angular defects in R^3
from scipy's (qhull's) convex hull, and maximum angles by a scalar triple
loop or by the one-vertex-at-a-time scan the blocked ray-Gram kernel
replaced. The Monte Carlo sweeps are checked against whole-matrix sweeps
over the paired sample stream written out in full, each raw row (a
row-major R_d direction under its block's `random_rotation`) followed by its
negation. Convex position is also decided by one nearest-point solve per
point, with no direction screen, nearest points by Wolfe's algorithm one
problem at a time with np.linalg.lstsq, the R_d directions by the row-major
formula, line packings by one restart after another, and planar cone axes
one vertex at a time.
Pinned results are compared by `digest`.
"""

import functools
import hashlib
import itertools
import math

import numpy as np
from scipy.optimize import nnls

from anglebound import convexity
from anglebound.bounds import theta_d
from anglebound.constructions import LineArrangement
from anglebound.convexity import FEAS_TOL
from anglebound.curvature import BLOCK, CONE_FIT_TOL
from anglebound.errors import CapTooSmall
from anglebound.geometry import PointSet, angle_at, max_angle
from anglebound.sampling import _rd_alpha, rng_stream

# Seed of the acceptance suite's criterion-7 sets.
CRITERION_7_SEED = 20241


def digest(a) -> str:
    """SHA-256 of an array's little-endian float64 bytes: the form of every pinned result."""
    return hashlib.sha256(np.asarray(a).astype("<f8").tobytes()).hexdigest()


def brute_max_angle(points) -> float:
    """Scalar triple enumeration of the maximum angle (same clamping as angle_at)."""
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    if n <= 2:
        return 0.0
    best = 0.0
    for i, j, k in itertools.permutations(range(n), 3):
        if i < k:  # angle_at is symmetric in the outer points
            best = max(best, angle_at(pts[i], pts[j], pts[k]))
    return best


def loop_max_angle_triple(points):
    """max_angle_triple as a per-vertex loop: one Gram of unit rays per vertex,
    its first row-major minimum off the diagonal, strictly better vertices
    only, and the winner recomputed with angle_at."""
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    if n <= 2:
        return 0.0, (-1, -1, -1)
    best = -1.0
    best_triple = (-1, -1, -1)
    idx = np.arange(n)
    for j in range(n):
        others = idx[idx != j]
        rays = pts[others] - pts[j]
        norms = np.linalg.norm(rays, axis=1)
        rays = rays / norms[:, None]
        gram = rays @ rays.T
        np.fill_diagonal(gram, 1.0)
        flat = int(np.argmin(gram))
        a, b = divmod(flat, gram.shape[0])
        c = float(gram[a, b])
        ang = float(np.arccos(min(1.0, max(-1.0, c))))
        if ang > best:
            best = ang
            best_triple = (int(others[a]), j, int(others[b]))
    i, j, k = best_triple
    return angle_at(pts[i], pts[j], pts[k]), best_triple


def whole_raw_rows(dim: int, n: int, seed: int) -> np.ndarray:
    """The first n raw Monte Carlo rows: row_major_rd_directions rows 1..BLOCK
    under one random_rotation per BLOCK rows, the rotations drawn in turn from
    one default_rng(seed); a short last block rotates the first rows only."""
    base = row_major_rd_directions(dim, BLOCK + 1)[1:]
    rng = np.random.default_rng(seed)
    return np.concatenate([base[:n - lo] @ random_rotation(rng, dim).T
                           for lo in range(0, n, BLOCK)])


def paired_samples(dim: int, samples: int, seed: int) -> np.ndarray:
    """The Monte Carlo sample stream written out: the ceil(samples/2) raw rows
    U interleaved explicitly with -U, cut to `samples` rows."""
    U = whole_raw_rows(dim, -(-samples // 2), seed)
    S = np.empty((2 * len(U), dim))
    S[0::2] = U
    S[1::2] = -U
    return S[:samples]


def whole_gauss_bonnet_counts(points, samples: int, seed: int) -> np.ndarray:
    """gauss_bonnet_sum's per-vertex counts from one product over all samples."""
    V = np.asarray(points, dtype=float)
    S = paired_samples(V.shape[1], samples, seed)
    return np.bincount(np.argmax(S @ V.T, axis=1), minlength=len(V))


def canonical_line(v: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """canonical_lines for one vector, by a scan of its coordinates: the
    first of magnitude above tol is made positive."""
    v = np.asarray(v, dtype=float)
    for x in v:
        if abs(x) > tol:
            return v if x > 0 else -v
    return v


def whole_cover_lines(rho: float, D: int) -> np.ndarray:
    """cover_lines's lines where they are closed forms: in the plane, the first
    equiangular family that covers the directions midway between its lines;
    in D >= 3 the coordinate frame when cos(rho/2) - 1e-12 <= 1/sqrt(D).
    Below the frame's threshold covers come from deepest-hole insertion,
    which this does not model."""
    cos_half = math.cos(0.5 * rho)
    if D > 2 and cos_half - 1e-12 <= 1.0 / math.sqrt(D):
        return np.eye(D)
    if D > 2:
        raise ValueError("below the frame's threshold, covers come from deepest-hole insertion")
    for k in itertools.count(1):
        ang = np.arange(k) * math.pi / k
        fam = np.column_stack([np.cos(ang), np.sin(ang)])
        mid = ang + 0.5 * math.pi / k
        mid = np.column_stack([np.cos(mid), np.sin(mid)])
        if np.all(np.max(np.abs(mid @ fam.T), axis=1) >= cos_half - 1e-12):
            return LineArrangement(dim=D, lines=fam).lines


def loop_pack_lines(m: int, D: int, iters: int, seed: int, restarts: int,
                    grad_stop: float = 0.0) -> np.ndarray:
    """pack_lines's search as one restart after another: each takes its
    `iters` steps alone from rng_stream(seed, r), or stops early once its
    gradient norm falls below grad_stop, and the first of the most separated
    starts and results, in restart order, wins."""
    best, best_angle = None, -1.0

    def consider(U):
        nonlocal best, best_angle
        ang = LineArrangement(dim=D, lines=U).min_pairwise_angle
        if ang > best_angle:
            best, best_angle = U.copy(), ang

    for r in range(restarts):
        U = rng_stream(seed, r).normal(size=(m, D))
        U /= np.linalg.norm(U, axis=1)[:, None]
        consider(U)
        beta = 4.0
        growth = (8192.0 / beta) ** (1.0 / iters)
        for it in range(iters):
            C = U @ U.T
            np.fill_diagonal(C, 0.0)
            S = C * C
            W = np.exp(beta * (S - S.max()))
            np.fill_diagonal(W, 0.0)
            W /= W.sum()
            grad = 4.0 * (W * C) @ U
            gn = float(np.linalg.norm(grad))
            if gn < grad_stop:
                break
            U = U - (0.2 * (1.0 - it / iters) + 0.001) * grad / gn
            U /= np.linalg.norm(U, axis=1)[:, None]
            beta *= growth
        consider(U)
    return best


def row_major_rd_directions(dim: int, n: int) -> np.ndarray:
    """rd_directions as (n, k) rows: the R_d rows, Box-Muller pairs stacked
    per row, cut to dim and divided by np.linalg.norm of each row."""
    k = dim + dim % 2
    u = (np.arange(n, dtype=float)[:, None] * _rd_alpha(k)) % 1.0
    r = np.sqrt(-2.0 * np.log1p(-u[:, 0::2]))
    t = 2.0 * np.pi * u[:, 1::2]
    z = np.stack([r * np.cos(t), r * np.sin(t)], axis=2).reshape(n, k)[:, :dim]
    norms = np.linalg.norm(z, axis=1)
    norms[norms < 1e-12] = 1.0
    return z / norms[:, None]


def solve_every_point(pts) -> convexity.ConvexPositionVerdict:
    """is_convex_position's verdict with one nearest-point solve per point, in
    index order, and no direction screen: the first point inside the others'
    hull is the witness."""
    pts = np.asarray(pts, dtype=float)
    if len(pts) <= 2:
        return convexity.ConvexPositionVerdict(True)
    for i in range(len(pts)):
        simplex, _ = convexity._hull_simplex(pts[i], np.delete(pts, i, axis=0),
                                             f"hull membership of point {i}")
        if simplex is not None:
            return convexity.ConvexPositionVerdict(False, pts[i].copy(), simplex)
    return convexity.ConvexPositionVerdict(True)


def wolfe_nearest_point(P, stage: str):
    """The nearest-point kernel as one problem at a time: Wolfe's algorithm
    (1976) on the rows of one (m, D) array, with one np.linalg.lstsq per minor
    cycle and one more to refine x at a major cycle, the corral grown and cut
    as a Python-ordered list. The stops and the support rule are the
    kernel's: a corral point stays in the support when its weight is above
    COEFF_TOL or its pull w_j |P_j| above FEAS_TOL times the largest |P_i| of
    the other corral points; r is the largest |P_j| weighted above COEFF_TOL.
    Returns (z, support, r) or raises RuntimeError naming `stage`."""
    P = np.asarray(P, dtype=float)
    n, D = P.shape
    sq = np.einsum("ij,ij->i", P, P)
    scale = math.sqrt(float(np.max(sq)))
    corral, w = np.array([int(np.argmin(sq))]), np.ones(1)
    x = P[corral[0]]
    major, last = True, math.inf
    for _ in range(convexity.NEAREST_STEPS_PER_POINT * n):
        if major:
            nx = math.sqrt(float(x @ x))
            dots = P @ x
            j = int(np.argmin(dots))
            gap = nx * nx - float(dots[j])
            stuck, last = j in corral or nx >= last, nx
            if stuck or nx <= FEAS_TOL * scale or gap <= convexity.NEAREST_GAP_TOL * nx * scale:
                dist = np.sqrt(sq[corral])
                r = float(np.max(dist[w > convexity.COEFF_TOL]))
                support = sorted(int(corral[a]) for a in range(len(corral))
                                 if w[a] > convexity.COEFF_TOL or w[a] * dist[a] > FEAS_TOL * max(
                                     [float(dist[b]) for b in range(len(corral)) if b != a],
                                     default=0.0))
                if stuck or nx <= FEAS_TOL * r or gap <= convexity.NEAREST_GAP_TOL * nx * r:
                    return x, np.array(support, dtype=int), r
            corral, w = np.append(corral, j), np.append(w, 0.0)
        V = P[corral]
        M = (V[1:] - V[0]).T
        c = np.linalg.lstsq(M, -V[0], rcond=None)[0]
        v = np.concatenate([[1.0 - c.sum()], c])
        major = bool(np.all(v > 0))
        if major:
            x = V[0] + M @ c
            w, x = v, x - M @ np.linalg.lstsq(M, x, rcond=None)[0]
            continue
        neg = np.flatnonzero(v <= 0)
        ratios = np.divide(w[neg], w[neg] - v[neg], out=np.zeros(neg.size), where=w[neg] > 0)
        k = int(np.argmin(ratios))
        w = w + ratios[k] * (v - w)
        w[neg[k]] = 0.0
        corral, w = corral[w > 0], w[w > 0]
    raise RuntimeError(f"{stage}: nearest-point solver hit its step cap")


def rejection_sample_below(rng, n, D, cap):
    """Gaussian (n, D) sets drawn until max_angle and the brute-force oracle
    both put them below cap."""
    while True:
        pts = rng.normal(size=(n, D))
        if max_angle(PointSet(pts)) < cap and brute_max_angle(pts) < cap:
            return pts


@functools.cache
def criterion_7_sets() -> tuple:
    """Acceptance criterion 7's point sets as (kind, idx, points), in draw order.

    "below": 1000 Gaussian sets per D = 2, 3, 4 of n = D+1 or D+2 points,
    rejection-sampled below theta_D. "interior": 1000 sets of D+3 Gaussian
    points plus one strictly positive combination of them, D = 2 + idx % 3.
    """
    rng = np.random.default_rng(CRITERION_7_SEED)
    sets = []
    for D, ns in {2: (3, 4), 3: (4, 5), 4: (5, 6)}.items():
        for idx in range(1000):
            sets.append(("below", idx, rejection_sample_below(rng, ns[idx % 2], D, theta_d(D))))
    for idx in range(1000):
        D = 2 + idx % 3
        hull = rng.normal(size=(D + 3, D))
        w = rng.exponential(size=D + 3) + 0.1
        w /= w.sum()
        sets.append(("interior", idx, np.vstack([hull, w @ hull])))
    for _, _, pts in sets:
        pts.setflags(write=False)
    return tuple(sets)


def oracle_in_hull(p, S, tol: float = 1e-9) -> bool:
    """Exhaustive hull-membership test: some subset of <= D+1 points of S
    admits nonnegative barycentric coordinates for p."""
    p = np.asarray(p, dtype=float)
    S = np.asarray(S, dtype=float)
    n, D = S.shape
    scale = max(1.0, float(np.abs(S).max()), float(np.abs(p).max()))
    for k in range(1, min(n, D + 1) + 1):
        for comb in itertools.combinations(range(n), k):
            V = S[list(comb)]
            A = np.vstack([V.T, np.ones((1, k))])
            b = np.concatenate([p, [1.0]])
            coeffs, _, rank, _ = np.linalg.lstsq(A, b, rcond=None)
            if rank < k:
                continue
            if (np.linalg.norm(A @ coeffs - b) <= tol * scale
                    and np.all(coeffs >= -1e-9)):
                return True
    return False


def oracle_convex_position(points) -> bool:
    pts = np.asarray(points, dtype=float)
    return not any(
        oracle_in_hull(pts[i], np.delete(pts, i, axis=0)) for i in range(len(pts))
    )


def nnls_min_enclosing_cap(H):
    """Center and radius of the smallest cap holding the unit vectors H.

    The min-norm point p of conv(H) by Lawson-Hanson NNLS on [H^T; w 1^T] lam
    = [0; w]: its solution is a multiple of the constrained optimum, so lam
    is rescaled to sum to one. The cap is p/|p| with cos(radius) = |p|.
    """
    H = np.asarray(H, dtype=float)
    n, D = H.shape
    weight = 10.0
    lam, _ = nnls(np.vstack([H.T, np.full((1, n), weight)]), np.append(np.zeros(D), weight))
    p = (lam / lam.sum()) @ H
    return p / np.linalg.norm(p), math.acos(min(1.0, float(np.linalg.norm(p))))


def loop_planar_cone_axes(points, eta: float) -> list[np.ndarray]:
    """cone_cover_certificate's axes for a planar set, one vertex at a time, in
    the arithmetic of the per-vertex planar cap: sort one vertex's ray angles,
    take the first largest circular gap g, centre on the normalized midpoint
    of the chord at its ends and require -cos(g / 2) > FEAS_TOL; the radius is
    the largest chord's angle, re-checked against every ray. Raises
    CapTooSmall for the first vertex that fails, as the certificate does."""
    pts = np.asarray(points, dtype=float)
    axes = []
    for i in range(len(pts)):
        diffs = np.delete(pts, i, axis=0) - pts[i]
        vecs = diffs / np.linalg.norm(diffs, axis=1)[:, None]
        ang = np.arctan2(vecs[:, 1], vecs[:, 0])
        order = np.argsort(ang)
        gaps = np.diff(ang[order], append=ang[order[0]] + 2.0 * math.pi)
        k = int(np.argmax(gaps))
        z = 0.5 * (vecs[order[k]] + vecs[order[(k + 1) % len(order)]])
        if -math.cos(0.5 * float(gaps[k])) <= FEAS_TOL:
            raise CapTooSmall(i, 0.5 * math.pi, eta)
        center = z / np.linalg.norm(z)
        chord = float(np.max(np.linalg.norm(vecs - center, axis=1)))
        radius = 2.0 * math.asin(min(1.0, 0.5 * chord))
        if float(np.min(vecs @ center)) < math.cos(radius) - 1e-9:
            raise CapTooSmall(i, 0.5 * math.pi, eta)
        if radius > eta + CONE_FIT_TOL:
            raise CapTooSmall(i, radius, eta)
        axes.append(center)
    return axes


def random_rotation(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-random orthogonal matrix: QR of a normal matrix, R's diagonal signs moved into Q."""
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    return q * np.sign(np.diag(r))


def unit_simplex(dim: int) -> np.ndarray:
    """Regular simplex on the unit sphere, built from the centered identity."""
    corners = np.eye(dim + 1) - np.full((dim + 1, dim + 1), 1.0 / (dim + 1))
    u, s, _ = np.linalg.svd(corners)
    pts = u[:, :dim] * s[:dim]
    return pts / np.linalg.norm(pts, axis=1)[:, None]


def sample_simplex_with_interior_origin(rng: np.random.Generator, d: int) -> np.ndarray:
    """d+1 points in R^d forming a simplex with the origin strictly interior.

    v_0 = -sum(lam_i v_i) with lam_i > 0 makes the origin a strictly positive
    convex combination of the vertices.
    """
    while True:
        V = rng.normal(size=(d, d))
        lam = rng.exponential(size=d) + 0.05
        v0 = -(lam[:, None] * V).sum(axis=0)
        pts = np.vstack([v0, V])
        A = np.vstack([pts.T, np.ones((1, d + 1))])
        if np.linalg.matrix_rank(A) == d + 1 and np.min(np.linalg.norm(pts, axis=1)) > 1e-6:
            return pts


def sample_cap_points(rng: np.random.Generator, ambient: int, n: int,
                      cap_radius: float) -> np.ndarray:
    """n unit vectors within angular distance cap_radius of a random center."""
    center = rng.normal(size=ambient)
    center /= np.linalg.norm(center)
    out = np.empty((n, ambient))
    for i in range(n):
        t = rng.normal(size=ambient)
        t -= (t @ center) * center
        t /= np.linalg.norm(t)
        r = cap_radius * rng.random()
        out[i] = math.cos(r) * center + math.sin(r) * t
    return out


def hull_defect_fractions(points) -> np.ndarray:
    """Angular defect over 4 pi at each point of a 3-D set in convex position,
    from qhull's triangulated hull: 2 pi minus the angles of the hull
    triangles at the point, each as atan2(|a x b|, a . b)."""
    from scipy.spatial import ConvexHull

    pts = np.asarray(points, dtype=float)
    angles = np.zeros(len(pts))
    for tri in ConvexHull(pts).simplices:
        for r in range(3):
            i, j, k = tri[r], tri[(r + 1) % 3], tri[(r + 2) % 3]
            a, b = pts[j] - pts[i], pts[k] - pts[i]
            angles[i] += math.atan2(float(np.linalg.norm(np.cross(a, b))), float(a @ b))
    return (2 * math.pi - angles) / (4 * math.pi)


def planar_interior_angles(polygon: np.ndarray) -> np.ndarray:
    """Interior angle at each vertex of a convex polygon given in order."""
    n = polygon.shape[0]
    return np.array([
        angle_at(polygon[(i - 1) % n], polygon[i], polygon[(i + 1) % n])
        for i in range(n)
    ])
