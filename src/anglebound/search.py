"""Stochastic minimax search over point configurations.

Two complementary searches: minimize the maximum angle of n points (an
empirical upper bound on the best achievable), and grow the largest set
whose maximum angle stays under a cap. Annealing acceptance always uses the
exact maximum angle; a log-sum-exp smoothing of all triple angles, with
sharpness increasing on schedule, only ranks candidate proposals. Structured
configurations (simplex, hypercube, cross-polytope, planar regular polygons)
are included as extra restarts, so results never fall below those baselines.
All randomness is seeded and restart streams are independent; ties go to the
earliest restart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import OutOfRange
from .geometry import PointSet, _ray_grams, max_angle_triple
from .sampling import rng_stream


@dataclass(frozen=True)
class SearchResult:
    points: PointSet
    achieved_angle: float
    iterations: int
    seed: int
    restarts: int


def regular_simplex(dim: int) -> np.ndarray:
    """dim+1 unit vectors in R^dim with pairwise dot exactly -1/dim."""
    corners = np.eye(dim + 1) - np.full((dim + 1, dim + 1), 1.0 / (dim + 1))
    u, s, _ = np.linalg.svd(corners)
    pts = u[:, :dim] * s[:dim]
    return pts / np.linalg.norm(pts, axis=1)[:, None]


def hypercube_vertices(dim: int, n: int) -> np.ndarray:
    """First n vertices of the unit hypercube in binary order."""
    out = np.zeros((n, dim))
    for i in range(n):
        out[i] = [(i >> b) & 1 for b in range(dim)]
    return out


def cross_polytope_vertices(dim: int, n: int) -> np.ndarray:
    """First n of +-e_1, -e_1, +-e_2, ... (at most 2*dim)."""
    out = np.zeros((n, dim))
    for i in range(n):
        out[i, i // 2] = 1.0 if i % 2 == 0 else -1.0
    return out


def _structured_starts(n: int, D: int) -> list[np.ndarray]:
    starts = []
    if n <= D + 1:
        starts.append(regular_simplex(D)[:n])
    if n <= 2 * D:
        starts.append(cross_polytope_vertices(D, n))
    if n <= 2**D:
        starts.append(hypercube_vertices(D, n))
    if D == 2 and n >= 3:
        ang = 2.0 * math.pi * np.arange(n) / n
        starts.append(np.column_stack([np.cos(ang), np.sin(ang)]))
    return starts


@lru_cache(maxsize=16)
def _upper_flat(m: int) -> np.ndarray:
    """Row-major flat positions of the strict upper triangle of an m x m matrix."""
    rows, cols = np.triu_indices(m, k=1)
    flat = rows * m + cols
    flat.setflags(write=False)
    return flat


def _angle_lse(pts: np.ndarray, beta: float) -> float:
    """Soft maximum (1/beta) log sum exp(beta * angle) over all triples.

    Streams over the vertices in order: each vertex's terms are summed
    relative to the running maximum up to and including that vertex, and the
    running sum is rescaled whenever that maximum grows.
    """
    n = pts.shape[0]
    if n <= 2:
        return 0.0
    m = n - 1
    upper = _upper_flat(m)
    mx = -math.inf
    acc = 0.0
    for _, gram in _ray_grams(pts):
        # np.take keeps rows C-contiguous, so each row's sum below is the
        # same pairwise sum as a per-vertex np.sum.
        pairs = np.take(gram.reshape(gram.shape[0], m * m), upper, axis=1)
        angles = np.arccos(np.clip(pairs, -1.0, 1.0))
        running = np.maximum.accumulate(np.maximum(angles.max(axis=1), mx))
        sums = np.sum(np.exp(beta * (angles - running[:, None])), axis=1)
        for top, s in zip(running.tolist(), sums.tolist()):
            if top > mx:
                acc = acc * math.exp(beta * (mx - top)) if math.isfinite(mx) else 0.0
                mx = top
            acc += s
    return mx + math.log(acc) / beta


def _anneal(pts: np.ndarray, iters: int, rng: np.random.Generator,
            temperature: float = 0.3, cooling: float = 0.995):
    """In-place annealing on max angle; returns (best_points, best_angle)."""
    n = pts.shape[0]
    cur = pts.copy()
    cur_e, cur_triple = max_angle_triple(cur)
    best = cur.copy()
    best_e = cur_e
    T = temperature
    beta = 5.0
    beta_growth = (500.0 / beta) ** (1.0 / max(iters, 1))
    for _ in range(iters):
        spread = float(np.sqrt(np.mean(np.sum((cur - cur.mean(axis=0)) ** 2, axis=1))))
        sigma = max(spread, 1e-3) * max(T, 1e-3)
        proposals = []
        for _ in range(2):
            cand = cur.copy()
            if cur_triple[0] >= 0 and rng.random() < 0.6:
                k = int(rng.choice(list(cur_triple)))
            else:
                k = int(rng.integers(n))
            cand[k] = cand[k] + rng.normal(scale=sigma, size=cur.shape[1])
            proposals.append(cand)
        scores = [_angle_lse(c, beta) for c in proposals]
        cand = proposals[int(np.argmin(scores))]
        cand_e, cand_triple = max_angle_triple(cand)
        if cand_e <= cur_e or rng.random() < math.exp(-(cand_e - cur_e) / max(T, 1e-9)):
            cur, cur_e, cur_triple = cand, cand_e, cand_triple
            if cur_e < best_e:
                best, best_e = cur.copy(), cur_e
        T *= cooling
        beta *= beta_growth
    return best, best_e


def minimize_max_angle(n: int, D: int, iters: int = 2000, restarts: int = 4,
                       seed: int = 0) -> SearchResult:
    """Empirical upper bound on the minimal achievable max angle of n points in R^D.

    Simulated annealing from structured and random starts; the returned
    angle is recomputed from the final coordinates.
    """
    if n < 3 or D < 2:
        raise OutOfRange("need n >= 3 points in dimension D >= 2")
    starts = _structured_starts(n, D)
    best_pts = None
    best_e = math.inf
    total_iters = 0
    for r in range(restarts + len(starts)):
        rng = rng_stream(seed, r)
        if r < len(starts):
            init = starts[r].copy()
            e0 = max_angle_triple(init)[0]
            if e0 < best_e:
                best_pts, best_e = init.copy(), e0
        else:
            init = rng.normal(size=(n, D))
        pts, e = _anneal(init, iters, rng)
        total_iters += iters
        if e < best_e:
            best_pts, best_e = pts, e
    result = PointSet(best_pts)
    return SearchResult(
        points=result,
        achieved_angle=max_angle_triple(result.points)[0],
        iterations=total_iters,
        seed=seed,
        restarts=restarts + len(starts),
    )


def _largest_structured_under(theta: float, D: int) -> np.ndarray:
    """Largest known structured configuration with max angle <= theta."""
    candidates = [regular_simplex(D)]
    if theta >= 0.5 * math.pi - 1e-12:
        candidates.append(cross_polytope_vertices(D, 2 * D))
        candidates.append(hypercube_vertices(D, 2**D))
    if D == 2:
        m = int(2.0 * math.pi / (math.pi - theta)) if theta < math.pi else 3
        for n in range(max(m, 3), 2, -1):
            ang = 2.0 * math.pi * np.arange(n) / n
            poly = np.column_stack([np.cos(ang), np.sin(ang)])
            if max_angle_triple(poly)[0] <= theta:
                candidates.append(poly)
                break
    best = None
    for c in candidates:
        if max_angle_triple(c)[0] <= theta and (best is None or len(c) > len(best)):
            best = c
    if best is None:
        best = regular_simplex(D)[:2]
    return best


def max_cardinality_search(theta: float, D: int, budget: int = 20000,
                           seed: int = 0) -> SearchResult:
    """Grow a point set in R^D keeping its max angle at most theta.

    Greedy insertion of random candidates with short annealing repairs when
    an insertion overshoots the cap. The returned set always satisfies
    max_angle <= theta; its size is a lower-bound demonstration, with no
    optimality claim.
    """
    if not 0.0 < theta < math.pi:
        raise OutOfRange(f"theta must lie in (0, pi), got {theta}")
    if D < 2:
        raise OutOfRange("dimension must be at least 2")
    pts = _largest_structured_under(theta, D)
    rng = rng_stream(seed, 0)
    used = 0
    while used < budget:
        spread = float(np.sqrt(np.mean(np.sum((pts - pts.mean(axis=0)) ** 2, axis=1))))
        scale = max(spread, 1.0)
        inserted = False
        for _ in range(30):
            used += 1
            cand = pts.mean(axis=0) + rng.normal(scale=scale, size=D)
            trial = np.vstack([pts, cand])
            if max_angle_triple(trial)[0] <= theta:
                pts = trial
                inserted = True
                break
        if not inserted:
            # Repair pass: anneal the overshooting union toward the cap.
            cand = pts.mean(axis=0) + rng.normal(scale=scale, size=D)
            trial = np.vstack([pts, cand])
            steps = min(400, budget - used)
            repaired, e = _anneal(trial, steps, rng, temperature=0.1)
            used += steps
            if e <= theta:
                pts = repaired
        if used >= budget:
            break
    result = PointSet(pts)
    achieved = max_angle_triple(result.points)[0]
    if achieved > theta:
        raise RuntimeError("constructed set violates the angle cap")
    return SearchResult(
        points=result,
        achieved_angle=achieved,
        iterations=used,
        seed=seed,
        restarts=1,
    )
