"""Stochastic minimax search over point configurations.

Two complementary searches: minimize the maximum angle of n points (an
empirical upper bound on the best achievable), and grow the largest set
whose maximum angle stays under a cap. Each annealing step draws a few
proposals per start, ranks them by their exact maximum angles, and puts the
lowest to the Metropolis test with that same angle. All starts of a search
advance in lockstep, so one stacked ray-Gram scan
(geometry.max_angle_triples) scores every start's proposals of a step.
Structured configurations (simplex, hypercube, cross-polytope, planar
regular polygons) are included as extra restarts, so results never fall
below those baselines. All randomness is seeded and restart streams are
independent; ties go to the earliest restart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import cardinality_bound, theta_d
from .errors import OutOfRange
from .geometry import PointSet, max_angle_triple, max_angle_triples
from .sampling import rng_stream

# Proposals per anneal step, scored together by one stacked maximum-angle scan.
# Two searched worse on the bench's grid; four better but about 28% slower.
_PROPOSALS = 3
# Per-step factor of the annealing temperature.
_COOLING = 0.995
# Relative margin, a few ulps, on the theorem's bound where it caps the set size.
_BOUND_ULPS = 8 * 2.0**-52


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
    return ((np.arange(n)[:, None] >> np.arange(dim)) & 1).astype(float)


def cross_polytope_vertices(dim: int, n: int) -> np.ndarray:
    """First n of +-e_1, -e_1, +-e_2, ... (at most 2*dim); no entry is -0.0."""
    i = np.arange(n)[:, None]
    return np.where(np.arange(dim) == i // 2, np.where(i % 2 == 0, 1.0, -1.0), 0.0)


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


def _spread(x: np.ndarray) -> float:
    """Root-mean-square distance of the rows of x from their centroid.

    np.sqrt(np.mean(np.sum((x - x.mean(axis=0)) ** 2, axis=1))) in the same
    arithmetic, without the wrappers of mean and sum: the anneal step calls
    it after every accepted move.
    """
    n = x.shape[0]
    d = x - np.add.reduce(x, axis=0) / n
    return math.sqrt(float(np.add.reduce(np.add.reduce(d * d, axis=1))) / n)


def _anneal(starts: np.ndarray, iters: int, rngs: list[np.random.Generator],
            temperature: float = 0.3) -> list[tuple[np.ndarray, float]]:
    """Anneal copies of the R sets of an (R, n, D) stack on max angle, in lockstep.

    Set r draws from rngs[r] alone, in the order a lone anneal would, and
    each step scores the proposals of every set in one (R * _PROPOSALS, n, D)
    stack. Returns (best_points, best_angle) per set.
    """
    R, n, D = starts.shape
    cur = np.array(starts, dtype=float)
    scores = max_angle_triples(cur)
    cur_e = [e for e, _ in scores]
    cur_triple = [t for _, t in scores]
    best = [(cur[r].copy(), cur_e[r]) for r in range(R)]
    T = temperature
    spread = [None] * R  # only an accepted move changes it
    for _ in range(iters):
        cands = cur[:, None].repeat(_PROPOSALS, axis=1)
        for r, rng in enumerate(rngs):
            if spread[r] is None:
                spread[r] = _spread(cur[r])
            sigma = max(spread[r], 1e-3) * max(T, 1e-3)
            for p in range(_PROPOSALS):
                if cur_triple[r][0] >= 0 and rng.random() < 0.6:
                    k = cur_triple[r][int(rng.integers(3))]
                else:
                    k = int(rng.integers(n))
                cands[r, p, k] += rng.normal(scale=sigma, size=D)
        scores = max_angle_triples(cands.reshape(R * _PROPOSALS, n, D))
        for r, rng in enumerate(rngs):
            mine = scores[r * _PROPOSALS:(r + 1) * _PROPOSALS]
            # The lowest maximum angle wins; min keeps the first on ties.
            w = min(range(_PROPOSALS), key=lambda p: mine[p][0])
            cand_e, cand_triple = mine[w]
            if cand_e <= cur_e[r] or rng.random() < math.exp(-(cand_e - cur_e[r]) / max(T, 1e-9)):
                cur[r] = cands[r, w]
                cur_e[r], cur_triple[r], spread[r] = cand_e, cand_triple, None
                if cand_e < best[r][1]:
                    best[r] = (cur[r].copy(), cand_e)
        T *= _COOLING
    return best


def minimize_max_angle(n: int, D: int, iters: int = 2000, restarts: int = 4,
                       seed: int = 0) -> SearchResult:
    """Empirical upper bound on the minimal achievable max angle of n points in R^D.

    Simulated annealing from structured and random starts; the returned
    angle is recomputed from the final coordinates. Needs iters >= 1,
    restarts >= 0 and at least one start in all. Start r (the structured
    ones first, then `restarts` random ones) draws from rng_stream(seed, r);
    all starts are annealed in lockstep, and the first best result wins.
    An anneal never returns worse than its start, so a structured start's
    own angle is counted.
    """
    if n < 3 or D < 2:
        raise OutOfRange("need n >= 3 points in dimension D >= 2")
    if iters < 1:
        raise OutOfRange(f"iters must be at least 1, got {iters}")
    if restarts < 0:
        raise OutOfRange(f"restarts must be non-negative, got {restarts}")
    starts = _structured_starts(n, D)
    if restarts + len(starts) < 1:
        raise OutOfRange(f"restarts must be at least 1: no structured start has "
                         f"n={n} points in D={D}, got {restarts}")
    rngs = [rng_stream(seed, r) for r in range(restarts + len(starts))]
    starts += [rng.normal(size=(n, D)) for rng in rngs[len(starts):]]
    results = _anneal(np.array(starts), iters, rngs)
    # min keeps the first of equal angles: ties go to the earliest start.
    result = PointSet(min(results, key=lambda res: res[1])[0])
    return SearchResult(
        points=result,
        achieved_angle=max_angle_triple(result.points)[0],
        iterations=iters * len(rngs),
        seed=seed,
        restarts=len(rngs),
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
    optimality claim. Where the theorem applies (theta < theta_D) the search
    stops once the set reaches floor(cardinality_bound(theta, D).bound), and
    `iterations` counts the steps actually used.
    """
    if not 0.0 < theta < math.pi:
        raise OutOfRange(f"theta must lie in (0, pi), got {theta}")
    if D < 2:
        raise OutOfRange("dimension must be at least 2")
    if budget < 0:
        raise OutOfRange(f"budget must be non-negative, got {budget}")
    pts = _largest_structured_under(theta, D)
    # The theorem allows no set larger than its bound; the margin keeps a bound
    # that rounds just below an integer from stopping the search one point short.
    limit = math.inf
    if theta < theta_d(D):  # and so below theta_(D-1), where the bound evaluates
        rep = cardinality_bound(theta, D)
        if rep.theorem_applicable:
            limit = rep.bound * (1.0 + _BOUND_ULPS)
    rng = rng_stream(seed, 0)
    used = 0
    while used < budget and len(pts) + 1 <= limit:
        scale = max(_spread(pts), 1.0)
        inserted = False
        for _ in range(min(30, budget - used)):
            used += 1
            cand = pts.mean(axis=0) + rng.normal(scale=scale, size=D)
            trial = np.vstack([pts, cand])
            if max_angle_triple(trial)[0] <= theta:
                pts = trial
                inserted = True
                break
        if not inserted and used < budget:
            # Repair pass: anneal the overshooting union toward the cap.
            cand = pts.mean(axis=0) + rng.normal(scale=scale, size=D)
            trial = np.vstack([pts, cand])
            steps = min(400, budget - used)
            [(repaired, e)] = _anneal(trial[None], steps, [rng], temperature=0.1)
            used += steps
            if e <= theta:
                pts = repaired
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
