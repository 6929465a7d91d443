"""Stochastic minimax search over point configurations.

Two complementary searches: minimize the maximum angle of n points (an
empirical upper bound on the best achievable), and grow the largest set
whose maximum angle stays under a cap. Each annealing step draws a few
proposals per start and puts the one of lowest maximum angle to the
Metropolis test with its exact angle. All starts of a search advance in
lockstep, so one stacked ray-Gram scan (geometry._max_angle_scan) scores
every start's proposals of a step. The proposals are ranked by the scan's
own angles, and only each start's winner has its exact angle recomputed;
where another proposal's scan angle lies within a rounding guard of the
lowest, those proposals are ranked by their exact angles instead, so the
choice is always the one exact angles would make.
Structured configurations (simplex, hypercube, cross-polytope, planar
regular polygons) are included as extra restarts, so results never fall
below those baselines. All randomness is seeded and restart streams are
independent; ties go to the earliest restart.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bounds import cardinality_bound, theta_d
from .errors import OutOfRange, check_int
from .geometry import (
    PointSet,
    _max_angle_recompute,
    _max_angle_scan,
    max_angle_triple,
    max_angle_triples,
    regular_simplex,
)
from .sampling import rng_stream

# Proposals per anneal step, scored together by one stacked maximum-angle scan.
# Two searched worse on the bench's grid; four better but about 28% slower.
_PROPOSALS = 3
# Per-step factor of the annealing temperature.
_COOLING = 0.995
# Relative margin, a few ulps, on the theorem's bound where it caps the set size.
_BOUND_ULPS = 8 * 2.0**-52
# Guard, per sqrt(D + 2), within which two proposals' scan angles count as tied
# and the proposals are ranked by their recomputed angles. Both halves of a
# max-angle scan form the same rays a = x_i - x_j and b = x_k - x_j (the same
# subtraction, so the same bits); let c = a.b / (|a| |b|) and u = 2^-53. To
# first order in u:
# - the scan normalizes each ray (its norm, a square root of D squares, off by
#   at most (D/2 + 1) u relatively, each unit entry by (D/2 + 2) u) and takes
#   the dot of the two unit rays (D u more), so its cosine is within
#   (2D + 4) u of c;
# - the recompute (geometry._vertex_angle) divides a.b, within D u |a| |b|, by
#   the product of the two norms, within (D + 4) u relatively with the product
#   and the quotient, so its cosine is within (2D + 4) u of c too.
# The two cosines differ by at most delta = 4 (D + 2) u. Clamping to [-1, 1]
# cannot widen that, and arccos moves no two cosines delta apart by more than
# arccos(1 - delta) = 2 asin(sqrt(delta / 2)), about sqrt(2 delta), its worst
# case at +-1 (angles near 0 and pi). With each arccos within an ulp of pi, the
# scan angle and the recomputed one differ by at most
#     g = sqrt(8 (D + 2) u) + 2^-50 = 2^-25 sqrt(D + 2) + 2^-50,
# 6.7e-8 rad at D = 3. The guard 2^-23 sqrt(D + 2), four times the first term,
# is 2g with a factor of about 2 to spare for the second-order terms and a few
# more ulps of arccos. A proposal whose scan angle
# exceeds the lowest by more than 2g has a recomputed angle strictly above that
# of the proposal with the lowest scan angle, so it cannot be the first of the
# lowest recomputed angles: ranking within the guard picks what ranking every
# proposal by its recomputed angle picks.
_RANK_TIE_TOL = 2.0**-23


@dataclass(frozen=True)
class SearchResult:
    points: PointSet
    achieved_angle: float
    iterations: int
    seed: int
    restarts: int


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
        starts.append(_polygon(n))
    return starts


def _polygon(n: int) -> np.ndarray:
    """The regular n-gon on the unit circle, starting at (1, 0)."""
    ang = 2.0 * math.pi * np.arange(n) / n
    return np.column_stack([np.cos(ang), np.sin(ang)])


def _spreads(stack: np.ndarray) -> np.ndarray:
    """Root-mean-square distance of each set's points from its centroid, for
    an (R, n, D) stack.

    Per set, np.sqrt(np.mean(np.sum((x - x.mean(axis=0)) ** 2, axis=1))) in
    the same arithmetic, without the wrappers of mean and sum, for all sets
    in one pass: the anneal recomputes it after every step that accepted a
    move.
    """
    n = stack.shape[1]
    centroid = np.add.reduce(stack, axis=1)
    centroid /= n
    d = stack - centroid[:, None]
    d *= d
    ms = np.add.reduce(np.add.reduce(d, axis=2), axis=1)
    ms /= n
    return np.sqrt(ms, out=ms)


def _rank(stack: np.ndarray, guard: float) -> list[tuple[int, float, tuple[int, int, int]]]:
    """(w, angle, (i, j, k)) per start of an (R * _PROPOSALS, n, D) stack of
    proposals, start r's being rows r * _PROPOSALS onward, n >= 3: its
    proposal w of lowest maximum angle, the first on ties, with that angle
    and triple as geometry.max_angle_triples would give them.

    One scan (geometry._max_angle_scan) ranks the proposals. Those whose
    scan angles lie within `guard` of their start's lowest (see
    _RANK_TIE_TOL), usually the winner alone, have their angles recomputed,
    and the first of the lowest recomputed angles wins.
    """
    ang, rows, pos = _max_angle_scan(stack)
    ang, rows, pos = ang.tolist(), rows.tolist(), pos.tolist()
    out = []
    for lo in range(0, len(ang), _PROPOSALS):
        cut = min(ang[lo:lo + _PROPOSALS]) + guard
        scored = [(p - lo, *_max_angle_recompute(stack, rows[p], pos[p]))
                  for p in range(lo, lo + _PROPOSALS) if ang[p] <= cut]
        # min keeps the first of equal recomputed angles.
        out.append(min(scored, key=lambda qet: qet[1]))
    return out


def _anneal(starts: np.ndarray, iters: int, rngs: list[np.random.Generator],
            temperature: float = 0.3) -> list[tuple[np.ndarray, float]]:
    """Anneal copies of the R sets of an (R, n, D) stack on max angle, in lockstep.

    Needs n >= 3. Set r draws from rngs[r] alone, in the order a lone anneal
    would. Each step scans the proposals of every set in one
    (R * _PROPOSALS, n, D) stack and ranks each set's proposals by the scan
    angles (_rank): it recomputes about R angles, one per set, where ranking
    by recomputed angles would take R * _PROPOSALS, and picks the same
    proposals, since scan angles within _RANK_TIE_TOL * sqrt(D + 2) of a
    set's lowest send those proposals to a recompute. On the bench's seed-1
    search cells (rounds 0-3) that is 10 268 recomputed angles instead of
    29 520, with 409 of 9 840 set-steps on the tie path. The spreads that
    scale the proposal steps are computed for all sets at once, after each
    step that accepted a move. Returns (best_points, best_angle) per set.
    """
    R, n, D = starts.shape
    cur = np.array(starts, dtype=float)
    scores = max_angle_triples(cur)
    cur_e = [e for e, _ in scores]
    cur_triple = [t for _, t in scores]
    best = [(cur[r].copy(), cur_e[r]) for r in range(R)]
    guard = _RANK_TIE_TOL * math.sqrt(D + 2)
    T = temperature
    spread = _spreads(cur).tolist()
    for _ in range(iters):
        cands = cur[:, None].repeat(_PROPOSALS, axis=1)
        for r, rng in enumerate(rngs):
            sigma = max(spread[r], 1e-3) * max(T, 1e-3)
            for p in range(_PROPOSALS):
                if rng.random() < 0.6:
                    k = cur_triple[r][int(rng.integers(3))]
                else:
                    k = int(rng.integers(n))
                cands[r, p, k] += rng.normal(scale=sigma, size=D)
        ranked = _rank(cands.reshape(R * _PROPOSALS, n, D), guard)
        moved = False
        for r, rng in enumerate(rngs):
            w, cand_e, cand_triple = ranked[r]
            if cand_e <= cur_e[r] or rng.random() < math.exp(-(cand_e - cur_e[r]) / max(T, 1e-9)):
                cur[r] = cands[r, w]
                cur_e[r], cur_triple[r] = cand_e, cand_triple
                moved = True
                if cand_e < best[r][1]:
                    best[r] = (cur[r].copy(), cand_e)
        if moved:
            spread = _spreads(cur).tolist()
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
    n = check_int(n, "n must be an integer >= 3, got {!r}", 3)
    D = check_int(D, "dimension must be an integer >= 2, got {!r}", 2)
    iters = check_int(iters, "iters must be an integer, got {!r}")
    if iters < 1:
        raise OutOfRange(f"iters must be at least 1, got {iters}")
    restarts = check_int(restarts, "restarts must be an integer, got {!r}")
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
    """Largest known structured configuration with max angle <= theta < pi, the
    first on ties; else two points of the simplex. Each candidate is scanned
    only when it is larger than the best so far, the polygons largest first."""
    simplex = regular_simplex(D)
    candidates = [simplex]
    if theta >= 0.5 * math.pi - 1e-12:
        candidates += [cross_polytope_vertices(D, 2 * D), hypercube_vertices(D, 2**D)]
    if D == 2:
        m = int(2.0 * math.pi / (math.pi - theta))  # the n-gon's pi - 2 pi / n > theta past m
        candidates = itertools.chain(candidates, map(_polygon, range(m, 2, -1)))
    best = simplex[:2]
    for c in candidates:
        if len(c) > len(best) and max_angle_triple(c)[0] <= theta:
            best = c
    return best


def max_cardinality_search(theta: float, D: int, budget: int = 20000,
                           seed: int = 0) -> SearchResult:
    """Grow a point set in R^D keeping its max angle at most theta.

    Greedy insertion of random candidates with short annealing repairs when
    an insertion overshoots the cap. The returned set always satisfies
    max_angle <= theta; its size is a lower-bound demonstration, with no
    optimality claim. Where the theorem applies (theta < theta_D) the search
    stops once the set reaches floor(cardinality_bound(theta, D).bound). For
    theta <= pi/2 it also stops at 2^D points: no set in R^D with every angle
    at most pi/2 has more (Danzer & Gruenbaum 1962); at pi/2 the hypercube,
    a structured start, has that many. `iterations` counts the steps
    actually used.
    """
    if not 0.0 < theta < math.pi:
        raise OutOfRange(f"theta must lie in (0, pi), got {theta}")
    D = check_int(D, "dimension must be an integer >= 2, got {!r}", 2)
    budget = check_int(budget, "budget must be an integer, got {!r}")
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
    if theta <= 0.5 * math.pi:  # Danzer & Gruenbaum: at most 2^D points
        limit = min(limit, 2**D)
    rng = rng_stream(seed, 0)
    used = 0
    while used < budget and len(pts) + 1 <= limit:
        scale = max(float(_spreads(pts[None])[0]), 1.0)
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
