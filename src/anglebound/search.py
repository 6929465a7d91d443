"""Stochastic minimax search over point configurations.

Two complementary searches: minimize the maximum angle of n points (an
empirical upper bound on the best achievable), and grow the largest set
whose maximum angle stays under a cap. Each annealing step draws a few
proposals per start and puts the one of lowest maximum angle to the
Metropolis test. All starts of a search advance in lockstep, so one
stacked ray-Gram scan (geometry._max_angle_scan) scores every start's
proposals of a step, and the anneal goes by the scan's own angles. Exact
angles, in angle_at's arithmetic, decide what a search returns: the
winner among every start's best and the starts themselves, and whether a
repair is taken.
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
from .errors import OutOfRange, check_int
from .geometry import (
    PointSet,
    _max_angle_scan,
    _scan_triple,
    max_angle_triple,
    max_angle_triples,
    regular_simplex,
)
from .sampling import rng_stream

# Proposals per anneal step, scored together by one stacked maximum-angle scan.
# Two searched worse on the bench's grid; four better but about 28% slower.
_PROPOSALS = 3
# Steps per draw: each stream draws the uniforms and normals of this many
# steps at once, and memory holds one chunk whatever iters is.
_CHUNK = 64
# Per-step factor of the annealing temperature.
_COOLING = 0.995
# Relative margin, a few ulps, on the theorem's bound where it caps the set size.
_BOUND_ULPS = 8 * 2.0**-52
# The largest structured starts, each certified in about 1 s (2-vCPU x86, one
# BLAS thread): a full scan of the 1000-gon took 1.25 s, the 2^12 cube 0.74 s.
_MAX_POLYGON = 1000
_MAX_CUBE_DIM = 12


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


def _anneal(starts: np.ndarray, iters: int, rngs: list[np.random.Generator],
            temperature: float = 0.3) -> np.ndarray:
    """Anneal copies of the R sets of an (R, n, D) stack on max angle, in
    lockstep; return the (R, n, D) stack of each set's best points.

    Needs n >= 3. Set r draws from rngs[r] alone, two calls per chunk of
    _CHUNK steps (fewer in the last): one random for the chunk's
    2 * _PROPOSALS + 1 uniforms per step and one standard_normal for its
    (_PROPOSALS, D) moves per step, so memory does not grow with iters. Each
    step scales every set's moves by its sigma in one multiply. Proposal p
    moves vertex t[floor(3 u)] of the set's current maximum-angle triple t
    when its first uniform is below 0.6, else vertex floor(n u), u being its
    second; the last uniform is the Metropolis test's, drawn whether or not
    the test needs it. One _max_angle_scan of the (R * _PROPOSALS, n, D)
    stack scores every proposal of a step, and each set takes its first
    proposal of lowest scan angle. The Metropolis test and the best so far
    go by scan angles too, so no angle is recomputed: a scan angle is
    within about 2^-25 sqrt(D + 2) rad of the exact one, and callers decide
    by exact angles (max_angle_triples). A set's spread, which scales its
    moves, comes from the scan of the proposal it took: the root-mean-square
    distance from the centroid, sqrt(sumsq / (2 n^2)).
    """
    R, n, D = starts.shape
    cur = np.array(starts, dtype=float)
    best = cur.copy()
    ang, rows, pos, sumsq = _max_angle_scan(cur)
    cur_e = ang.tolist()
    best_e = list(cur_e)
    cur_triple = [_scan_triple(n, row, w)[1] for row, w in zip(rows.tolist(), pos.tolist())]
    # Each set's max(spread, 1e-3), shaped to scale its (_PROPOSALS, D) moves.
    sigma = np.maximum(np.sqrt(sumsq / (2 * n * n)), 1e-3).reshape(R, 1, 1)
    u = np.empty((R, _CHUNK, 2 * _PROPOSALS + 1))
    z = np.empty((R, _CHUNK, _PROPOSALS, D))
    moves = np.empty((R * _PROPOSALS, D))
    cands = np.empty((R * _PROPOSALS, n, D))
    # Per set, the row of vertex 0 of each of its proposals in the flat stack.
    firsts = [[(r * _PROPOSALS + p) * n for p in range(_PROPOSALS)] for r in range(R)]
    T = temperature
    for done in range(0, iters, _CHUNK):
        steps = min(_CHUNK, iters - done)
        for r, rng in enumerate(rngs):
            rng.random(out=u[r, :steps])
            rng.standard_normal(out=z[r, :steps])
        temps = []
        for _ in range(steps):
            temps.append(T)
            T *= _COOLING
        z[:, :steps] *= np.maximum(temps, 1e-3)[:, None, None]
        # Per proposal, the vertex it moves: k >= 0 itself, k < 0 corner
        # -1 - k of the set's current triple.
        v = u[:, :steps, 1:-1:2]
        picks = np.where(u[:, :steps, :-1:2] < 0.6, -1 - np.minimum((3 * v).astype(np.intp), 2),
                         np.minimum((n * v).astype(np.intp), n - 1)).tolist()
        metropolis = u[:, :steps, -1].tolist()
        for step, T_step in enumerate(temps):
            np.multiply(z[:, step], sigma, out=moves.reshape(R, _PROPOSALS, D))
            moved_rows = []
            for r, triple in enumerate(cur_triple):
                moved_rows += [f + (k if k >= 0 else triple[-1 - k])
                               for f, k in zip(firsts[r], picks[r][step])]
            cands.reshape(R, _PROPOSALS, n, D)[...] = cur[:, None]
            np.add.at(cands.reshape(-1, D), moved_rows, moves)
            ang, rows, pos, sumsq = _max_angle_scan(cands)
            ang = ang.tolist()
            for r in range(R):
                lo = r * _PROPOSALS
                mine = ang[lo:lo + _PROPOSALS]
                cand_e = min(mine)  # the first of equal angles wins
                if (cand_e <= cur_e[r] or metropolis[r][step]
                        < math.exp(-(cand_e - cur_e[r]) / max(T_step, 1e-9))):
                    q = lo + mine.index(cand_e)
                    cur[r] = cands[q]
                    cur_e[r] = cand_e
                    cur_triple[r] = _scan_triple(n, int(rows[q]), int(pos[q]))[1]
                    sigma[r] = max(math.sqrt(float(sumsq[q]) / (2 * n * n)), 1e-3)
                    if cand_e < best_e[r]:
                        best[r] = cur[r]
                        best_e[r] = cand_e
    return best


def minimize_max_angle(n: int, D: int, iters: int = 2000, restarts: int = 4,
                       seed: int = 0) -> SearchResult:
    """Empirical upper bound on the minimal achievable max angle of n points in R^D.

    Simulated annealing from structured and random starts. Needs
    iters >= 1, restarts >= 0 and at least one start in all. Start r (the
    structured ones first, then `restarts` random ones) draws from
    rng_stream(seed, r); all starts are annealed in lockstep, by scan
    angles. One max_angle_triples of every start's best and the starts
    themselves, in that order, recomputes their exact angles, and the first
    lowest wins: so no result is worse than a structured start, and the
    returned angle is the winner's exact one.
    """
    n = check_int(n, "n must be an integer >= 3, got {!r}", 3)
    D = check_int(D, "dimension must be an integer >= 2, got {!r}", 2)
    iters = check_int(iters, "iters must be an integer >= 1, got {!r}", 1)
    restarts = check_int(restarts, "restarts must be an integer >= 0, got {!r}", 0)
    starts = _structured_starts(n, D)
    if restarts + len(starts) < 1:
        raise OutOfRange(f"restarts must be at least 1: no structured start has "
                         f"n={n} points in D={D}, got {restarts}")
    rngs = [rng_stream(seed, r) for r in range(restarts + len(starts))]
    starts += [rng.normal(size=(n, D)) for rng in rngs[len(starts):]]
    stack = np.array(starts)
    finalists = np.concatenate([_anneal(stack, iters, rngs), stack])
    # min keeps the first of equal angles: ties go to the earliest start's best.
    angle, w = min((e, w) for w, (e, _) in enumerate(max_angle_triples(finalists)))
    return SearchResult(
        points=PointSet(finalists[w]),
        achieved_angle=angle,
        iterations=iters * len(rngs),
        seed=seed,
        restarts=len(rngs),
    )


def _largest_structured_under(theta: float, D: int) -> tuple[np.ndarray, float]:
    """(points, exact max angle) of the largest known structured configuration
    with max angle <= theta < pi, the first on ties; else two points of the
    simplex, at 0. A polygon past _MAX_POLYGON points or a hypercube past
    R^_MAX_CUBE_DIM raises OutOfRange before it is built. Each candidate is
    scanned only when it is larger than the best so far, the polygons
    largest first; the cross-polytope and the hypercube never are. Their angle is 0.5 * math.pi exactly, as a scan
    gives it: their rays' integer dot products are >= 0 at every vertex and
    0 for some pair, a positive one has cosine >= 1/(2D), so the scan picks
    a dot of 0, and angle_at's arithmetic returns np.arccos(0.0) for it."""
    simplex = regular_simplex(D)
    candidates = [(simplex, None)]
    if theta >= 0.5 * math.pi:
        if D > _MAX_CUBE_DIM:
            raise OutOfRange(f"the hypercube start has 2^{D} points, past the cap of "
                             f"2^{_MAX_CUBE_DIM}")
        candidates += [(cross_polytope_vertices(D, 2 * D), 0.5 * math.pi),
                       (hypercube_vertices(D, 2**D), 0.5 * math.pi)]
    if D == 2:
        m = int(2.0 * math.pi / (math.pi - theta))  # the n-gon's pi - 2 pi / n > theta past m
        if m > _MAX_POLYGON:
            raise OutOfRange(f"the {m}-gon start has {m} points, past the cap of {_MAX_POLYGON}")
        # The (m - 1)-gon is 2 pi / (m (m - 1)) under theta, far past rounding: none smaller wins.
        candidates += [(_polygon(n), None) for n in range(m, max(m - 2, 2), -1)]
    best = simplex[:2], 0.0
    for c, closed in candidates:
        if len(c) > len(best[0]):
            angle = max_angle_triple(c)[0] if closed is None else closed
            if angle <= theta:
                best = c, angle
    return best


def max_cardinality_search(theta: float, D: int, budget: int = 20000,
                           seed: int = 0) -> SearchResult:
    """Grow a point set in R^D keeping its max angle at most theta.

    Greedy insertion of random candidates with short annealing repairs when
    an insertion overshoots the cap; an insertion or a repair is taken only
    when its exact max angle (max_angle_triple) is at most theta, whatever
    the anneal's scan angles said. `achieved_angle` is the exact angle kept
    from the last set taken, or the structured start's; a set's scan does
    not depend on its stack, so none is rescanned. The size is a lower
    bound, with no optimality claim. The search stops at
    floor(cardinality_bound(theta, D).bound) points where the theorem
    applies (theta < theta_D), and for theta <= pi/2 at 2^D: no set in R^D
    with every angle at most pi/2 has more (Danzer & Gruenbaum 1962), and at
    pi/2 the hypercube start has that many. `iterations` counts steps used.
    """
    if not 0.0 < theta < math.pi:
        raise OutOfRange(f"theta must lie in (0, pi), got {theta}")
    D = check_int(D, "dimension must be an integer >= 2, got {!r}", 2)
    budget = check_int(budget, "budget must be an integer >= 0, got {!r}", 0)
    pts, achieved = _largest_structured_under(theta, D)
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
        # The root-mean-square distance from the centroid, as _anneal takes it.
        sumsq = float(_max_angle_scan(pts[None])[3][0])
        scale = max(math.sqrt(sumsq / (2 * len(pts) ** 2)), 1.0)
        inserted = False
        for _ in range(min(30, budget - used)):
            used += 1
            cand = pts.mean(axis=0) + rng.normal(scale=scale, size=D)
            trial = np.vstack([pts, cand])
            angle = max_angle_triple(trial)[0]
            if angle <= theta:
                pts, achieved, inserted = trial, angle, True
                break
        if not inserted and used < budget:
            # Repair pass: anneal the overshooting union toward the cap.
            cand = pts.mean(axis=0) + rng.normal(scale=scale, size=D)
            trial = np.vstack([pts, cand])
            steps = min(400, budget - used)
            repaired = _anneal(trial[None], steps, [rng], temperature=0.1)[0]
            used += steps
            angle = max_angle_triple(repaired)[0]
            if angle <= theta:
                pts, achieved = repaired, angle
    return SearchResult(
        points=PointSet(pts),
        achieved_angle=achieved,
        iterations=used,
        seed=seed,
        restarts=1,
    )
