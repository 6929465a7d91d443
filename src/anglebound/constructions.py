"""Line packings and coverings on the sphere, and what they buy for angles.

Packings (lines with pairwise angle > rho) feed a translate-and-double
construction that produces 2^m points whose maximum angle is certified to
stay below pi - rho. Coverings (every direction within rho/2 of some line)
feed the converse: any set of 2^m + 1 points contains a monochromatic odd
cycle of segment directions and hence a triple with angle at least pi - rho.
Both directions are evaluated numerically, never trusted: every construction
re-verifies its own certificate.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .convexity import ObtuseWitness
from .errors import (
    ColoringFailed,
    CoverageFailed,
    HypothesisViolated,
    OutOfRange,
    ScaleExhausted,
)
from .geometry import PointSet, _min_upper_pair, angle_at, max_angle_triple
from .sampling import canonical_line, quasi_uniform_lines, rng_stream

DEFAULT_PROBES = 100_000


def line_angle(u: np.ndarray, v: np.ndarray) -> float:
    """Angle in [0, pi/2] between two antipodally-identified unit vectors."""
    c = abs(float(np.dot(u, v)))
    return math.acos(min(1.0, c))


@dataclass(frozen=True)
class LineArrangement:
    """Set of undirected lines through the origin, as canonical unit vectors.

    min_pairwise_angle is the cached min over pairs of arccos|u . v|; for
    fewer than two lines it is pi/2, the vacuous maximum.
    """

    dim: int
    lines: np.ndarray
    min_pairwise_angle: float = field(init=False)

    def __post_init__(self):
        vecs = np.asarray(self.lines, dtype=float)
        if vecs.ndim != 2 or vecs.shape[0] < 1 or vecs.shape[1] != self.dim:
            raise OutOfRange(f"expected an (m, {self.dim}) array of lines")
        norms = np.linalg.norm(vecs, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise OutOfRange("lines must be unit vectors")
        vecs = np.array([canonical_line(v / n) for v, n in zip(vecs, norms)])
        vecs.setflags(write=False)
        object.__setattr__(self, "lines", vecs)
        ang = 0.5 * math.pi if vecs.shape[0] < 2 else _min_line_angle(vecs)
        object.__setattr__(self, "min_pairwise_angle", ang)

    def __len__(self) -> int:
        return int(self.lines.shape[0])


@dataclass(frozen=True)
class EdgeColoring:
    """Total coloring of the complete graph on n vertices with m colors."""

    n: int
    m: int
    color: dict

    def __post_init__(self):
        if self.n < 2 or self.m < 1:
            raise OutOfRange("need n >= 2 vertices and m >= 1 colors")
        for i in range(self.n):
            for j in range(i + 1, self.n):
                c = self.color.get((i, j))
                if c is None or not 0 <= c < self.m:
                    raise OutOfRange(f"pair ({i}, {j}) is uncolored or out of range")


@dataclass(frozen=True)
class NBoundsReport:
    """Two-sided size bounds 2^((c/(pi-theta))^(d-1) - 1) < N <= 2^((C/(pi-theta))^(d-1) + 1)."""

    theta: float
    d: int
    c_d: float
    C_d: float
    lower: float
    upper: float
    overflow: bool
    lower_valid_above_n: float


def _structured_line_starts(m: int, D: int) -> list[np.ndarray]:
    starts = []
    if m <= D:
        starts.append(np.eye(D)[:m])
    if D == 2:
        ang = np.arange(m) * math.pi / m
        starts.append(np.column_stack([np.cos(ang), np.sin(ang)]))
    return starts


def _min_line_angle(U: np.ndarray) -> float:
    return float(np.arccos(min(1.0, -_min_upper_pair(-np.abs(U @ U.T))[0])))


def pack_lines(m: int, D: int, iters: int = 1500, seed: int = 0,
               restarts: int = 8) -> LineArrangement:
    """Spread m lines in R^D to (locally) maximize the minimum pairwise angle.

    Projected gradient descent on a soft-max of squared pairwise dots with a
    sharpening schedule, from structured and random restarts. The returned
    arrangement's min_pairwise_angle is recomputed exactly, so it is a valid
    achieved separation regardless of optimizer quality.
    """
    if m < 2 or D < 2:
        raise OutOfRange("need m >= 2 lines in dimension D >= 2")
    starts = _structured_line_starts(m, D)
    best = None
    best_angle = -1.0

    def consider(U: np.ndarray):
        nonlocal best, best_angle
        ang = _min_line_angle(U)
        if ang > best_angle:
            best_angle = ang
            best = U.copy()

    for r in range(restarts + len(starts)):
        if r < len(starts):
            U = starts[r].copy()
        else:
            rng = rng_stream(seed, r - len(starts))
            U = rng.normal(size=(m, D))
        U /= np.linalg.norm(U, axis=1)[:, None]
        consider(U)  # structured starts may already be optimal
        beta = 4.0
        growth = (8192.0 / beta) ** (1.0 / max(iters, 1))
        for it in range(iters):
            C = U @ U.T
            np.fill_diagonal(C, 0.0)
            S = C * C
            W = np.exp(beta * (S - S.max()))
            np.fill_diagonal(W, 0.0)
            total = W.sum()
            if total <= 0.0:
                break
            W /= total
            grad = 4.0 * (W * C) @ U
            gn = float(np.linalg.norm(grad))
            if gn < 1e-14:
                break
            step = 0.2 * (1.0 - it / iters) + 0.001
            U = U - step * grad / gn
            U /= np.linalg.norm(U, axis=1)[:, None]
            beta *= growth
        consider(U)
    return LineArrangement(dim=D, lines=best)


def cover_lines(rho: float, D: int, seed: int = 0, probes: int = DEFAULT_PROBES,
                max_rounds: int = 10_000, candidates_per_round: int = 128) -> LineArrangement:
    """Greedy set of lines leaving every direction within rho/2 of one of them.

    Coverage is certified on a dense quasi-random probe set (size `probes`),
    not analytically. Each round scores a sampled batch of still-uncovered
    probes as candidate lines and keeps the one covering the most probes.
    """
    if not 0.0 < rho < math.pi:
        raise OutOfRange(f"rho must lie in (0, pi), got {rho}")
    if D < 2:
        raise OutOfRange("dimension must be at least 2")
    P = quasi_uniform_lines(D, probes, seed)
    cos_half = math.cos(0.5 * rho)
    covered = np.zeros(P.shape[0], dtype=bool)
    chosen = []
    for round_idx in range(max_rounds):
        uncovered = np.flatnonzero(~covered)
        if uncovered.size == 0:
            break
        rng = rng_stream(seed, 1000 + round_idx)
        take = min(candidates_per_round, uncovered.size)
        cand_idx = uncovered[rng.choice(uncovered.size, size=take, replace=False)]
        cand = P[cand_idx]
        hits = np.abs(P[uncovered] @ cand.T) >= cos_half
        scores = hits.sum(axis=0)
        pick = int(np.argmax(scores))  # ties: lowest candidate index
        line = cand[pick]
        chosen.append(line)
        covered[uncovered[hits[:, pick]]] = True
    else:
        raise CoverageFailed(
            f"{int((~covered).sum())} of {P.shape[0]} probes uncovered after {max_rounds} rounds"
        )
    lines = np.array(chosen)
    # In the plane the equiangular family of ceil(pi/rho) lines is the exact
    # optimum; adopt it whenever it certifies with fewer lines than greedy.
    if D == 2:
        for k in range(max(1, int(math.ceil(math.pi / rho - 1e-9))), len(chosen)):
            ang = np.arange(k) * math.pi / k
            fam = np.column_stack([np.cos(ang), np.sin(ang)])
            if np.all(np.max(np.abs(P @ fam.T), axis=1) >= cos_half - 1e-12):
                lines = fam
                break
    arrangement = LineArrangement(dim=D, lines=lines)
    # Re-check the certificate against the full probe set.
    if not np.all(np.max(np.abs(P @ arrangement.lines.T), axis=1) >= cos_half - 1e-12):
        raise CoverageFailed("probe coverage re-check failed")
    return arrangement


def ef_doubling(L: LineArrangement, rho: float, slack: float = 0.05,
                max_scale_doublings: int = 60) -> PointSet:
    """Translate-and-double along each line: 2^m points with max angle <= pi - rho.

    Starts from two points spanning the first line; each subsequent line
    contributes a translated copy of the current set. The translation scale
    doubles until (a) every original-to-copy vector is within the slack angle
    of the line, so all segment directions stay clustered near the used
    lines, and (b) the exact maximum angle of the union is at most pi - rho.
    Condition (a) is what keeps later doubling steps sound: without it a
    mixed direction can drift onto a not-yet-used line and produce a nearly
    straight triple. The certificate is recomputed from the final
    coordinates, never assumed.
    """
    if slack <= 0.0:
        raise OutOfRange("slack must be positive")
    if not 0.0 < rho < math.pi:
        raise OutOfRange(f"rho must lie in (0, pi), got {rho}")
    if rho >= L.min_pairwise_angle:
        raise OutOfRange(
            f"rho={rho:.6g} must be strictly below the arrangement's "
            f"min pairwise angle {L.min_pairwise_angle:.6g}"
        )
    target = math.pi - rho
    # Direction clusters of width slack_eff around the lines give pairwise
    # angles at most (pi - min_angle) + 2 * slack_eff, which must stay below
    # the target.
    slack_eff = min(slack, 0.49 * (L.min_pairwise_angle - rho))
    lines = L.lines
    pts = np.vstack([np.zeros(L.dim), lines[0]])
    for k in range(1, len(L)):
        diffs = (pts[:, None, :] - pts[None, :, :]).reshape(-1, L.dim)
        diam = math.sqrt(max(float(np.max(np.sum(diffs**2, axis=1))), 1.0))
        t = diam / math.sin(slack_eff)
        for _ in range(max_scale_doublings):
            cross = t * lines[k] + diffs
            cross_norm = np.linalg.norm(cross, axis=1)
            cos_dev = (cross @ lines[k]) / cross_norm
            parallel_ok = bool(np.min(cos_dev) >= math.cos(slack_eff) - 1e-15)
            doubled = np.vstack([pts, pts + t * lines[k]])
            if parallel_ok and max_angle_triple(doubled)[0] <= target:
                pts = doubled
                break
            t *= 2.0
            if t > 1e15 * diam:
                break
        else:
            raise ScaleExhausted(
                f"line {k}: no translation up to {t:.3g} certified max angle <= {target:.6g}"
            )
        if pts.shape[0] != 2 ** (k + 1):
            raise ScaleExhausted(
                f"line {k}: translation scale exceeded float geometry before certifying"
            )
    result = PointSet(pts)
    if max_angle_triple(result.points)[0] > target:
        raise ScaleExhausted("final certificate failed")
    return result


def _bfs_forest(n: int, adj: dict) -> tuple[dict, dict, tuple | None]:
    """2-color a graph; return (side, parent, odd_edge) with odd_edge the
    first same-side edge found (None when bipartite)."""
    side: dict[int, int] = {}
    parent: dict[int, int | None] = {}
    odd_edge = None
    for root in range(n):
        if root in side:
            continue
        side[root] = 0
        parent[root] = None
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in adj.get(u, ()):
                if v not in side:
                    side[v] = 1 - side[u]
                    parent[v] = u
                    queue.append(v)
                elif side[v] == side[u] and odd_edge is None:
                    odd_edge = (u, v)
    return side, parent, odd_edge


def _tree_path(parent: dict, u: int, v: int) -> list[int]:
    """Vertex path from u to v inside one BFS tree."""
    anc_u = [u]
    while parent[anc_u[-1]] is not None:
        anc_u.append(parent[anc_u[-1]])
    anc_v = [v]
    while parent[anc_v[-1]] is not None:
        anc_v.append(parent[anc_v[-1]])
    set_u = {x: i for i, x in enumerate(anc_u)}
    lca_j = next(j for j, x in enumerate(anc_v) if x in set_u)
    lca_i = set_u[anc_v[lca_j]]
    return anc_u[:lca_i + 1] + list(reversed(anc_v[:lca_j]))


def find_mono_odd_cycle(C: EdgeColoring) -> tuple[int, list[int]]:
    """Monochromatic odd cycle in an m-coloring of K_n with n >= 2^m + 1.

    Per color, a BFS 2-coloring either exposes an odd cycle directly or
    assigns side labels; if every class looks bipartite, two vertices share
    the full label vector and the edge between them closes an odd cycle with
    the tree path in its color class. The returned cycle is re-verified to be
    odd and monochromatic.
    """
    if C.n <= 2 ** C.m:
        raise HypothesisViolated(f"need n > 2^m, got n={C.n}, m={C.m}")
    adj_by_color: list[dict] = [{} for _ in range(C.m)]
    for (i, j), c in C.color.items():
        adj_by_color[c].setdefault(i, []).append(j)
        adj_by_color[c].setdefault(j, []).append(i)
    forests = []
    for c in range(C.m):
        side, parent, odd_edge = _bfs_forest(C.n, adj_by_color[c])
        if odd_edge is not None:
            u, v = odd_edge
            cycle = _tree_path(parent, u, v)
            _verify_cycle(C, c, cycle)
            return c, cycle
        forests.append((side, parent))
    labels: dict[tuple, int] = {}
    for v in range(C.n):
        key = tuple(side.get(v, 0) for side, _ in forests)
        if key in labels:
            u = labels[key]
            c = C.color[(min(u, v), max(u, v))]
            cycle = _tree_path(forests[c][1], u, v)
            _verify_cycle(C, c, cycle)
            return c, cycle
        labels[v] = key
    raise RuntimeError("no odd cycle found despite n > 2^m; coloring inconsistent")


def _verify_cycle(C: EdgeColoring, c: int, cycle: list[int]):
    if len(cycle) < 3 or len(cycle) % 2 == 0:
        raise RuntimeError(f"extracted cycle has even or trivial length {len(cycle)}")
    for t in range(len(cycle)):
        a, b = cycle[t], cycle[(t + 1) % len(cycle)]
        if C.color[(min(a, b), max(a, b))] != c:
            raise RuntimeError("extracted cycle is not monochromatic")


def color_edges_by_lines(A: PointSet, L: LineArrangement, rho: float) -> EdgeColoring:
    """Color each point pair by the least-index line within rho/2 of its direction."""
    n = len(A)
    cos_half = math.cos(0.5 * rho)
    colors = {}
    for i in range(n):
        for j in range(i + 1, n):
            d = A.points[j] - A.points[i]
            d = d / np.linalg.norm(d)
            hits = np.flatnonzero(np.abs(L.lines @ d) >= cos_half)
            if hits.size == 0:
                raise ColoringFailed(
                    f"segment ({i}, {j}) is not within {0.5 * rho:.6g} of any line"
                )
            colors[(i, j)] = int(hits[0])
    return EdgeColoring(n=n, m=len(L), color=colors)


def obtuse_triple_witness(A: PointSet, L: LineArrangement, rho: float) -> ObtuseWitness:
    """A triple of A forming an angle >= pi - rho, when |A| >= 2^m + 1.

    Edges are colored by covering line; a monochromatic odd cycle must carry
    two consecutive edges projecting onto its line with the same sign, and
    their shared vertex sees its neighbors at angle >= pi - rho.
    """
    if not 0.0 < rho < math.pi:
        raise OutOfRange(f"rho must lie in (0, pi), got {rho}")
    if len(A) < 2 ** len(L) + 1:
        raise HypothesisViolated(
            f"need at least 2^{len(L)} + 1 = {2 ** len(L) + 1} points, got {len(A)}"
        )
    coloring = color_edges_by_lines(A, L, rho)
    c, cycle = find_mono_odd_cycle(coloring)
    axis = L.lines[c]
    k = len(cycle)
    signs = []
    for t in range(k):
        d = A.points[cycle[(t + 1) % k]] - A.points[cycle[t]]
        signs.append(1 if float(np.dot(d, axis)) > 0 else -1)
    pivot = next(t for t in range(k) if signs[t] == signs[(t + 1) % k])
    x = A.points[cycle[pivot]]
    y = A.points[cycle[(pivot + 1) % k]]
    z = A.points[cycle[(pivot + 2) % k]]
    ang = angle_at(x, y, z)
    if ang < math.pi - rho - 1e-9:
        raise RuntimeError("witness angle fell below pi - rho; coloring inconsistent")
    return ObtuseWitness(vi=x.copy(), v=y.copy(), vj=z.copy(), angle=ang)


def n_bounds(theta: float, d: int, c_d: float, C_d: float) -> NBoundsReport:
    """Evaluate the packing/covering size bounds at angle cap theta.

    lower = 2^((c_d/(pi-theta))^(d-1) - 1) and
    upper = 1 + 2^((C_d/(pi-theta))^(d-1) + 1). Exponents beyond the float
    range are reported as inf with the overflow flag set. The lower bound is
    only meaningful for sets larger than (d-1) log2(c_d/(pi-theta)), which is
    surfaced as lower_valid_above_n.
    """
    if not 0.5 * math.pi < theta < math.pi:
        raise OutOfRange(f"theta must lie in (pi/2, pi), got {theta}")
    if int(d) != d or d < 2:
        raise OutOfRange(f"d must be an integer >= 2, got {d!r}")
    if c_d <= 0.0 or C_d <= 0.0:
        raise OutOfRange("constants must be positive")
    gap = math.pi - theta
    exp_lower = (c_d / gap) ** (d - 1) - 1.0
    exp_upper = (C_d / gap) ** (d - 1) + 1.0
    overflow = exp_lower > 1023.0 or exp_upper > 1023.0
    lower = math.inf if exp_lower > 1023.0 else 2.0 ** exp_lower
    upper = math.inf if exp_upper > 1023.0 else 1.0 + 2.0 ** exp_upper
    ordered = exp_lower < exp_upper if overflow else lower < upper
    if not ordered:
        raise OutOfRange(
            f"constants c_d={c_d}, C_d={C_d} are inconsistent: lower {lower} >= upper {upper}"
        )
    valid_above = (d - 1) * math.log2(max(c_d / gap, 1e-300))
    return NBoundsReport(
        theta=float(theta), d=int(d), c_d=float(c_d), C_d=float(C_d),
        lower=lower, upper=upper, overflow=overflow,
        lower_valid_above_n=valid_above,
    )


def calibrate_constants(d: int, rho: float, seed: int = 0,
                        pack_m: int = 6) -> tuple[float, float]:
    """Empirical (c_d, C_d) from packing and covering runs in R^d at scale rho.

    A packing of pack_m lines achieving separation a gives c_d = a * m^(1/(d-1));
    a covering at rho with m lines gives C_d = rho * (m + 1)^(1/(d-1)). These
    are instance-derived values, not proven constants.
    """
    packed = pack_lines(pack_m, d, seed=seed)
    c_d = packed.min_pairwise_angle * pack_m ** (1.0 / (d - 1))
    covered = cover_lines(rho, d, seed=seed)
    C_d = rho * (len(covered) + 1) ** (1.0 / (d - 1))
    return c_d, C_d
