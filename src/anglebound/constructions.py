"""Line packings and coverings on the sphere, and what they buy for angles.

Packings (lines with pairwise angle > rho) feed a translate-and-double
construction that produces 2^m points whose maximum angle is certified to
stay below pi - rho. Coverings (every direction within rho/2 of some line)
feed the converse: any set of 2^m + 1 points contains a monochromatic odd
cycle of segment directions and hence a triple with angle at least pi - rho.
The cycle exists by pigeonhole: were every color class bipartite, the ends of
each edge would lie on different sides of its class, so the points' vectors
of side labels in {0, 1}^m would all differ, which needs at most 2^m points.
Both directions are evaluated numerically, never trusted: every construction
re-verifies its own certificate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ColoringFailed,
    CoverageFailed,
    HypothesisViolated,
    OutOfRange,
    ScaleExhausted,
    check_int,
)
from .geometry import (LOOSE_UNIT_NORM_TOL, PointSet, _check_closed, _facet_planes, _hull_join,
                       _min_upper_pair, _row_blocks, angle_at, max_angle_triple, regular_simplex)
from .sampling import _check_seed, canonical_lines, rng_stream

# The cap on deepest-hole insertions.
_MAX_ROUNDS = 10_000
# No insertion starts from more than this many facet entries, facets x D^2,
# the size of the stacked vertex rows the certificate solves (24 MB here).
# It sits above the 119 588 x 4^2 of R^4 at rho = 0.18 and below the first
# hulls past it in R^13 (18 876 x 13^2) and R^14 (the frame's 2^14 x 14^2),
# so no hull that joins a point has ridge keys past int64 (geometry._ridges).
_FACET_BUDGET = 3_000_000
# Slack on a cosine of every covering test: the planar family's holes, the
# frame's threshold, the insertion's stop test and the hull re-check.
_COVER_TOL = 1e-12
# Slack below cos(slack_eff) that ef_doubling's pair check grants each pair's
# cosine against its level's line (_pairs_certify).
_PAIR_COS_SLACK = 1e-15
# Lines in the packing from which calibrate_constants derives c_d.
_CALIBRATION_PACK = 6


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
        if not np.all(np.abs(norms - 1.0) <= LOOSE_UNIT_NORM_TOL):
            raise OutOfRange("lines must be unit vectors")
        vecs = canonical_lines(vecs / norms[:, None])
        vecs.setflags(write=False)
        object.__setattr__(self, "lines", vecs)
        ang = 0.5 * math.pi if vecs.shape[0] < 2 else _min_line_angle(vecs)
        object.__setattr__(self, "min_pairwise_angle", ang)

    def __len__(self) -> int:
        return int(self.lines.shape[0])


@dataclass(frozen=True)
class EdgeColoring:
    """Total coloring of the complete graph on n vertices with m colors.

    color maps each pair (i, j), i < j, to an integer in [0, m). Validation
    also derives the (n, n) color matrix, -1 on its diagonal, as _matrix.
    """

    n: int
    m: int
    color: dict

    def __post_init__(self):
        if self.n < 2 or self.m < 1:
            raise OutOfRange("need n >= 2 vertices and m >= 1 colors")
        got = list(map(self.color.get, itertools.combinations(range(self.n), 2)))
        colors = np.array(got)  # an integer dtype unless a color is missing or not an integer
        if colors.dtype.kind not in "biu" or not np.all((colors >= 0) & (colors < self.m)):
            for (i, j), c in zip(itertools.combinations(range(self.n), 2), got):
                if not isinstance(c, (int, np.integer)) or not 0 <= c < self.m:
                    raise OutOfRange(f"pair ({i}, {j}) is uncolored or its color is not "
                                     f"an integer in [0, {self.m})")
        K = np.full((self.n, self.n), -1)
        K[np.triu_indices(self.n, 1)] = colors
        object.__setattr__(self, "_matrix", np.maximum(K, K.T))  # not a dataclass field


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


def _min_line_angle(U: np.ndarray) -> float:
    """arccos of the largest |u_i . u_j| over i < j (geometry._min_upper_pair)."""
    return float(np.arccos(min(1.0, -_min_upper_pair(U, absolute=True)[0])))


def _equiangular(k: int) -> np.ndarray:
    """The k planar lines at angles i pi / k, as (cos, sin) rows."""
    ang = np.arange(k) * math.pi / k
    return np.column_stack([np.cos(ang), np.sin(ang)])


def pack_lines(m: int, D: int, iters: int = 1500, seed: int = 0,
               restarts: int = 8) -> LineArrangement:
    """Spread m lines in R^D to (locally) maximize the minimum pairwise angle.

    Proven optima are returned in closed form, without any search:
    - m <= D: orthogonal lines (the coordinate frame, angle pi/2);
    - D = 2: the m equiangular lines (angle pi/m);
    - m = D + 1: the lines through a regular simplex's vertices, angle
      arccos(1/D);
    - (6, 3): the six diagonals of the icosahedron, angle arccos(1/sqrt 5);
    - (7, 3): the three axes and the four diagonals of the cube, angle
      arccos(1/sqrt 3).
    The last three meet a lower bound on the largest |cos| with equality:
    the simplex and the icosahedron Welch's (1974), cos^2 >= (m - D) /
    (D (m - 1)), and the cube's lines the orthoplex bound (Conway, Hardin &
    Sloane 1996), |cos| >= 1/sqrt D for more than D (D + 1) / 2 lines.
    Otherwise projected gradient descent on a soft-max of squared pairwise
    dots with a sharpening schedule, from random restarts (`_descend`). The
    returned arrangement's min_pairwise_angle is recomputed exactly, so it is
    a valid achieved separation regardless of optimizer quality. Needs iters
    >= 1 and restarts >= 1, closed forms included.
    """
    m = check_int(m, "m must be an integer >= 2, got {!r}", 2)
    D = check_int(D, "dimension must be an integer >= 2, got {!r}", 2)
    _check_seed(seed)
    iters = check_int(iters, "iters must be an integer >= 1, got {!r}", 1)
    restarts = check_int(restarts, "restarts must be an integer >= 1, got {!r}", 1)
    if m <= D:
        return LineArrangement(dim=D, lines=np.eye(D)[:m])
    if D == 2:
        U = _equiangular(m)
        return LineArrangement(dim=D, lines=U / np.linalg.norm(U, axis=1)[:, None])
    if m == D + 1:
        return LineArrangement(dim=D, lines=regular_simplex(D))
    if (m, D) == (6, 3):
        phi = 0.5 * (1.0 + math.sqrt(5.0))
        U = np.array([[0.0, 1.0, phi], [0.0, 1.0, -phi]]) / math.hypot(1.0, phi)
        return LineArrangement(dim=D, lines=np.vstack([np.roll(U, s, axis=1) for s in range(3)]))
    if (m, D) == (7, 3):
        diagonals = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, -1.0], [1.0, -1.0, 1.0],
                              [-1.0, 1.0, 1.0]]) / math.sqrt(3.0)
        return LineArrangement(dim=D, lines=np.vstack([np.eye(3), diagonals]))
    return LineArrangement(dim=D, lines=_descend(m, D, iters, seed, restarts))


def _descend(m: int, D: int, iters: int, seed: int, restarts: int) -> np.ndarray:
    """pack_lines' search: the lines of the best start or result.

    The restarts descend together as one (restarts, m, D) stack, restart r
    from rng_stream(seed, r), each with the bits of a lone run, for all
    `iters` steps. The winner is the first of the most separated lines over
    each start and its result, restart by restart. Dividing by the gradient
    norm is safe for m > D: u_i . g_i = sum_j W_ij C_ij^2 for the gradient
    g without its factor 4, and the most coherent pair has W >= 1/(m (m - 1))
    and C^2 >= (m - D)/(D (m - 1)) (Welch), so |g| >= (m - D)/(D m (m - 1)^2).
    """
    U = np.array([rng_stream(seed, r).normal(size=(m, D)) for r in range(restarts)])
    U /= np.linalg.norm(U, axis=2)[:, :, None]
    starts = U.copy()
    beta = 4.0
    growth = (8192.0 / beta) ** (1.0 / iters)
    # One buffer per intermediate, reused by every step, and the views each
    # step reads them through: C and W one row per restart, the gradient and
    # its squared norm, the lines' squared row norms.
    C, W = np.empty((restarts, m * m)), np.empty((restarts, m * m))
    C3, W3, UT = C.reshape(restarts, m, m), W.reshape(restarts, m, m), U.transpose(0, 2, 1)
    grad, gg = np.empty_like(U), np.empty((restarts, 1, 1))
    g = grad.reshape(restarts, 1, m * D)
    gT = g.transpose(0, 2, 1)
    top, total, norms = np.empty(restarts), np.empty(restarts), np.empty((restarts, m))
    for it in range(iters):
        np.matmul(U, UT, out=C3)
        C[:, :: m + 1] = 0.0
        np.multiply(C, C, out=W)
        # The largest off-diagonal entry contributes exp(0) = 1, so no row of
        # W sums to 0.
        W -= np.maximum.reduce(W, axis=1, out=top)[:, None]
        W *= beta
        np.exp(W, out=W)
        W[:, :: m + 1] = 0.0
        W /= np.add.reduce(W, axis=1, out=total)[:, None]
        # The gradient 4 (W * C) U without its factor 4, which cancels in
        # grad / |grad| to the bit.
        W *= C
        np.matmul(W3, U, out=grad)
        np.sqrt(np.matmul(g, gT, out=gg), out=gg)  # np.linalg.norm's dot, per restart
        grad *= 0.2 * (1.0 - it / iters) + 0.001
        grad /= gg
        U -= grad
        np.add.reduce(np.multiply(U, U, out=grad), axis=2, out=norms)  # np.linalg.norm's arithmetic
        U /= np.sqrt(norms, out=norms)[:, :, None]
        beta *= growth
    best = None
    best_angle = -1.0
    for r in range(restarts):
        for lines in (starts[r], U[r]):  # the start, then its result
            ang = _min_line_angle(lines)
            if ang > best_angle:
                best, best_angle = lines, ang
    return best


def cover_lines(rho: float, D: int, seed: int = 0, probes: int = 100_000) -> LineArrangement:
    """Set of lines leaving every direction within rho/2 of one of them.

    Every cover returns with a certificate that every direction lies within
    rho/2 of a line (up to _COVER_TOL in the cosine); none is built from or
    checked on samples. `seed` and `probes` no longer change the cover: they
    are kept for callers and validated as before, so a bad seed and `probes`
    < 1 are refused in every D.

    In the plane the answer is the closed form: the equiangular family of the
    least k lines with cos(pi/(2k)) >= cos(rho/2) - _COVER_TOL. The
    directions midway between its neighbouring lines are its deepest holes,
    pi/(2k) from every line, so the family leaves every direction within
    rho/2 of a line, and the insertion caps do not apply.

    In D >= 3, when cos(rho/2) - _COVER_TOL <= 1/sqrt(D), the coordinate
    frame is returned. Every unit x has max_i |x_i| >= 1/sqrt(D), so the
    frame covers every direction, and fewer than D lines leave a direction
    orthogonal to all of them, so D lines is the minimum.

    Otherwise lines are added by deepest-hole insertion from the frame
    (`_hole_insertion`), and the hull of +-l_i is re-checked before returning
    (`_check_hull`). CoverageFailed names the line count and the radius
    reached when the insertions pass _MAX_ROUNDS or the hull passes
    _FACET_BUDGET, or the first check that fails. The round cap refuses rho
    below about 0.0408 in R^3 (after about 10 s) and 0.176 in R^4 (about
    40 s); the facet budget refuses rho below about 0.524 in R^5 (about
    12 s), 1.063 in R^6, 1.618 in R^7 and 1.984 in R^8 (under 2 s each), and
    every rho below the frame's threshold in R^14 and up.
    """
    if not 0.0 < rho < math.pi:
        raise OutOfRange(f"rho must lie in (0, pi), got {rho}")
    D = check_int(D, "dimension must be an integer >= 2, got {!r}", 2)
    check_int(probes, "probes must be an integer >= 1, got {!r}", 1)
    _check_seed(seed)
    cos_half = math.cos(0.5 * rho)
    if D == 2:
        k = math.ceil(0.5 * math.pi / math.acos(cos_half - _COVER_TOL))
        return LineArrangement(dim=D, lines=_equiangular(k))
    if cos_half - _COVER_TOL <= 1.0 / math.sqrt(D):
        return LineArrangement(dim=D, lines=np.eye(D))
    V, F = _hole_insertion(D, cos_half, _MAX_ROUNDS)
    _check_hull(V, F, cos_half)
    return LineArrangement(dim=D, lines=V[0::2])


def _hole_insertion(D: int, cos_half: float, rounds: int):
    """conv{+-l_i} grown by deepest-hole insertion (Gonzalez 1985), at most
    `rounds` insertions: (V, F).

    Caps of radius r about the points +-l_i cover the sphere exactly when
    every facet plane of their hull lies at least cos r from the origin, and
    the unit normal of the nearest facet is a direction farthest from every
    line (Brown 1979). So from the frame, whose cross-polytope has the 2^D
    facets of sign vectors, the normal of the first nearest facet becomes a
    line until every offset is at least cos_half - _COVER_TOL. Both of +-l
    join the hull in one `_hull_join` step, with slack _COVER_TOL: no facet
    sees both, nor a facet made with the other (whose plane holds that point
    at a positive offset). A hull of more than _FACET_BUDGET / D^2 facets,
    the frame's included, joins nothing: CoverageFailed names D, the lines,
    the facets and the radius reached.

    V holds line i as rows 2i and 2i + 1, +l_i then -l_i; F the facets as
    ascending vertex indices, a new vertex being the highest.
    """
    _within_budget(D, D, 2**D, 1.0 / math.sqrt(D), cos_half)
    V = np.empty((2 * (D + rounds), D))
    V[0:2 * D:2], V[1:2 * D:2] = np.eye(D), -np.eye(D)
    F = 2 * np.arange(D) + np.array(list(itertools.product((0, 1), repeat=D)))
    N, H = _facet_planes(V, F)
    n = 2 * D
    for _ in range(rounds):
        f = int(H.argmin())
        if H[f] >= cos_half - _COVER_TOL:
            break
        _within_budget(D, n // 2, len(F), H[f], cos_half)
        V[n], V[n + 1] = N[f], -N[f]
        F, N, H = _hull_join(V, F, N, H, n, n + 2, _COVER_TOL)
        n += 2
    return V[:n], F


def _within_budget(D: int, lines: int, facets: int, hole: float, cos_half: float):
    """Raise CoverageFailed when `facets` facets in R^D pass _FACET_BUDGET;
    `hole` is the cosine of the radius the `lines` lines reach."""
    if facets * D * D > _FACET_BUDGET:
        raise CoverageFailed(f"R^{D}: {lines} lines span {facets} facets, past the budget of "
                             f"{_FACET_BUDGET // (D * D)}, and leave a direction "
                             f"{math.acos(hole):.6g} from every line, above rho/2 = "
                             f"{math.acos(cos_half):.6g}")


def _check_hull(V: np.ndarray, F: np.ndarray, cos_half: float):
    """Raise CoverageFailed unless every offset of the facets F, solved afresh,
    is at least cos_half within _COVER_TOL and `_check_closed` holds. The
    offset test, also the insertion cap's, runs first: its message names the
    lines, the insertions and the deepest hole."""
    N, H = _facet_planes(V, F)
    if H.min() < cos_half - _COVER_TOL:
        lines, D = len(V) // 2, V.shape[1]
        raise CoverageFailed(f"{lines} lines after {lines - D} insertions leave a direction "
                             f"{math.acos(H.min()):.6g} from every line, above rho/2 = "
                             f"{math.acos(cos_half):.6g}")
    _check_closed(V, F, N, H, _COVER_TOL, "hull re-check", CoverageFailed)


def ef_doubling(L: LineArrangement, rho: float, slack: float = 0.05) -> PointSet:
    """Translate-and-double along each line: 2^m points with max angle <= pi - rho.

    Starts from the two points 0 and l_0. Line k appends a copy of the current
    set translated by t l_k, where t = diam / sin(s), diam is the current
    set's diameter (at least 1) and s = slack_eff = min(slack, 0.49 (min
    angle - rho)). Rows never change once appended, so rows i < j first
    differ at the highest bit k of i ^ j, the pair's level, and p_j - p_i is
    t l_k plus a difference of the set before line k, within s of +l_k.
    Those pair directions certify the angle at every y between x and z:
    - If (y, x) and (y, z) have different levels a and b, the directions
      from y lie within s of +-l_a and +-l_b, whose angle lies in [min angle,
      pi - min angle]. The angle at y is at most pi - min angle + 2 s, below
      pi - rho because s <= 0.49 (min angle - rho).
    - If both have level k, x and z both differ from y at bit k, so both
      directions lie within s of the same one of +-l_k. The angle at y is at
      most 2 s <= 0.49 pi, below pi - rho because rho < min angle <= pi/2.
      Since slack_eff is capped, no user slack can break this case.
    So the certificate is the pair check (`_pairs_certify`), run on the
    coordinates returned: each pair's cosine against its level's line is at
    least cos(s) - _PAIR_COS_SLACK, in row blocks, O(n^2 D) in time with
    memory that does not grow with n^2. It counts only while that slack,
    plus the rounding of a computed cosine, keeps the bound of the first
    case below pi - rho. Otherwise, or where a pair fails, the exact scan
    `max_angle_triple` decides: a set it puts above pi - rho raises
    ScaleExhausted naming the line that made its widest triple, the angle
    and pi - rho.

    A scale t above 1e15 is refused (ScaleExhausted) before it is used; no
    other scale is tried.
    """
    if not slack > 0.0:
        raise OutOfRange(f"slack must be positive, got {slack}")
    if not 0.0 < rho < math.pi:
        raise OutOfRange(f"rho must lie in (0, pi), got {rho}")
    if rho >= L.min_pairwise_angle:
        raise OutOfRange(
            f"rho={rho:.6g} must be strictly below the arrangement's "
            f"min pairwise angle {L.min_pairwise_angle:.6g}"
        )
    target = math.pi - rho
    slack_eff = min(slack, 0.49 * (L.min_pairwise_angle - rho))
    lines = L.lines
    pts = np.vstack([np.zeros(L.dim), lines[0]])
    for k in range(1, len(L)):
        diam_sq = max(float(np.max(np.sum((pts[lo:hi, None, :] - pts[None, :, :]) ** 2, axis=2)))
                      for lo, hi in _row_blocks(len(pts), len(pts) * L.dim))
        t = math.sqrt(max(diam_sq, 1.0)) / math.sin(slack_eff)
        # The set's smallest distance is the unit segment on the first line;
        # past this scale, rounding of the translated copy eats it.
        if t > 1e15:
            raise ScaleExhausted(
                f"line {k}: translation scale exceeded float geometry before certifying")
        pts = np.vstack([pts, pts + t * lines[k]])
    if not _pairs_certify(pts, L, rho, slack_eff):
        ang, (x, y, z) = max_angle_triple(pts)
        if ang > target:
            raise ScaleExhausted(
                f"line {max(x ^ y, z ^ y).bit_length() - 1}: the doubled set has an angle "
                f"{ang:.6g} above pi - rho = {target:.6g}")
    return PointSet(pts)


def _pairs_certify(P: np.ndarray, L: LineArrangement, rho: float, s: float) -> bool:
    """Whether ef_doubling's pair argument at slack s puts every angle of the
    doubled rows P below pi - rho.

    It does when (p_j - p_i) . l_k > (cos s - _PAIR_COS_SLACK) |p_j - p_i| for
    every pair of rows i < j, k its level (a zero difference fails), and
    twice the angle that cosine allows, widened by rounding, stays below min
    angle - rho. The pairs of level k join the two halves of each aligned
    run of 2^(k+1) rows, lower to upper; each level is checked a block of
    lower rows at a time.
    """
    cos_min = math.cos(s) - _PAIR_COS_SLACK
    # Rounding of the difference, its dot with l_k, its norm, |l_k| and the
    # product moves each computed cosine by less than 4 (D + 2) ulps in all.
    widest = math.acos(max(-1.0, cos_min - 4 * (L.dim + 2) * 2.0**-53))
    if not 2.0 * widest < L.min_pairwise_angle - rho:
        return False
    n, D = P.shape
    for k in range(n.bit_length() - 1):
        half = 1 << k
        Q = P.reshape(-1, 2, half, D)
        for lo, hi in _row_blocks(half, len(Q) * half * D):
            d = Q[:, 1, None, :, :] - Q[:, 0, lo:hi, None, :]
            if not np.all(d @ L.lines[k] > cos_min * np.sqrt(np.add.reduce(d * d, axis=3))):
                return False
    return True


def _odd_cycle(adj: np.ndarray) -> list[int] | None:
    """An odd cycle of the graph with boolean adjacency matrix adj, or None if
    it is bipartite.

    BFS layers grow from each unreached root in index order; a vertex's parent
    is its lowest-index neighbour in the previous layer. The first edge (u, v)
    in row-major order whose ends have equal depth parity lies within one layer
    of one tree, and the tree paths to the ends' common ancestor close it into
    an odd cycle, from u through the ancestor to v.
    """
    n = adj.shape[0]
    depth = np.full(n, -1)
    parent = np.full(n, -1)
    for root in range(n):
        if depth[root] >= 0:
            continue
        depth[root] = 0
        front = np.array([root])
        while front.size:
            new = np.flatnonzero(adj[front].any(axis=0) & (depth < 0))
            depth[new] = depth[front[0]] + 1
            parent[new] = front[adj[np.ix_(new, front)].argmax(axis=1)]
            front = new
    odd = depth % 2
    same = adj & (odd[:, None] == odd[None, :])
    if not same.any():
        return None
    u, v = divmod(int(same.argmax()), n)
    up_u, up_v = [u], [v]
    while up_u[-1] != up_v[-1]:
        up_u.append(int(parent[up_u[-1]]))
        up_v.append(int(parent[up_v[-1]]))
    return up_u + up_v[-2::-1]


def _mono_odd_cycle(K: np.ndarray, m: int) -> tuple[int, list[int]]:
    """The first color c < m whose class in the color matrix K is not
    bipartite, and that class's odd cycle, re-checked against K."""
    for c in range(m):
        cycle = _odd_cycle(K == c)
        if cycle is None:
            continue
        if len(cycle) < 3 or len(cycle) % 2 == 0:
            raise RuntimeError(f"extracted cycle has even or trivial length {len(cycle)}")
        if np.any(K[cycle, np.roll(cycle, -1)] != c):
            raise RuntimeError("extracted cycle is not monochromatic")
        return c, cycle
    raise RuntimeError("every color class is bipartite despite n > 2^m; coloring inconsistent")


def find_mono_odd_cycle(C: EdgeColoring) -> tuple[int, list[int]]:
    """Monochromatic odd cycle in an m-coloring of K_n with n >= 2^m + 1.

    Color classes are searched in order, and the first that is not bipartite
    gives its odd cycle (see _odd_cycle). One always exists: were every class
    bipartite, two distinct vertices would lie on different sides of the
    class of the edge joining them, so the n vectors of side labels in
    {0, 1}^m would all differ and n <= 2^m. The returned cycle is re-verified
    to be odd and monochromatic.
    """
    if C.n <= 2 ** C.m:
        raise HypothesisViolated(f"need n > 2^m, got n={C.n}, m={C.m}")
    return _mono_odd_cycle(C._matrix, C.m)


def _pair_colors(A: PointSet, L: LineArrangement, rho: float) -> tuple[np.ndarray, ...]:
    """The pairs i < j of A in row-major order, as index arrays, and the
    least-index line within rho/2 of each pair's direction, from one product
    of the pairs' unit directions with the lines."""
    i, j = np.triu_indices(len(A), 1)
    d = A.points[j] - A.points[i]
    hits = np.abs((d / np.linalg.norm(d, axis=1)[:, None]) @ L.lines.T) >= math.cos(0.5 * rho)
    covered = hits.any(axis=1)
    if not covered.all():
        k = int(np.argmin(covered))
        raise ColoringFailed(f"segment ({i[k]}, {j[k]}) is not within {0.5 * rho:.6g} of any line")
    return i, j, np.argmax(hits, axis=1)


def obtuse_triple_witness(A: PointSet, L: LineArrangement, rho: float) -> ObtuseWitness:
    """A triple of A forming an angle >= pi - rho, when |A| >= 2^m + 1.

    Edges are colored by covering line, straight into a color matrix; a
    monochromatic odd cycle must carry two consecutive edges projecting onto
    its line with the same sign, and their shared vertex sees its neighbors at
    angle >= pi - rho.
    """
    from .convexity import ObtuseWitness  # only here: cover-lines need not load convexity

    if not 0.0 < rho < math.pi:
        raise OutOfRange(f"rho must lie in (0, pi), got {rho}")
    if len(A) < 2 ** len(L) + 1:
        raise HypothesisViolated(
            f"need at least 2^{len(L)} + 1 = {2 ** len(L) + 1} points, got {len(A)}"
        )
    i, j, colors = _pair_colors(A, L, rho)
    K = np.full((len(A), len(A)), -1)
    K[i, j] = K[j, i] = colors
    c, cycle = _mono_odd_cycle(K, len(L))
    P = A.points[cycle]
    up = (np.roll(P, -1, axis=0) - P) @ L.lines[c] > 0  # edge t runs cycle[t] -> cycle[t + 1]
    pivot = int(np.argmax(up == np.roll(up, -1)))
    x, y, z = np.roll(P, -pivot, axis=0)[:3]
    ang = angle_at(x, y, z)
    if ang < math.pi - rho - 1e-9:
        raise RuntimeError("witness angle fell below pi - rho; coloring inconsistent")
    return ObtuseWitness(vi=x, v=y, vj=z, angle=ang)


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
    d = check_int(d, "d must be an integer >= 2, got {!r}", 2)
    if not (c_d > 0.0 and C_d > 0.0):
        raise OutOfRange(f"constants must be positive, got c_d={c_d}, C_d={C_d}")
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
        theta=float(theta), d=d, c_d=float(c_d), C_d=float(C_d),
        lower=lower, upper=upper, overflow=overflow,
        lower_valid_above_n=valid_above,
    )


def calibrate_constants(d: int, rho: float, seed: int = 0) -> tuple[float, float]:
    """Empirical (c_d, C_d) from packing and covering runs in R^d at scale rho.

    A packing of m = _CALIBRATION_PACK lines achieving separation a gives
    c_d = a * m^(1/(d-1)); a covering at rho with m lines gives
    C_d = rho * (m + 1)^(1/(d-1)). These are instance-derived values, not
    proven constants. The packing is pack_lines' proven optimum in closed
    form for d = 2, 3, 5 and d >= 6, so there c_d does not depend on `seed`;
    only d = 4 runs the seeded search. The covering is cover_lines', exact in
    every d, so C_d comes from a set that truly covers and does not depend
    on `seed`.
    Where cover_lines refuses rho, below about 0.0408 in R^3, 0.176 in R^4,
    0.524 in R^5, 1.063 in R^6, 1.618 in R^7 and 1.984 in R^8, this raises
    its CoverageFailed.
    """
    packed = pack_lines(_CALIBRATION_PACK, d, seed=seed)
    c_d = packed.min_pairwise_angle * _CALIBRATION_PACK ** (1.0 / (d - 1))
    covered = cover_lines(rho, d, seed=seed)
    C_d = rho * (len(covered) + 1) ** (1.0 / (d - 1))
    return c_d, C_d
