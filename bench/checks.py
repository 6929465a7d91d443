"""Output checks that a correct program always passes.

Every check recomputes what it verifies from the inputs with plain numpy
and raises CheckFailed on a mismatch. None of them calls the library, so a
fault in a shared kernel cannot hide itself.
"""

from __future__ import annotations

import math

import numpy as np

# Angles are compared through their cosines: two computations of one cosine
# agree to a few ulps, while arccos magnifies that near 0 and pi.
COS_TOL = 1e-12
# Slack for an angle against a bound it must respect.
ANGLE_TOL = 1e-12
# Slack for cone membership, relative to the apex distance (the library's
# own fit tolerance is 1e-9).
CONE_TOL = 1e-8
# A probe-certified covering can leave holes between probes; random
# directions must be within this much of the covering radius.
COVER_SLACK = 0.1


class CheckFailed(Exception):
    """An output does not satisfy its certificate."""


def require(cond, message: str):
    if not cond:
        raise CheckFailed(message)


def cos_at(x, y, z) -> float:
    """Cosine of the angle at y between rays toward x and z."""
    u = np.asarray(x, float) - np.asarray(y, float)
    v = np.asarray(z, float) - np.asarray(y, float)
    return float(u @ v) / math.sqrt(float(u @ u) * float(v @ v))


def same_angle(theta: float, c: float) -> bool:
    return abs(math.cos(theta) - c) <= COS_TOL


def min_cos(pts) -> float:
    """Cosine of the largest angle over all triples, one Gram matrix per vertex."""
    pts = np.asarray(pts, float)
    best = 1.0
    for j in range(len(pts)):
        rays = np.delete(pts, j, axis=0) - pts[j]
        rays /= np.linalg.norm(rays, axis=1)[:, None]
        gram = rays @ rays.T
        np.fill_diagonal(gram, 1.0)
        best = min(best, float(gram.min()))
    return best


def brute_max_angle(pts) -> float:
    return math.acos(max(-1.0, min_cos(pts)))


def row_index(rows, x) -> int:
    """Index of the row equal to x, or -1."""
    hits = np.flatnonzero(np.all(np.asarray(rows) == np.asarray(x), axis=1))
    return int(hits[0]) if hits.size else -1


def f_fraction(d: int, eta: float) -> float:
    """Closed form f_d(eta) = I_{cos^2 eta}(d/2, 1/2) / 2."""
    from scipy.special import betainc

    return 0.5 * float(betainc(0.5 * d, 0.5, math.cos(eta) ** 2))


def eta_of_theta(theta: float, d: int) -> float:
    return math.asin(min(1.0, math.sin(0.5 * theta) / math.sqrt((d + 1.0) / (2.0 * d))))


def theta_d(d: int) -> float:
    return math.acos(-1.0 / d)


# ------------------------------------------------------------------ geometry

def max_angle_triple(pts, theta: float, triple):
    """theta is the angle at the returned triple and the maximum over all triples."""
    pts = np.asarray(pts, float)
    i, j, k = triple
    require(len({i, j, k}) == 3 and all(0 <= t < len(pts) for t in triple),
            f"invalid triple {triple}")
    require(same_angle(theta, cos_at(pts[i], pts[j], pts[k])),
            f"angle at triple {triple} is not the reported {theta!r}")
    require(same_angle(theta, min_cos(pts)),
            f"reported max angle {theta!r} is not the maximum over all triples")


def rescan(pts, theta: float, scalar_max: float):
    """A scalar re-scan of all triples finds the same maximum."""
    require(same_angle(scalar_max, min_cos(pts)),
            f"scalar re-scan max {scalar_max!r} is not the max angle {theta!r}")


# ---------------------------------------------------------------- convexity

def in_simplex(p, V) -> bool:
    """p lies in conv(V) for affinely independent rows V (boundary counts)."""
    V = np.asarray(V, float)
    A = np.vstack([V.T, np.ones(len(V))])
    b = np.append(np.asarray(p, float), 1.0)
    coords, *_ = np.linalg.lstsq(A, b, rcond=None)
    scale = max(1.0, float(np.abs(V).max()))
    return bool(np.linalg.norm(A @ coords - b) <= 1e-9 * scale and coords.min() >= -1e-9)


def negative_verdict(pts, verdict, interior: int):
    """The verdict names the planted interior point and a simplex of the others holding it."""
    pts = np.asarray(pts, float)
    require(not verdict.in_convex_position, "set with an interior point reported convex")
    require(np.array_equal(verdict.witness_point, pts[interior]),
            "witness point is not the interior point")
    simplex = np.asarray(verdict.witness_simplex, float)
    require(1 <= len(simplex) - 1 <= pts.shape[1], f"simplex has {len(simplex)} vertices")
    for v in simplex:
        idx = row_index(pts, v)
        require(idx >= 0 and idx != interior, "simplex vertex is not another point of the set")
    require(in_simplex(pts[interior], simplex), "witness point is outside its simplex")


def obtuse(witness, p, simplex):
    """Angle at p between two simplex vertices, at least arccos(-1/k)."""
    simplex = np.asarray(simplex, float)
    k = len(simplex) - 1
    require(np.array_equal(witness.v, p), "obtuse witness apex is not the witness point")
    require(row_index(simplex, witness.vi) >= 0 and row_index(simplex, witness.vj) >= 0,
            "obtuse witness rays do not end at simplex vertices")
    require(same_angle(witness.angle, cos_at(witness.vi, witness.v, witness.vj)),
            "obtuse witness angle does not match its triple")
    require(witness.angle >= math.acos(-1.0 / k) - ANGLE_TOL,
            f"obtuse angle {witness.angle!r} below arccos(-1/{k})")


# ---------------------------------------------------------------- curvature

def fractions(est, n: int, samples: int):
    """Shared-sample fractions: one per vertex, nonnegative, summing to exactly 1.0."""
    fr = np.asarray(est.fractions, float)
    require(fr.shape == (n,), f"{fr.shape} fractions for {n} vertices")
    require(est.samples == samples, "sample count changed")
    require(bool(np.all(fr >= 0.0)), "negative fraction")
    require(math.fsum(fr) == 1.0, f"fractions sum to {math.fsum(fr)!r}, not exactly 1.0")


def cones(pts, cone_list, eta: float):
    """One cone per vertex, apex at the vertex, containing every vertex."""
    pts = np.asarray(pts, float)
    require(len(cone_list) == len(pts), f"{len(cone_list)} cones for {len(pts)} vertices")
    cos_eta = math.cos(eta)
    for i, cone in enumerate(cone_list):
        require(np.array_equal(cone.apex, pts[i]), f"cone {i} apex is not vertex {i}")
        require(cone.half_angle == eta, f"cone {i} half-angle {cone.half_angle!r} != {eta!r}")
        require(abs(np.linalg.norm(cone.axis) - 1.0) <= 1e-9, f"cone {i} axis is not unit")
        v = pts - cone.apex
        r = np.linalg.norm(v, axis=1)
        require(bool(np.all(v @ cone.axis >= r * (cos_eta - CONE_TOL))),
                f"cone {i} misses a vertex")


def cap_too_small(err, n: int, eta: float, guaranteed: bool):
    """A refused cover is consistent, and only happens where no theorem promises a cover."""
    require(not guaranteed, "cover refused although eta_d(theta) guarantees one")
    require(0 <= err.vertex_index < n, f"vertex index {err.vertex_index} out of range")
    require(err.allowed == eta, "refusal reports another eta")
    require(err.required_radius > err.allowed, "refusal needs no larger radius")


# ------------------------------------------------------------------- bounds

def theorem(n: int, D: int, theta: float, report):
    """|A| <= 1/f_d(eta_d(theta)) with the closed-form f_d."""
    require(report.theorem_applicable, f"theta {theta!r} < theta_D but theorem not applicable")
    expected = 1.0 / f_fraction(D - 1, eta_of_theta(theta, D - 1))
    require(abs(report.bound - expected) <= 1e-8 * expected,
            f"bound {report.bound!r} differs from closed form {expected!r}")
    require(n <= report.bound + 1e-9, f"{n} points exceed the bound {report.bound!r}")


# ------------------------------------------------------------ constructions

def lines(arr, m: int, D: int):
    """m unit lines in R^D whose reported min pairwise angle is the true one."""
    U = np.asarray(arr.lines, float)
    require(U.shape == (m, D), f"lines have shape {U.shape}, expected {(m, D)}")
    require(bool(np.all(np.abs(np.linalg.norm(U, axis=1) - 1.0) <= 1e-9)), "lines are not unit")
    if m >= 2:
        gram = np.abs(U @ U.T)
        np.fill_diagonal(gram, 0.0)
        c = float(gram.max())
        require(same_angle(arr.min_pairwise_angle, c),
                "reported min pairwise angle is not the true one")
        require(c < 1.0, "two lines coincide")


def doubling(pts, m: int, rho: float, theta: float, triple):
    """2^m points whose max angle, found at the returned triple, stays under pi - rho."""
    pts = np.asarray(pts, float)
    require(len(pts) == 2 ** m, f"{len(pts)} points, expected 2^{m}")
    max_angle_triple(pts, theta, triple)
    require(theta <= math.pi - rho + ANGLE_TOL, f"max angle {theta!r} not below pi - rho")


def covering(arr, rho: float, D: int, rng: np.random.Generator):
    """Random directions lie within rho/2 (plus the probe-gap slack) of some line."""
    U = np.asarray(arr.lines, float)
    require(U.ndim == 2 and U.shape[1] == D and len(U) >= 1, "covering has no lines")
    require(bool(np.all(np.abs(np.linalg.norm(U, axis=1) - 1.0) <= 1e-9)), "lines are not unit")
    if D == 2:
        require(len(U) * rho >= math.pi * (1.0 - 1e-3), f"{len(U)} lines cannot cover at {rho!r}")
    x = rng.normal(size=(2000, D))
    x /= np.linalg.norm(x, axis=1)[:, None]
    worst = math.acos(min(1.0, float(np.max(np.abs(x @ U.T), axis=1).min())))
    require(worst <= 0.5 * rho + COVER_SLACK, f"direction {worst!r} rad from every line")


def triple_witness(pts, wit, rho: float):
    """Three points of the set with an angle of at least pi - rho."""
    pts = np.asarray(pts, float)
    for x in (wit.vi, wit.v, wit.vj):
        require(row_index(pts, x) >= 0, "witness point is not in the set")
    require(same_angle(wit.angle, cos_at(wit.vi, wit.v, wit.vj)),
            "witness angle does not match its triple")
    require(wit.angle >= math.pi - rho - 1e-9, f"witness angle {wit.angle!r} below pi - rho")


# ------------------------------------------------------------------- search

def search_alpha(res, n: int, D: int):
    pts = np.asarray(res.points.points, float)
    require(pts.shape == (n, D), f"search returned shape {pts.shape}, expected {(n, D)}")
    require(same_angle(res.achieved_angle, min_cos(pts)),
            "achieved angle is not the max angle of the returned points")


def search_max(res, theta: float, D: int):
    pts = np.asarray(res.points.points, float)
    require(pts.ndim == 2 and pts.shape[1] == D and len(pts) >= 2, "search returned no set")
    c = min_cos(pts)
    require(c >= math.cos(theta) - COS_TOL, f"set breaks its cap {theta!r}")
    require(same_angle(res.achieved_angle, c), "reported angle is not the true one")
