"""Seeded, reproducible sampling on spheres, in numpy alone.

Fixed directions are the R_d Kronecker sequence (Roberts, "The unreasonable
effectiveness of quasirandom sequences", 2018), frac(i alpha) in an even
number k of coordinates, with alpha_j = phi^-(j+1) for phi the positive root
of x^(k+1) = x + 1. Box-Muller (1958) maps each row's coordinate pairs to
normals, and the row is normalized (`rd_directions`). They are the Monte
Carlo base directions and those of the convex-position screen, which so
need no generator; both read prefixes of one read-only array per dimension
(`fixed_directions`). `canonical_lines` gives lines their canonical sign.
Seeded streams (`rng_stream`) are numpy Generators, loaded only where one
is drawn.

Every seeded entry point rejects a negative, non-integer or non-finite seed
with OutOfRange naming it.
"""

from __future__ import annotations

import numpy as np

from .errors import check_int


def _check_seed(seed) -> int:
    return check_int(seed, "seed must be a non-negative integer, got {!r}", 0)


# A coordinate of at most this magnitude does not decide a line's sign.
_SIGN_TOL = 1e-12


def canonical_lines(V: np.ndarray) -> np.ndarray:
    """Fix the sign of antipodally-identified unit vectors, one per row of V.

    Each row's representative has its first coordinate of magnitude above
    _SIGN_TOL positive; a row with no such coordinate is left as it is.
    """
    V = np.asarray(V, dtype=float)
    lead = np.where(np.abs(V[:, -1]) > _SIGN_TOL, V[:, -1], 0.0)
    for j in range(V.shape[1] - 2, -1, -1):  # columns right to left: the first big one wins
        lead = np.where(np.abs(V[:, j]) > _SIGN_TOL, V[:, j], lead)
    return np.where(lead < 0.0, -1.0, 1.0)[:, None] * V


def _rd_alpha(k: int) -> np.ndarray:
    """R_d steps phi^-(j+1), j < k, for phi the positive root of x^(k+1) = x + 1."""
    phi = 2.0
    for _ in range(64):  # a contraction by at most 0.2 per step
        phi = (1.0 + phi) ** (1.0 / (k + 1))
    return phi ** -np.arange(1.0, k + 1.0)


def rd_directions(dim: int, n: int) -> np.ndarray:
    """Rows 0..n-1 of the R_d sequence frac(i alpha) as unit vectors in R^dim.

    Box-Muller maps each row's 2 ceil(dim/2) coordinates pairwise to
    normals, which are cut to dim and divided by the row's np.linalg.norm; a
    row of norm below 1e-12 stays as it is (row 0 is the zero vector). Row i
    depends on i alone, so a shorter build is a prefix of a longer one.
    """
    k = dim + dim % 2
    u = np.modf(np.arange(n, dtype=float)[:, None] * _rd_alpha(k))[0]  # % 1.0's bits, faster
    r = np.sqrt(-2.0 * np.log1p(-u[:, 0::2]))  # 1 - u lies in (0, 1]
    t = 2.0 * np.pi * u[:, 1::2]
    z = np.stack([r * np.cos(t), r * np.sin(t)], axis=2).reshape(n, k)[:, :dim]
    norms = np.linalg.norm(z, axis=1)
    norms[norms < 1e-12] = 1.0
    return z / norms[:, None]


_FIXED: dict[int, np.ndarray] = {}  # per dimension, rows 1.. of rd_directions, read-only


def fixed_directions(dim: int, count: int) -> np.ndarray:
    """Rows 1..count of rd_directions(dim, count + 1) (row 0 is the zero
    vector), a read-only prefix of the one array cached for dim, which is
    rebuilt longer when asked for more rows than it holds."""
    U = _FIXED.get(dim)
    if U is None or len(U) < count:
        U = rd_directions(dim, count + 1)[1:]
        U.setflags(write=False)
        _FIXED[dim] = U
    return U[:count]


def rng_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """Deterministic generator for (seed, stream); independent across streams."""
    seq = np.random.SeedSequence(entropy=_check_seed(seed), spawn_key=(stream,))
    return np.random.Generator(np.random.Philox(seq))
