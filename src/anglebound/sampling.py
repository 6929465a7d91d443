"""Seeded, reproducible sampling on spheres, in numpy alone.

Fixed directions are the R_d Kronecker sequence (Roberts, "The unreasonable
effectiveness of quasirandom sequences", 2018), frac(i alpha) in an even
number k of coordinates, with alpha_j = phi^-(j+1) for phi the positive root
of x^(k+1) = x + 1. Box-Muller (1958) maps coordinate pairs to normals; the
rows are normalized (`rd_directions`, which builds them coordinate-major, in
place, and takes the norms of the C-contiguous rows). They are the Monte
Carlo base directions and those of the convex-position screen, which so
need no generator. `canonical_lines` gives lines their canonical sign.
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


def _box_muller(k: int, n: int) -> np.ndarray:
    """The (k, n) normals of rows 0..n-1 of frac(i alpha), coordinate-major,
    computed in the array of the coordinates: each even row becomes the radius
    r, each odd row the angle t, then r cos t and r sin t."""
    z = _rd_alpha(k)[:, None] * np.arange(n, dtype=float)
    for row in z:  # frac(u), exact for u >= 0 and cheaper than % 1.0; one row of temporaries
        row -= np.floor(row)
    r, t = z[0::2], z[1::2]
    np.negative(r, out=r)
    np.log1p(r, out=r)  # 1 - u lies in (0, 1]
    r *= -2.0
    np.sqrt(r, out=r)
    t *= 2.0 * np.pi
    sin = np.sin(t)
    sin *= r
    np.cos(t, out=t)
    r *= t
    t[...] = sin
    return z


def rd_directions(dim: int, n: int) -> np.ndarray:
    """Rows 0..n-1 of the R_d sequence frac(i alpha) as unit vectors in R^dim.

    Box-Muller maps the 2 ceil(dim/2) coordinates pairwise to normals, which
    are cut to dim and normalized; a row of norm below 1e-12 stays as it is
    (row 0 is the zero vector). The normals are built coordinate-major, as
    one (k, n) array of long rows (`_box_muller`), which is freed once copied
    to C-contiguous (n, dim) rows. The rows' norms are np.linalg.norm's
    arithmetic for real rows, without its conjugate copy, so they are those
    of the row-major formula bit for bit.
    """
    rows = np.ascontiguousarray(_box_muller(dim + dim % 2, n)[:dim].T)
    norms = np.sqrt(np.add.reduce(rows * rows, axis=1))
    norms[norms < 1e-12] = 1.0
    rows /= norms[:, None]
    return rows


def rng_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """Deterministic generator for (seed, stream); independent across streams."""
    seq = np.random.SeedSequence(entropy=_check_seed(seed), spawn_key=(stream,))
    return np.random.Generator(np.random.Philox(seq))
