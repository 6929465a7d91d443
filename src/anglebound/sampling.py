"""Seeded, reproducible sampling on spheres, in numpy alone.

Covering probes are the R_d Kronecker sequence (Roberts, "The unreasonable
effectiveness of quasirandom sequences", 2018), frac(s + i alpha) in an even
number k of coordinates, with alpha_j = phi^-(j+1) for phi the positive root
of x^(k+1) = x + 1 and one Cranley-Patterson shift s drawn from
SeedSequence(seed). Box-Muller (1958) maps coordinate pairs to normals; the
rows are normalized (`rd_directions`, which builds them coordinate-major and
takes the norms of the C-contiguous rows) and given their canonical line
sign by `canonical_lines`. Unshifted, `rd_directions` gives the fixed
directions of the convex-position screen, which so needs no generator and
no numpy.random.

Every seeded entry point rejects a negative, non-integer or non-finite seed
with OutOfRange naming it.
"""

from __future__ import annotations

import numpy as np

from .errors import OutOfRange, check_int


def _check_seed(seed) -> int:
    return check_int(seed, "seed must be a non-negative integer, got {!r}", 0)


def canonical_lines(V: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Fix the sign of antipodally-identified unit vectors, one per row of V.

    Each row's representative has its first coordinate of magnitude > tol
    positive; a row with no such coordinate is left as it is.
    """
    V = np.asarray(V, dtype=float)
    lead = np.where(np.abs(V[:, -1]) > tol, V[:, -1], 0.0)
    for j in range(V.shape[1] - 2, -1, -1):  # columns right to left: the first big one wins
        lead = np.where(np.abs(V[:, j]) > tol, V[:, j], lead)
    return np.where(lead < 0.0, -1.0, 1.0)[:, None] * V


def _rd_alpha(k: int) -> np.ndarray:
    """R_d steps phi^-(j+1), j < k, for phi the positive root of x^(k+1) = x + 1."""
    phi = 2.0
    for _ in range(64):  # a contraction by at most 0.2 per step
        phi = (1.0 + phi) ** (1.0 / (k + 1))
    return phi ** -np.arange(1.0, k + 1.0)


def rd_directions(dim: int, n: int, shift=0.0) -> np.ndarray:
    """Rows 0..n-1 of the R_d sequence frac(shift + i alpha) as unit vectors in R^dim.

    Box-Muller maps the 2 ceil(dim/2) coordinates pairwise to normals, which
    are cut to dim and normalized; a row of norm below 1e-12 stays as it is
    (with no shift, row 0 is the zero vector). The coordinates and normals
    are built coordinate-major, as (k, n) arrays of long rows, then copied to
    C-contiguous (n, dim) rows, whose norms are those of the row-major
    formula bit for bit.
    """
    k = dim + dim % 2
    u = _rd_alpha(k)[:, None] * np.arange(n, dtype=float)
    u += np.reshape(shift, (-1, 1))
    u -= np.floor(u)  # frac(u), exact for u >= 0 and cheaper than % 1.0
    r = np.sqrt(-2.0 * np.log1p(-u[0::2]))  # 1 - u lies in (0, 1]
    t = 2.0 * np.pi * u[1::2]
    z = np.empty((k, n))
    np.multiply(r, np.cos(t), out=z[0::2])
    np.multiply(r, np.sin(t), out=z[1::2])
    rows = np.ascontiguousarray(z[:dim].T)
    norms = np.linalg.norm(rows, axis=1)
    norms[norms < 1e-12] = 1.0
    rows /= norms[:, None]
    return rows


def quasi_uniform_lines(dim: int, n: int, seed: int) -> np.ndarray:
    """Low-discrepancy set of n lines (canonicalized unit vectors) on S^{dim-1}.

    `rd_directions` under one Cranley-Patterson shift drawn from
    SeedSequence(seed), canonicalized by `canonical_lines`; suitable as a
    dense probe set for covering checks. C-contiguous (n, dim) rows.
    """
    seed = _check_seed(seed)
    dim = check_int(dim, "dimension must be an integer, got {!r}")
    n = check_int(n, "number of lines must be an integer, got {!r}")
    if dim < 2 or n < 1:
        raise OutOfRange(f"need dim >= 2 and n >= 1 lines, got dim={dim}, n={n}")
    shift = np.random.default_rng(np.random.SeedSequence(seed)).random(dim + dim % 2)
    return canonical_lines(rd_directions(dim, n, shift))


def rng_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """Deterministic generator for (seed, stream); independent across streams."""
    seq = np.random.SeedSequence(entropy=_check_seed(seed), spawn_key=(stream,))
    return np.random.Generator(np.random.Philox(seq))
