"""Seeded, reproducible sampling on spheres, in numpy alone.

Monte Carlo directions are standard normal rows from numpy's ziggurat. Rows
come in fixed chunks of CHUNK = 2^18; chunk c is drawn from a generator
seeded with SeedSequence(seed, spawn_key=(c,)), so row i is a pure function
of (seed, i): one call, or several with `start` offsets, give bit-identical
rows. `direction_blocks` is the one sampling path: it draws each chunk in
successive cache-sized row blocks (split standard_normal draws continue one
stream, so the blocks are the rows of one whole-chunk draw), and the Monte
Carlo sweeps reduce each block as it comes, so their memory does not grow
with the sample count. The rows are left raw: a standard normal row's
direction is uniform on the sphere, and the sweeps read only an argmax, an
argmin or a sign of each row's products, none of which depends on its
length. `unit_directions` is the one place that normalizes them.

Covering probes are the R_d Kronecker sequence (Roberts, "The unreasonable
effectiveness of quasirandom sequences", 2018), frac(s + i alpha) in an even
number k of coordinates, with alpha_j = phi^-(j+1) for phi the positive root
of x^(k+1) = x + 1 and one Cranley-Patterson shift s drawn from
SeedSequence(seed). Box-Muller (1958) maps coordinate pairs to normals; the
rows are normalized (`rd_directions`, which works coordinate-major and keeps
np.linalg.norm's order of addition, see `_square_sum`) and given their
canonical line sign by `canonical_lines`. Unshifted, `rd_directions` gives the
fixed directions of the convex-position screen, which so needs no generator
and no numpy.random.

Every seeded entry point rejects a negative or non-integer seed with
OutOfRange naming it.
"""

from __future__ import annotations

import numpy as np

from .errors import OutOfRange
from .geometry import _row_blocks

CHUNK = 1 << 18


def _check_seed(seed) -> int:
    if int(seed) != seed or seed < 0:
        raise OutOfRange(f"seed must be a non-negative integer, got {seed!r}")
    return int(seed)


def direction_blocks(dim: int, n: int, seed: int, width: int, start: int = 0):
    """Yield the raw normal rows start, ..., start + n - 1 as row blocks, in order.

    A block never straddles a chunk, and it holds at most _BLOCK_ENTRIES //
    max(dim, width) rows (see geometry._row_blocks), so it and its product with
    a (width, dim) matrix both fit the block budget. The rows equal those of
    one whole-chunk draw bit for bit.
    """
    seed = _check_seed(seed)
    if dim < 1 or n < 0 or start < 0:
        raise OutOfRange(f"need dim >= 1, n >= 0 and start >= 0, got dim={dim}, n={n}, "
                         f"start={start}")
    width = max(dim, width)
    stop = start + n
    for c in range(start // CHUNK, -(-stop // CHUNK)):
        lo, hi = max(c * CHUNK, start), min((c + 1) * CHUNK, stop)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(c,)))
        for a, b in _row_blocks(lo - c * CHUNK, width):  # the chunk's rows before `start`
            rng.standard_normal((b - a, dim))
        for a, b in _row_blocks(hi - lo, width):
            yield rng.standard_normal((b - a, dim))


def unit_directions(dim: int, n: int, seed: int, start: int = 0) -> np.ndarray:
    """n uniform unit vectors on S^{dim-1}: direction_blocks' rows, normalized.

    A row of norm below 1e-12 becomes e_1.
    """
    blocks = list(direction_blocks(dim, n, seed, dim, start))
    z = np.concatenate(blocks) if blocks else np.empty((0, dim))
    norms = np.linalg.norm(z, axis=1)
    degenerate = norms < 1e-12
    if np.any(degenerate):
        z[degenerate] = 0.0
        z[degenerate, 0] = 1.0
        norms[degenerate] = 1.0
    return z / norms[:, None]


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


def _square_sum(sq: np.ndarray) -> np.ndarray:
    """Column sums of the (d, n) array sq, each added in the order in which
    np.add.reduce adds one contiguous row of d entries.

    That order is numpy's pairwise_sum: below 8 terms a running sum; from 8
    to 128 terms eight running partial sums over the whole groups of eight,
    combined as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the
    remaining terms one at a time; above 128 the sum of two halves, the first
    a multiple of 8 long. So for sq = z * z, np.sqrt(_square_sum(sq)) is
    np.linalg.norm(z.T, axis=1) bit for bit, computed from long rows.
    """
    d = sq.shape[0]
    if d > 128:
        half = d // 2 - d // 2 % 8
        return _square_sum(sq[:half]) + _square_sum(sq[half:])
    if d < 8:
        total = sq[0].copy()
        rest = sq[1:]
    else:
        part = sq[:8].copy()
        whole = d - d % 8
        for i in range(8, whole, 8):
            part += sq[i:i + 8]
        total = (part[0] + part[1] + (part[2] + part[3])) + (part[4] + part[5]
                                                             + (part[6] + part[7]))
        rest = sq[whole:]
    for row in rest:
        total += row
    return total


def rd_directions(dim: int, n: int, shift=0.0) -> np.ndarray:
    """Rows 0..n-1 of the R_d sequence frac(shift + i alpha) as unit vectors in R^dim.

    Box-Muller maps the 2 ceil(dim/2) coordinates pairwise to normals, which
    are cut to dim and normalized; a row of norm below 1e-12 stays as it is
    (with no shift, row 0 is the zero vector). The coordinates, normals and
    norms are built coordinate-major, as (k, n) arrays of long rows, and the
    result is returned as C-contiguous (n, dim) rows. Each entry has the bits
    of the row-major formula: the arithmetic is elementwise, and
    `_square_sum` adds each row's squares in np.linalg.norm's order.
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
    z = z[:dim]
    norms = np.sqrt(_square_sum(z * z))
    norms[norms < 1e-12] = 1.0
    return np.divide(z.T, norms[:, None], out=np.empty((n, dim)))


def quasi_uniform_lines(dim: int, n: int, seed: int) -> np.ndarray:
    """Low-discrepancy set of n lines (canonicalized unit vectors) on S^{dim-1}.

    `rd_directions` under one Cranley-Patterson shift drawn from
    SeedSequence(seed), canonicalized by `canonical_lines`; suitable as a
    dense probe set for covering checks. C-contiguous (n, dim) rows.
    """
    seed = _check_seed(seed)
    if dim < 2 or n < 1:
        raise OutOfRange(f"need dim >= 2 and n >= 1 lines, got dim={dim}, n={n}")
    shift = np.random.default_rng(np.random.SeedSequence(seed)).random(dim + dim % 2)
    return canonical_lines(rd_directions(dim, n, shift))


def rng_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """Deterministic generator for (seed, stream); independent across streams."""
    seq = np.random.SeedSequence(entropy=_check_seed(seed), spawn_key=(stream,))
    return np.random.Generator(np.random.Philox(seq))
