"""Seeded, reproducible direction sampling on spheres.

Uniform directions come from normalized Gaussian vectors. Gaussians are
produced by inverse-CDF from counter-based Philox uniforms, so sample i is a
pure function of (seed, i): generating samples [0, n) in one call or in
chunks with `start` offsets yields bit-identical results.

scipy is imported inside the functions that use it: `scipy.special` costs
about 0.3 s and `scipy.stats` about 1 s at start-up, and most CLI calls
need neither.
"""

from __future__ import annotations

import numpy as np

# Philox emits 4 doubles per counter block; each sample is padded to whole
# blocks so chunk boundaries never split a sample.
_DOUBLES_PER_BLOCK = 4


def _blocks_per_sample(dim: int) -> int:
    return (dim + _DOUBLES_PER_BLOCK - 1) // _DOUBLES_PER_BLOCK


def unit_directions(dim: int, n: int, seed: int, start: int = 0) -> np.ndarray:
    """n uniform unit vectors on S^{dim-1}, samples indexed from `start`."""
    from scipy.special import ndtri

    if dim < 1 or n < 0 or start < 0:
        raise ValueError("dim >= 1, n >= 0, start >= 0 required")
    if n == 0:
        return np.empty((0, dim))
    bps = _blocks_per_sample(dim)
    bg = np.random.Philox(key=np.uint64(seed & (2**64 - 1)))
    if start:
        bg.advance(start * bps)
    u = np.random.Generator(bg).random((n, bps * _DOUBLES_PER_BLOCK))[:, :dim]
    z = ndtri(np.clip(u, 1e-300, 1.0 - 1e-16))
    norms = np.linalg.norm(z, axis=1)
    degenerate = norms < 1e-12
    if np.any(degenerate):
        z[degenerate] = 0.0
        z[degenerate, 0] = 1.0
        norms[degenerate] = 1.0
    return z / norms[:, None]


def canonical_line(v: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Fix the sign of an antipodally-identified unit vector.

    The representative has its first coordinate of magnitude > tol positive.
    """
    v = np.asarray(v, dtype=float)
    for x in v:
        if abs(x) > tol:
            return v if x > 0 else -v
    return v


def quasi_uniform_lines(dim: int, n: int, seed: int) -> np.ndarray:
    """Low-discrepancy set of n lines (canonicalized unit vectors) on S^{dim-1}.

    Scrambled Sobol points mapped through the inverse normal CDF and
    normalized; suitable as a dense probe set for covering checks.
    """
    from scipy.special import ndtri
    from scipy.stats import qmc

    if dim < 2 or n < 1:
        raise ValueError("dim >= 2 and n >= 1 required")
    m = max(1, int(np.ceil(np.log2(n))))
    eng = qmc.Sobol(d=dim, scramble=True, seed=seed)
    u = eng.random_base2(m)[:n]
    z = ndtri(np.clip(u, 1e-300, 1.0 - 1e-16))
    norms = np.linalg.norm(z, axis=1)
    norms[norms < 1e-12] = 1.0
    z = z / norms[:, None]
    return np.array([canonical_line(row) for row in z])


def rng_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """Deterministic generator for (seed, stream); independent across streams."""
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(stream,))
    return np.random.Generator(np.random.Philox(seq))
