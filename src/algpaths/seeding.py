"""Deterministic random-number streams.

Every stochastic operation takes an integer seed and derives independent
sub-streams from (seed, branch indices).  Reports produced from the same seed
are bit-identical, and parallel shards can claim disjoint branches without
coordinating.
"""

from __future__ import annotations

import numpy as np


def rng_from(seed, *branch: int) -> np.random.Generator:
    """Generator for the sub-stream addressed by ``(seed, *branch)``.

    ``seed`` may itself be a tuple of integers, so callers can thread derived
    seeds through APIs that only carry a single seed argument.
    """
    head = tuple(seed) if isinstance(seed, (tuple, list)) else (seed,)
    entropy = tuple(int(p) for p in head) + tuple(int(b) for b in branch)
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _haar(z: np.ndarray) -> np.ndarray:
    # QR of each matrix of the stack, with the phases of R's diagonal moved
    # into Q so the distribution is exactly Haar
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def haar_unitary(m: int, rngs) -> np.ndarray:
    """Haar-distributed unitaries, one per generator, stacked ``(N, m, m)``.

    Generator ``j`` draws the real and then the imaginary part of a complex
    Gaussian matrix, so unitary ``j`` does not depend on the other generators;
    one stacked QR factors them all.
    """
    g = np.stack([rng.standard_normal((2, m, m)) for rng in rngs])
    return _haar(g[:, 0] + 1j * g[:, 1])


def conditioned_invertible(m: int, cond_bound: float, rngs) -> np.ndarray:
    """Random invertible matrices with condition number at most ``cond_bound``.

    Built as U diag(s) V* with Haar factors and log-uniform singular values in
    ``[1/sqrt(c), sqrt(c)]``, so the bound holds by construction.  One matrix
    per generator, stacked ``(N, m, m)``: generator ``j`` draws U's Gaussians,
    then V's, then ``s``, and one stacked QR factors all the U's and V's.
    """
    if cond_bound < 1.0:
        raise ValueError("cond_bound must be at least 1")
    half = 0.5 * np.log(cond_bound)
    g = np.empty((len(rngs), 4, m, m))
    s = np.empty((len(rngs), 1, m))
    for j, rng in enumerate(rngs):
        g[j] = rng.standard_normal((4, m, m))
        s[j, 0] = np.exp(rng.uniform(-half, half, size=m))
    uv = _haar(g[:, 0::2] + 1j * g[:, 1::2])  # (N, 2, m, m): U and V
    return (uv[:, 0] * s) @ uv[:, 1]
