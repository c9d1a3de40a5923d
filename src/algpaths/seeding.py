"""Deterministic random-number streams.

Every stochastic operation takes an integer seed and derives independent
sub-streams from (seed, branch indices).  Reports produced from the same seed
are bit-identical, and parallel shards can claim disjoint branches without
coordinating.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np
from numpy.random.bit_generator import ISeedSequence


def rng_from(seed, *branch: int) -> np.random.Generator:
    """Generator for the sub-stream addressed by ``(seed, *branch)``.

    ``seed`` may itself be a tuple of integers, so callers can thread derived
    seeds through APIs that only carry a single seed argument.
    """
    head = tuple(seed) if isinstance(seed, (tuple, list)) else (seed,)
    entropy = tuple(int(p) for p in head) + tuple(int(b) for b in branch)
    return np.random.default_rng(np.random.SeedSequence(entropy))


# NumPy's SeedSequence is O'Neill's seed_seq_fe hash over a pool of 4 uint32
# words.  Its hash constants follow from the call index alone, never from the
# data, so one operation on uint32 arrays (which wrap silently, where NumPy
# scalars warn) runs a hash step for a whole batch.
_POOL = 4


def _hash_consts(count: int, init: int, mult: int) -> tuple[np.ndarray, np.ndarray]:
    c = [init]  # hash call i xors with c[i] and multiplies by c[i + 1]
    while len(c) <= count:
        c.append(c[-1] * mult & 0xFFFFFFFF)
    return np.array(c[:-1], dtype=np.uint32), np.array(c[1:], dtype=np.uint32)


def _hashmix(v, xor, mul):
    v = (v ^ xor) * mul
    return v ^ (v >> 16)


def _mix(x, y):
    r = np.uint32(0xCA01F9DD) * x - np.uint32(0x4973F715) * y
    return r ^ (r >> 16)


class _PCG64State(ISeedSequence):
    """A seed sequence whose state is already generated: the 4 uint64 words PCG64 asks for."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def rngs_from(seeds) -> list[np.random.Generator]:
    """``[rng_from(s) for s in seeds]``, bit for bit, from one batched hash.

    Mixes every seed's little-endian uint32 words into its pool at once (a
    seed longer than the pool takes the extra rounds under a length mask),
    and seeds each ``PCG64`` with its row of the generated state.
    """
    rows = []
    for seed in seeds:
        words = b""
        for p in map(int, seed if isinstance(seed, (tuple, list)) else (seed,)):
            if p < 0:
                raise ValueError("expected non-negative integer")
            words += p.to_bytes(4 * max(1, -(-p.bit_length() // 32)), "little")
        rows.append(words)
    width = max([4 * _POOL, *map(len, rows)]) // 4
    e = np.frombuffer(b"".join(r.ljust(4 * width, b"\0") for r in rows), "<u4").reshape(len(rows), width)
    xor, mul = _hash_consts(4 * width, 0x43B0D7E5, 0x931E8875)
    pool = _hashmix(e[:, :_POOL], xor[:_POOL], mul[:_POOL])
    for k, (src, dst) in enumerate(permutations(range(_POOL), 2), start=_POOL):
        pool[:, dst] = _mix(pool[:, dst], _hashmix(pool[:, src], xor[k], mul[k]))
    n_words = np.array([len(r) // 4 for r in rows])
    for i in range(_POOL, width):  # word i takes hash calls 4i to 4i + 3, one per pool word
        mixed = _mix(pool, _hashmix(e[:, i, None], xor[4 * i:4 * i + _POOL], mul[4 * i:4 * i + _POOL]))
        pool = np.where((i < n_words)[:, None], mixed, pool)
    out = _hashmix(np.tile(pool, 2), *_hash_consts(2 * _POOL, 0x8B51F9DD, 0x58F38DED))  # 8 words
    state = out[:, 0::2].astype(np.uint64) | out[:, 1::2].astype(np.uint64) << np.uint64(32)
    return [np.random.Generator(np.random.PCG64(_PCG64State(row))) for row in state]


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
