"""Batched random streams: ``rngs_from`` against NumPy's own SeedSequence."""

import numpy as np
import pytest

from algpaths.seeding import rng_from, rngs_from


def _oracle(seed) -> np.random.Generator:
    head = tuple(seed) if isinstance(seed, (tuple, list)) else (seed,)
    return np.random.default_rng(np.random.SeedSequence(tuple(int(p) for p in head)))


def _random_seeds(n, seed):
    # 1 to 7 parts from 0 up to 2**70: 1 to 3 uint32 words each, so the
    # entropies run from 1 to 21 words, short of the pool of 4 and past it
    rng = np.random.default_rng(seed)
    seeds = []
    for _ in range(n):
        parts = [int(rng.integers(0, 2**62)) >> int(rng.integers(0, 63)) << int(rng.integers(0, 9))
                 for _ in range(int(rng.integers(1, 8)))]
        seeds.append(parts[0] if len(parts) == 1 and rng.random() < 0.5
                     else tuple(parts) if rng.random() < 0.5 else parts)
    return seeds


EDGES = [0, 2**32 - 1, 2**32, 2**70, (0,), [0], (2**32 - 1, 2**32), [2**70, 0, 5],
         (1, 2, 3), (1, 2, 3, 4), (1, 2, 3, 4, 5), [7, 6, 5, 4, 3, 2, 1], (0, 0, 0, 0, 0, 0, 0)]


def _assert_same_stream(got, want):
    assert isinstance(got, np.random.Generator) and isinstance(got.bit_generator, np.random.PCG64)
    # the two draw kinds the samplers take, interleaved as they take them
    for _ in range(2):
        np.testing.assert_array_equal(got.standard_normal((3, 2, 2)), want.standard_normal((3, 2, 2)))
        np.testing.assert_array_equal(got.uniform(-1.5, 1.5, size=4), want.uniform(-1.5, 1.5, size=4))


@pytest.mark.filterwarnings("error")  # uint32 overflow on a NumPy scalar would warn
def test_rngs_from_is_seed_sequence_bit_for_bit():
    seeds = EDGES + _random_seeds(300, 0)
    # one batch of mixed lengths, and every seed alone
    for seed, got in zip(seeds, rngs_from(seeds)):
        _assert_same_stream(got, _oracle(seed))
    for seed in seeds:
        _assert_same_stream(rngs_from([seed])[0], _oracle(seed))


def test_rngs_from_empty_batch():
    assert rngs_from([]) == []


@pytest.mark.parametrize("seed", [-1, (3, -1), [0, 1, -(2**40)]])
def test_rngs_from_refuses_a_negative_part_as_rng_from_does(seed):
    with pytest.raises(ValueError):
        rng_from(seed)
    with pytest.raises(ValueError):
        rngs_from([(1, 2), seed])
