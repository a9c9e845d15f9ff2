import numpy as np
import pytest

from gsim import rng

SEEDS = (0, 2**63 + 5, 2**64 - 1)
IDS = (0, 1, 7, 2**32 - 1, 2**32, 2**40 - 3, 2**40 + 11, 2**64 - 1)


@pytest.mark.parametrize("seed", SEEDS)
def test_words_match_numpy_philox(seed):
    # three counter blocks, so carries past the first block are covered
    words = rng.philox_words(seed, IDS, 3)
    assert words.dtype == np.uint64 and words.shape == (len(IDS), 12)
    for row, i in zip(words, IDS):
        key = np.array([seed, i], dtype=np.uint64)
        assert np.array_equal(row, np.random.Philox(key=key).random_raw(12))
        assert np.array_equal(row, rng.stream(seed, i).bit_generator.random_raw(12))


def test_stream_keeps_high_key_bits():
    # a tuple key with a word >= 2**63 goes through float64 in numpy; the
    # stream must key on the exact words
    assert rng.stream(2**64 - 1).bit_generator.state["state"]["key"].tolist() == [2**64 - 1, 0]
    assert rng.stream(0, 2**63 + 5).bit_generator.state["state"]["key"].tolist() == [0, 2**63 + 5]


def test_rows_extend_shorter_draws():
    short = rng.box_muller(rng.uniform_rows(11, 0, 50, 6))
    long = rng.box_muller(rng.uniform_rows(11, 0, 300, 8))
    assert short.shape == (50, 6) and long.shape == (300, 8)
    assert np.array_equal(long[:50, :6], short)
    assert not np.array_equal(rng.box_muller(rng.uniform_rows(12, 0, 50, 6)), short)
    # a block from a start index is the same rows of one longer draw
    assert np.array_equal(rng.uniform_rows(11, 263, 37, 3), rng.uniform_rows(11, 0, 300, 3)[263:])


def test_rows_come_from_their_own_stream():
    # Box-Muller on 53-bit uniforms of stream (seed, i), words taken in pairs
    seed, width = 2**63 + 5, 6
    rows = rng.box_muller(rng.uniform_rows(seed, 0, 4, width))
    for i, row in enumerate(rows):
        u = (rng.stream(seed, i).bit_generator.random_raw(6) >> np.uint64(11)) * 2.0**-53
        radius = np.sqrt(-2.0 * np.log1p(-u[0::2]))
        angle = 2.0 * np.pi * u[1::2]
        want = np.column_stack([radius * np.cos(angle), radius * np.sin(angle)]).ravel()
        assert np.array_equal(row, want)


def test_normal_moments():
    count, width = 40_000, 6
    z = rng.box_muller(rng.uniform_rows(2024, 0, count, width))
    assert np.all(np.isfinite(z))
    # per column: mean 0 (SE 1/sqrt(count)), variance 1 (SE sqrt(2/count)),
    # and the Box-Muller partners uncorrelated (SE 1/sqrt(count))
    assert np.all(np.abs(z.mean(axis=0)) < 5 / np.sqrt(count))
    assert np.all(np.abs(z.var(axis=0) - 1.0) < 5 * np.sqrt(2 / count))
    partners = np.mean(z[:, 0::2] * z[:, 1::2], axis=0)
    assert np.all(np.abs(partners) < 5 / np.sqrt(count))
