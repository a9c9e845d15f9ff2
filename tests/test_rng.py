import numpy as np

from gsim import rng


def test_stream_keeps_high_key_bits():
    # a tuple key with a word >= 2**63 goes through float64 in numpy; the
    # stream must key on the exact words
    assert rng.stream(2**64 - 1).bit_generator.state["state"]["key"].tolist() == [2**64 - 1, 0]
    assert rng.stream(0, 2**63 + 5).bit_generator.state["state"]["key"].tolist() == [0, 2**63 + 5]


def test_normal_moments():
    count, width = 40_000, 6
    z = rng.box_muller(rng.stream(2024, 0).random((count, width)))
    assert np.all(np.isfinite(z))
    # per column: mean 0 (SE 1/sqrt(count)), variance 1 (SE sqrt(2/count)),
    # and the Box-Muller partners uncorrelated (SE 1/sqrt(count))
    assert np.all(np.abs(z.mean(axis=0)) < 5 / np.sqrt(count))
    assert np.all(np.abs(z.var(axis=0) - 1.0) < 5 * np.sqrt(2 / count))
    partners = np.mean(z[:, 0::2] * z[:, 1::2], axis=0)
    assert np.all(np.abs(partners) < 5 / np.sqrt(count))
