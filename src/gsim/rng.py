"""Seeded random numbers for reproducible sampling.

``stream(seed, i)`` is numpy's Philox4x64-10 generator keyed by
(master seed, i) (Salmon et al., SC'11): each sampler keys its own stream,
so its numbers do not depend on what else ran in the process.  A sampler
that reads one stream in order at a fixed width gets, in row i, numbers that
depend only on the key and i, however the rows are grouped into draws.
``box_muller`` turns rows of such uniforms into standard normals.
"""

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF


def stream(master_seed: int, stream_id: int = 0) -> np.random.Generator:
    # a uint64 array, not a tuple: numpy converts a tuple holding a word
    # >= 2**63 through float64 and loses its low bits
    key = np.array([int(master_seed) & _MASK64, int(stream_id) & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def box_muller(u: np.ndarray) -> np.ndarray:
    """Two standard normals from each pair of uniform columns (u_2k, u_2k+1),
    interleaved as (r cos, r sin); log1p(-u) keeps the radius finite."""
    radius = np.sqrt(-2.0 * np.log1p(-u[:, 0::2]))
    angle = 2.0 * np.pi * u[:, 1::2]
    out = np.empty(u.shape)
    np.multiply(radius, np.cos(angle), out=out[:, 0::2])
    np.multiply(radius, np.sin(angle), out=out[:, 1::2])
    return out
