"""Counter-based random numbers for reproducible, schedule-independent sampling.

Every logical sample i owns the Philox4x64-10 stream keyed by
(master seed, i) (Salmon et al., SC'11), so its numbers do not depend on how
the sample loop is ordered, batched or parallelized.

``stream`` wraps one such key in a numpy ``Generator``; building one costs
tens of microseconds, which is fine for a handful of draws.  ``uniform_rows``
runs the same cipher in numpy over a block of consecutive keys at once, for
estimators that need a few numbers from each of thousands of streams: row i
comes from the raw words of ``stream(seed, i)``, bit for bit, and costs
O(width) array work instead of one generator; ``box_muller`` turns such rows
into standard normals.
"""

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF
_LOW32, _HALF = np.uint64(0xFFFFFFFF), np.uint64(32)
_ROUNDS = 10
# Philox4x64 multipliers and Weyl key increments (Random123)
_M0, _M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_W0, _W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B


def stream(master_seed: int, stream_id: int = 0) -> np.random.Generator:
    # a uint64 array, not a tuple: numpy converts a tuple holding a word
    # >= 2**63 through float64 and loses its low bits
    key = np.array([int(master_seed) & _MASK64, int(stream_id) & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _mulhilo(m: int, x: np.ndarray):
    """(high, low) 64-bit words of m * x, with the high word assembled from
    32-bit halves so that no product leaves uint64."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo, x_hi = x & _LOW32, x >> _HALF
    lo_lo, lo_hi, hi_lo = x_lo * m_lo, x_lo * m_hi, x_hi * m_lo
    carry = (lo_lo >> _HALF) + (lo_hi & _LOW32) + (hi_lo & _LOW32)
    hi = x_hi * m_hi + (lo_hi >> _HALF) + (hi_lo >> _HALF) + (carry >> _HALF)
    return hi, x * np.uint64(m)


def philox_words(master_seed: int, stream_ids, blocks: int) -> np.ndarray:
    """Raw words of the streams ``(master_seed, i)`` for i in ``stream_ids``.

    Returns a ``(len(stream_ids), 4 * blocks)`` uint64 array whose row for i
    equals ``stream(master_seed, i).bit_generator.random_raw(4 * blocks)``:
    block j is the Philox4x64-10 cipher of counter j + 1 (numpy increments
    the counter before its first block).
    """
    seed = int(master_seed) & _MASK64
    ids = np.asarray(stream_ids, dtype=np.uint64)[:, None]
    count = ids.shape[0]
    c0 = np.broadcast_to(np.arange(1, blocks + 1, dtype=np.uint64), (count, blocks))
    c1 = c2 = c3 = np.zeros((count, blocks), dtype=np.uint64)
    for r in range(_ROUNDS):
        k0 = np.uint64((seed + r * _W0) & _MASK64)
        k1 = ids + np.uint64((r * _W1) & _MASK64)
        hi0, lo0 = _mulhilo(_M0, c0)
        hi1, lo1 = _mulhilo(_M1, c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return np.stack([c0, c1, c2, c3], axis=-1).reshape(count, 4 * blocks)


def uniform_rows(master_seed: int, start: int, count: int, width: int) -> np.ndarray:
    """``(count, width)`` uniforms in [0, 1) on 53 bits (``w >> 11``): row r
    holds the first ``width`` words of stream ``(master_seed, start + r)``,
    so a block of rows from any start index equals the same rows of one
    longer draw."""
    ids = np.arange(start, start + count, dtype=np.uint64)
    words = philox_words(master_seed, ids, -(-width // 4))
    return (words[:, :width] >> np.uint64(11)) * 2.0**-53


def box_muller(u: np.ndarray) -> np.ndarray:
    """Two standard normals from each pair of uniform columns (u_2k, u_2k+1),
    interleaved as (r cos, r sin); log1p(-u) keeps the radius finite."""
    radius = np.sqrt(-2.0 * np.log1p(-u[:, 0::2]))
    angle = 2.0 * np.pi * u[:, 1::2]
    return np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=-1).reshape(u.shape[0], -1)
