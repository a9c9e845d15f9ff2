"""Counter-based random streams for reproducible, schedule-independent sampling.

Every logical sample owns a Philox stream keyed by (master seed, stream id),
so results are bit-identical for a fixed seed no matter how the sample loop
is ordered or parallelized.
"""

import numpy as np


def stream(master_seed: int, stream_id: int = 0) -> np.random.Generator:
    key = (int(master_seed) & 0xFFFFFFFFFFFFFFFF, int(stream_id) & 0xFFFFFFFFFFFFFFFF)
    return np.random.Generator(np.random.Philox(key=key))

