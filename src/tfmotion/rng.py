"""Counter-based random number generation shared by the simulators.

Each path draws from a Philox generator keyed by (seed, stream index), so an
ensemble is a pure function of its seed, whatever blocks its paths are drawn
in.
"""

from __future__ import annotations

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF


def philox_generator(seed: int, stream: int) -> np.random.Generator:
    key = np.array([np.uint64(seed & _MASK64), np.uint64(stream & _MASK64)],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))

