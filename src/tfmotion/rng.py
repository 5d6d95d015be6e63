"""Counter-based random number generation shared by the simulators, and the
Gaussian sampler's worker fan-out.

Each path draws from a Philox generator keyed by (seed, stream index), so an
ensemble is a pure function of its seed no matter how paths are scheduled
across workers.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF


def philox_generator(seed: int, stream: int) -> np.random.Generator:
    key = np.array([np.uint64(seed & _MASK64), np.uint64(stream & _MASK64)],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def fan_out(fill, n: int, n_workers: int) -> None:
    """Run fill(i0, i1) over [0, n) in contiguous chunks, one per worker thread."""
    if n_workers <= 1:
        fill(0, n)
        return
    step = max(1, -(-n // n_workers))
    with ThreadPoolExecutor(max_workers=n_workers) as ex:
        futures = [ex.submit(fill, i, min(i + step, n)) for i in range(0, n, step)]
        for f in futures:
            f.result()
