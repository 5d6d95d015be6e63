"""Counter-based random number generation shared by the simulators.

Each path draws from a Philox generator keyed by (seed, stream index), so an
ensemble is a pure function of its seed, whatever blocks its paths are drawn
in.
"""

from __future__ import annotations

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF


def philox_streams(seed: int, streams):
    """Yield for each stream index in turn one generator, re-keyed to draw as
    a new np.random.Philox(key=(seed, stream)): a fresh state with that key."""
    gen = np.random.Generator(np.random.Philox(0))
    fresh = gen.bit_generator.state
    for stream in streams:
        key = np.array([seed & _MASK64, stream & _MASK64], dtype=np.uint64)
        gen.bit_generator.state = dict(fresh, state=dict(fresh["state"], key=key))
        yield gen
