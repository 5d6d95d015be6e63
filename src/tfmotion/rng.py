"""Counter-based random number generation shared by the simulators.

Each path draws from a Philox generator keyed by (seed, stream index), both
in [0, 2^64), so an ensemble is a pure function of its seed (no two seeds
share streams), whatever blocks its paths are drawn in.
"""

from __future__ import annotations

import operator

import numpy as np


def _key_word(name: str, value) -> int:
    if not 0 <= operator.index(value) < 2 ** 64:
        raise ValueError(f"{name} must be an integer in [0, 2**64), got {value}")
    return value


def philox_streams(seed: int, streams):
    """One generator per stream index in turn, re-keyed to draw as a new
    np.random.Philox(key=(seed, stream)).  A seed or stream index outside
    [0, 2^64) raises ValueError, the seed's at this call, before any draw."""
    _key_word("seed", seed)
    gen = np.random.Generator(np.random.Philox(0))
    fresh = gen.bit_generator.state

    def rekeyed():
        for stream in streams:
            key = np.array([seed, _key_word("stream index", stream)], dtype=np.uint64)
            gen.bit_generator.state = dict(fresh, state=dict(fresh["state"], key=key))
            yield gen

    return rekeyed()
