import numpy as np
import pytest

from tfmotion.rng import philox_streams

import oracles


@pytest.mark.parametrize("seed", [0, 7, 2 ** 64 - 1])
def test_streams_draw_as_fresh_generators(seed):
    # each re-keyed stream draws what a newly built Philox keyed by
    # (seed, stream) draws, whatever the stream before it left behind: a
    # partly used counter block, and the cached upper half word of an odd
    # number of uint32 draws
    streams = [0, 1, 5, 2 ** 63, 1]
    u32 = dict(dtype=np.uint32, endpoint=True)
    for stream, gen in zip(streams, philox_streams(seed, streams)):
        ref = oracles.philox(seed, stream)
        assert gen.random(3).tobytes() == ref.random(3).tobytes()
        assert gen.standard_normal(5).tobytes() == ref.standard_normal(5).tobytes()
        assert (gen.integers(0, 2 ** 32 - 1, 3, **u32).tolist()
                == ref.integers(0, 2 ** 32 - 1, 3, **u32).tolist())
        assert gen.random(2).tobytes() == ref.random(2).tobytes()


def test_streams_are_independent_of_order():
    # stream i draws the same numbers whichever streams came before it
    a = [g.random(4).tobytes() for g in philox_streams(11, [0, 1, 2])]
    b = [g.random(4).tobytes() for g in philox_streams(11, [2, 1, 0])]
    assert a == b[::-1]


@pytest.mark.parametrize("seed", [-3, -1, 2 ** 64, 2 ** 70, -2 ** 64])
def test_seed_outside_key_range_is_refused(seed):
    # a key word holds [0, 2^64): a seed outside it is refused at the call,
    # not folded onto another seed's streams
    with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
        philox_streams(seed, [0])


@pytest.mark.parametrize("stream", [-1, 2 ** 64])
def test_stream_index_outside_key_range_is_refused(stream):
    streams = philox_streams(5, [0, stream])
    next(streams)
    with pytest.raises(ValueError, match="stream index"):
        next(streams)
