"""The block-drawn candidate streams of random search against numpy.

``search._candidate_block`` reproduces ``default_rng([seed, index])
.integers(0, 4, size=(k, m), dtype=uint8)`` for many indices at once.  Each
block here is compared with numpy's generator, one candidate at a time, so
a change of numpy's streams in a later numpy release fails here, by name,
rather than as a shifted search result.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hlcd4.search import _LANES, _candidate_block, _seed_states


def numpy_block(seed, start, count, k, m):
    block = np.empty((count, k, m), dtype=np.uint8)
    for i in range(count):
        rng = np.random.default_rng([seed, start + i])
        block[i] = rng.integers(0, 4, size=(k, m), dtype=np.uint8)
    return block


def assert_matches_numpy(seed, start, count, k, m):
    block = _candidate_block(seed, start, count, k, m)
    assert block.dtype == np.uint8 and block.shape == (count, k, m)
    assert np.array_equal(block, numpy_block(seed, start, count, k, m))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    start=st.one_of(st.integers(0, 3000), st.integers(2**32 - 2 * _LANES, 2**32 + 8)),
    count=st.one_of(st.integers(0, 40), st.integers(_LANES - 2, _LANES + 2)),
    k=st.integers(1, 20),
    m=st.integers(0, 24),
)
@example(seed=15, start=59000, count=8, k=8, m=4)  # the [12,8,4] record's hit
@example(seed=15, start=0, count=64, k=8, m=4)  # the small first block
@example(seed=15, start=1344, count=4096, k=8, m=4)  # the fourth block at k·m = 32
@example(seed=15, start=5440, count=8192, k=8, m=4)  # a full block at the cap at k·m = 32
@example(seed=2**31, start=40960, count=4096, k=8, m=4)  # a full block at a later index
@example(seed=1, start=1024, count=_LANES, k=15, m=15)  # [30,15]: k·m = 225, a partial last word
@example(seed=0, start=0, count=1, k=1, m=1)
@example(seed=3, start=0, count=5, k=4, m=0)  # k = n: nothing is drawn
@example(seed=2**32 - 1, start=2**32 - 1, count=2, k=3, m=3)
def test_candidate_block_matches_numpy(seed, start, count, k, m):
    assert_matches_numpy(seed, start, count, k, m)


@pytest.mark.parametrize("seed", [0, 1, 2**31, 2**32 - 1])
def test_seed_states_match_seed_sequence(seed):
    # The hash stage alone, so that a wrong folded constant fails here and
    # not only as a wrong symbol further on.
    index = np.array([0, 1, 2**32 - 1], dtype=np.uint32)
    states = _seed_states(seed, index)
    assert states.dtype == np.uint32 and states.shape == (4, len(index), 2)
    for lane, i in enumerate(index.tolist()):
        sequence = np.random.SeedSequence([seed, i])
        assert np.array_equal(states[:, lane].ravel(), sequence.generate_state(8, np.uint32))
        paired = states.view("<u8")[:, lane, 0]
        assert np.array_equal(paired, sequence.generate_state(4, np.uint64))


@pytest.mark.parametrize(
    "seed, start",
    [
        (7, 2**32 - 5),  # straddles index 2^32 - 1 -> 2^32
        (2**32 - 1, 2**32 - 5),
        (2**32, 0),  # seeds of two words draw from numpy
        (2**32, 2**32 - 5),
        (2**40, 10),
    ],
)
def test_candidate_block_at_two_to_the_32(seed, start):
    assert_matches_numpy(seed, start, 10, 5, 7)
