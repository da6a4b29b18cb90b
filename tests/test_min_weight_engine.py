"""The minimum-weight engine against the oracle and the Gray walk.

Property tests draw generators that are not in standard form and may have
zero or repeated columns, so later information sets are partial.  Each
input runs under the engine's own choice of path, with the information-set
enumeration forced, and forced with tiny chunks (so layers split into many
chunks, are not kept, and messages take tails of several rows), and with
the Gray walk forced, also with tiny chunks (so chunks end mid-lead).
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hlcd4.code import LinearCode, _gray_weight, _min_weight, min_weight_oracle
from hlcd4.gf4 import MUL
from hlcd4.search import elliptic_quadric_code

from conftest import random_standard, scramble

MODES = {
    "auto": {},
    "sets": {"_SET_COST": 0, "_CHUNK_COST": 0, "_CODEWORD_COST": 0},
    "sets, tiny chunks": {
        "_SET_COST": 0, "_CHUNK_COST": 0, "_CODEWORD_COST": 0, "_CHUNK": 7,
    },
    "walk": {"_SET_COST": float("inf")},
    "walk, tiny chunks": {"_SET_COST": float("inf"), "_CHUNK": 7},
}

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def engine(gen, mode, **kwargs):
    if not MODES[mode]:
        return _min_weight(gen, **kwargs)
    with mock.patch.multiple("hlcd4.code", **MODES[mode]):
        return _min_weight(gen, **kwargs)


@st.composite
def generators(draw):
    """A full-rank k x n generator, k <= 8, with n small or on either side
    of a 64-bit word boundary."""
    n = draw(st.one_of(st.integers(1, 12), st.sampled_from([63, 64, 65, 127, 128, 129])))
    k = draw(st.integers(1, min(n, 8)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zeros = draw(st.integers(0, n - k))
    repeats = draw(st.integers(0, n - k - zeros))
    a = rng.integers(0, 4, size=(k, n - k), dtype=np.uint8)
    gen = np.hstack([np.eye(k, dtype=np.uint8), a])
    gen[:, k : k + zeros] = 0
    for j in range(k + zeros, k + zeros + repeats):
        gen[:, j] = MUL[rng.integers(1, 4), gen[:, rng.integers(0, j)]]
    return scramble(rng, gen)


# k = 1 (with zero and repeated columns) and k = n
K_ONE = np.array([[0, 1, 2, 0, 3, 3, 1]], dtype=np.uint8)
K_FULL = np.array([[1, 2, 0], [1, 3, 3], [2, 0, 1]], dtype=np.uint8)
# [12,7,3] and [10,6,3] codes whose weight-3 words the information sets
# reach only after the partial second set (deficit 2) has caught up on
# message weights 1 and 2.
LATE = [
    np.hstack([np.eye(len(a), dtype=np.uint8), np.array(a, dtype=np.uint8)])
    for a in (
        [[3, 0, 2, 0, 1], [0, 1, 0, 1, 1], [1, 1, 0, 1, 3], [1, 3, 1, 3, 1],
         [3, 1, 2, 1, 1], [0, 2, 2, 3, 3], [3, 2, 0, 0, 2]],
        [[2, 1, 1, 0], [3, 0, 2, 2], [1, 1, 3, 1], [2, 1, 2, 3], [0, 2, 2, 2], [2, 0, 3, 2]],
    )
]


@PROPERTY
@given(generators())
@example(K_ONE)
@example(K_FULL)
@example(LATE[0])
@example(LATE[1])
def test_engine_matches_oracle(gen):
    d = min_weight_oracle(LinearCode(gen))
    for mode in MODES:
        r = engine(gen, mode)
        assert (r.best, r.exact, r.bound) == (d, True, d), mode
        assert r.stop in ("bound", "gray")
        # a budget of the run's own count completes; one less does not
        assert engine(gen, mode, budget=r.tried) == r, mode
        if r.tried > 1:
            assert engine(gen, mode, budget=r.tried - 1).stop == "budget", mode


@PROPERTY
@given(generators(), st.integers(1, 130), st.integers(1, 2000))
@example(K_ONE, 5, 1)
@example(K_FULL, 2, 2)
def test_engine_cutoff_and_budget(gen, t, budget):
    # the cutoff decision is the Gray walk's; a budget-stopped run brackets d
    gray = _gray_weight(gen, cutoff=t)
    d = min_weight_oracle(LinearCode(gen))
    for mode in MODES:
        r = engine(gen, mode, cutoff=t)
        assert (r.exact and r.best >= t) == (gray.exact and gray.best >= t) == (d >= t), mode
        r = engine(gen, mode, budget=budget)
        assert r.bound <= d <= r.best and r.tried <= budget, mode
        assert r.exact == (r.best == d and r.stop != "budget"), mode


@pytest.mark.parametrize(
    "code",
    [elliptic_quadric_code(), random_standard(np.random.default_rng(26), 26, 13)],
    ids=["[17,13] quadric", "[26,13]"],
)
def test_engine_agrees_with_gray_walk(code):
    r = _min_weight(code.gen)
    assert r.stop == "bound" and r.tried < 10**5
    assert r.best == _gray_weight(code.gen).best


def test_stop_reasons():
    rng = np.random.default_rng(7)
    small = random_standard(rng, 12, 4)
    r = _min_weight(small.gen)
    assert (r.stop, r.exact, r.bound) == ("gray", True, r.best)

    code = random_standard(rng, 30, 12)
    r = _min_weight(code.gen)
    d = r.best
    assert (r.stop, r.exact, r.bound) == ("bound", True, d)

    r = _min_weight(code.gen, cutoff=d + 1)
    assert (r.stop, r.exact) == ("cutoff", False) and r.best < d + 1

    r = _min_weight(code.gen, budget=_min_weight(code.gen).tried - 1)
    assert (r.stop, r.exact) == ("budget", False) and r.bound <= d <= r.best
