"""The minimum-weight engine against the oracle.

Property tests draw generators that are not in standard form and may have
zero or repeated columns, so later information sets are partial.  Each
input runs with the default chunk size and with tiny chunks (so layers split
into many chunks, are not kept, and messages take tails of several rows).
Codes with k > 10 and n - k <= 8 are checked against the oracle's MacWilliams
branch.
"""

import contextlib
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hlcd4 import code, gf4, linalg
from hlcd4.code import (
    LinearCode,
    _information_sets,
    _InfoSet,
    _layer_size,
    _layer_weights,
    _min_weight,
    _multiples,
    _packed_rows,
    min_weight_oracle,
)
from hlcd4.gf4 import MUL
from hlcd4.search import elliptic_quadric_code, random_lcd

from conftest import random_standard, scramble

# A kept t = 1 step is made by a call per row or by one XOR and a compress,
# as _CALL_BYTES decides; the last two modes force each way.
MODES = {
    "default": {},
    "tiny chunks": {"_CHUNK": 7},
    "call per row": {"_CALL_BYTES": 0},
    "one XOR": {"_CALL_BYTES": 1 << 40},
}

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def chunk_mode(mode):
    if not MODES[mode]:
        return contextlib.nullcontext()
    return mock.patch.multiple("hlcd4.code", **MODES[mode])


def engine(gen, mode, **kwargs):
    with chunk_mode(mode):
        return _min_weight(LinearCode(gen), **kwargs)


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
        assert (r.best, r.exact, r.bound, r.stop) == (d, True, d, "bound"), mode
        # a budget of the run's own count completes; one less does not
        assert engine(gen, mode, budget=r.tried) == r, mode
        if r.tried > 1:
            assert engine(gen, mode, budget=r.tried - 1).stop == "budget", mode


@PROPERTY
@given(generators())
@example(K_ONE)
@example(K_FULL)
@example(LATE[0])
@example(LATE[1])
def test_both_plans_match_oracle(gen):
    # Each plan, forced, gives the oracle's d exactly and completes at a
    # budget of its own count; the plans differ only in that count.  Set 0
    # alone sees each projective class at most once, and every one of them
    # when d > k.
    c = LinearCode(gen)
    k = c.k
    d = min_weight_oracle(c)
    runs = []
    for alone in (True, False):
        # A threshold of 0 takes set 0 alone; one of n, which no row
        # weighs more than, takes every set.
        with mock.patch("hlcd4.code._alone_above", lambda n, k: 0 if alone else n):
            r = _min_weight(c)
            assert (r.best, r.exact, r.bound, r.stop) == (d, True, d, "bound"), alone
            assert _min_weight(c, budget=r.tried) == r, alone
            cut = _min_weight(c, cutoff=d + 1)
            assert (cut.stop, cut.exact, cut.best) == ("cutoff", False, d), alone
        runs.append(r)
    alone, every = runs
    assert alone._replace(tried=0) == every._replace(tried=0)
    assert alone.tried <= (4**k - 1) // 3
    assert alone.tried == (4**k - 1) // 3 or d <= k


@pytest.mark.parametrize(
    "c, alone",
    [
        (random_lcd(24, 4, 1), True),
        (random_lcd(30, 6, 1), True),
        (random_lcd(60, 5, 1), True),
        (random_lcd(100, 9, 1), True),
        (elliptic_quadric_code(), False),
        (random_lcd(26, 13, 1), False),
        (random_lcd(64, 11, 1), False),
        (random_lcd(70, 11, 1), False),
        (random_lcd(16, 8, 1), False),
    ],
    ids=[
        "[24,4]", "[30,6]", "[60,5]", "[100,9]",
        "[17,13] quadric", "[26,13]", "[64,11]", "[70,11]", "[16,8]",
    ],
)
def test_plan_at_pinned_shapes(c, alone):
    # The cost model's choice at these shapes, so that a change to it shows.
    assert (code._sets_limit(c) == 0) is alone


@pytest.mark.parametrize("n, k", [(17, 13), (26, 13), (16, 8)])
def test_plan_does_not_depend_on_the_rows_where_every_set_is_cheaper(n, k):
    # No row weighs more than n - k + 1, so every set is taken whatever the
    # rows weigh, and only row 0 is read.
    assert code._alone_above(n, k) > n - k


def information_sets_reference(gen):
    """The information sets built from symbols: each set reduces the
    generator with the unused columns first and the used ones after, in
    the order they were taken, deletes the pivot columns and packs what is
    left."""
    k, n = gen.shape
    unused, used = list(range(n)), []
    sets = []
    while unused:
        order = unused + used
        reduced, pivots = linalg.rref(gen[:, order])
        fresh = [order[p] for p in pivots if p < len(unused)]
        if not fresh:
            break
        rows = _multiples(_packed_rows(np.delete(reduced, pivots, axis=1)))
        sets.append(_InfoSet(k - len(fresh), rows, rows[..., 0]))
        used += fresh
        unused = [c for c in unused if c not in fresh]
    return sets


@st.composite
def edge_generators(draw):
    """A full-rank generator with n <= 12 or 65 <= n <= 130, k = 1, n - 1,
    n or up to 8, and zero and repeated columns, so later sets borrow."""
    n = draw(st.one_of(st.integers(1, 12), st.integers(65, 130)))
    edges = [k for k in (1, n - 1, n) if k >= 1 and (n <= 12 or k == 1)]
    k = draw(st.one_of(st.sampled_from(edges), st.integers(1, min(n, 8))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zeros = draw(st.integers(0, n - k))
    repeats = draw(st.integers(0, n - k - zeros))
    gen = np.hstack([np.eye(k, dtype=np.uint8), rng.integers(0, 4, (k, n - k), dtype=np.uint8)])
    gen[:, k : k + zeros] = 0
    for j in range(k + zeros, k + zeros + repeats):
        gen[:, j] = MUL[rng.integers(1, 4), gen[:, rng.integers(0, j)]]
    return scramble(rng, gen)


WIDE_RATE = [
    scramble(np.random.default_rng(n), np.hstack([np.eye(k, dtype=np.uint8), a]))
    for n, k, a in (
        (66, 65, np.random.default_rng(1).integers(0, 4, (65, 1), dtype=np.uint8)),
        (65, 65, np.zeros((65, 0), dtype=np.uint8)),
    )
]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(edge_generators())
@example(K_ONE)
@example(K_FULL)
@example(LATE[0])
@example(LATE[1])
@example(WIDE_RATE[0])
@example(WIDE_RATE[1])
def test_information_sets_match_symbol_reference(gen):
    # The same sets in the same order with the same deficits, and the same
    # codeword weights in the same order for every message weight up to 3:
    # only the order of the A_j columns may differ, which no weight sees.
    got, want = _information_sets(LinearCode(gen)), information_sets_reference(gen)
    assert [s.deficit for s in got] == [s.deficit for s in want]
    for g, w in zip(got, want):
        assert g.rows.shape[:2] == w.rows.shape[:2]
        for v in range(1, min(3, gen.shape[0]) + 1):
            streams = [list(_layer_weights(g, v)), list(_layer_weights(w, v))]
            assert len(streams[0]) == len(streams[1])
            for a, b in zip(*streams):
                assert np.array_equal(a, b)
            assert g.kept == w.kept


def information_sets_per_set(gen):
    """The information sets from the same eliminations as
    ``_information_sets``, each set's table converted from its packed ints
    and transposed on its own."""
    k, n = gen.shape
    stride = gf4._stride(n)
    lo, hi = gf4._to_ints(gf4._pack_planes(gen, stride // 8))
    ones = ((1 << stride * k) - 1) // ((1 << stride) - 1)
    words = -(-(n - k) // 64) or 1
    unused = (1 << n) - 1
    sets = []
    while unused:
        lo, hi, pivots = linalg._eliminate(lo, hi, k, stride, unused)
        taken = sum(1 << c for c in pivots)
        fresh = taken & unused
        if not fresh:
            break
        free = (1 << n) - 1 ^ taken
        if words < -(-n // 64):
            a = [code._compact(x, free, ones) for x in (lo, hi)]
        else:
            a = [x & free * ones for x in (lo, hi)]
        multiples = [x for plane in zip(*gf4._plane_multiples(*a)) for x in plane]
        rows = gf4._from_ints(multiples, k, n)[..., :words].reshape(2, 3, k, words)
        rows = np.ascontiguousarray(rows.transpose(0, 3, 2, 1))
        sets.append(_InfoSet(k - fresh.bit_count(), rows, rows[:, :, :, 0]))
        unused ^= fresh
    return sets


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(edge_generators())
@example(K_ONE)
@example(K_FULL)
@example(LATE[0])
@example(LATE[1])
@example(WIDE_RATE[0])
@example(WIDE_RATE[1])
def test_information_sets_are_views_of_one_array(gen):
    # The same deficits and the same tables, word for word, as sets built
    # one at a time; every table a view of one array.
    got, want = _information_sets(LinearCode(gen)), information_sets_per_set(gen)
    assert [s.deficit for s in got] == [s.deficit for s in want]
    for g, w in zip(got, want):
        assert g.rows.dtype == w.rows.dtype and np.array_equal(g.rows, w.rows)
        assert np.array_equal(g.layer, w.layer) and g.kept == w.kept == 1
        assert g.rows.flags.c_contiguous and g.rows.base is not None
        assert g.rows.base is got[0].rows.base


@PROPERTY
@given(generators(), st.integers(1, 130), st.integers(1, 2000))
@example(K_ONE, 5, 1)
@example(K_FULL, 2, 2)
def test_engine_cutoff_and_budget(gen, t, budget):
    # the cutoff decides d >= t exactly; a budget-stopped run brackets d
    d = min_weight_oracle(LinearCode(gen))
    for mode in MODES:
        r = engine(gen, mode, cutoff=t)
        assert (r.exact and r.best >= t) == (d >= t), mode
        r = engine(gen, mode, budget=budget)
        assert r.bound <= d <= r.best and r.tried <= budget, mode
        assert r.exact == (r.best == d and r.stop != "budget"), mode


@st.composite
def high_rate_generators(draw):
    """A scrambled full-rank k x n generator with 11 <= k <= 26, n <= 30
    and n - k <= 8, beyond the oracle's direct enumeration."""
    k = draw(st.integers(11, 26))
    n = draw(st.integers(k + 1, min(30, k + 8)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.integers(0, 4, size=(k, n - k), dtype=np.uint8)
    return scramble(rng, np.hstack([np.eye(k, dtype=np.uint8), a]))


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(high_rate_generators())
def test_engine_matches_oracle_at_high_rate(gen):
    c = LinearCode(gen)
    d = min_weight_oracle(c)
    r = _min_weight(c)
    assert (r.best, r.exact, r.bound, r.stop) == (d, True, d, "bound")


def build_every_set(c, limit):
    return _information_sets(c)


@PROPERTY
@given(st.one_of(generators(), high_rate_generators()), st.integers(1, 40), st.integers(1, 3000))
@example(K_ONE, 1, 1)
@example(K_FULL, 2, 5)
@example(LATE[0], 3, 100)
@example(LATE[1], 3, 100)
@example(elliptic_quadric_code().gen, 4, 2000)
def test_unreachable_sets_change_no_result(gen, t, budget):
    # Over every set, the engine leaves unbuilt the sets it cannot reach:
    # every field of its result, with or without a cutoff or a budget, is
    # that of the run with every set built.
    c = LinearCode(gen)
    with mock.patch("hlcd4.code._alone_above", lambda n, k: n):
        for kwargs in ({}, {"cutoff": t}, {"budget": budget}):
            got = _min_weight(c, **kwargs)
            with mock.patch("hlcd4.code._information_sets", build_every_set):
                assert got == _min_weight(c, **kwargs), kwargs


@pytest.mark.parametrize(
    "c, built, every",
    [
        (elliptic_quadric_code(), 1, 2),
        (random_lcd(24, 20, 1), 1, 2),
        (random_lcd(30, 13, 1), 2, 3),
        (random_lcd(26, 13, 1), 2, 3),
        (random_lcd(70, 11, 1), 7, 7),
        (random_lcd(64, 11, 1), 6, 6),
        (random_lcd(24, 4, 1), 6, 6),
    ],
    ids=["[17,13] quadric", "[24,20]", "[30,13]", "[26,13]", "[70,11]", "[64,11]", "[24,4]"],
)
def test_sets_built_for_the_run(c, built, every):
    # The last set of the first four would first be used only after the
    # bound has reached the weight of row 0 (4, 2, 11 and 12); at [70,11]
    # the partial set comes at bound 48, below row 0's 49.  A limit of 0
    # builds set 0 alone, however many columns are left.
    row0 = np.count_nonzero(c.canonical[0])
    assert len(_information_sets(c, row0)) == built
    assert len(_information_sets(c)) == every
    assert len(_information_sets(c, 0)) == 1


def scrambled_standard(seed, n, k):
    rng = np.random.default_rng(seed)
    return LinearCode(scramble(rng, random_standard(rng, n, k).gen))


@pytest.mark.parametrize(
    "code",
    [
        elliptic_quadric_code(),
        random_standard(np.random.default_rng(24), 24, 16),
        scrambled_standard(30, 30, 22),
    ],
    ids=["[17,13] quadric", "[24,16]", "[30,22] scrambled"],
)
def test_engine_matches_oracle_beyond_k_10(code):
    r = _min_weight(code)
    assert r.stop == "bound" and r.tried < 10**5
    assert r.best == min_weight_oracle(code)


def test_engine_known_answer_at_26_13():
    # n - k = 13 is beyond the oracle; d = 6 was confirmed by enumerating
    # one codeword of each of the (4^13 - 1)/3 projective classes
    code = random_standard(np.random.default_rng(26), 26, 13)
    r = _min_weight(code)
    assert (r.best, r.exact, r.stop) == (6, True, "bound") and r.tried < 10**5


def test_stop_reasons():
    rng = np.random.default_rng(7)
    small = random_standard(rng, 12, 4)
    r = _min_weight(small)
    assert (r.stop, r.exact, r.bound) == ("bound", True, r.best)

    code = random_standard(rng, 30, 12)
    r = _min_weight(code)
    d = r.best
    assert (r.stop, r.exact, r.bound) == ("bound", True, d)

    r = _min_weight(code, cutoff=d + 1)
    assert (r.stop, r.exact) == ("cutoff", False) and r.best < d + 1

    r = _min_weight(code, budget=_min_weight(code).tried - 1)
    assert (r.stop, r.exact) == ("budget", False) and r.bound <= d <= r.best


QUADRIC = elliptic_quadric_code()


@pytest.mark.parametrize(
    "code, kwargs, expected",
    [
        (QUADRIC, {}, (4, True, 2821, 4, "bound")),
        (random_lcd(30, 15, 1), {}, (8, True, 8850, 8, "bound")),
        (random_lcd(30, 10, 1).hermitian_dual(), {}, (4, True, 10850, 4, "bound")),
        (QUADRIC, {"cutoff": 5}, (4, False, 1, 1, "cutoff")),
        (QUADRIC, {"budget": 100}, (4, False, 100, 2, "budget")),
        # These two stop inside a layer whose order depends on the kept-layer
        # rule, and on when a partial set catches up.
        (random_lcd(26, 13, 1).hermitian_dual(), {}, (6, True, 2379, 6, "bound")),
        (random_lcd(30, 15, 2), {"cutoff": 9}, (8, False, 149, 3, "cutoff")),
    ],
    ids=[
        "quadric",
        "[30,15]",
        "dual of [30,10]",
        "quadric cutoff",
        "quadric budget",
        "dual of [26,13]",
        "[30,15] seed 2 cutoff",
    ],
)
def test_engine_pinned_weights(code, kwargs, expected):
    # Every field, ``tried`` included, so the order in which the engine
    # enumerates codewords and where it stops stay fixed.
    assert _min_weight(code, **kwargs) == expected


def layer_weights_per_tail(s, v):
    """The enumeration with one chunk (or more) per tail: the weights of
    the codewords of every weight-v message on set ``s``, tail by tail, a
    long prefix cut so that each chunk holds at most ``_CHUNK`` codewords
    unless one tail's multiples alone are more."""
    chunk_size = code._CHUNK
    _, words, k, _ = s.rows.shape
    keep = s.kept == v - 1 and _layer_size(k, v) <= chunk_size
    kept = []
    zero = np.zeros((2, words, 1), dtype=s.rows.dtype)
    for tail in itertools.combinations(range(k), v - s.kept):
        size = _layer_size(tail[0] if tail else k, s.kept)
        if not size:
            continue
        t = s.rows[:, :, tail[0]] if tail else zero
        for i in tail[1:]:
            t = (t[..., None] ^ s.rows[:, :, i, None]).reshape(2, words, -1)
        step = max(1, chunk_size // t.shape[2])
        for lo in range(0, size, step):
            hi = min(lo + step, size)
            c = (t[..., None] ^ s.layer[:, :, None, lo:hi]).reshape(2, words, -1)
            yield np.bitwise_count(c[0] | c[1]).sum(axis=0, dtype=np.min_scalar_type(64 * words + v)) + v
            if keep:
                kept.append(c)
    if keep:
        s.kept = v
        s.layer = np.concatenate(kept, axis=2)


def assert_streams_match_per_tail(gen):
    # Every set and message weight up to 4, in order, so the kept layers
    # grow as they do in the engine.
    for got in _information_sets(LinearCode(gen)):
        want = _InfoSet(got.deficit, got.rows, got.layer)
        for v in range(1, min(4, gen.shape[0]) + 1):
            a = np.concatenate(list(_layer_weights(got, v)))
            b = np.concatenate(list(layer_weights_per_tail(want, v)))
            assert a.dtype == b.dtype and np.array_equal(a, b), v
            assert got.kept == want.kept, v
            assert np.array_equal(got.layer, want.layer), v


@PROPERTY
@given(generators())
@example(K_ONE)
@example(K_FULL)
@example(LATE[0])
@example(LATE[1])
def test_layer_weights_match_per_tail_reference(gen):
    # Chunks that span tails must not change the codeword order: the
    # concatenated stream and the kept layer equal the per-tail ones.
    # Tiny chunks split prefixes and make tails wider than a chunk.
    for mode in MODES:
        with chunk_mode(mode):
            assert_streams_match_per_tail(gen)


@pytest.mark.parametrize("mode", list(MODES))
@pytest.mark.parametrize("n, k", [(26, 13), (30, 13), (100, 9)])
def test_layer_weights_match_per_tail_reference_at_scale(n, k, mode):
    with chunk_mode(mode):
        assert_streams_match_per_tail(random_lcd(n, k, 1).gen)


@pytest.mark.parametrize(
    "bounds",
    [{}, {"_CHUNK": 7}, {"_CHUNK": 7, "_BATCH_WORDS": 200}, {"_CALL_BYTES": 0}, {"_CALL_BYTES": 1 << 40}],
    ids=["default", "tiny chunks", "tiny batch bound", "call per row", "one XOR"],
)
def test_batched_steps_match_one_code_each(bounds, monkeypatch):
    # The light test's batched steps against the engine's steps on one
    # code: for every message weight v <= 3, column b of the batched stream
    # is the stream of set 0 of (I_k | A_b), in value and dtype.  A batch
    # of 1, 7 or 300 codes, k = 1..9, n up to 70 (one and two words).  From
    # k = 3 on, tiny chunks refuse the kept layer and split the weight-2
    # step into several chunks.  A tiny batch bound gives the batch shorter
    # pieces than one code, which cut a long prefix at other points: the
    # same weights then come in another order within a tail.  The last two
    # make every kept t = 1 step by a call per row, or by one XOR wherever
    # a batch from the rows or one code allows it.
    for name, value in bounds.items():
        monkeypatch.setattr(code, name, value)
    ordered = "_BATCH_WORDS" not in bounds
    rng = np.random.default_rng(19)
    widths = set()
    for batch in (1, 7, 300):
        for k in range(1, 10):
            for n in (int(rng.integers(k + 1, 65)), 70):
                a = rng.integers(0, 4, size=(batch, k, n - k), dtype=np.uint8)
                rows = _multiples(_packed_rows(a))
                together = _InfoSet(0, rows, rows[:, :, :, 0])
                # Every seventh code of the batch and the last, one at a time.
                eye = np.eye(k, dtype=np.uint8)
                picked = sorted({*range(0, batch, 7), batch - 1})
                alone = {
                    b: _information_sets(LinearCode(np.hstack([eye, a[b]])))[0] for b in picked
                }
                widths.add(rows.shape[1])
                for v in range(1, min(3, k) + 1):
                    chunks = list(_layer_weights(together, v))
                    got = np.concatenate(chunks)
                    for b, s in alone.items():
                        want = np.concatenate(list(_layer_weights(s, v)))
                        column = got[:, b] if ordered else np.sort(got[:, b])
                        assert got.dtype == want.dtype
                        assert np.array_equal(column, want if ordered else np.sort(want))
                    if "_CHUNK" in bounds and k >= 3:
                        assert together.kept == 1
                        assert len(chunks) > 1 or v != 2
    assert widths == {1, 2}


@pytest.mark.parametrize("n, k", [(24, 4), (26, 13), (30, 13), (60, 5), (100, 9)])
def test_chunks_span_tails(n, k):
    # One XOR-and-count per up to _CHUNK codewords: a step's chunks hold as
    # many tails as fit, so there are at most about tried / _CHUNK chunks
    # beyond one per step.  One chunk or more per tail row is far above.
    calls = {"steps": 0, "chunks": 0}

    def counted(s, v):
        calls["steps"] += 1
        for weights in _layer_weights(s, v):
            calls["chunks"] += 1
            yield weights

    c = random_lcd(n, k, 1)
    with mock.patch("hlcd4.code._layer_weights", counted):
        r = _min_weight(c)
    assert calls["chunks"] <= calls["steps"] + -(-r.tried // code._CHUNK)


@pytest.mark.parametrize("budget", [0, -1])
def test_budget_below_one_is_refused(budget):
    c = random_lcd(12, 6, 1)
    with pytest.raises(ValueError, match="budget must be at least 1"):
        _min_weight(c, budget=budget)
    with pytest.raises(ValueError, match="budget must be at least 1"):
        c.min_weight(budget=budget)
    with pytest.raises(ValueError, match="budget must be at least 1"):
        c.summarize(budget=budget)
