"""LinearCode: duals, hulls, minimum weight, and their oracles."""

import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hlcd4 import code as code_mod
from hlcd4 import gf4, linalg
from hlcd4.code import (
    CodeSummary,
    LinearCode,
    _light_survivors,
    _macwilliams,
    _min_weight,
    _multiples,
    _packed_rows,
    _weight_distribution,
    hull_dim_oracle,
    min_weight_oracle,
)
from hlcd4.errors import BudgetExceededError, RankDeficientError, TooLargeError
from hlcd4.gf4 import CONJ, MUL

from conftest import code_with_hull, random_code, random_full_rank, random_standard


def test_constructor_validation():
    with pytest.raises(ValueError):
        LinearCode(np.zeros(3, dtype=np.uint8))
    with pytest.raises(ValueError):
        LinearCode(np.zeros((2, 0), dtype=np.uint8))
    with pytest.raises(ValueError):
        LinearCode(np.array([[4, 0]], dtype=np.uint8))
    with pytest.raises(RankDeficientError):
        LinearCode(np.array([[1, 2], [2, 3]], dtype=np.uint8))  # row2 = w*row1
    zero = LinearCode(np.zeros((0, 5), dtype=np.uint8))
    assert zero.k == 0 and zero.n == 5


@pytest.mark.parametrize("entry", [257, -255, 1.7, 4])
def test_generator_entries_outside_the_field_are_refused(entry):
    # Not wrapped or truncated into the identity code.
    with pytest.raises(ValueError, match="entries must be in 0..3"):
        LinearCode(np.array([[entry, 0], [0, 1]]))


def test_from_symbols():
    c = LinearCode.from_symbols("1 0 w\n0 1 W")
    assert (c.n, c.k) == (3, 2)
    assert str(c) == "10w\n01W"
    assert repr(c) == "LinearCode(n=3, k=2)"
    with pytest.raises(ValueError):
        LinearCode.from_symbols("10\n011")
    with pytest.raises(ValueError):
        LinearCode.from_symbols("   ")


def test_generator_is_immutable():
    c = LinearCode.from_symbols("10\n01")
    with pytest.raises(ValueError):
        c.gen[0, 0] = 3
    with pytest.raises(ValueError):
        c.gram[0, 0] = 1
    with pytest.raises(ValueError):
        c.canonical[0, 0] = 3


def test_construction_unpacks_nothing(monkeypatch, rng):
    # A code keeps only the packed planes of its reduced form; reading
    # ``canonical`` unpacks them, and building the code does not.
    calls = []
    unpack = gf4._unpack_planes
    counted = lambda planes, m: calls.append(m) or unpack(planes, m)
    for module in (gf4, linalg, code_mod):
        monkeypatch.setattr(module, "_unpack_planes", counted)
    gens = [random_full_rank(rng, k, n) for n, k in ((12, 8), (30, 15), (70, 5))]
    codes = [LinearCode(g) for g in gens] + [LinearCode(np.zeros((0, 6), dtype=np.uint8))]
    assert calls == []
    canonical = [c.canonical for c in codes]
    assert calls == [c.n for c in codes]
    for c, form in zip(codes, canonical):
        assert np.array_equal(form, linalg.rref(c.gen)[0][: c.k])


def test_equality_and_hash_follow_the_canonical_form(rng):
    # Zero codes of several lengths, codes of one length and every
    # dimension, and row-mixed generators of the same codes.
    codes = [LinearCode(np.zeros((0, n), dtype=np.uint8)) for n in (1, 5, 6)]
    codes += [random_code(rng, 6, k) for k in range(1, 7) for _ in range(2)]
    mixed = [LinearCode(linalg.multiply(random_full_rank(rng, c.k, c.k), c.gen)) for c in codes[3:]]
    assert not any(np.array_equal(m.gen, c.gen) for m, c in zip(mixed, codes[3:]))
    for a, b in itertools.product(codes + mixed, repeat=2):
        same = a.n == b.n and np.array_equal(a.canonical, b.canonical)
        assert (a == b) is same and (a != b) is not same
        if same:
            assert hash(a) == hash(b)
    assert mixed == codes[3:]


def test_equality_is_row_space_equality(rng):
    for _ in range(30):
        c = random_code(rng, 8, 3)
        # rescale and recombine rows: same code, different matrix
        mixed = c.gen.copy()
        from hlcd4.gf4 import MUL

        mixed[0] = MUL[2, mixed[0]]
        mixed[1] ^= mixed[0]
        d = LinearCode(mixed)
        assert c == d and hash(c) == hash(d)
    a = LinearCode.from_symbols("10")
    b = LinearCode.from_symbols("01")
    assert a != b
    assert a != "10"


def test_dual_dimensions_and_orthogonality(rng):
    for _ in range(40):
        n = int(rng.integers(2, 11))
        k = int(rng.integers(1, n + 1))
        c = random_code(rng, n, k)
        dual = c.hermitian_dual()
        assert (dual.n, dual.k) == (n, n - k)
        if dual.k:
            # every dual word is Hermitian-orthogonal to every codeword
            prods = linalg.multiply(c.gen, linalg.conj_transpose(dual.gen))
            assert not prods.any()
        assert dual.hermitian_dual() == c


def test_dual_edge_cases():
    full = LinearCode(linalg.identity(4))
    assert full.hermitian_dual().k == 0
    zero = LinearCode(np.zeros((0, 4), dtype=np.uint8))
    assert zero.hermitian_dual() == full


def test_dual_matches_kernel_of_conjugate(rng):
    # The dual's basis comes from the conjugated canonical form; it is the
    # kernel basis of the conjugated generator, byte for byte.
    codes = [LinearCode(np.zeros((0, 4), dtype=np.uint8)), LinearCode(linalg.identity(4))]
    for n in (1, 5, 12, 40, 70):
        codes += [random_code(rng, n, k) for k in sorted({1, n // 2, n - 1, n} - {0})]
    for c in codes:
        want = LinearCode(linalg.kernel(CONJ[c.gen])).gen
        got = c.hermitian_dual().gen
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_engine_and_summary_reuse_reductions(monkeypatch):
    # The engine starts from a code's own reduced planes, with no
    # reduction; a summary reduces twice: the dual's basis once, inside
    # ``hermitian_dual`` as it builds the dual as a code, and the Gram
    # matrix once.
    rng = np.random.default_rng(5)
    codes = [random_standard(rng, n, k) for n, k in ((12, 8), (24, 4), (70, 11))]
    calls = []
    reduce = linalg._reduce
    monkeypatch.setattr(linalg, "_reduce", lambda m: calls.append(m.shape) or reduce(m))
    dual = LinearCode.hermitian_dual
    monkeypatch.setattr(LinearCode, "hermitian_dual", lambda c: calls.append("dual") or dual(c))
    for c in codes:
        _min_weight(c)
        c.min_weight()
        assert calls == []
        c.summarize()
        assert calls == ["dual", (c.n - c.k, c.n), (c.k, c.k)]
        calls.clear()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_summary_matches_the_long_way(data):
    # Every field equals the long way round: the dual built as a code and
    # enumerated from its canonical form, and the hull from its definition
    # (even is self-orthogonal: the hull is the whole code).  Budgets stop
    # at or just before the end of either enumeration, or at once, so d,
    # d_dual or both are truncated.  The engine finds the same, field for
    # field, from the code itself and from codes built from its canonical
    # form and from a row-mixed generator.
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    if data.draw(st.booleans(), label="random generator"):
        n = data.draw(st.integers(1, 14), label="n")
        k = data.draw(st.integers(0, n), label="k")
        c = LinearCode(random_full_rank(rng, k, n) if k else linalg.zeros(0, n))
    else:
        k = data.draw(st.integers(1, 6), label="k")
        h = data.draw(st.integers(0, k), label="hull")
        c = code_with_hull(rng, k, h, data.draw(st.integers(0, 3), label="extra"))
    dual = c.hermitian_dual()
    tried = [_min_weight(LinearCode(x.canonical)).tried if x.k else 0 for x in (c, dual)]
    budget = data.draw(
        st.sampled_from([None, 1, *(t + e for t in tried for e in (-1, 0))]), label="budget"
    )
    budget = budget if budget is None else max(budget, 1)

    def weight(x):
        if x.k == 0:
            return 0, True
        r = _min_weight(LinearCode(x.canonical), budget=budget)
        return r.best, r.exact

    (d, d_exact), (d_dual, d_dual_exact) = weight(c), weight(dual)
    hull = hull_dim_oracle(c)
    want = CodeSummary(c.n, c.k, d, d_dual, hull, hull == 0, hull == c.k, d_exact, d_dual_exact)
    assert c.summarize(budget) == want
    if c.k:
        mix = linalg.multiply(random_full_rank(rng, c.k, c.k), c.gen)
        want = _min_weight(LinearCode(c.canonical), budget=budget)
        assert _min_weight(c, budget=budget) == want
        assert _min_weight(LinearCode(mix), budget=budget) == want


def test_hull_dim_matches_oracle(rng):
    for _ in range(200):
        n = int(rng.integers(1, 13))
        k = int(rng.integers(1, n + 1))
        c = random_code(rng, n, k)
        assert c.hull_dim() == hull_dim_oracle(c)


def test_lcd_and_even_predicates(rng):
    # even <=> vanishing Gram <=> self-orthogonal; check against codeword
    # weights directly on small codes
    for _ in range(40):
        n = int(rng.integers(2, 9))
        c = random_code(rng, n, int(rng.integers(1, min(n, 4) + 1)))
        assert c.is_lcd() == (c.hull_dim() == 0)
        weights_even = all(
            (np.count_nonzero(w) % 2 == 0)
            for w in _all_codewords(c)
        )
        assert c.is_even() == weights_even
    zero = LinearCode(np.zeros((0, 3), dtype=np.uint8))
    assert zero.is_lcd() and zero.hull_dim() == 0


def _all_codewords(c):
    from hlcd4.gf4 import MUL

    words = []
    for msg in range(4**c.k):
        digits = [(msg >> (2 * i)) & 3 for i in range(c.k)]
        w = np.zeros(c.n, dtype=np.uint8)
        for i, d in enumerate(digits):
            w ^= MUL[d, c.gen[i]]
        words.append(w)
    return words


def test_min_weight_matches_oracle(rng):
    for _ in range(120):
        n = int(rng.integers(2, 13))
        k = int(rng.integers(1, min(n, 8) + 1))
        c = random_code(rng, n, k)
        assert c.min_weight() == min_weight_oracle(c)


def test_min_weight_known_codes():
    assert LinearCode(linalg.identity(5)).min_weight() == 1
    assert LinearCode.from_symbols("1wW1").min_weight() == 4
    # the hexacode is self-dual with weight 4
    hexacode = LinearCode.from_symbols("100 1ww\n010 w1w\n001 ww1")
    assert hexacode.min_weight() == 4
    assert hexacode.hermitian_dual() == hexacode


def test_min_weight_budget_semantics(rng):
    # the budget counts enumerated codewords: a run completes exactly at its
    # own count, at k = 6 and at k = 10
    for c in (random_standard(rng, 16, 6), random_standard(rng, 30, 10)):
        r = _min_weight(c)
        assert r.exact and r.stop == "bound"
        assert c.min_weight(budget=r.tried) == c.min_weight() == r.best
        with pytest.raises(BudgetExceededError) as exc:
            c.min_weight(budget=r.tried - 1)
        assert exc.value.upper_bound >= r.best
    with pytest.raises(ValueError):
        LinearCode(np.zeros((0, 4), dtype=np.uint8)).min_weight()


def test_min_weight_oracle_limits(rng):
    with pytest.raises(ValueError, match="requires k >= 1"):
        min_weight_oracle(LinearCode(np.zeros((0, 4), dtype=np.uint8)))
    # k > 10 is counted on the dual while n - k <= 10; beyond both, too large
    with pytest.raises(TooLargeError):
        min_weight_oracle(random_standard(rng, 24, 11))
    with pytest.raises(TooLargeError):
        min_weight_oracle(random_standard(rng, 22, 11))
    assert min_weight_oracle(LinearCode(linalg.identity(12))) == 1
    c = random_standard(rng, 19, 11)
    assert min_weight_oracle(c) == c.min_weight()


def test_weight_distribution_and_macwilliams(rng):
    # the brute-force distribution has A_0 = 1 and sums to 4^k; where both
    # the code and its dual are small, MacWilliams on the dual's distribution
    # gives the code's own, so both oracle branches agree
    for _ in range(40):
        n = int(rng.integers(1, 13))
        k = int(rng.integers(max(0, n - 7), min(n, 7) + 1))
        c = random_code(rng, n, k)
        counts = _weight_distribution(c.gen)
        assert len(counts) == n + 1 and counts[0] == 1 and sum(counts) == 4**k
        assert all(type(a) is int and a >= 0 for a in counts)
        assert _macwilliams(_weight_distribution(c.hermitian_dual().gen), n) == counts


def _light_reference(a: np.ndarray) -> np.ndarray:
    """Minimum of wt(m) + wt(mA) over the messages m of weight 1 to 3, per
    code of the (B, k, m) batch; every message, by itertools and MUL."""
    batch, k, _ = a.shape
    best = np.full(batch, np.iinfo(np.int64).max)
    for v in (1, 2, 3):
        for rows in itertools.combinations(range(k), v):
            for factors in itertools.product((1, 2, 3), repeat=v):
                word = np.zeros((batch, a.shape[2]), dtype=np.uint8)
                for i, f in zip(rows, factors):
                    word ^= MUL[f, a[:, i]]
                best = np.minimum(best, v + np.count_nonzero(word, axis=1))
    return best


def _row_multiples_reference(a):
    """Rows packed by an integer product of the uint64 bit planes with a
    placement matrix, one word type chosen from the data (one word only);
    the multiples formed plane by plane, batch axes moved last."""
    if a.shape[-1] == 0:
        a = np.zeros(a.shape[:-1] + (1,), dtype=np.uint8)
    cols = np.arange(a.shape[-1])
    place = np.zeros((len(cols), -(-len(cols) // 64)), dtype=np.uint64)
    place[cols, cols // 64] = np.uint64(1) << (cols % 64).astype(np.uint64)
    p = (np.stack([a & 1, a >> 1]) @ place).swapaxes(-1, -2)
    if p.shape[-2] == 1:
        p = p.astype(np.min_scalar_type(int(p.max())))
    x = p[0] ^ p[1]
    m = np.stack([np.stack([p[0], p[1], x], axis=-1), np.stack([p[1], x, p[0]], axis=-1)])
    batch = a.ndim - 2
    return np.moveaxis(m, range(1, 1 + batch), range(-batch, 0))


@pytest.mark.parametrize("m", [0, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 128, 129])
def test_row_multiples_match_matmul_packing(rng, m):
    # one word type per width of m: uint8 up to 8 columns, uint16 up to 16,
    # uint32 up to 32, uint64 words above; both planes on the first axis and
    # the batch axes last
    word = np.dtype(f"uint{next((bits for bits in (8, 16, 32) if m <= bits), 64)}")
    for shape in ((5, m), (3, 4, m), (2, 3, 1, m), (1, 6, m)):
        a = rng.integers(0, 4, size=shape, dtype=np.uint8)
        # some rows all 0 or all 3, so the top columns are clear or set
        a[..., 0, :] = 0
        a[..., -1, :] = 3
        got = _multiples(_packed_rows(a))
        want = _row_multiples_reference(a)
        assert got.shape == want.shape == (2, max(1, -(-m // 64)), shape[-2], 3) + shape[:-2]
        assert got.dtype == word
        assert np.array_equal(got.astype(np.uint64), want.astype(np.uint64))
        # a strided input packs the same
        if m > 1:
            wide = np.repeat(a, 2, axis=-1)[..., ::2]
            assert np.array_equal(_multiples(_packed_rows(wide)), got)


def test_light_survivors_match_reference(rng, monkeypatch):
    # the layered light test against every message of weight at most 3, for
    # targets 1 to 7; exact against min_weight for targets up to 4.  Batches
    # of 1 to 5 codes, k in {1, 2, 3} at n = 4, 64 and past one word, an
    # empty A at k = n = 4, each also with most A columns zeroed so that low
    # weights occur at every length; then one batch of 60 with a batch bound
    # small enough to split every step into several chunks and refuse the
    # kept layer
    shapes = [(int(rng.integers(6, 20)), None, None) for _ in range(30)]
    shapes += [(n, k, None) for n in (4, 64, 65, 70, 129) for k in (1, 2, 3)] + [(4, 4, None)]
    shapes += [(12, 6, 60), (70, 5, 60)]
    for n, k, size in shapes:
        if k is None:
            k = int(rng.integers(1, min(n - 1, 9) + 1))
        if size:
            monkeypatch.setattr(code_mod, "_BATCH_WORDS", 200)
        for zeroed in (0.0, 0.9):
            batch = size or int(rng.integers(1, 6))
            a = rng.integers(0, 4, size=(batch, k, n - k), dtype=np.uint8)
            a[:, :, rng.random(n - k) < zeroed] = 0
            light = _light_reference(a)
            d = [LinearCode(np.hstack([linalg.identity(k), rows])).min_weight() for rows in a]
            for target in range(1, 8):
                survivors = _light_survivors(a, target)
                assert survivors.tolist() == np.flatnonzero(light >= target).tolist()
                assert (np.diff(survivors) > 0).all()
                if target <= 4:
                    assert survivors.tolist() == [i for i, w in enumerate(d) if w >= target]


def test_light_survivors_at_the_first_step_edges(rng, monkeypatch):
    # Step v = 1 reads only the packed rows.  A batch whose every code dies
    # there (a zero row of A gives a codeword of weight 1) returns before
    # the w and w^2 multiples exist; a batch whose every code survives it
    # (no zero symbol in A) builds them once, for the whole batch, when a
    # step v = 2 follows.  Both against the reference.
    built = []

    def multiples(p):
        built.append(p.shape[-1])
        return build(p)

    build = code_mod._multiples
    monkeypatch.setattr(code_mod, "_multiples", multiples)
    batch, k, m = 40, 5, 7
    dead = rng.integers(0, 4, size=(batch, k, m), dtype=np.uint8)
    dead[:, 2] = 0
    live = rng.integers(1, 4, size=(batch, k, m), dtype=np.uint8)
    for target in range(2, 8):
        built.clear()
        assert _light_survivors(dead, target).tolist() == []
        assert (_light_reference(dead) < target).all() and built == []
        survivors = _light_survivors(live, target)
        assert survivors.tolist() == np.flatnonzero(_light_reference(live) >= target).tolist()
        assert built == ([batch] if target > 2 else [])


def test_one_message_enumerator():
    # Both weight tests enumerate messages through _layer_weights: no second
    # table of messages, and one place that walks the row combinations.
    source = Path(code_mod.__file__).read_text()
    assert "def _light_messages" not in source
    assert not hasattr(code_mod, "_light_messages")
    assert source.count("itertools.combinations") <= 1


def test_scan_handles_n_above_64(rng, monkeypatch):
    # lengths on both sides of each narrowed word (8, 16 and 32 bits) and of
    # each 64-bit word boundary; a short chunk splits every layer and makes
    # messages take tails of several rows
    for n in (8, 9, 16, 17, 32, 33, 63, 64, 65, 127, 128, 129):
        for k in (1, 3, 6):
            c = random_code(rng, n, k)
            d = min_weight_oracle(c)
            assert c.min_weight() == d
            with monkeypatch.context() as m:
                m.setattr("hlcd4.code._CHUNK", 7)
                assert c.min_weight() == d
    # weights above 255 overflow a uint8 popcount sum
    c = random_code(rng, 400, 2)
    assert c.min_weight() == min_weight_oracle(c) > 255
    # budget and cutoff behave as on a one-word code
    c = random_code(rng, 70, 4)
    tried = _min_weight(c).tried
    d = c.min_weight(budget=tried)
    assert d == min_weight_oracle(c)
    with pytest.raises(BudgetExceededError) as exc:
        c.min_weight(budget=tried - 1)
    assert exc.value.upper_bound >= d
    assert _min_weight(c, cutoff=d)[:2] == (d, True)
    assert _min_weight(c, cutoff=d + 1).exact is False


def test_summarize_round_trip(rng):
    c = random_standard(rng, 10, 4)
    s = c.summarize()
    assert (s.n, s.k) == (10, 4)
    assert s.d == c.min_weight()
    assert s.d_dual == c.hermitian_dual().min_weight()
    assert s.hull_dim == c.hull_dim()
    assert s.is_lcd == c.is_lcd()
    assert s.d_exact and s.d_dual_exact
    assert "d_exact" not in s.to_dict()


def test_summarize_zero_and_full():
    zero = LinearCode(np.zeros((0, 4), dtype=np.uint8))
    s = zero.summarize()
    assert s.d == 0 and s.d_dual == 1  # dual is the full [4,4] code
    full = LinearCode(linalg.identity(4))
    s = full.summarize()
    assert s.d == 1 and s.d_dual == 0


def test_summarize_budget_truncation(rng):
    c = random_standard(rng, 18, 7)
    s = c.summarize(budget=10)
    assert not s.d_exact
    assert s.d >= c.min_weight()
    d = s.to_dict()
    assert d["d_exact"] is False


def test_summary_to_dict_keys():
    s = CodeSummary(n=5, k=2, d=3, d_dual=2, hull_dim=0, is_lcd=True, is_even=False)
    assert set(s.to_dict()) == {"n", "k", "d", "d_dual", "hull_dim", "is_lcd", "is_even"}
