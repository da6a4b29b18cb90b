"""Transforms: the two-vector update, deletions, orthonormalization."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hlcd4 import linalg
from hlcd4.code import LinearCode, min_weight_oracle
from hlcd4.errors import (
    AllCoordinatesDeletedError,
    Hlcd4Error,
    IsotropyError,
    LengthMismatchError,
    NotLcdError,
    NotStandardFormError,
    PreconditionError,
    ZeroVectorError,
)
from hlcd4.gf4 import MUL, from_symbols, hermitian_inner
from hlcd4.search import sample_isotropic_pair
from hlcd4.transform import (
    Derivative,
    IsotropicPair,
    _weight_hypothesis_failure,
    axy_construct,
    check_isotropic,
    lcd_column_parity,
    lcd_exactly_one,
    orthonormalize,
    puncture,
    shorten,
)

from conftest import code_with_hull, random_code, random_full_rank, random_lcd_with_margin

# --- isotropic pairs -------------------------------------------------------


def test_archetype_pair():
    p = IsotropicPair.from_symbols("11", "11")
    assert str(p) == "x=11 y=11"
    r = check_isotropic(p.x, p.y)
    assert r.isotropic and r.valid


def test_pair_validation():
    with pytest.raises(IsotropyError) as exc:
        IsotropicPair.from_symbols("10", "11")  # (x,x)_h = 1
    assert exc.value.xx == 1
    with pytest.raises(ZeroVectorError):
        IsotropicPair.from_symbols("00", "11")  # zero x fails validity
    # The zero test comes first, and reports all three products.
    with pytest.raises(ZeroVectorError) as exc:
        IsotropicPair.from_symbols("10", "00")
    assert str(exc.value) == "y is zero"
    assert exc.value.fields == {"xx": 1, "yy": 0, "xy": 0}
    with pytest.raises(LengthMismatchError):
        check_isotropic(from_symbols("11"), from_symbols("111"))


@pytest.mark.parametrize("entry", [257, 255, 4, -1])
def test_pair_entries_outside_the_field_are_refused(entry):
    # 257 would wrap to the valid pair (1100, 1100); 4..255 used to raise
    # a bare IndexError from the inner product.
    x, y = np.array([1, 1, 0, 0]), np.array([entry, 1, 0, 0])
    with pytest.raises(ValueError, match="entries must be in 0..3"):
        check_isotropic(x, y)
    with pytest.raises(ValueError, match="entries must be in 0..3"):
        IsotropicPair(x, y)


def test_pair_is_frozen_and_copied():
    x = from_symbols("11")
    p = IsotropicPair(x, x)
    x[0] = 0  # the pair must have captured its own copies
    assert p.x.tolist() == [1, 1]
    with pytest.raises(ValueError):
        p.x[0] = 0


def test_check_isotropic_report_fields():
    r = check_isotropic(from_symbols("1w"), from_symbols("00"))
    assert r.y_is_zero and not r.x_is_zero
    assert not r.valid
    # (1w, 1w)_h = 1*1 + w*w^2 = 1 + 1 = 0: isotropic but not valid as a pair
    assert r.xx == 0


@pytest.mark.parametrize(
    "x, y",
    [(1, 1), ([[1, 1]], [[1, 1]]), ([[1], [1]], [[1], [1]]), ([1, 1], [[1, 1]])],
    ids=["scalars", "rows", "columns", "vector-and-row"],
)
def test_pair_refuses_inputs_that_are_not_vectors(x, y):
    with pytest.raises(ValueError, match="must be vectors"):
        check_isotropic(x, y)
    with pytest.raises(ValueError, match="must be vectors"):
        IsotropicPair(x, y)


def test_check_isotropic_of_empty_vectors():
    r = check_isotropic([], [])
    assert (r.xx, r.yy, r.xy, r.x_is_zero, r.y_is_zero) == (0, 0, 0, True, True)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_check_isotropic_matches_hermitian_inner(data):
    # The three products are read off one Gram matrix; each must equal the
    # inner product taken on its own.
    n = data.draw(st.integers(0, 20), label="n")
    vectors = st.lists(st.integers(0, 3), min_size=n, max_size=n)
    x, y = (np.array(data.draw(vectors, label=v), dtype=np.uint8) for v in "xy")
    r = check_isotropic(x, y)
    products = hermitian_inner(x, x), hermitian_inner(y, y), hermitian_inner(x, y)
    assert (r.xx, r.yy, r.xy) == products
    assert all(type(v) is int for v in (r.xx, r.yy, r.xy))


# --- the two-vector update -------------------------------------------------


def test_axy_rejects_bad_inputs(rng):
    c = LinearCode.from_symbols("011\n101")  # left block is not the identity
    with pytest.raises(NotStandardFormError):
        axy_construct(c, from_symbols("1"), from_symbols("1"))
    std = LinearCode.from_symbols("10w\n01w")
    with pytest.raises(LengthMismatchError):
        axy_construct(std, from_symbols("11"), from_symbols("11"))
    with pytest.raises(ZeroVectorError):
        axy_construct(std, from_symbols("0"), from_symbols("1"))
    with pytest.raises(IsotropyError):
        axy_construct(std, from_symbols("1"), from_symbols("w"))
    # k = n leaves no columns to update, whatever the pair
    full = LinearCode(linalg.identity(3))
    with pytest.raises(NotStandardFormError, match="k < n"):
        axy_construct(full, from_symbols("1"), from_symbols("1"))
    with pytest.raises(NotStandardFormError, match="k < n"):
        axy_construct(full, IsotropicPair(from_symbols("11"), from_symbols("11")))


def test_axy_with_equal_vectors_is_identity(rng):
    for _ in range(20):
        k = int(rng.integers(1, 5))
        c = code_with_hull(rng, k, int(rng.integers(0, k + 1)), extra=2)
        x = _sample_pair_vector(rng, c.n - c.k)
        out = axy_construct(c, x, x)
        assert out == c


def _sample_pair_vector(rng, length):
    from hlcd4.gf4 import weight

    while True:
        x = rng.integers(0, 4, size=length, dtype=np.uint8)
        if x.any() and weight(x) % 2 == 0:
            return x


def test_axy_preserves_gram_and_hull(rng):
    for trial in range(100):
        k = int(rng.integers(1, 6))
        h = trial % (k + 1)
        c = code_with_hull(rng, k, h, extra=int(rng.integers(1, 3)))
        pair = sample_isotropic_pair(c.n - c.k, rng)
        out = axy_construct(c, pair)
        assert (out.n, out.k) == (c.n, c.k)
        assert np.array_equal(out.gram, c.gram)
        assert out.hull_dim() == h


def _axy_reference(a, x, y):
    """The update row by row: a_i + (a_i, y)_h x + (a_i, x)_h y."""
    return np.array(
        [row ^ MUL[hermitian_inner(row, y), x] ^ MUL[hermitian_inner(row, x), y] for row in a],
        dtype=np.uint8,
    ).reshape(a.shape)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_axy_update_property(data):
    # Standard-form codes with k <= 6 and n - k <= 8 at every hull
    # dimension, and pairs as the climb samples them.
    k = data.draw(st.integers(1, 6), "k")
    h = data.draw(st.integers(0, k), "hull")
    extra = data.draw(st.integers(max(0, 2 - k), 8 - k), "extra")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), "seed"))
    c = code_with_hull(rng, k, h, extra)
    pair = sample_isotropic_pair(c.n - c.k, rng)
    out = axy_construct(c, pair)
    assert np.array_equal(out.gram, c.gram)
    assert np.array_equal(out.gen[:, :k], linalg.identity(k))
    assert np.array_equal(out.gen[:, k:], _axy_reference(c.gen[:, k:], pair.x, pair.y))
    # A zero vector in either place is a ZeroVectorError, which is an
    # IsotropyError carrying the three inner products.
    zero = np.zeros(c.n - c.k, dtype=np.uint8)
    for x, y in ((zero, pair.y), (pair.x, zero)):
        with pytest.raises(ZeroVectorError) as exc:
            IsotropicPair(x, y)
        assert isinstance(exc.value, IsotropyError)
        assert (exc.value.xx, exc.value.yy, exc.value.xy) == (0, 0, 0)
        assert exc.value.fields == {"xx": 0, "yy": 0, "xy": 0}


@pytest.mark.parametrize("entry", [1.7, 5, -1, 256])
def test_axy_refuses_raw_generators_outside_the_field(entry):
    # 1.7 would truncate to 1 and 256 wrap to 0; 5 would index past MUL.
    pair = IsotropicPair.from_symbols("1w", "1w")
    with pytest.raises(ValueError, match="entries must be in 0..3"):
        axy_construct([[1, 0, entry, 0], [0, 1, 1, 1]], pair)


def test_axy_accepts_matrix_and_separate_vectors():
    gen = LinearCode.from_symbols("10ww\n01w1").gen
    pair = IsotropicPair.from_symbols("11", "ww")
    a = axy_construct(gen, pair)
    b = axy_construct(LinearCode(gen), pair.x, pair.y)
    assert a == b


# --- puncture / shorten ----------------------------------------------------


def test_puncture_hand_example():
    c = LinearCode.from_symbols("110\n001")
    assert puncture(c, 3) == LinearCode.from_symbols("11")
    assert puncture(c, []) == c
    with pytest.raises(AllCoordinatesDeletedError):
        puncture(c, [1, 2, 3])
    with pytest.raises(ValueError):
        puncture(c, 4)
    with pytest.raises(ValueError):
        puncture(c, 0)


def test_shorten_hand_example():
    c = LinearCode.from_symbols("110\n001")
    assert shorten(c, 1) == LinearCode.from_symbols("01")
    assert shorten(c, []) == c
    with pytest.raises(AllCoordinatesDeletedError):
        shorten(c, [1, 2, 3])
    # The zero code shortens to the zero code one coordinate shorter.
    zero = shorten(LinearCode(np.zeros((0, 4), dtype=np.uint8)), 2)
    assert zero.k == 0 and zero.n == 3


def test_puncture_to_zero_code():
    c = LinearCode.from_symbols("10")
    out = puncture(c, 1)
    assert out.k == 0 and out.n == 1


def test_puncture_keeps_dimension_when_d_at_least_2(rng):
    for _ in range(20):
        c = random_lcd_with_margin(rng, 10, 4)
        out = puncture(c, int(rng.integers(1, 11)))
        assert out.k == 4


def test_shorten_words_lie_in_parent(rng):
    for _ in range(20):
        n = int(rng.integers(4, 10))
        k = int(rng.integers(2, min(n - 1, 5) + 1))
        c = random_code(rng, n, k)
        t = sorted(set(int(v) for v in rng.integers(1, n + 1, size=2)))
        s = shorten(c, t)
        if s.k == 0:
            continue
        # reinsert zeros at the deleted coordinates; must be codewords
        full = np.zeros((s.k, n), dtype=np.uint8)
        keep = [i for i in range(n) if i + 1 not in t]
        full[:, keep] = s.gen
        assert linalg.rank(np.vstack([c.gen, full])) == c.k


def test_duality_identities(rng):
    # shortening the dual = dual of the puncture, and the reverse
    for _ in range(60):
        n = int(rng.integers(3, 11))
        k = int(rng.integers(1, n))
        c = random_code(rng, n, k)
        size = int(rng.integers(1, 3))
        t = sorted(set(rng.integers(1, n + 1, size=size).tolist()))
        lhs = shorten(c.hermitian_dual(), t)
        rhs = puncture(c, t).hermitian_dual()
        assert lhs == rhs
        lhs2 = puncture(c.hermitian_dual(), t)
        rhs2 = shorten(c, t).hermitian_dual()
        assert lhs2 == rhs2


def test_shorten_equals_dual_sandwich(rng):
    for _ in range(30):
        n = int(rng.integers(3, 10))
        k = int(rng.integers(1, n))
        c = random_code(rng, n, k)
        t = [int(rng.integers(1, n + 1))]
        assert shorten(c, t) == puncture(c.hermitian_dual(), t).hermitian_dual()


# --- the one-coordinate dichotomy ------------------------------------------


def test_lcd_exactly_one(rng):
    for _ in range(25):
        n = int(rng.integers(5, 12))
        k = int(rng.integers(2, min(n - 2, 6) + 1))
        c = random_lcd_with_margin(rng, n, k)
        for coord in range(1, n + 1):
            which = lcd_exactly_one(c, coord)
            p = puncture(c, coord).is_lcd()
            s = shorten(c, coord).is_lcd()
            assert p != s  # exactly one
            expected = Derivative.PUNCTURED if p else Derivative.SHORTENED
            assert which is expected


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_dichotomy_and_parity_agree_property(data):
    # random LCD codes of length at most 12: with d, d_dual >= 2 the
    # dichotomy, the direct checks and the parity prediction agree at every
    # coordinate; with d = 1 or d_dual = 1 the dichotomy refuses the code
    n = data.draw(st.integers(2, 12), label="n")
    k = data.draw(st.integers(1, n - 1), label="k")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    gen = np.random.default_rng(seed).integers(0, 4, size=(k, n), dtype=np.uint8)
    assume(linalg.rank(gen) == k)
    c = LinearCode(gen)
    assume(c.is_lcd())
    dual = c.hermitian_dual()
    margin = c.min_weight() >= 2 and (dual.k == 0 or dual.min_weight() >= 2)
    parity = lcd_column_parity(c)
    for coord in range(1, n + 1):
        if not margin:
            with pytest.raises(PreconditionError):
                lcd_exactly_one(c, coord)
            continue
        p = puncture(c, coord).is_lcd()
        s = shorten(c, coord).is_lcd()
        report = parity[coord - 1]
        assert report.coordinate == coord
        assert (report.puncture_is_lcd, report.shorten_is_lcd) == (p, s)
        assert lcd_exactly_one(c, coord) is (Derivative.PUNCTURED if p else Derivative.SHORTENED)


def test_lcd_exactly_one_preconditions(rng):
    non_lcd = code_with_hull(rng, 3, 1)
    with pytest.raises(PreconditionError, match="not LCD"):
        lcd_exactly_one(non_lcd, 1)
    weight_one = LinearCode(linalg.identity(3))
    with pytest.raises(PreconditionError, match="minimum weight"):
        lcd_exactly_one(weight_one, 1)
    # LCD with d = 2 but a zero column, so the dual has a weight-1 word
    dual_weight_one = LinearCode.from_symbols("1001\n0101")
    assert dual_weight_one.is_lcd() and dual_weight_one.min_weight() == 2
    with pytest.raises(PreconditionError, match="dual"):
        lcd_exactly_one(dual_weight_one, 1)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_lcd_exactly_one_hypothesis_matches_exact_weights(data):
    # The zero-column tests refuse a code exactly when the exact minimum
    # weights say so, with the same message, over k = 0..n; planted zero
    # columns and weight-1 rows reach both refusals often.
    n = data.draw(st.integers(1, 8), label="n")
    k = data.draw(st.integers(0, n), label="k")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    gen = rng.integers(0, 4, size=(k, n), dtype=np.uint8)
    if k and data.draw(st.booleans(), label="zero column"):
        gen[:, rng.integers(n)] = 0
    if k and data.draw(st.booleans(), label="weight-1 row"):
        gen[0] = 0
        gen[0, rng.integers(n)] = rng.integers(1, 4)
    assume(linalg.rank(gen) == k)
    c = LinearCode(gen)
    dual = c.hermitian_dual()
    if not c.is_lcd():
        refusal = "^input code is not LCD$"
    elif c.k and min_weight_oracle(c) < 2:
        refusal = "^minimum weight must be at least 2$"
    elif dual.k and min_weight_oracle(dual) < 2:
        refusal = "^dual minimum weight must be at least 2$"
    else:
        assert lcd_exactly_one(c, 1) in Derivative
        return
    with pytest.raises(PreconditionError, match=refusal):
        lcd_exactly_one(c, 1)


def weight_hypothesis_failure_from_dual(code):
    """The weight hypothesis read off the Hermitian dual: the code holds a
    weight-1 word on coordinate i exactly when column i of the dual's
    generator is zero, and the dual does when column i of the code's is."""
    if not code.hermitian_dual().gen.any(axis=0).all():
        return "minimum weight must be at least 2"
    if not code.gen.any(axis=0).all():
        return "dual minimum weight must be at least 2"
    return None


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_weight_hypothesis_matches_the_dual_based_rule(data):
    # The canonical rows' weights give the same verdict and message as the
    # dual's zero columns, LCD or not: zero and full codes, and planted
    # weight-1 rows and zero columns, hidden by a row mix.
    n = data.draw(st.integers(1, 12), label="n")
    k = data.draw(st.integers(0, n), label="k")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    gen = rng.integers(0, 4, size=(k, n), dtype=np.uint8)
    for _ in range(data.draw(st.integers(0, 2), label="zero columns") if k else 0):
        gen[:, rng.integers(n)] = 0
    for i in range(data.draw(st.integers(0, k), label="weight-1 rows")):
        gen[i] = 0
        gen[i, rng.integers(n)] = rng.integers(1, 4)
    assume(linalg.rank(gen) == k)
    if k:
        gen = linalg.multiply(random_full_rank(rng, k, k), gen)
    c = LinearCode(gen)
    assert _weight_hypothesis_failure(c) == weight_hypothesis_failure_from_dual(c)


# --- orthonormalization and the parity criterion ----------------------------


def test_orthonormalize_properties(rng):
    for _ in range(60):
        n = int(rng.integers(2, 13))
        k = int(rng.integers(1, n + 1))
        c = random_code(rng, n, k)
        if not c.is_lcd():
            with pytest.raises(NotLcdError):
                orthonormalize(c)
            continue
        W = orthonormalize(c)
        assert np.array_equal(linalg.gram(W), linalg.identity(k))
        assert LinearCode(W) == c


def test_orthonormalize_all_even_rows():
    # no odd-weight row: the first basis vector must be built from a pair
    c = LinearCode.from_symbols("011\n101")
    assert c.is_lcd()
    W = orthonormalize(c)
    assert np.array_equal(linalg.gram(W), linalg.identity(2))
    assert LinearCode(W) == c


def test_parity_predictions_match_direct_checks(rng):
    for _ in range(20):
        n = int(rng.integers(5, 11))
        k = int(rng.integers(2, min(n - 2, 5) + 1))
        c = random_lcd_with_margin(rng, n, k)
        for report in lcd_column_parity(c):
            i = report.coordinate
            assert report.puncture_is_lcd == puncture(c, i).is_lcd()
            assert report.shorten_is_lcd == shorten(c, i).is_lcd()
            assert report.puncture_is_lcd == (report.column_weight % 2 == 0)


def test_parity_weight_one_code():
    # d = 1 here, so the exactly-one guarantee does not apply: deleting
    # coordinate 1 either way collapses to the zero code, which counts as
    # LCD, and the odd-parity prediction names the shortened one
    c = LinearCode.from_symbols("100")
    reports = lcd_column_parity(c)
    assert reports[0].column_weight == 1
    assert reports[0].shorten_is_lcd and not reports[0].puncture_is_lcd
    assert shorten(c, 1).is_lcd()
    assert puncture(c, 1).k == 0  # the caveat case: both derivatives vanish
    # zero columns are even: puncturing there changes nothing and stays LCD
    assert reports[1].column_weight == 0
    assert reports[1].puncture_is_lcd
    assert puncture(c, 2).is_lcd()


def test_parity_requires_lcd(rng):
    with pytest.raises(NotLcdError):
        lcd_column_parity(code_with_hull(rng, 2, 1))
