"""Matrix layer: products, reduction, kernels, standard form."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hlcd4 import gf4, linalg
from hlcd4.errors import DimensionMismatchError, RankDeficientError

from conftest import random_full_rank


def naive_multiply(a, b):
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.uint8)
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = 0
            for l in range(a.shape[1]):
                acc = gf4.add(acc, gf4.mul(int(a[i, l]), int(b[l, j])))
            out[i, j] = acc
    return out


def naive_rref(m):
    """Gauss-Jordan over ``gf4.mul`` on lists: in the leftmost unresolved
    column, the first nonzero row from the top becomes the pivot."""
    rows = [[int(x) for x in row] for row in m]
    cols = m.shape[1]
    pivots = []
    for c in range(cols):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = next(x for x in (1, 2, 3) if gf4.mul(x, rows[r][c]) == 1)
        rows[r] = [gf4.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            f = rows[i][c]
            if i != r and f:
                rows[i] = [gf4.add(x, gf4.mul(f, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return np.array(rows, dtype=np.uint8).reshape(m.shape), pivots


def test_multiply_matches_naive(rng):
    for _ in range(50):
        i, l, j = (int(v) for v in rng.integers(1, 6, size=3))
        a = rng.integers(0, 4, size=(i, l), dtype=np.uint8)
        b = rng.integers(0, 4, size=(l, j), dtype=np.uint8)
        assert np.array_equal(linalg.multiply(a, b), naive_multiply(a, b))


def test_multiply_shape_errors():
    a = np.zeros((2, 3), dtype=np.uint8)
    with pytest.raises(DimensionMismatchError):
        linalg.multiply(a, np.zeros((2, 2), dtype=np.uint8))
    with pytest.raises(DimensionMismatchError):
        linalg.multiply(a, np.zeros(3, dtype=np.uint8))


def test_multiply_empty_operands():
    a = np.zeros((0, 3), dtype=np.uint8)
    b = np.zeros((3, 2), dtype=np.uint8)
    assert linalg.multiply(a, b).shape == (0, 2)
    # an empty inner dimension gives the zero matrix
    a = np.ones((2, 0), dtype=np.uint8)
    b = np.ones((0, 3), dtype=np.uint8)
    product = linalg.multiply(a, b)
    assert product.dtype == np.uint8 and np.array_equal(product, np.zeros((2, 3)))
    a = np.ones((2, 3), dtype=np.uint8)
    b = np.ones((3, 0), dtype=np.uint8)
    product = linalg.multiply(a, b)
    assert product.dtype == np.uint8 and product.shape == (2, 0)


def test_conj_transpose_involution(rng):
    m = rng.integers(0, 4, size=(3, 5), dtype=np.uint8)
    assert np.array_equal(linalg.conj_transpose(linalg.conj_transpose(m)), m)
    assert linalg.conj_transpose(m).shape == (5, 3)


def test_gram_is_hermitian(rng):
    for _ in range(30):
        g = rng.integers(0, 4, size=(4, 9), dtype=np.uint8)
        gm = linalg.gram(g)
        assert np.array_equal(gm, linalg.conj_transpose(gm))
        # diagonal = row weight parities
        for i in range(4):
            assert gm[i, i] == gf4.weight(g[i]) % 2


def test_rref_shape_and_idempotence(rng):
    for _ in range(50):
        k, n = (int(v) for v in rng.integers(1, 8, size=2))
        m = rng.integers(0, 4, size=(k, n), dtype=np.uint8)
        R, pivots = linalg.rref(m)
        # pivot columns carry unit vectors
        for row, c in enumerate(pivots):
            col = np.zeros(k, dtype=np.uint8)
            col[row] = 1
            assert np.array_equal(R[:, c], col)
        R2, pivots2 = linalg.rref(R)
        assert np.array_equal(R, R2) and pivots == pivots2
        # row space unchanged: stacking adds no rank
        assert linalg.rank(np.vstack([m, R])) == linalg.rank(m)


def planted(m, masks):
    """``m`` with the lowest, a middle and the highest column of each mask
    zeroed, and its last row replaced by the sum of the others (zero when
    it is the only row).  The eliminator meets the zero columns at the
    start, in the middle and at the end of a mask, and the rank stays
    below the row count, so it meets some both before and after the later
    rows run out: it skips the column, or stops."""
    m = m.copy()
    for mask in masks:
        cols = [c for c in range(m.shape[1]) if mask >> c & 1]
        if cols:
            m[:, [cols[0], cols[len(cols) // 2], cols[-1]]] = 0
    if len(m):
        m[-1] = np.bitwise_xor.reduce(m[:-1], axis=0)
    return m


def test_rref_matches_naive(rng):
    # empty shapes, k = 1, widths on both sides of 64-bit words, up to 30
    # rows, with zeroed columns and repeated rows, then each shape again
    # with planted zero columns and a dependent row
    shapes = [(0, 5), (4, 0), (0, 0), (1, 1), (1, 9)]
    shapes += [(int(rng.integers(1, 31)), n) for n in (63, 64, 65, 129) for _ in range(3)]
    shapes += [(int(rng.integers(1, 31)), int(rng.integers(1, 40))) for _ in range(60)]
    for plant in (False, True):
        for rows, cols in shapes:
            m = rng.integers(0, 4, size=(rows, cols), dtype=np.uint8)
            if rows and cols:
                m[:, rng.random(cols) < 0.3] = 0
                m[rng.integers(0, rows, size=rows // 3)] = m[rng.integers(0, rows)]
            if plant:
                m = planted(m, [(1 << cols) - 1])
            R, pivots = linalg.rref(m)
            expected, expected_pivots = naive_rref(m)
            assert R.dtype == np.uint8 and R.shape == m.shape
            assert np.array_equal(R, expected) and pivots == expected_pivots, (rows, cols)


@st.composite
def matrices(draw):
    """A matrix of up to 12 rows and 70 columns, empty ones included, with
    zeroed columns and repeated rows, so often rank deficient."""
    rows, cols = draw(st.integers(0, 12)), draw(st.integers(0, 70))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = rng.integers(0, 4, size=(rows, cols), dtype=np.uint8)
    if rows and cols:
        m[:, rng.random(cols) < draw(st.sampled_from([0, 0.3, 0.9]))] = 0
        m[rng.integers(0, rows, size=draw(st.integers(0, rows)))] = m[rng.integers(0, rows)]
    return m


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(matrices())
@example(np.zeros((0, 0), dtype=np.uint8))
@example(np.zeros((3, 0), dtype=np.uint8))
@example(np.zeros((0, 5), dtype=np.uint8))
@example(np.zeros((4, 6), dtype=np.uint8))
def test_rref_commutes_with_conjugation(m):
    # Conjugation is a field automorphism: it maps the reduced form to the
    # reduced form of the conjugate, with the same pivots.
    R, pivots = linalg.rref(m)
    conj_R, conj_pivots = linalg.rref(gf4.CONJ[m])
    assert np.array_equal(conj_R, gf4.CONJ[R]) and conj_pivots == pivots


@st.composite
def mixed_standard(draw):
    """An (I_k | A) matrix, k <= 12 and n <= 70, with its rows mixed by a
    random invertible matrix: its reduced form is (I_k | A) again."""
    n = draw(st.integers(1, 70))
    k = draw(st.integers(1, min(n, 12)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.integers(0, 4, size=(k, n - k), dtype=np.uint8)
    return linalg.multiply(random_full_rank(rng, k, k), np.hstack([linalg.identity(k), a]))


def eliminated(m, first):
    """``linalg._eliminate`` on the packed planes of ``m``, unpacked."""
    rows, cols = m.shape
    stride = gf4._stride(cols)
    planes = gf4._to_ints(gf4._pack_planes(m, stride // 8))
    lo, hi, pivots = linalg._eliminate(*planes, rows, stride, first)
    return gf4._unpack_planes(gf4._from_ints((lo, hi), rows, cols), cols), pivots


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.one_of(matrices(), mixed_standard()), st.data())
def test_eliminate_is_unique_for_a_column_order(m, data):
    # The columns of ``first`` come first, then the rest.  For that order
    # the matrix, its reduced form in column order, and its reduced form
    # for the order itself, which is (I | A) on the pivots, give the same
    # planes and pivots; the last two meet unit columns at some or all of
    # their pivots, and the unit-column test must leave them as they are.
    # Gauss-Jordan on the reordered symbols is the reference.
    rows, cols = m.shape
    everything = (1 << cols) - 1
    first = data.draw(st.sampled_from([everything, 0]) | st.integers(0, everything))
    if data.draw(st.booleans()):
        m = planted(m, [first, everything ^ first])
    order = [c for c in range(cols) if first >> c & 1] + [c for c in range(cols) if not first >> c & 1]
    reduced, pivots = naive_rref(m[:, order])
    want = np.empty_like(m)
    want[:, order] = reduced
    want_pivots = [order[p] for p in pivots]
    for basis in (m, linalg.rref(m)[0], want):
        got, got_pivots = eliminated(basis, first)
        assert np.array_equal(got, want) and got_pivots == want_pivots
    assert linalg.rank(m) == len(pivots)


def test_rank_basics(rng):
    assert linalg.rank(linalg.identity(5)) == 5
    assert linalg.rank(linalg.zeros(3, 4)) == 0
    assert linalg.rank(np.zeros((0, 4), dtype=np.uint8)) == 0
    assert linalg.rank(np.zeros((3, 0), dtype=np.uint8)) == 0
    m = random_full_rank(rng, 4, 7)
    doubled = np.vstack([m, m])
    assert linalg.rank(doubled) == 4


def test_kernel_properties(rng):
    for _ in range(50):
        k, n = int(rng.integers(1, 6)), int(rng.integers(1, 9))
        m = rng.integers(0, 4, size=(k, n), dtype=np.uint8)
        ker = linalg.kernel(m)
        r = linalg.rank(m)
        assert ker.shape == (n - r, n)
        if ker.shape[0]:
            assert linalg.rank(ker) == ker.shape[0]
            prod = linalg.multiply(m, ker.T)
            assert not prod.any()


def test_kernel_of_empty_matrix():
    ker = linalg.kernel(np.zeros((0, 4), dtype=np.uint8))
    assert np.array_equal(ker, linalg.identity(4))
    # No columns: an empty basis; full column rank: no vectors of length 4.
    assert linalg.kernel(np.zeros((3, 0), dtype=np.uint8)).shape == (0, 0)
    assert linalg.kernel(linalg.identity(4)).shape == (0, 4)


def test_standard_form_round_trip(rng):
    for _ in range(50):
        k = int(rng.integers(1, 6))
        n = k + int(rng.integers(0, 6))
        g = random_full_rank(rng, k, n)
        sf = linalg.standard_form(g)
        assert np.array_equal(sf.matrix[:, :k], linalg.identity(k))
        restored = sf.restore_columns()
        # restoring the permutation recovers the original row space
        assert np.array_equal(linalg.rref(restored)[0], linalg.rref(g)[0])
        assert sorted(sf.permutation.tolist()) == list(range(n))


@pytest.mark.parametrize(
    "call",
    [
        lambda: linalg.rref([[1.7, 2.2]]),
        lambda: linalg.rank([[4]]),
        lambda: linalg.kernel([[5, 1]]),
        lambda: linalg.multiply([[-1]], [[1]]),
        lambda: linalg.multiply([[1]], [[256]]),
        lambda: linalg.gram([[1, 4]]),
        lambda: linalg.standard_form([[1, 0, -3]]),
    ],
    ids=["rref", "rank", "kernel", "multiply-left", "multiply-right", "gram", "standard_form"],
)
def test_entries_outside_the_field_are_refused(call):
    # A uint8 cast would read 4 and 256 as field elements, -1 and -3 as
    # indices from the end of the tables, and truncate 1.7 and 2.2.
    with pytest.raises(ValueError, match="entries must be in 0..3"):
        call()


def test_entries_are_checked_once_where_they_enter(monkeypatch):
    # Every module that imports ``elements`` calls it through its own
    # namespace; counting there counts every entry check in the package.
    import hlcd4
    from hlcd4 import cli, code, search, tables, transform
    from hlcd4.transform import IsotropicPair, _axy_update

    elements, calls = gf4.elements, []
    modules = [
        m for m in (hlcd4, gf4, linalg, code, transform, search, tables, cli)
        if getattr(m, "elements", None) is elements
    ]
    assert {gf4, linalg, code, transform} <= set(modules)
    for module in modules:
        monkeypatch.setattr(module, "elements", lambda a: calls.append(1) or elements(a))

    def checks(fn, *args):
        calls.clear()
        fn(*args)
        return len(calls)

    g = random_full_rank(np.random.default_rng(5), 4, 9)
    pair = IsotropicPair(gf4.vector([1, 1, 0, 0, 0]), gf4.vector([0, 0, 1, 1, 0]))
    c = code.LinearCode(g)
    assert checks(code.LinearCode, g) == 1
    for read in (lambda: c.gram, c.hull_dim, c.is_lcd, c.is_even):
        assert checks(read) == 0
    assert checks(_axy_update, c.gen[:, 4:], pair) == 0
    # puncturing and shortening check only the code they build
    assert checks(transform.puncture, c, [2, 7]) == 1
    assert checks(transform.shorten, c, [2, 7]) == 1
    assert checks(linalg.gram, g) == 1
    assert checks(linalg.multiply, g, g.T) == 2
    assert checks(linalg.standard_form, g) == 1
    assert checks(linalg._standard_form, g) == 0


def test_gram_refuses_a_vector():
    with pytest.raises(DimensionMismatchError):
        linalg.gram([1, 2, 3])


def test_public_functions_take_nested_lists():
    g = [[1, 0, 2], [0, 1, 3]]
    sf = linalg.standard_form(g)
    assert np.array_equal(sf.matrix, np.array(g)) and sf.permutation.tolist() == [0, 1, 2]
    assert linalg.rank(g) == 2 and linalg.gram(g).tolist() == [[0, 3], [2, 0]]


def test_standard_form_rank_deficient():
    g = np.array([[1, 2, 3], [2, 3, 1]], dtype=np.uint8)  # row2 = w * row1
    with pytest.raises(RankDeficientError):
        linalg.standard_form(g)


def test_standard_form_preserves_hull(rng):
    # column permutation is a monomial map: Hermitian inner products survive
    from hlcd4.code import LinearCode

    for _ in range(30):
        k = int(rng.integers(1, 5))
        n = k + int(rng.integers(1, 6))
        g = random_full_rank(rng, k, n)
        before = LinearCode(g).hull_dim()
        after = LinearCode(linalg.standard_form(g).matrix).hull_dim()
        assert before == after
