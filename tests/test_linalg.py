"""Matrix layer: products, reduction, kernels, standard form."""

import numpy as np
import pytest

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


def test_rref_matches_naive(rng):
    # empty shapes, k = 1, widths on both sides of 64-bit words, up to 30
    # rows, with zeroed columns and repeated rows
    shapes = [(0, 5), (4, 0), (0, 0), (1, 1), (1, 9)]
    shapes += [(int(rng.integers(1, 31)), n) for n in (63, 64, 65, 129) for _ in range(3)]
    shapes += [(int(rng.integers(1, 31)), int(rng.integers(1, 40))) for _ in range(60)]
    for rows, cols in shapes:
        m = rng.integers(0, 4, size=(rows, cols), dtype=np.uint8)
        if rows and cols:
            m[:, rng.random(cols) < 0.3] = 0
            m[rng.integers(0, rows, size=rows // 3)] = m[rng.integers(0, rows)]
        R, pivots = linalg.rref(m)
        expected, expected_pivots = naive_rref(m)
        assert R.dtype == np.uint8 and R.shape == m.shape
        assert np.array_equal(R, expected) and pivots == expected_pivots, (rows, cols)


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
