"""Dense matrices over the four-element field.

Matrices are numpy uint8 arrays with values in {0, 1, 2, 3}; products work
through the tables in :mod:`hlcd4.gf4`.  Each public function checks each
of its arguments once, through ``gf4.elements``, which raises ValueError
for an entry outside the field instead of letting it wrap, and no public
function hands checked input to another.  Their unchecked cores,
``_product``, ``_gram`` and ``_reduce``, take arrays already checked: the
package calls them on generators that came in through ``LinearCode`` and
on the vectors of an ``IsotropicPair``.  Row reduction has one
eliminator, ``_eliminate``, shared by ``rref`` and the minimum-weight engine's
information sets: it works on the matrix's two bit planes, packed as in
:mod:`hlcd4.gf4`, each held as one Python int, and clears a pivot column
in every row with a few whole-matrix integer operations.  A pivot column
that is already the unit column of its row takes one test and no row
operations, so a matrix already in reduced form, like (I | A), costs about
one test per row.  Row reduction picks the first nonzero entry scanning
top-to-bottom in the leftmost unresolved column, so the reduced form is
deterministic and serves as the canonical representative for code
equality; ``rank`` counts its pivots without unpacking it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, RankDeficientError
from .gf4 import (
    CONJ,
    MUL,
    _from_ints,
    _pack_planes,
    _plane_multiples,
    _stride,
    _to_ints,
    _unpack_planes,
    elements,
)


def multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over the field.

    Raises:
        DimensionMismatchError: if ``a.shape[1] != b.shape[0]``.
    """
    a, b = elements(a), elements(b)
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionMismatchError("operands must be 2-d matrices")
    if a.shape[1] != b.shape[0]:
        raise DimensionMismatchError(f"cannot multiply {a.shape} by {b.shape}")
    return _product(a, b)


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The product of checked matrices of matching inner size."""
    # products[i, l, j] = a[i, l] * b[l, j]; XOR-reduce the middle axis (to
    # zeros when it is empty).
    return np.bitwise_xor.reduce(MUL[a[:, :, None], b[None, :, :]], axis=1)


def conj_transpose(m: np.ndarray) -> np.ndarray:
    """Entry (i, j) of the result is the conjugate of entry (j, i)."""
    return CONJ[m.T]


def _gram(g: np.ndarray) -> np.ndarray:
    """The Gram matrix of a checked matrix: entry (i, j) is (g_i, g_j)_h."""
    return _product(g, CONJ[g.T])


def gram(g: np.ndarray) -> np.ndarray:
    """The k x k matrix of pairwise Hermitian inner products of rows of g.

    Raises:
        DimensionMismatchError: if g is not a 2-d matrix.
    """
    g = elements(g)
    if g.ndim != 2:
        raise DimensionMismatchError("operand must be a 2-d matrix")
    return _gram(g)


def _eliminate(lo: int, hi: int, rows: int, stride: int, first: int) -> tuple[int, int, list[int]]:
    """Reduced row echelon form of a packed matrix, and its pivot columns.

    The matrix is its two bit planes, each one Python int, packed as in
    :mod:`hlcd4.gf4` with row i at bit ``stride * i`` (column j of the row
    at bit j).  Pivots are taken from the columns of the mask ``first`` in
    ascending order, then from the other columns: the result is the
    reduced form of the matrix with its columns in that order, unique
    whatever basis of the row space comes in.  Pivot rows come first, in
    pivot order.  Returns the reduced planes and the pivots.
    """
    row = (1 << stride) - 1
    # A 1 at bit 0 of every row, and of every row not yet a pivot row.
    ones = ((1 << stride * rows) - 1) // row
    later = ones
    pivots: list[int] = []
    for mask in (first, row ^ first):
        while mask and later:
            bit = mask & -mask
            c = bit.bit_length() - 1
            # Column c's entry bits in every row, by the first bit of each,
            # and the later rows nonzero in it.
            e0, e1 = lo >> c & ones, hi >> c & ones
            either = (e0 | e1) & later
            mask ^= bit
            if not either:
                # No pivot in column c.  Once the later rows are all zero,
                # none in the rest of the mask either, whose zero padding
                # past the last column is then not walked.
                if not (lo | hi) >> stride * len(pivots):
                    break
                continue
            # Row r, the next pivot row, by its first bit.  A column that
            # is already row r's unit column has nothing to clear or move.
            sr = stride * len(pivots)
            if e0 != 1 << sr or e1:
                # Row p, the first later row nonzero in column c, by its
                # first bit.
                sp = (either & -either).bit_length() - 1
                # The pivot's leading entry is w^(lead - 1).  Rotated by it,
                # the multiples of row p give a = the row scaled to a
                # leading 1 and b = w a, so a row with entry e0 + e1 w in
                # column c clears it by adding e0 a + e1 b.
                p0, p1 = lo >> sp & row, hi >> sp & row
                multiples = _plane_multiples(p0, p1)
                i = (1 - ((p0 >> c & 1) | (p1 >> c & 1) << 1)) % 3
                (a0, a1), (b0, b1) = multiples[i], multiples[i - 2]
                # Every row at once: a row's entry bits times a multiple
                # land on that row alone.  This zeroes row p too.
                lo ^= e0 * a0 ^ e1 * b0
                hi ^= e0 * a1 ^ e1 * b1
                # Row r moves to row p, and a to row r.
                r0, r1 = lo >> sr & row, hi >> sr & row
                lo ^= r0 << sp ^ (r0 ^ a0) << sr
                hi ^= r1 << sp ^ (r1 ^ a1) << sr
            pivots.append(c)
            later &= later - 1
    return lo, hi, pivots


def _reduce(m: np.ndarray) -> tuple[int, int, list[int]]:
    """The packed reduced planes of ``m`` in column order, and its pivots."""
    rows, cols = m.shape
    stride = _stride(cols)
    planes = _to_ints(_pack_planes(m, stride // 8))
    return _eliminate(*planes, rows, stride, (1 << cols) - 1)


def rref(m: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form.

    Returns:
        (R, pivot_cols): R has leading ones with zeros above and below each
        pivot; pivot_cols lists the pivot column indices in order.  The row
        space of R equals the row space of m.
    """
    m = elements(m)
    *planes, pivots = _reduce(m)
    return _unpack_planes(_from_ints(planes, *m.shape), m.shape[1]), pivots


def rank(m: np.ndarray) -> int:
    """The number of pivots of the reduced form, which is not unpacked."""
    return len(_reduce(elements(m))[2])


def _null_basis(r: np.ndarray, pivots) -> np.ndarray:
    """Basis (as rows) of the right null space of a reduced form ``r``
    with pivot columns ``pivots``.

    Row i holds a 1 in the i-th free column f, in ascending order, and
    r[l, f] in pivot column ``pivots[l]``.
    """
    cols = r.shape[1]
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    basis = np.zeros((len(free), cols), dtype=np.uint8)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = r[: len(pivots), free].T
    return basis


def kernel(m: np.ndarray) -> np.ndarray:
    """Basis (as rows) of the right null space {x : m x^T = 0}.

    Returns a (c - rank) x c matrix where c = m.shape[1]; rows come from the
    free columns of the reduced form in ascending column order.
    """
    return _null_basis(*rref(m))


@dataclass(frozen=True)
class StandardForm:
    """A generator matrix permuted into the shape (I_k | A).

    ``permutation[i]`` is the original (0-based) column index now sitting at
    position i.  Column permutations over this field preserve all Hermitian
    inner products (a * conj(a) = 1 for every nonzero a), so hull dimension
    and the LCD property are unchanged by the move to standard form.
    """

    matrix: np.ndarray
    permutation: np.ndarray

    def restore_columns(self, m: np.ndarray | None = None) -> np.ndarray:
        """Undo the column permutation (on ``matrix`` by default)."""
        if m is None:
            m = self.matrix
        out = np.empty_like(m)
        out[:, self.permutation] = m
        return out


def standard_form(g: np.ndarray) -> StandardForm:
    """Permute columns of the row-reduced matrix so the left block is I_k.

    Raises:
        RankDeficientError: if g does not have full row rank.
    """
    R, pivots = rref(g)
    k, n = R.shape
    if len(pivots) != k:
        raise RankDeficientError(f"matrix has rank {len(pivots)}, expected {k}")
    rest = sorted(set(range(n)).difference(pivots))
    perm = np.array(list(pivots) + rest, dtype=np.intp)
    return StandardForm(matrix=R[:, perm], permutation=perm)


def identity(k: int) -> np.ndarray:
    return np.eye(k, dtype=np.uint8)


def zeros(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=np.uint8)
