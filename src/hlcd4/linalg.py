"""Dense matrices over the four-element field.

Matrices are numpy uint8 arrays with values in {0, 1, 2, 3}; products work
through the tables in :mod:`hlcd4.gf4`, and row reduction on each row's two
bit planes held as Python ints.  Row reduction picks the first nonzero entry
scanning top-to-bottom in the leftmost unresolved column, so the reduced
form is deterministic and serves as the canonical representative for code
equality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, RankDeficientError
from .gf4 import CONJ, MUL


def multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over the field.

    Raises:
        DimensionMismatchError: if ``a.shape[1] != b.shape[0]``.
    """
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionMismatchError("operands must be 2-d matrices")
    if a.shape[1] != b.shape[0]:
        raise DimensionMismatchError(f"cannot multiply {a.shape} by {b.shape}")
    # products[i, l, j] = a[i, l] * b[l, j]; XOR-reduce the middle axis (to
    # zeros when it is empty).
    products = MUL[a[:, :, None], b[None, :, :]]
    return np.bitwise_xor.reduce(products, axis=1)


def conj_transpose(m: np.ndarray) -> np.ndarray:
    """Entry (i, j) of the result is the conjugate of entry (j, i)."""
    return CONJ[m.T]


def gram(g: np.ndarray) -> np.ndarray:
    """The k x k matrix of pairwise Hermitian inner products of rows of g."""
    return multiply(g, conj_transpose(g))


def rref(m: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form.

    Returns:
        (R, pivot_cols): R has leading ones with zeros above and below each
        pivot; pivot_cols lists the pivot column indices in order.  The row
        space of R equals the row space of m.
    """
    m = np.asarray(m, dtype=np.uint8)
    rows, cols = m.shape
    size = -(-cols // 8)
    # Each row is two Python ints, its low and high bit planes, column j at
    # bit j; scaling by w or w^2 permutes and mixes the planes as in
    # :mod:`hlcd4.code`.
    lo, hi = (
        [int.from_bytes(p, "little") for p in np.packbits(plane, axis=1, bitorder="little")]
        for plane in (m & 1, m >> 1)
    )
    pivots: list[int] = []
    for r in range(rows):
        # Rows from r on are zero in every unresolved column left of the
        # next pivot, so that column is the lowest bit set in any of them.
        rest = 0
        for i in range(r, rows):
            rest |= lo[i] | hi[i]
        if not rest:
            break
        bit = rest & -rest
        p = next(i for i in range(r, rows) if (lo[i] | hi[i]) & bit)
        lo[r], lo[p], hi[r], hi[p] = lo[p], lo[r], hi[p], hi[r]
        # 1, w and w^2 times the pivot row, scaled first to a leading 1.
        a, b = lo[r], hi[r]
        if b & bit:
            a, b = (a ^ b, a) if not a & bit else (b, a ^ b)
        multiples = ((a, b), (b, a ^ b), (a ^ b, a))
        lo[r], hi[r] = a, b
        for i in range(rows):
            f = bool(lo[i] & bit) | bool(hi[i] & bit) << 1
            if f and i != r:
                a, b = multiples[f - 1]
                lo[i] ^= a
                hi[i] ^= b
        pivots.append(bit.bit_length() - 1)
    planes = np.frombuffer(
        b"".join(p.to_bytes(size, "little") for p in lo + hi), dtype=np.uint8
    ).reshape(2, rows, size)
    R = np.unpackbits(planes, axis=2, count=cols, bitorder="little")
    return R[0] | R[1] << 1, pivots


def rank(m: np.ndarray) -> int:
    return len(rref(m)[1])


def kernel(m: np.ndarray) -> np.ndarray:
    """Basis (as rows) of the right null space {x : m x^T = 0}.

    Returns a (c - rank) x c matrix where c = m.shape[1]; rows come from the
    free columns of the reduced form in ascending column order.
    """
    cols = m.shape[1]
    R, pivots = rref(m)
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    basis = np.zeros((len(free), cols), dtype=np.uint8)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = R[: len(pivots), free].T
    return basis


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
    k, n = g.shape
    R, pivots = rref(g)
    if len(pivots) != k:
        raise RankDeficientError(f"matrix has rank {len(pivots)}, expected {k}")
    rest = [c for c in range(n) if c not in set(pivots)]
    perm = np.array(list(pivots) + rest, dtype=np.intp)
    return StandardForm(matrix=R[:, perm], permutation=perm)


def identity(k: int) -> np.ndarray:
    return np.eye(k, dtype=np.uint8)


def zeros(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=np.uint8)
