"""Arithmetic for the field with four elements {0, 1, w, w^2}.

Elements are stored as the integers 0..3 with 2 = w and 3 = w^2, where w
satisfies w^2 + w + 1 = 0.  Writing a = a0 + a1*w, the encoding is the
2-bit integer a0 + 2*a1, so addition is bitwise XOR and a vector splits
into two bit planes (one per bit) that pack into machine words for the
weight-enumeration hot path.  Multiplication uses a 16-entry table.

Vectors are numpy uint8 arrays with values in {0, 1, 2, 3}.
"""

from __future__ import annotations

import numpy as np

from .errors import LengthMismatchError

ZERO = 0
ONE = 1
OMEGA = 2
OMEGA2 = 3

# Multiplication table: w*w = w^2, w*w^2 = 1, w^2*w^2 = w.
MUL = np.array(
    [
        [0, 0, 0, 0],
        [0, 1, 2, 3],
        [0, 2, 3, 1],
        [0, 3, 1, 2],
    ],
    dtype=np.uint8,
)

# Frobenius square a -> a^2: fixes 0 and 1, swaps w and w^2.  Every nonzero
# element satisfies a^3 = 1, so this table is also the multiplicative inverse.
CONJ = np.array([0, 1, 3, 2], dtype=np.uint8)
INV = CONJ

SYMBOLS = "01wW"
_SYMBOL_TO_VALUE = {"0": 0, "1": 1, "w": 2, "W": 3}


def add(a: int, b: int) -> int:
    return a ^ b


def mul(a: int, b: int) -> int:
    return int(MUL[a, b])


def conj(a: int) -> int:
    return int(CONJ[a])


def vector(values) -> np.ndarray:
    """Build a vector from an iterable of elements (or a symbol string)."""
    if isinstance(values, str):
        return from_symbols(values)
    v = np.asarray(list(values), dtype=np.uint8)
    if v.size and v.max() > 3:
        raise ValueError("entries must be in 0..3")
    return v


def from_symbols(text: str) -> np.ndarray:
    """Parse a symbol string like ``'1wW0'`` (whitespace ignored)."""
    out = []
    for ch in text:
        if ch.isspace():
            continue
        if ch not in _SYMBOL_TO_VALUE:
            raise ValueError(f"invalid symbol {ch!r}, expected one of '01wW'")
        out.append(_SYMBOL_TO_VALUE[ch])
    return np.array(out, dtype=np.uint8)


def to_symbols(v: np.ndarray) -> str:
    return "".join(SYMBOLS[int(a)] for a in v)


def weight(x: np.ndarray) -> int:
    """Number of nonzero coordinates."""
    return int(np.count_nonzero(x))


def vadd(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    if x.shape != y.shape:
        raise LengthMismatchError(f"lengths differ: {x.shape} vs {y.shape}")
    return x ^ y


def scale(a: int, x: np.ndarray) -> np.ndarray:
    return MUL[a, x]


def conj_vector(x: np.ndarray) -> np.ndarray:
    return CONJ[x]


def hermitian_inner(x: np.ndarray, y: np.ndarray) -> int:
    """sum_i x_i * conj(y_i).  Conjugate-symmetric sesquilinear form."""
    if len(x) != len(y):
        raise LengthMismatchError(f"lengths differ: {len(x)} vs {len(y)}")
    return int(np.bitwise_xor.reduce(MUL[x, CONJ[y]]))
