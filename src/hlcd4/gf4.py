"""Arithmetic for the field with four elements {0, 1, w, w^2}.

Elements are stored as the integers 0..3 with 2 = w and 3 = w^2, where w
satisfies w^2 + w + 1 = 0.  Writing a = a0 + a1*w, the encoding is the
2-bit integer a0 + 2*a1, so addition is bitwise XOR.  Multiplication uses a
16-entry table.

Vectors are numpy uint8 arrays with values in {0, 1, 2, 3}.  ``elements``
checks entries before the cast, so no out-of-range value wraps into the
field; codes, vectors and isotropic pairs are built through it.

The fast paths (row reduction, the light test and the minimum-weight
engine) work on one packed format, owned by this module.  A vector splits
into two bit planes, the low bits a0 and the high bits a1 of its symbols;
symbol j is bit j % 8 of byte j // 8 of each plane (little-endian bit
order), so the bytes read as little-endian words or Python ints put symbol
j at bit j.  Rows padded to whole words and read together as one Python
int put row i at bit i times the row's padded width.  The weight is the
popcount of p0 | p1.  Scaling permutes and
mixes the planes, word by word: 1 * (p0, p1) = (p0, p1),
w * (p0, p1) = (p1, p0 ^ p1) and w^2 * (p0, p1) = (p0 ^ p1, p0).
"""

from __future__ import annotations

import functools

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
_SYMBOL_TO_VALUE = {ch: value for value, ch in enumerate(SYMBOLS)}


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
    return elements(list(values))


def elements(values) -> np.ndarray:
    """``values`` as a uint8 array of field elements, checked before the cast.

    Raises:
        ValueError: for a non-integer (and non-bool) dtype or an entry
            outside 0..3, which the cast would wrap or truncate.
    """
    a = np.asarray(values)
    if a.size and (a.dtype.kind not in "biu" or a.max() > 3 or a.dtype.kind == "i" and a.min() < 0):
        raise ValueError("entries must be in 0..3")
    return a.astype(np.uint8, copy=False)


def from_symbols(text: str) -> np.ndarray:
    """Parse a symbol string like ``'1wW0'`` (whitespace ignored)."""
    try:
        return np.array([_SYMBOL_TO_VALUE[ch] for ch in "".join(text.split())], dtype=np.uint8)
    except KeyError as e:
        raise ValueError(f"invalid symbol {e.args[0]!r}, expected one of {SYMBOLS!r}") from None


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


@functools.cache
def _word_type(m: int) -> np.dtype:
    """The narrowest little-endian unsigned word that holds m bits when
    m <= 64, and uint64 above."""
    return np.dtype(f"<u{np.min_scalar_type((1 << min(m, 64)) - 1).itemsize}")


def _pack_planes(a: np.ndarray, size: int) -> np.ndarray:
    """The packed (2, ..., size) uint8 planes of the rows of ``a`` (..., m).

    Each row is padded with zero bits to ``size`` bytes (at least
    ceil(m / 8)).  A wider size lets the bytes be viewed as whole words.
    """
    *lead, m = a.shape
    # Each row padded with zero columns to whole bytes, one symbol a byte:
    # the row is copied as one opaque m-byte element.
    planes = np.zeros((2, *lead, 8 * size), dtype=np.uint8)
    if m:
        planes[0, ..., :m].view(f"V{m}")[...] = np.ascontiguousarray(a).view(f"V{m}")
        np.right_shift(planes[0], 1, out=planes[1])
        planes[0] &= 1
    # Padded rows fill whole bytes, so packing the bits in order packs each
    # row into its own bytes.
    return np.packbits(planes, bitorder="little").reshape(2, *lead, size)


def _unpack_planes(planes: np.ndarray, m: int) -> np.ndarray:
    """The (..., m) symbols of packed (2, ..., W) planes of any word type."""
    bits = np.unpackbits(planes.view(np.uint8), axis=-1, count=m, bitorder="little")
    return bits[0] | bits[1] << 1


def _stride(m: int) -> int:
    """Bits per packed row of m symbols: W = ceil(m / 64) words of
    ``_word_type(m)``, one when m = 0."""
    return 8 * _word_type(m).itemsize * (-(-m // 64) or 1)


def _to_ints(planes: np.ndarray) -> tuple[int, ...]:
    """Each plane of packed (2, rows, ...) planes as one Python int: its
    bytes in memory order, so row i starts at bit i times the row's bits."""
    return tuple(int.from_bytes(plane.tobytes(), "little") for plane in planes)


def _from_ints(planes, rows: int, m: int) -> np.ndarray:
    """The packed (len(planes), rows, W) words of ``_word_type(m)`` of
    planes held as Python ints, row i at bit ``_stride(m) * i``."""
    word = _word_type(m)
    size = _stride(m) // 8
    data = b"".join(plane.to_bytes(rows * size, "little") for plane in planes)
    return np.frombuffer(data, dtype=word).reshape(len(planes), rows, size // word.itemsize)


def _plane_multiples(p0, p1):
    """1, w and w^2 times the plane pair (p0, p1), as three plane pairs.

    The planes are Python ints or numpy words alike.
    """
    mixed = p0 ^ p1
    return (p0, p1), (p1, mixed), (mixed, p0)
