"""Code transformations that track the Hermitian hull.

The centerpiece is a two-vector update of a standard-form generator matrix
(I_k | A): given x, y in the ambient space of A that are nonzero and
pairwise Hermitian-isotropic, each row a_i of A is replaced by

    a_i + (a_i, y)_h x + (a_i, x)_h y.

Expanding the inner product of two updated rows, every cross term cancels
against a conjugate partner (characteristic 2), so the Gram matrix of the
full generator is unchanged and the hull dimension of the new code equals
that of the old one.  This turns one LCD code into many candidate LCD codes
of the same length and dimension.  The formula has one implementation, on
the A block (``_axy_update``), and a pair one validator, ``IsotropicPair``
(a zero vector raises ``ZeroVectorError``, itself an ``IsotropyError``);
``axy_construct`` adds the standard-form and length checks and wraps the
result in a ``LinearCode``, and the search's climb calls the update on A
directly.

Puncturing and shortening are the usual coordinate deletions; coordinates
are 1-based in every public signature here.  For an LCD code whose minimum
weight and dual minimum weight are both at least 2, deleting one coordinate
splits cleanly: exactly one of the punctured and shortened codes is again
LCD, and which one is read off from the parity of the column weight in an
orthonormal generator matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence, Union

import numpy as np

from . import linalg
from .code import LinearCode
from .errors import (
    AllCoordinatesDeletedError,
    Hlcd4Error,
    IsotropyError,
    LengthMismatchError,
    NotLcdError,
    NotStandardFormError,
    PreconditionError,
    ZeroVectorError,
)
from .gf4 import CONJ, MUL, OMEGA2, elements, from_symbols, to_symbols


@dataclass(frozen=True)
class IsotropicPair:
    """Two vectors with (x,x)_h = (y,y)_h = (x,y)_h = 0, both nonzero.

    The only validator of a pair: every use of the update takes one.

    Raises:
        ValueError: if x or y is not a vector (1-d), or an entry is not a
            field element (0..3).
        LengthMismatchError: if x and y differ in length.
        ZeroVectorError: if x or y is zero.
        IsotropyError: if any of the three inner products is nonzero.
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        r = check_isotropic(self.x, self.y)
        object.__setattr__(self, "x", np.array(self.x, dtype=np.uint8))
        object.__setattr__(self, "y", np.array(self.y, dtype=np.uint8))
        products = dict(xx=r.xx, yy=r.yy, xy=r.xy)
        if r.x_is_zero or r.y_is_zero:
            raise ZeroVectorError(f"{'x' if r.x_is_zero else 'y'} is zero", **products)
        if not r.isotropic:
            raise IsotropyError(
                f"pair is not isotropic: (x,x)={r.xx} (y,y)={r.yy} (x,y)={r.xy}", **products
            )
        self.x.setflags(write=False)
        self.y.setflags(write=False)

    @classmethod
    def from_symbols(cls, x: str, y: str) -> "IsotropicPair":
        return cls(from_symbols(x), from_symbols(y))

    def __str__(self) -> str:
        return f"x={to_symbols(self.x)} y={to_symbols(self.y)}"


@dataclass(frozen=True)
class IsotropyReport:
    """The three Hermitian inner products a pair must vanish on."""

    xx: int
    yy: int
    xy: int
    x_is_zero: bool
    y_is_zero: bool

    @property
    def isotropic(self) -> bool:
        return self.xx == 0 and self.yy == 0 and self.xy == 0

    @property
    def valid(self) -> bool:
        """Isotropic and both vectors nonzero (fit for the construction)."""
        return self.isotropic and not self.x_is_zero and not self.y_is_zero


def check_isotropic(x: np.ndarray, y: np.ndarray) -> IsotropyReport:
    """Evaluate the pair conditions; a pair that fails them is reported,
    not refused.  The three products are entries of the Gram matrix of the
    rows x and y.

    Raises:
        ValueError: if x or y is not a vector (1-d), or an entry is not a
            field element (0..3).
        LengthMismatchError: if x and y differ in length.
    """
    x, y = elements(x), elements(y)
    if x.ndim != 1 or y.ndim != 1:
        raise ValueError(f"x and y must be vectors, got shapes {x.shape} and {y.shape}")
    if x.shape != y.shape:
        raise LengthMismatchError(f"lengths differ: {x.shape[0]} vs {y.shape[0]}")
    (xx, xy), (_, yy) = linalg._gram(np.vstack([x, y])).tolist()
    return IsotropyReport(xx, yy, xy, x_is_zero=not x.any(), y_is_zero=not y.any())


def _axy_update(a: np.ndarray, pair: IsotropicPair) -> np.ndarray:
    """The A block with each row a_i replaced by
    a_i + (a_i, y)_h x + (a_i, x)_h y.  ``a`` is already checked, as the
    pair's vectors are, so nothing is checked again."""
    x, y = pair.x, pair.y
    # Row-wise inner products of the A block with y and with x.
    ip_y, ip_x = linalg._product(a, CONJ[np.vstack([y, x]).T]).T
    return a ^ MUL[ip_y[:, None], x[None, :]] ^ MUL[ip_x[:, None], y[None, :]]


def axy_construct(
    code: Union[LinearCode, np.ndarray],
    x: Union[IsotropicPair, np.ndarray],
    y: np.ndarray = None,
) -> LinearCode:
    """Apply the hull-preserving two-vector update to a standard-form code.

    Args:
        code: a code or generator matrix already in the shape (I_k | A).
        x, y: nonzero vectors of length n - k forming an isotropic pair;
            alternatively pass an IsotropicPair as the single second
            argument.

    Returns:
        The code generated by (I_k | A') with
        a'_i = a_i + (a_i, y)_h x + (a_i, x)_h y.

    Raises:
        ValueError: if an entry of a raw generator matrix is not a field
            element (0..3).
        NotStandardFormError: if the left block is not the identity.
        LengthMismatchError: if x or y does not have length n - k.
        ZeroVectorError, IsotropyError: from IsotropicPair, for raw x and y
            that are not a valid pair.
    """
    gen = code.gen if isinstance(code, LinearCode) else elements(code)
    k, n = gen.shape
    if k < 1 or n <= k:
        raise NotStandardFormError(f"need 1 <= k < n, got k={k}, n={n}")
    if not np.array_equal(gen[:, :k], linalg.identity(k)):
        raise NotStandardFormError("left block is not the identity")
    shapes = [np.shape(v) for v in ((x.x, x.y) if isinstance(x, IsotropicPair) else (x, y))]
    if shapes != [(n - k,)] * 2:
        raise LengthMismatchError(
            f"x and y must have length {n - k}, got {shapes[0]} and {shapes[1]}"
        )
    pair = x if isinstance(x, IsotropicPair) else IsotropicPair(x, y)
    return LinearCode(np.hstack([linalg.identity(k), _axy_update(gen[:, k:], pair)]))


def _normalize_coords(
    coords: Union[int, Sequence[int]], n: int, verb: str
) -> tuple[list[int], list[int]]:
    """Validate 1-based coordinates; return the sorted 0-based indices to
    drop and the ones to keep.

    Raises:
        ValueError: for a coordinate outside 1..n.
        AllCoordinatesDeletedError: if every coordinate would be removed.
    """
    if isinstance(coords, (int, np.integer)):
        coords = [int(coords)]
    drop = sorted({int(c) - 1 for c in coords})
    for c in drop:
        if not 0 <= c < n:
            raise ValueError(f"coordinate {c + 1} out of range 1..{n}")
    if len(drop) == n:
        raise AllCoordinatesDeletedError(f"cannot {verb} every coordinate")
    return drop, sorted(set(range(n)).difference(drop))


def puncture(code: LinearCode, coords: Union[int, Sequence[int]]) -> LinearCode:
    """Delete the given 1-based coordinates from every codeword.

    The result's dimension can drop below k when codewords collide after
    deletion; the returned basis is re-reduced accordingly.  An empty
    coordinate set returns the code unchanged.

    Raises:
        AllCoordinatesDeletedError: if every coordinate is removed.
    """
    drop, keep = _normalize_coords(coords, code.n, "puncture")
    if not drop:
        return code
    R, pivots = linalg._rref(code.gen[:, keep])
    return LinearCode(R[: len(pivots)])


def shorten(code: LinearCode, coords: Union[int, Sequence[int]]) -> LinearCode:
    """Restrict to codewords vanishing on the given 1-based coordinates,
    then delete those coordinates.  An empty coordinate set returns the
    code unchanged.

    Raises:
        AllCoordinatesDeletedError: if every coordinate is removed.
    """
    drop, keep = _normalize_coords(coords, code.n, "shorten")
    if not drop:
        return code
    # Messages m with (m G) zero on the dropped coordinates form the left
    # null space of G restricted to those columns.
    restricted = code.gen[:, drop]
    messages = linalg._null_basis(*linalg._rref(restricted.T))
    words = linalg._product(messages, code.gen)
    return LinearCode(words[:, keep])


class Derivative(Enum):
    """Which one-coordinate derivative of a code is LCD."""

    PUNCTURED = "punctured"
    SHORTENED = "shortened"


def _weight_hypothesis_failure(code: LinearCode) -> Optional[str]:
    """The half of the one-coordinate dichotomy's weight hypothesis (minimum
    weight and dual minimum weight both at least 2) that ``code`` fails, or
    None when it holds.

    No enumeration is needed.  A codeword's coefficients in the canonical
    basis are its own entries at the pivots, so a weight-1 codeword is a
    multiple of a canonical row, and the minimum weight is at least 2 when
    no canonical row has weight 1.  The dual holds a weight-1 word on
    coordinate i exactly when column i of the generator is zero, so its
    minimum weight is at least 2 when the generator has no zero column.
    """
    if (np.count_nonzero(code.canonical, axis=1) == 1).any():
        return "minimum weight must be at least 2"
    if not code.gen.any(axis=0).all():
        return "dual minimum weight must be at least 2"
    return None


def lcd_exactly_one(code: LinearCode, coord: int) -> Derivative:
    """Delete one coordinate both ways and identify the LCD derivative.

    For an LCD code with minimum weight >= 2 and dual minimum weight >= 2,
    exactly one of the punctured and shortened codes at any coordinate is
    LCD; this returns which.

    Raises:
        PreconditionError: if the code is not LCD, or either minimum weight
            is below 2 (the dichotomy can fail there); the message says
            which condition failed.
    """
    if not code.is_lcd():
        raise PreconditionError("input code is not LCD")
    failure = _weight_hypothesis_failure(code)
    if failure is not None:
        raise PreconditionError(failure)
    p_lcd = puncture(code, coord).is_lcd()
    s_lcd = shorten(code, coord).is_lcd()
    if p_lcd == s_lcd:
        raise Hlcd4Error(
            f"one-coordinate dichotomy violated at coordinate {coord}: "
            f"punctured LCD={p_lcd}, shortened LCD={s_lcd}"
        )
    return Derivative.PUNCTURED if p_lcd else Derivative.SHORTENED


def orthonormalize(code: LinearCode) -> np.ndarray:
    """Return a generator matrix G of the same code with G conj(G)^T = I.

    Such a basis exists precisely for LCD codes.  Construction: pick a
    basis vector v with (v,v)_h = 1, either a row of odd weight or, when
    all rows have even weight, r_i + (w^2 s) r_j for any nonzero pairwise
    product s = (r_i, r_j)_h (the trace of conj(w^2 s) s = w is 1).  Make
    the remaining rows orthogonal to v by adding (r, v)_h v, and repeat on
    the rest; the residual Gram matrix is a Schur complement and stays
    nonsingular.

    Raises:
        NotLcdError: if the code is not LCD.
    """
    if not code.is_lcd():
        raise NotLcdError("only LCD codes admit an orthonormal generator")
    W = np.array(code.gen, dtype=np.uint8, copy=True)
    k = code.k
    for step in range(k):
        block = W[step:]
        g = linalg._gram(block)
        diag = np.diagonal(g)
        odd = np.nonzero(diag == 1)[0]
        if odd.size:
            i = int(odd[0])
            W[[step, step + i]] = W[[step + i, step]]
        else:
            # A nonsingular Gram matrix has no zero row, so row 0 has a
            # partner j with a nonzero product.
            partners = np.flatnonzero(g[0])
            if partners.size == 0:
                raise NotLcdError("residual Gram matrix is singular")
            j = int(partners[0])
            W[step] ^= MUL[MUL[OMEGA2, g[0, j]], block[j]]
        v = W[step]
        rest = W[step + 1 :]
        ips = linalg._product(rest, CONJ[v[:, None]])
        rest ^= MUL[ips, v[None, :]]
    if not np.array_equal(linalg._gram(W), linalg.identity(k)):
        raise NotLcdError("orthonormalization failed to reach the identity Gram")
    return W


@dataclass(frozen=True)
class CoordinateParity:
    """Per-coordinate verdict of the column-parity criterion."""

    coordinate: int
    column_weight: int
    puncture_is_lcd: bool
    shorten_is_lcd: bool


def lcd_column_parity(code: LinearCode) -> list[CoordinateParity]:
    """Classify every coordinate of an LCD code by column weight parity.

    With an orthonormal generator G (G conj(G)^T = I), deleting column l_i
    changes the Gram matrix by the rank-one term l_i conj(l_i)^T, whose
    determinant contribution is 1 + wt(l_i) mod 2.  So the punctured code
    at i is LCD exactly when wt(l_i) is even, and by the one-coordinate
    dichotomy the shortened code is LCD exactly when wt(l_i) is odd.

    Both flags are exact only when the code and its dual both have minimum
    weight at least 2, the dichotomy's hypothesis; otherwise
    ``shorten_is_lcd`` is only the negation of ``puncture_is_lcd``.  For
    example, deleting any coordinate of the full [3,3] code either way
    gives the full [2,2] code, which is LCD, yet ``puncture_is_lcd`` is
    False at every coordinate.

    Raises:
        NotLcdError: if the code is not LCD.
    """
    ortho = orthonormalize(code)
    out = []
    for c in range(code.n):
        w = int(np.count_nonzero(ortho[:, c]))
        even = w % 2 == 0
        out.append(
            CoordinateParity(
                coordinate=c + 1,
                column_weight=w,
                puncture_is_lcd=even,
                shorten_is_lcd=not even,
            )
        )
    return out
