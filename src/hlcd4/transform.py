"""Code transformations that track the Hermitian hull.

The centerpiece is a two-vector update of a standard-form generator matrix
(I_k | A): given x, y in the ambient space of A that are nonzero and
pairwise Hermitian-isotropic, each row a_i of A is replaced by

    a_i + (a_i, y)_h x + (a_i, x)_h y.

Expanding the inner product of two updated rows, every cross term cancels
against a conjugate partner (characteristic 2), so the Gram matrix of the
full generator is unchanged and the hull dimension of the new code equals
that of the old one.  This turns one LCD code into many candidate LCD codes
of the same length and dimension.

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
from typing import Sequence, Union

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
from .gf4 import MUL, OMEGA2, from_symbols, hermitian_inner, to_symbols


@dataclass(frozen=True)
class IsotropicPair:
    """Two vectors with (x,x)_h = (y,y)_h = (x,y)_h = 0, both nonzero."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=np.uint8).copy())
        object.__setattr__(self, "y", np.asarray(self.y, dtype=np.uint8).copy())
        report = check_isotropic(self.x, self.y)
        if not report.valid:
            raise IsotropyError(
                f"not a valid isotropic pair: {report}",
                xx=report.xx,
                yy=report.yy,
                xy=report.xy,
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
    """Evaluate the pair conditions without raising."""
    x = np.asarray(x, dtype=np.uint8)
    y = np.asarray(y, dtype=np.uint8)
    if x.shape != y.shape:
        raise LengthMismatchError(f"lengths differ: {x.shape[0]} vs {y.shape[0]}")
    return IsotropyReport(
        xx=hermitian_inner(x, x),
        yy=hermitian_inner(y, y),
        xy=hermitian_inner(x, y),
        x_is_zero=not x.any(),
        y_is_zero=not y.any(),
    )


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
        NotStandardFormError: if the left block is not the identity.
        LengthMismatchError: if x or y does not have length n - k.
        ZeroVectorError: if x or y is zero.
        IsotropyError: if any of the three pair inner products is nonzero.
    """
    if isinstance(x, IsotropicPair):
        x, y = x.x, x.y
    gen = code.gen if isinstance(code, LinearCode) else np.asarray(code, dtype=np.uint8)
    k, n = gen.shape
    if k < 1 or n <= k:
        raise NotStandardFormError(f"need 1 <= k < n, got k={k}, n={n}")
    if not np.array_equal(gen[:, :k], linalg.identity(k)):
        raise NotStandardFormError("left block is not the identity")
    x = np.asarray(x, dtype=np.uint8)
    y = np.asarray(y, dtype=np.uint8)
    if x.shape != (n - k,) or y.shape != (n - k,):
        raise LengthMismatchError(
            f"x and y must have length {n - k}, got {x.shape} and {y.shape}"
        )
    if not x.any():
        raise ZeroVectorError("x is zero")
    if not y.any():
        raise ZeroVectorError("y is zero")
    report = check_isotropic(x, y)
    if not report.isotropic:
        raise IsotropyError(
            "pair is not isotropic: "
            f"(x,x)={report.xx} (y,y)={report.yy} (x,y)={report.xy}",
            xx=report.xx,
            yy=report.yy,
            xy=report.xy,
        )

    a = gen[:, k:]
    # Row-wise inner products of the A-block with y and with x.
    ip_y, ip_x = linalg.multiply(a, linalg.conj_transpose(np.vstack([y, x]))).T
    a_new = a ^ MUL[ip_y[:, None], x[None, :]] ^ MUL[ip_x[:, None], y[None, :]]
    return LinearCode(np.hstack([linalg.identity(k), a_new]))


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
    R, pivots = linalg.rref(code.gen[:, keep])
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
    messages = linalg.kernel(restricted.T)
    if messages.shape[0] == 0:
        return LinearCode(linalg.zeros(0, len(keep)))
    words = linalg.multiply(messages, code.gen)
    return LinearCode(words[:, keep])


class Derivative(Enum):
    """Which one-coordinate derivative of a code is LCD."""

    PUNCTURED = "punctured"
    SHORTENED = "shortened"


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
    if code.k >= 1 and code.min_weight() < 2:
        raise PreconditionError("minimum weight must be at least 2")
    dual = code.hermitian_dual()
    if dual.k >= 1 and dual.min_weight() < 2:
        raise PreconditionError("dual minimum weight must be at least 2")
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
        g = linalg.gram(block)
        diag = np.diagonal(g)
        odd = np.nonzero(diag == 1)[0]
        if odd.size:
            i = int(odd[0])
            if i:
                W[[step, step + i]] = W[[step + i, step]]
        else:
            pairs = np.nonzero(g)
            if pairs[0].size == 0:
                raise NotLcdError("residual Gram matrix vanished")
            i, j = int(pairs[0][0]), int(pairs[1][0])
            lam = MUL[OMEGA2, g[i, j]]
            W[step + i] = block[i] ^ MUL[lam, block[j]]
            if i:
                W[[step, step + i]] = W[[step + i, step]]
        v = W[step]
        rest = W[step + 1 :]
        ips = linalg.multiply(rest, linalg.conj_transpose(v[None, :]))
        rest ^= MUL[ips, v[None, :]]
    if not np.array_equal(linalg.gram(W), linalg.identity(k)):
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
