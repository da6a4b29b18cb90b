"""Linear codes over the four-element field: duals, hulls, minimum weight.

A code is held as a full-row-rank generator matrix and the packed bit
planes of its reduced row echelon form (:mod:`hlcd4.gf4`), which is the
canonical representative: equality and hashing compare the planes, and the
form is unpacked to symbols only when ``canonical`` is read.  The zero code
(k = 0) is permitted as the result of puncturing or shortening and is
treated as trivially LCD (its hull is the zero space).

Minimum weight comes from one engine.  Scalar multiples of a codeword share
its weight, so only messages whose first nonzero symbol is 1 are visited.
Codewords are packed into the two bit planes of :mod:`hlcd4.gf4`, W =
ceil(n/64) machine words each, carried on one array axis; the weight is the
popcount summed over the words.  One enumerator, ``_layer_weights``, runs
the messages of one weight on one information set, of one code or, on a
trailing batch axis, of many.  It serves both weight tests: the engine, and
the batched light test of search, which runs the messages of weight 1, 2
and 3 on the identity set of every code in a batch and drops the codes each
step rejects before the next.  The engine, ``_min_weight``, takes a
``LinearCode`` and starts from the packed planes of its reduced form, so a
code is reduced once, when it is built.  It is one loop: it enumerates
messages by weight over several information sets (Brouwer-Zimmermann), each
built by one packed elimination (``linalg._eliminate``, shared with row
reduction), or over set 0 alone where a cost model projects that to be the
cheaper, and stops once a lower bound on the weight of every codeword not
yet seen meets the best weight found, at the cutoff, or at the enumeration
budget, which counts the codewords enumerated.  An independent oracle
counts the weight of every codeword from scratch, of the code itself for
k <= 10 or of its Hermitian dual for n - k <= 10 (then transformed by the
MacWilliams identity), for cross-checking.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import comb, inf, prod
from typing import NamedTuple, Optional

import numpy as np

from . import linalg
from .errors import BudgetExceededError, CodeFileError, RankDeficientError, TooLargeError
from .gf4 import (
    CONJ,
    MUL,
    SYMBOLS,
    _from_ints,
    _pack_planes,
    _plane_multiples,
    _stride,
    _unpack_planes,
    _word_type,
    elements,
    from_symbols,
    to_symbols,
)


# Codeword budget for weight computations whose caller did not ask for an
# exact value (``info``, ``verify-table``, the search post-check).
_DEFAULT_BUDGET = 10**7


@dataclass(frozen=True)
class CodeSummary:
    """Report record for a single code.

    ``d_exact``/``d_dual_exact`` are False when the corresponding weight is
    only an upper bound because an enumeration budget ran out.
    """

    n: int
    k: int
    d: int
    d_dual: int
    hull_dim: int
    is_lcd: bool
    is_even: bool
    d_exact: bool = True
    d_dual_exact: bool = True

    def to_dict(self) -> dict:
        # Exactness flags appear only when a budget truncated the search, so
        # the common all-exact record stays minimal.  The fields are plain
        # values, read in field order with no copy.
        return {
            key: value
            for key, value in vars(self).items()
            if not (key.endswith("_exact") and value)
        }


class LinearCode:
    """An [n, k] code over the four-element field, immutable once built."""

    def __init__(self, gen: np.ndarray):
        gen = elements(gen)
        if gen.ndim != 2:
            raise ValueError("generator matrix must be 2-d")
        if gen.shape[1] < 1:
            raise ValueError("code length must be at least 1")
        k = len(gen)
        # The packed planes and pivots of the reduced form: the engine starts
        # from them.
        _, _, pivots = self._reduced = linalg._reduce(gen)
        if len(pivots) != k:
            raise RankDeficientError(f"generator matrix has rank {len(pivots)}, expected {k}")
        self._gen = gen.copy()
        self._gen.setflags(write=False)

    @classmethod
    def from_symbols(cls, text: str) -> "LinearCode":
        """Read a code from the code-file format, e.g. ``"# note\\n10\\n01"``.

        Blank lines and ``#`` comment lines are skipped; every other line is
        one row of symbols from {0, 1, w, W}, whitespace between symbols
        optional.  A body whose rows are all zero is the zero code of that
        length, which is how a k = 0 code is written.

        Raises:
            CodeFileError: a ValueError, on a bad symbol (with line and
                column), unequal row lengths (with line), or no rows.
            RankDeficientError: when the rows are dependent and not all zero.
        """
        lines = text.splitlines()
        # The row lines, by line number, each with its whitespace dropped.
        rows = {
            lineno: "".join(line.split())
            for lineno, line in enumerate(lines, start=1)
            if line.strip() and not line.lstrip().startswith("#")
        }
        if not rows:
            raise CodeFileError("no matrix rows in input")
        # The whole body is translated at once; only a failure goes back to
        # the rows, to locate the first bad symbol for the report.
        try:
            symbols = from_symbols("".join(rows.values()))
        except ValueError:
            lineno, bad = next((i, ch) for i, row in rows.items() for ch in row if ch not in SYMBOLS)
            col = lines[lineno - 1].index(bad) + 1
            raise CodeFileError(f"invalid symbol {bad!r}", line=lineno, column=col) from None
        n = len(next(iter(rows.values())))
        for lineno, row in rows.items():
            if len(row) != n:
                raise CodeFileError(f"row has {len(row)} symbols, expected {n}", line=lineno)
        gen = symbols.reshape(len(rows), n)
        return cls(gen if gen.any() else gen[:0])

    @property
    def n(self) -> int:
        return self._gen.shape[1]

    @property
    def k(self) -> int:
        return self._gen.shape[0]

    @property
    def gen(self) -> np.ndarray:
        return self._gen

    @property
    def canonical(self) -> np.ndarray:
        """Reduced row echelon form of the generator matrix, read-only.

        The code stores only the form's packed planes; each read unpacks
        them into a new array.
        """
        canonical = _unpack_planes(_from_ints(self._reduced[:2], self.k, self.n), self.n)
        canonical.setflags(write=False)
        return canonical

    @property
    def gram(self) -> np.ndarray:
        """G * conj(G)^T, read-only.

        Nothing is cached: each read computes it into a new array.
        """
        gram = linalg._gram(self._gen)
        gram.setflags(write=False)
        return gram

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinearCode):
            return NotImplemented
        # The length and the reduced form's planes determine the code: every
        # row of the form is nonzero, so they also fix k.
        return (self.n, *self._reduced[:2]) == (other.n, *other._reduced[:2])

    def __hash__(self) -> int:
        return hash((self.n, *self._reduced[:2]))

    def __repr__(self) -> str:
        return f"LinearCode(n={self.n}, k={self.k})"

    def __str__(self) -> str:
        return "\n".join(to_symbols(row) for row in self._gen) if self.k else "(zero code)"

    def hermitian_dual(self) -> "LinearCode":
        """The [n, n-k] code of vectors Hermitian-orthogonal to every codeword.

        A vector x satisfies (x, y)_h = 0 for all rows y of G exactly when
        conj(G) x^T = 0, so the dual is the kernel of the conjugated
        generator matrix.  Conjugation is a field automorphism, so the
        reduced form of conj(G) is the conjugated canonical form, with the
        same pivots: the dual's generator is read off it with no reduction,
        and the dual code reduces it once, as every code is reduced.
        """
        return LinearCode(linalg._null_basis(CONJ[self.canonical], self._reduced[2]))

    def hull_dim(self) -> int:
        """Dimension of the intersection with the Hermitian dual.

        Computed as k - rank(G * conj(G)^T); no dual basis is materialized.
        """
        return self.k - len(linalg._reduce(self.gram)[2])

    def is_lcd(self) -> bool:
        """True when the Hermitian hull is trivial (G * conj(G)^T nonsingular)."""
        return self.hull_dim() == 0

    def is_even(self) -> bool:
        """True when every codeword has even weight.

        Equivalent to Hermitian self-orthogonality, i.e. a vanishing Gram
        matrix: the diagonal entries are the row-weight parities and the
        off-diagonal entries are the pairwise inner products.
        """
        return not self.gram.any()

    def min_weight(self, budget: Optional[int] = None) -> int:
        """Exact minimum weight over all nonzero codewords.

        Args:
            budget: maximum number of information-set codewords the engine
                may enumerate.

        Raises:
            BudgetExceededError: carrying the best upper bound found, when
                the budget ran out before the enumeration completed.
        """
        if self.k < 1:
            raise ValueError("minimum weight requires k >= 1")
        r = _min_weight(self, budget=budget)
        if not r.exact:
            raise BudgetExceededError(
                f"enumerated {r.tried} codewords without completing; best weight seen {r.best}",
                upper_bound=r.best,
            )
        return r.best

    def summarize(self, budget: Optional[int] = None) -> CodeSummary:
        """Fill every summary field; budget truncation maps to non-exact flags.

        A zero code (the code itself with k = 0, or the dual of a full code)
        has no nonzero codewords; its weight is reported as 0.  d and d_dual
        come from one helper, run on this code and on ``hermitian_dual()``;
        the engine starts each from that code's own packed reduced planes.
        hull_dim and is_even both come from one read of ``gram``.
        """
        def weight(code):
            if not code.k:
                return 0, True
            r = _min_weight(code, budget=budget)
            return r.best, r.exact

        d, d_exact = weight(self)
        d_dual, d_dual_exact = weight(self.hermitian_dual())
        gram = self.gram
        hull_dim = self.k - len(linalg._reduce(gram)[2])
        return CodeSummary(
            n=self.n,
            k=self.k,
            d=d,
            d_dual=d_dual,
            hull_dim=hull_dim,
            is_lcd=hull_dim == 0,
            is_even=not gram.any(),
            d_exact=d_exact,
            d_dual_exact=d_dual_exact,
        )


def hull_dim_oracle(c: LinearCode) -> int:
    """Hull dimension computed directly from the definition.

    dim(C ∩ D) = dim C + dim D - dim(C + D) with D the Hermitian dual; the
    sum's dimension is the rank of the stacked generator matrices.  Exact
    but slower than the Gram-rank path; intended for cross-checking.
    """
    dual = c.hermitian_dual()
    stacked = np.vstack([c.gen, dual.gen])
    return c.k + (c.n - c.k) - linalg.rank(stacked)


def min_weight_oracle(c: LinearCode) -> int:
    """Minimum weight from a weight distribution counted from scratch.

    For k <= 10 the distribution is the code's own; otherwise, for
    n - k <= 10, it is the Hermitian dual's, carried over to the code by the
    MacWilliams identity.  Raises TooLargeError when both k and n - k
    exceed 10.
    """
    k, n = c.k, c.n
    if k < 1:
        raise ValueError("minimum weight requires k >= 1")
    if k <= 10:
        counts = _weight_distribution(c.gen)
    elif n - k <= 10:
        counts = _macwilliams(_weight_distribution(c.hermitian_dual().gen), n)
    else:
        raise TooLargeError(f"oracle enumerates 4^min(k, n-k) codewords; k={k}, n-k={n - k} > 10")
    return next(j for j in range(1, n + 1) if counts[j])


def _weight_distribution(gen: np.ndarray) -> list[int]:
    """[A_0, ..., A_n]: how many of the 4^k codewords have each weight.

    No incremental updates and no projective reduction; each codeword is an
    independent message-times-matrix product.
    """
    k, n = gen.shape
    total = 4**k
    counts = np.zeros(n + 1, dtype=np.int64)
    chunk = 1 << 14
    shifts = 2 * np.arange(k, dtype=np.uint64)
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.uint64)
        msgs = ((idx[:, None] >> shifts[None, :]) & 3).astype(np.uint8)
        cw = np.zeros((len(idx), n), dtype=np.uint8)
        for i in range(k):
            # Row f of MUL[:, gen[i]] is f times row i.
            cw ^= MUL[:, gen[i]][msgs[:, i]]
        counts += np.bincount(np.count_nonzero(cw, axis=1), minlength=n + 1)
    return [int(a) for a in counts]


def _macwilliams(dual_counts: list[int], n: int) -> list[int]:
    """The weight distribution of a code from that of its Hermitian dual.

    A_j = 4^-(n-k) sum_i B_i K_j(i), with the Krawtchouk polynomial
    K_j(i) = sum_s (-1)^s 3^(j-s) C(i, s) C(n-i, j-s), in exact integers;
    the dual has 4^(n-k) codewords.
    """
    size = sum(dual_counts)
    return [
        sum(
            b * sum((-1) ** s * 3 ** (j - s) * comb(i, s) * comb(n - i, j - s) for s in range(j + 1))
            for i, b in enumerate(dual_counts)
        )
        // size
        for j in range(n + 1)
    ]


# ---------------------------------------------------------------------------
# Packed bit planes and the row-multiples table (the hot path).
#
# A codeword is its two packed bit planes (:mod:`hlcd4.gf4`), each W words
# long, held on the first axis of one array.  The enumerator reads a table
# of the packed rows' 1, w and w^2 multiples, (2, W, k, 3, *batch), with the
# batch axis of many codes last: the light test packs its batch of A blocks
# (``_packed_rows``) and builds the table of their ``_multiples`` for the
# codes that pass its first step, and each information set of the engine
# writes its reduced planes into it with no batch axis (see
# ``_information_sets``).


# Codewords per enumerated chunk of one code, and the largest layer an
# information set keeps for the next message weight to extend.  A chunk
# spans as many tails as fit; only a tail whose multiples alone are more is
# a larger chunk.
_CHUNK = 1 << 13

# Words one chunk holds over a whole batch of codes: a batch of B codes
# takes at most this / (2 W B) codewords per chunk, and keeps no larger
# layer.  One code of at most 64 words takes ``_CHUNK``.
_BATCH_WORDS = 1 << 20

# A t = 1 step that keeps its layer makes its codewords either with a call
# per row (the per-tail loop) or with one XOR of every row's three
# multiples with the whole layer, which also makes the codewords whose kept
# rows do not precede the row, and one ``compress`` that drops them.  The
# one XOR is taken while the bytes it drops are at most this many per call
# it saves, and only where its inner loops run over the layer: for one code,
# or for a batch extended from the rows themselves (kept = 1); for a batch
# from a kept layer they run over the lanes, and it was slower at every
# size measured.  The bound comes from timing such steps both ways (2
# vCPU): one code of 4 to 60 rows and 1 or 2 words, and batches of 7 to
# 4096 lanes.
_CALL_BYTES = 16 << 10


def _packed_rows(a: np.ndarray) -> np.ndarray:
    """The contiguous (2, W, k, ...) packed planes of the rows of ``a``.

    ``a`` is (..., k, m), with any leading batch axes, which the planes
    carry last, so a step runs over contiguous lanes; W = ceil(m / 64) and
    column j is bit j % 64 of word j // 64, a word of
    ``gf4._word_type(m)``.  A zero column stands in when there are none
    (k = n).
    """
    *batch, k, m = a.shape
    word = _word_type(m)
    words = -(-m // 64) or 1
    p = _pack_planes(a.reshape(prod(batch), k, m), word.itemsize * words).view(word)
    return np.ascontiguousarray(p.transpose(0, 3, 2, 1)).reshape(2, words, k, *batch)


def _multiples(p: np.ndarray) -> np.ndarray:
    """The contiguous (2, W, k, 3, ...) table of 1, w and w^2 times the
    packed rows ``p``, (2, W, k, ...), each plane written in place."""
    out = np.empty((*p.shape[:3], 3, *p.shape[3:]), dtype=p.dtype)
    for f, planes in enumerate(_plane_multiples(p[0], p[1])):
        out[0, :, :, f], out[1, :, :, f] = planes
    return out


def _light_survivors(a: np.ndarray, target: int) -> np.ndarray:
    """The codes of a batch with no codeword of weight below ``target`` from
    a message of weight at most 3, as ascending indices.

    Batch-first: ``a`` is the (B, k, n - k) A blocks of B standard-form
    generators (I_k | A), of any length.  There wt(mG) = wt(m) + wt(mA)
    >= wt(m), so every codeword of weight below 4 comes from a message of
    weight at most 3: the test decides d >= target exactly for target <= 4
    and is a necessary condition above.  The identity is information set
    0 of every code, and ``_layer_weights`` runs its steps v = 1, 2, 3 on
    the whole batch, only while v < target and v <= k.  The codes a step
    rejects leave the batch before the next, so most codes see only the
    first steps; the test ends once none is left.  Step v = 1 reads only
    the packed rows (f = 1), so the w and w^2 multiples are built after it,
    for its survivors alone.
    """
    p = _packed_rows(a)
    s = _InfoSet(0, p[:, :, :, None], p)
    alive = np.arange(len(a))
    last = min(3, target - 1, a.shape[1])
    for v in range(1, last + 1):
        ok = True
        for weights in _layer_weights(s, v):
            ok &= weights.min(axis=0) >= target
            if not ok.any():
                return alive[:0]
        alive = alive[ok]
        if v < last and alive.size < ok.size:
            # compress keeps the batch axis last in memory; a boolean
            # index would put it first and slow every later step.
            s.rows = s.rows.compress(ok, axis=-1)
            s.layer = s.rows[:, :, :, 0] if s.kept == 1 else s.layer.compress(ok, axis=-1)
        if v == 1 and last > 1:
            s.rows = _multiples(s.layer)
            s.layer = s.rows[:, :, :, 0]
    return alive


# ---------------------------------------------------------------------------
# The minimum-weight engine: Brouwer-Zimmermann enumeration over several
# information sets (Grassl, "Searching for linear codes with large minimum
# distance", 2006).
#
# Information set j is the identity of a generator G_j, so a message m of
# weight v gives the codeword of weight v + wt(m A_j), A_j being the other
# n - k columns of G_j.  The sets are found greedily: set j takes as many
# columns unused by earlier sets as its rank allows (r_j) and borrows its
# deficit k - r_j from used ones.  Once every message of weight <= v_j has
# been enumerated on every set, a codeword not yet seen has more than v_j
# nonzeros on each set, at least v_j + 1 - (k - r_j) of them on the set's
# own columns; those are disjoint, so its weight is at least the sum over
# j of max(0, v_j + 1 - (k - r_j)).  The enumeration stops as soon as that
# lower bound reaches the best weight seen.
#
# The sets never leave the packed planes.  The generator is packed once, as
# one Python int per plane; each set is one elimination that starts from
# the previous set's reduced planes and pivots on the unused columns first,
# then on the used ones in column order.  The reduced form is unique for a
# column order, so G_j is the same however it is reached.  Borrowing in
# column order takes only columns of the first set, each the first that
# raises the rank, as taking the first set's columns before the others
# would: any other column depends on the first set's columns to its left.
# A_j is G_j with its pivot bits cleared: its columns stay where they are,
# which no weight sees, unless n needs more words than n - k columns do;
# then they move down into ceil((n - k) / 64) words.  The sets' planes stay
# Python ints until the last set is found; one conversion and one transpose
# then make one array of every set's table, and each set's ``rows`` is a
# view of it.  Set 0 is the reduced form in column order, which the
# ``LinearCode`` keeps from its own reduction: its weights start from those
# planes, with no packing and no elimination.
#
# A step of the enumeration (one set, one message weight) writes its
# codewords tail by tail into one chunk of up to ``_CHUNK`` codewords and
# counts a chunk at a time: one OR, popcount and sum, and one round of
# budget and limit checks, per chunk rather than per tail row.  Chunks
# never span two steps, and where one ends changes neither the order of
# the codewords nor where the enumeration stops.  What a step needs that
# depends only on its shape, the one-XOR path's compress mask and the
# count type, is cached, not rebuilt at every step.
#
# Before any set after set 0 is built, the engine picks its plan: every set,
# or set 0 alone, enumerated through every message weight, which sees each
# projective class once and has bound w + 1 after weight w (its
# ``_schedule`` has the one deficit 0).  Set 0 alone pays no elimination but
# its bound grows by one a round, not by the number of sets; it is taken
# where its whole (4^k - 1) / 3 codewords are projected to cost clearly less
# than the sets' run (``_alone_above``, ``_sets_limit``), which in the
# table's range is possible only for k <= 9.  Both plans run the same loop,
# enumerator and stop rule, and the plan depends on the code alone, never
# on the cutoff or the budget.
#
# Over every set, the engine builds only the sets it can reach.  Its first
# step finds the rows of set 0, whose weights bound d from above, and it
# ends before any step whose bound reaches one of them; a partial set whose
# first step cannot come sooner is not built (``_information_sets``).  The
# [17,13] quadric's second set, for one, would first be used in round 9.
#
# The light test (``_light_survivors``) runs the same steps, v = 1, 2, 3,
# on set 0 of a whole batch of (I_k | A) codes, the batch on a last axis of
# every array; its chunks hold fewer codewords, so that one stays near
# ``_BATCH_WORDS`` words.


class _Weight(NamedTuple):
    """What one minimum-weight computation found.

    ``best`` is the smallest weight seen and ``exact`` says whether it is
    the minimum distance.  ``tried`` counts the codewords enumerated.
    ``bound`` is the final lower bound on the minimum distance (so
    ``bound <= d <= best``, with equality when exact), and
    ``stop`` says why the enumeration ended: ``bound`` (the lower bound met
    ``best``, which it always does in the end), ``cutoff`` (``best`` fell
    below the cutoff) or ``budget``.
    """

    best: int
    exact: bool
    tried: int
    bound: int
    stop: str


@dataclass
class _InfoSet:
    """One information set and its kept layer, of one code or of a batch."""

    deficit: int
    # (2, W, k, 3, *batch) planes of f times row i of A_j, f = 1, w, w^2;
    # a batch of codes (the light test's) on a last axis.  The light test's
    # step v = 1 reads f = 1 alone and holds only that, (2, W, k, 1, B).
    rows: np.ndarray
    # The kept layer: codewords of every message of weight ``kept``, grouped
    # by the message's last row, as (2, W, N, *batch) planes; at first the
    # rows themselves (f = 1).
    layer: np.ndarray
    kept: int = 1


def _information_sets(code: LinearCode, limit: float = inf) -> list[_InfoSet]:
    """Greedy information sets of ``code``, in order of use, but none that
    ``_schedule`` could first enumerate only at a bound of ``limit`` or
    more.

    Set 0 is the code's reduced form in column order, its packed planes and
    pivots as the code keeps them.  Every set's planes stay Python ints
    until the last set is found; one conversion and one transpose then make
    the (S, 2, W, k, 3) table of all S sets, and each set's ``rows`` is a
    view of it.

    A limit of 0 builds set 0 alone.  Otherwise, a set takes at most the
    columns that no earlier set took, so when those are ``short`` fewer
    than k, its deficit is at least ``short``: it is first enumerated in
    round ``short`` or later, when each full set before it has added at
    least short + 1 to the bound.  Where that sum reaches ``limit``,
    neither this set nor any later one is built.  No limit above n stops a
    set.
    """
    k, n = code.k, code.n
    stride = _stride(n)
    lo, hi, pivots = code._reduced
    # A 1 at bit 0 of every row.
    ones = ((1 << stride * k) - 1) // ((1 << stride) - 1)
    words = -(-(n - k) // 64) or 1
    unused = (1 << n) - 1
    deficits, multiples = [], []
    while True:
        taken = sum(1 << c for c in pivots)
        fresh = taken & unused
        if not fresh:
            break
        free = (1 << n) - 1 ^ taken
        if words < -(-n // 64):
            a = [_compact(x, free, ones) for x in (lo, hi)]
        else:
            a = [x & free * ones for x in (lo, hi)]
        # Both planes of the three multiples of every row, plane by plane.
        multiples += [x for plane in zip(*_plane_multiples(*a)) for x in plane]
        deficits.append(k - fresh.bit_count())
        unused ^= fresh
        if not unused or not limit:
            break
        short = k - unused.bit_count()
        if short > 0 and deficits.count(0) * (short + 1) >= limit:
            break
        lo, hi, pivots = linalg._eliminate(lo, hi, k, stride, unused)
    # Every set at once, as (S, 2, 3, k, W) words laid out as (S, 2, W, k, 3).
    rows = _from_ints(multiples, k, n)[..., :words].reshape(-1, 2, 3, k, words)
    rows = np.ascontiguousarray(rows.transpose(0, 1, 4, 3, 2))
    return [_InfoSet(deficit, r, r[:, :, :, 0]) for deficit, r in zip(deficits, rows)]


def _compact(x: int, free: int, ones: int) -> int:
    """The bits of ``free`` in every row of packed plane ``x`` moved down
    to the lowest bits of the row, in order; the other bits dropped.

    ``ones`` has a 1 at bit 0 of every row, so each run of consecutive
    free columns moves in all rows at once.
    """
    out, low = 0, 0
    while free:
        start = (free & -free).bit_length() - 1
        run = free >> start
        length = (run + 1 & ~run).bit_length() - 1
        out |= x >> start - low & ones * ((1 << length) - 1 << low)
        free ^= (1 << length) - 1 << start
        low += length
    return out


def _layer_size(k: int, v: int) -> int:
    """Messages of weight v on k rows with leading coefficient 1."""
    return comb(k, v) * 3 ** (v - 1)


def _layer_weights(s: _InfoSet, v: int):
    """The weights of the codewords of every weight-v message on set ``s``,
    in chunks, (N, *batch) each.

    A chunk holds at most ``size`` codewords of every code: ``_CHUNK`` for
    one code, fewer for a batch, so that a chunk is at most about
    ``_BATCH_WORDS`` words.  A message splits into its ``s.kept`` first
    rows, whose codewords are the kept layer (leading coefficient 1), and
    its t = v - s.kept last rows, which take every coefficient; kept
    codewords whose rows all precede row l form a prefix of the layer,
    C(l, kept) 3^(kept - 1) long.  At v = 1 the kept layer is the whole
    message (t = 0), counted in pieces of ``size``.  Otherwise tails come in
    lexicographic order; each tail's 3^t multiples are XORed with its
    prefix, cut into pieces of at most ``size`` codewords, into one chunk
    buffer, which is counted when the next piece would not fit.  So a chunk
    spans as many tails as fit, and only a tail whose multiples alone exceed
    ``size`` makes chunks larger than that, one piece each.  With t = 1 a
    layer of at most ``size`` codewords is one chunk, and becomes the kept
    layer once it has been enumerated; where that costs less (see
    ``_CALL_BYTES``), that chunk is one XOR of every row's multiples with
    the whole layer, compressed to the codewords whose kept rows precede the
    row, in the same order.  The axes are indexed from the front, so one
    path serves every batch shape.
    """
    _, words, k, _, *batch = s.rows.shape
    size = min(_CHUNK, max(1, _BATCH_WORDS // (2 * words * prod(batch))))
    if v == s.kept:
        for lo in range(0, s.layer.shape[2], size):
            yield _weights(s.layer[:, :, lo : lo + size], v)
        return
    total = _layer_size(k, v)
    keep = s.kept == v - 1 and total <= size
    # The bytes of the codewords the one XOR below makes and drops; it saves
    # the per-tail loop's k - v further calls.
    spare = (3 * k * s.layer.shape[2] - total) * s.layer.nbytes // s.layer.shape[2]
    if keep and (s.kept == 1 or prod(batch) == 1) and spare <= _CALL_BYTES * (k - v):
        chunk = (s.rows[:, :, :, :, None] ^ s.layer[:, :, None, None]).reshape(2, words, -1, *batch)
        chunk = chunk.compress(_preceding(k, s.kept), axis=2)
        fill = total
    else:
        # Every tail has 3^t multiples, so every prefix splits in the same
        # step.  Only tails after the first kept rows have a prefix.
        multiples = 3 ** (v - s.kept)
        step = max(1, size // multiples)
        chunk = np.empty((2, words, min(total, max(size, multiples)), *batch), dtype=s.rows.dtype)
        fill = 0
        for tail in itertools.combinations(range(s.kept, k), v - s.kept):
            # The tail's multiples on an axis before the prefix's, so each
            # XOR runs over a long inner axis.
            t = s.rows[:, :, tail[0], :, None]
            for i in tail[1:]:
                t = (t ^ s.rows[:, :, i, None]).reshape(2, words, -1, 1, *batch)
            prefix = _layer_size(tail[0], s.kept)
            for lo in range(0, prefix, step):
                hi = min(lo + step, prefix)
                end = fill + multiples * (hi - lo)
                if end > chunk.shape[2]:
                    yield _weights(chunk[:, :, :fill], v)
                    fill, end = 0, end - fill
                out = chunk[:, :, fill:end].reshape(2, words, multiples, hi - lo, *batch)
                np.bitwise_xor(t, s.layer[:, :, None, lo:hi], out)
                fill = end
    yield _weights(chunk[:, :, :fill], v)
    if keep:
        # The whole layer is the one chunk, which no later step writes.
        s.kept = v
        s.layer = chunk


@functools.cache
def _preceding(k: int, kept: int) -> np.ndarray:
    """The one-XOR step's compress mask over its (k, 3, N) codewords, the
    three multiples of each row with each of the N kept codewords: True
    where the kept codeword's rows all precede the row."""
    prefixes = np.array([_layer_size(l, kept) for l in range(k)]).repeat(3)
    mask = (np.arange(_layer_size(k, kept)) < prefixes[:, None]).ravel()
    mask.setflags(write=False)
    return mask


def _weights(c: np.ndarray, v: int) -> np.ndarray:
    """The weights of (2, W, N, *batch) codewords of weight-v messages: the
    message's own v nonzeros plus the popcount of each word, added one word
    at a time (``sum`` runs over the word axis) in the narrowest unsigned
    type that holds 64 W + v, so the sum cannot wrap."""
    counts = np.bitwise_count(c[0] | c[1])
    return sum(counts[1:], counts[0] + _count_start(len(counts), v))


@functools.cache
def _count_start(words: int, v: int) -> np.unsignedinteger:
    """v as a scalar of the narrowest unsigned type that holds 64 W + v."""
    return np.min_scalar_type(64 * words + v).type(v)


def _schedule(k: int, deficits: list[int]):
    """The (set, message weight, bound) steps of the enumeration.

    Round w brings every set to message weight w, except sets whose deficit
    is above w: they would add nothing to the bound yet, and catch up in the
    first round that lets them.  ``bound`` is the lower bound on the weight
    of every codeword not enumerated before the step.
    """
    done = [0] * len(deficits)
    # Every nonzero codeword has a nonzero on each full set.
    bound = deficits.count(0)
    for w in range(1, k + 1):
        for j, deficit in enumerate(deficits):
            while deficit <= w and done[j] < w:
                done[j] += 1
                yield j, done[j], bound
                bound += done[j] >= deficit


# The engine's costs in enumerated codewords: a step (one set, one message
# weight) and each information set after set 0.  Least-squares fits of
# ``_min_weight``'s time on both plans, at the table's shapes with k <= 10
# and eight more up to [100,9] (2 vCPU), gave about 6.5 us a step, 6.4 us
# a set and 2.5 ns a codeword.  The fits were off by up to a quarter, and
# the sets' run is projected to the lightest row's weight, which d may
# well be below; so set 0 alone is taken only where it is projected to
# cost at most 2/3 of the sets' run.
_STEP_COST = 2600
_SET_COST = 2600


@functools.cache
def _alone_above(n: int, k: int) -> int:
    """The weight of the lightest row of set 0 above which ``_min_weight``
    enumerates set 0 alone.

    Set 0 alone is priced as its k steps and all its (4^k - 1) / 3
    codewords.  The sets are projected as floor(n / k) full sets and one
    partial set of the n mod k columns left: the steps of their
    ``_schedule`` that the run needs before its bound reaches the lightest
    row's weight, which bounds d from above (the first step always runs),
    and ``_SET_COST`` for every full set after set 0 and for the partial
    set if one of those steps is its first.  Only the projection depends
    on the code, through that weight, and it only grows with it.  Returns
    0 where set 0 alone is taken whatever the rows weigh, and n where it
    never is (no row weighs more than n - k + 1).
    """
    full, part = divmod(n, k)
    deficits = [0] * full + [k - part] * (part > 0)
    alone = k * _STEP_COST + (4**k - 1) // 3
    cost = _SET_COST * (full - 1)
    for step, (j, v, bound) in enumerate(_schedule(k, deficits)):
        cost += _STEP_COST + _layer_size(k, v) + _SET_COST * (j == full and v == 1)
        if 2 * cost > 3 * alone:
            return bound if step else 0
    return n


def _sets_limit(code: LinearCode) -> int:
    """The ``limit`` of ``_min_weight``'s information sets: 0, set 0
    alone, where every row of set 0 weighs more than ``_alone_above``, and
    otherwise the weight of row 0, since the first step enumerates the rows
    of set 0 and the run ends before any step whose bound reaches the weight
    of one of them.

    No row weighs more than n - k + 1, so where the plan does not depend on
    the rows (every k >= 10 in the table's range) only row 0 is read;
    otherwise the rows are read up to the first at or below the threshold.
    """
    k, n = code._gen.shape
    above = _alone_above(n, k)
    if not above:
        return 0
    x, stride, row = code._reduced[0] | code._reduced[1], _stride(n), (1 << n) - 1
    row0 = (x & row).bit_count()
    if row0 <= above:
        return row0
    for _ in range(k - 1):
        x >>= stride
        if (x & row).bit_count() <= above:
            return row0
    return 0


def _min_weight(code: LinearCode, cutoff: Optional[int] = None, budget: Optional[int] = None) -> _Weight:
    """Minimum weight of ``code``, from its packed reduced planes.

    Information-set codewords are enumerated by message weight, one
    ``_schedule`` step at a time, on every set the run can reach or, where
    that is projected to cost less (``_sets_limit``), on set 0 alone,
    through every message weight: then each projective class is seen once,
    and the bound is w + 1 after weight w.  The plan depends on the code
    alone, not on ``cutoff`` or ``budget``.  The enumeration stops, exact,
    once the step's lower bound meets the best weight seen or a codeword at
    or below the bound turns up; not exact, at the first codeword below
    ``cutoff``, or once ``budget`` codewords have been enumerated.
    Codewords count as they are enumerated, so a budget of the unbounded
    run's ``tried`` completes.

    Raises:
        ValueError: if ``budget`` is below 1.
    """
    if budget is not None and budget < 1:
        raise ValueError("budget must be at least 1")
    sets = _information_sets(code, _sets_limit(code))
    k, n = code.k, code.n
    best, tried, bound = n + 1, 0, 0

    def result(exact, stop):
        # Unseen codewords weigh at least ``bound`` (and at least 1), seen
        # ones at least ``best``: the distance is at least the smaller.
        return _Weight(best, exact, tried, best if exact else min(max(bound, 1), best), stop)

    for j, v, bound in _schedule(k, [s.deficit for s in sets]):
        if bound >= best:
            return result(True, "bound")
        # A codeword at or below ``limit`` ends the enumeration.
        limit = bound if cutoff is None else max(bound, cutoff - 1)
        for weights in _layer_weights(sets[j], v):
            whole = len(weights)
            if budget is not None:
                if tried >= budget:
                    return result(False, "budget")
                weights = weights[: budget - tried]
            low = int(weights.min())
            if low <= limit:
                # Count up to the first codeword that ends it, no further.
                first = int(np.argmax(weights <= limit))
                tried += first + 1
                best = min(best, int(weights[first]))
                if cutoff is not None and best < cutoff:
                    return result(False, "cutoff")
                return result(True, "bound")
            tried += len(weights)
            best = min(best, low)
            if len(weights) < whole:
                return result(False, "budget")
    # Set 0 has enumerated every message: nothing is left unseen.
    return result(True, "bound")
