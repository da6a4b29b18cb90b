"""Linear codes over the four-element field: duals, hulls, minimum weight.

A code is held as a full-row-rank generator matrix; the reduced row echelon
form is the canonical representative used for equality.  The zero code
(k = 0) is permitted as the result of puncturing or shortening and is
treated as trivially LCD (its hull is the zero space).

Minimum weight comes from one engine.  Scalar multiples of a codeword share
its weight, so only messages whose first nonzero symbol is 1 are visited.
Codewords are packed into two bit planes (low and high bit of each symbol) of
W = ceil(n/64) machine words each; the weight is the popcount summed over the
words.  One table of the packed rows' 1, w and w^2 multiples feeds both
weight enumerators, at every length: the batched light test of search
(messages of weight at most 3) and the engine.  The engine enumerates
messages by weight over several information sets (Brouwer-Zimmermann) and
stops once a lower bound on the weight of every codeword not yet seen meets
the best weight found; one loop applies that bound, the cutoff and the
enumeration budget, which counts the codewords enumerated.  An independent
oracle counts the weight of every codeword from scratch, of the code itself
for k <= 10 or of its Hermitian dual for n - k <= 10 (then transformed by the
MacWilliams identity), for cross-checking.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import asdict, dataclass, field
from math import comb
from typing import NamedTuple, Optional

import numpy as np

from . import linalg
from .errors import BudgetExceededError, RankDeficientError, TooLargeError
from .gf4 import CONJ, MUL, from_symbols, to_symbols


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
        # the common all-exact record stays minimal.
        return {
            key: value
            for key, value in asdict(self).items()
            if not (key.endswith("_exact") and value)
        }


class LinearCode:
    """An [n, k] code over the four-element field, immutable once built."""

    def __init__(self, gen: np.ndarray):
        gen = np.asarray(gen, dtype=np.uint8)
        if gen.ndim != 2:
            raise ValueError("generator matrix must be 2-d")
        if gen.shape[1] < 1:
            raise ValueError("code length must be at least 1")
        if gen.size and gen.max() > 3:
            raise ValueError("entries must be in 0..3")
        k = gen.shape[0]
        R, pivots = linalg.rref(gen)
        if len(pivots) != k:
            raise RankDeficientError(f"generator matrix has rank {len(pivots)}, expected {k}")
        self._canonical = R
        self._gen = gen.copy()
        self._gen.setflags(write=False)
        self._canonical.setflags(write=False)
        self._gram: Optional[np.ndarray] = None

    @classmethod
    def from_symbols(cls, text: str) -> "LinearCode":
        """Build a code from newline-separated symbol rows like ``"10\\n01"``."""
        rows = [from_symbols(line) for line in text.strip().splitlines() if line.strip()]
        if not rows:
            raise ValueError("no rows given")
        if len({len(r) for r in rows}) != 1:
            raise ValueError("rows have unequal lengths")
        return cls(np.vstack(rows))

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
        """Reduced row echelon form of the generator matrix."""
        return self._canonical

    @property
    def gram(self) -> np.ndarray:
        """G * conj(G)^T, cached."""
        if self._gram is None:
            g = linalg.gram(self._gen)
            g.setflags(write=False)
            self._gram = g
        return self._gram

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinearCode):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.canonical, other.canonical)

    def __hash__(self) -> int:
        return hash((self.n, self.k, self.canonical.tobytes()))

    def __repr__(self) -> str:
        return f"LinearCode(n={self.n}, k={self.k})"

    def __str__(self) -> str:
        return "\n".join(to_symbols(row) for row in self._gen) if self.k else "(zero code)"

    def hermitian_dual(self) -> "LinearCode":
        """The [n, n-k] code of vectors Hermitian-orthogonal to every codeword.

        A vector x satisfies (x, y)_h = 0 for all rows y of G exactly when
        conj(G) x^T = 0, so the dual is the kernel of the conjugated
        generator matrix.
        """
        return LinearCode(linalg.kernel(CONJ[self._gen]))

    def hull_dim(self) -> int:
        """Dimension of the intersection with the Hermitian dual.

        Computed as k - rank(G * conj(G)^T); no dual basis is materialized.
        """
        return self.k - linalg.rank(np.asarray(self.gram))

    def is_lcd(self) -> bool:
        """True when the Hermitian hull is trivial (G * conj(G)^T nonsingular)."""
        return self.hull_dim() == 0

    def is_even(self) -> bool:
        """True when every codeword has even weight.

        Equivalent to Hermitian self-orthogonality, i.e. a vanishing Gram
        matrix: the diagonal entries are the row-weight parities and the
        off-diagonal entries are the pairwise inner products.
        """
        return not np.asarray(self.gram).any()

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
        r = _min_weight(self._gen, budget=budget)
        if not r.exact:
            raise BudgetExceededError(
                f"enumerated {r.tried} codewords without completing; best weight seen {r.best}",
                upper_bound=r.best,
            )
        return r.best

    def summarize(self, budget: Optional[int] = None) -> CodeSummary:
        """Fill every summary field; budget truncation maps to non-exact flags.

        A zero code (the code itself with k = 0, or the dual of a full code)
        has no nonzero codewords; its weight is reported as 0.
        """
        def weight(code):
            if code.k == 0:
                return 0, True
            r = _min_weight(code.gen, budget=budget)
            return r.best, r.exact

        d, d_exact = weight(self)
        d_dual, d_dual_exact = weight(self.hermitian_dual())
        hull_dim = self.hull_dim()
        return CodeSummary(
            n=self.n,
            k=self.k,
            d=d,
            d_dual=d_dual,
            hull_dim=hull_dim,
            is_lcd=hull_dim == 0,
            is_even=self.is_even(),
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
# A codeword splits into two bit planes (low bit, high bit), each W words
# long.  Multiplying a packed word (p0, p1) by a scalar permutes/mixes the
# planes, word by word:
#   1 * (p0, p1) = (p0, p1)
#   w * (p0, p1) = (p1, p0 ^ p1)
#   w^2 * (p0, p1) = (p0 ^ p1, p0)
# Weight is the popcount of p0 | p1.  ``_row_multiples`` is the one place
# that packs rows and forms these multiples; the light test and the
# information sets both read from its table, at every length.


# Codewords per enumerated chunk, and the largest layer an information set
# keeps for the next message weight to extend.
_CHUNK = 1 << 13


def _row_multiples(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (..., W, k, 3) low and high planes of 1, w and w^2 times each row.

    ``a`` is (..., k, m), with any leading batch axes; W = ceil(m / 64) and
    column j is bit j % 64 of word j // 64.  One word holds the columns in
    the narrowest unsigned type when they fit in 64 bits; a zero column
    stands in when there are none (k = n).
    """
    if a.shape[-1] == 0:
        a = np.zeros(a.shape[:-1] + (1,), dtype=np.uint8)
    cols = np.arange(a.shape[-1])
    # The bits of the columns are disjoint, so a product sums them into
    # their words without carries.
    place = np.zeros((len(cols), -(-len(cols) // 64)), dtype=np.uint64)
    place[cols, cols // 64] = np.uint64(1) << (cols % 64).astype(np.uint64)
    p = (np.stack([a & 1, a >> 1]) @ place).swapaxes(-1, -2)
    if p.shape[-2] == 1:
        p = p.astype(np.min_scalar_type(int(p.max())))
    # The low planes of 1, w and w^2 times a row are p0, p1, p0 ^ p1, and
    # its high planes the same run shifted by one.
    m = np.stack([p[0], p[1], p[0] ^ p[1], p[0]], axis=-1)
    return m[..., :3], m[..., 1:]


@functools.cache
def _light_messages(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The projective messages of weight 1 to 3 on k rows, built once per k.

    Returns (rows, weights).  ``rows`` is (3, N): each message is the sum of
    three rows of a (3k + 1)-row table whose row 3i + f holds factor f
    (1, w, w^2) times generator row i and whose last row is zero; the
    leading factor is 1, one message per projective class.  ``weights`` is
    the (N, 1) message weights.
    """
    zero = 3 * k
    pairs = np.array(list(itertools.combinations(range(k), 2)), dtype=np.intp).reshape(-1, 2)
    triples = np.array(list(itertools.combinations(range(k), 3)), dtype=np.intp).reshape(-1, 3)
    i2, j2 = (3 * pairs.T)[:, :, None]
    i3, j3, l3 = (3 * triples.T)[:, :, None, None]
    f = np.arange(3)
    # The three table rows of each message, by message weight; broadcasting
    # runs the factors of the second and third rows over 1, w, w^2.
    by_weight = [
        (3 * np.arange(k), zero, zero),
        (i2, j2 + f, zero),
        (i3, j3 + f[:, None], l3 + f),
    ]
    rows = np.concatenate(
        [np.stack(np.broadcast_arrays(*msgs)).reshape(3, -1) for msgs in by_weight], axis=1
    )
    weights = (rows != zero).sum(axis=0).astype(np.uint8)[:, None]
    # Cached and shared by every caller, so read-only.
    rows.setflags(write=False)
    weights.setflags(write=False)
    return rows, weights


def _light_min_weight(a: np.ndarray) -> np.ndarray:
    """Minimum weight over messages of weight at most 3, for a batch of codes.

    Batch-first: ``a`` is the (B, k, n - k) A blocks of B standard-form
    generators (I_k | A), of any length; returns the (B,) weights.  There
    wt(mG) = wt(m) + wt(mA) >= wt(m), so every codeword of weight below 4
    comes from a message of weight at most 3: each value decides d >= t
    exactly for any threshold t <= 4, and is an upper bound on d in general.
    """
    batch, k, m = a.shape
    rows, weights = _light_messages(k)
    # Only the A columns are combined; the identity part contributes the
    # message weight.  Row 3i + f of the table holds both planes of f times
    # row i, batch on the last axis, so every gather below copies whole rows.
    rows0, rows1 = _row_multiples(a)
    words = rows0.shape[1]
    table = np.zeros((3 * k + 1, 2, words, batch), dtype=rows0.dtype)
    table[:-1] = np.stack([rows0, rows1]).transpose(3, 4, 0, 2, 1).reshape(3 * k, 2, words, batch)
    c = np.take(table, rows[0], axis=0)
    c ^= np.take(table, rows[1], axis=0)
    c ^= np.take(table, rows[2], axis=0)
    # Summed over the words in a type that holds every weight up to m + 3.
    counts = np.bitwise_count(c[:, 0] | c[:, 1]).sum(axis=1, dtype=np.min_scalar_type(m + 3))
    return (counts + weights).min(axis=0)


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
    """One information set and its kept layer."""

    deficit: int
    # (W, k, 3) planes of f times row i of A_j, f = 1, w, w^2.
    rows0: np.ndarray
    rows1: np.ndarray
    # The kept layer: codewords of every message of weight ``kept``, grouped
    # by the message's last row, as (W, N) planes; at first the rows.
    kept: int = 1
    layer0: np.ndarray = field(init=False)
    layer1: np.ndarray = field(init=False)

    def __post_init__(self):
        self.layer0, self.layer1 = self.rows0[:, :, 0], self.rows1[:, :, 0]


def _information_sets(gen: np.ndarray) -> list[_InfoSet]:
    """Greedy information sets of a full-rank generator, in order of use."""
    k, n = gen.shape
    unused, used = list(range(n)), []
    sets = []
    while unused:
        order = unused + used
        reduced, pivots = linalg.rref(gen[:, order])
        fresh = [order[p] for p in pivots if p < len(unused)]
        if not fresh:
            break
        redundant = np.delete(reduced, pivots, axis=1)
        sets.append(_InfoSet(k - len(fresh), *_row_multiples(redundant)))
        used += fresh
        unused = [c for c in unused if c not in fresh]
    return sets


def _layer_size(k: int, v: int) -> int:
    """Messages of weight v on k rows with leading coefficient 1."""
    return comb(k, v) * 3 ** (v - 1)


def _layer_chunks(s: _InfoSet, v: int):
    """The weights of the codewords of every weight-v message on set ``s``,
    in chunks of at most ``_CHUNK``.

    A message splits into its ``s.kept`` first rows, whose codewords are the
    kept layer (leading coefficient 1), and its t = v - s.kept last rows,
    which take every coefficient; kept codewords whose rows all precede row
    l form a prefix of the layer, C(l, kept) 3^(kept - 1) long.  With
    t = 1 the chunks come out grouped by last row, so a layer of at most one
    chunk becomes the kept layer once it has been enumerated.
    """
    words, k, _ = s.rows0.shape
    keep = s.kept == v - 1 and _layer_size(k, v) <= _CHUNK
    kept = []
    for c0, c1 in _layer_planes(s, v):
        counts = np.bitwise_count(c0 | c1)
        counts = counts[0] if words == 1 else counts.sum(axis=0, dtype=np.intp)
        # The message's own v nonzeros, in a type that cannot wrap.
        yield counts + np.intp(v)
        if keep:
            kept.append((c0, c1))
    if keep:
        s.kept = v
        s.layer0 = np.concatenate([c[0] for c in kept], axis=1)
        s.layer1 = np.concatenate([c[1] for c in kept], axis=1)


def _layer_planes(s: _InfoSet, v: int):
    """The (W, N) planes of the redundant columns behind ``_layer_chunks``."""
    words, k, _ = s.rows0.shape
    if v == 1:
        yield s.layer0, s.layer1
        return
    base = s.kept
    for tail in itertools.combinations(range(k), v - base):
        size = _layer_size(tail[0], base)
        if not size:
            continue
        t0, t1 = s.rows0[:, tail[0]], s.rows1[:, tail[0]]
        for i in tail[1:]:
            t0 = (t0[:, :, None] ^ s.rows0[:, i, None]).reshape(words, -1)
            t1 = (t1[:, :, None] ^ s.rows1[:, i, None]).reshape(words, -1)
        # The tail axis outermost, so each XOR runs over a long inner axis.
        step = max(1, _CHUNK // t0.shape[1])
        for lo in range(0, size, step):
            hi = min(lo + step, size)
            yield (
                (t0[:, :, None] ^ s.layer0[:, None, lo:hi]).reshape(words, -1),
                (t1[:, :, None] ^ s.layer1[:, None, lo:hi]).reshape(words, -1),
            )


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


def _set_layers(gen: np.ndarray):
    """The information-set enumeration as ``_enumerate`` layers, one per
    (set, message weight) step, each with the lower bound it starts from."""
    sets = _information_sets(gen)
    k, n = gen.shape
    for j, v, bound in _schedule(k, [s.deficit for s in sets]):
        yield bound, _layer_chunks(sets[j], v)
    # Set 0 has enumerated every message: nothing is left unseen.
    yield n + 1, ()


def _enumerate(layers, n: int, cutoff: Optional[int], budget: Optional[int]) -> _Weight:
    """The enumeration loop, and every rule that stops it.

    ``layers`` yields (bound, chunks): ``bound`` is a lower bound on the
    weight of every codeword not enumerated before the layer, and
    ``chunks`` yields the weights of the layer's codewords in arrays.  The
    loop stops, exact, once the bound meets the best weight seen or a
    codeword at or below the bound turns up; not exact, at the first
    codeword below ``cutoff``, or once ``budget`` codewords have been
    counted.  The last layer's bound, n + 1, meets every best weight.
    """
    best, tried, bound = n + 1, 0, 0

    def result(exact, stop):
        # Unseen codewords weigh at least ``bound`` (and at least 1), seen
        # ones at least ``best``: the distance is at least the smaller.
        return _Weight(best, exact, tried, best if exact else min(max(bound, 1), best), stop)

    for bound, chunks in layers:
        if bound >= best:
            return result(True, "bound")
        # A codeword at or below ``limit`` ends the enumeration.
        limit = bound if cutoff is None else max(bound, cutoff - 1)
        for weights in chunks:
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


def _min_weight(
    gen: np.ndarray,
    cutoff: Optional[int] = None,
    budget: Optional[int] = None,
) -> _Weight:
    """Minimum weight of the code spanned by a full-rank generator.

    Information-set codewords are enumerated by message weight until the
    lower bound meets the best weight seen (exact), or, not exact, until the
    best weight falls below ``cutoff`` or ``budget`` codewords have been
    enumerated; codewords count as they are enumerated, so a budget of the
    unbounded run's ``tried`` completes.
    """
    return _enumerate(_set_layers(gen), gen.shape[1], cutoff, budget)
