"""Seeded randomized search for LCD codes and bounds verification.

Three strategies:

RANDOM draws standard-form generator matrices (I_k | A) with uniform A and
keeps the first candidate that is LCD with minimum weight at or above the
target.  Candidate i's A is numpy's ``default_rng([seed, i]).integers(0, 4,
size=(k, n - k), dtype=uint8)``, reproduced for a block of consecutive
indices at once (``_candidate_block``: the SeedSequence hash, PCG64 seeding
and XSL-RR outputs on arrays of lanes) and checked against numpy in the
tests.  Of SeedSequence's four pool words only word 1, the index, depends
on the lane until the second mixing round, so words 0, 2 and 3 and the
first round's hashes are computed once per block, as Python ints; the
eight hashed words pair into PCG64's four 64-bit seeding words through a
uint64 view, the LCG steps in place and the symbols are shifted straight
into the block.  All of it is integer arithmetic that wraps exactly as
numpy's does, so the symbols are bit-identical to numpy's.  The first
block holds 64 indices and each later one four times as many, up to about
2^18 drawn symbols (never fewer than 1024 indices): 8192 at [12, 8].  One
vectorised light weight test, over messages of weight at most 3, covers
the whole block of drawn candidates at any length; it tests one message
weight at a time and drops the candidates each part rejects.
Only its survivors, in index order, take the weight check (for targets
above 4) and the LCD check.  The result is therefore the lowest hit index,
a pure function of (seed, index): the block size never changes which
candidate is found.  The light test and the engine behind the weight check
run one enumerator, ``code._layer_weights``: the light test on the identity
information set of every candidate of the block at once, the engine on the
information sets of one code.
Random search takes no base code: a ``SearchConfig`` with a base is
refused with ``PreconditionError``.
``SearchConfig.threads`` is accepted and ignored: search is serial.
``SearchConfig.strategy`` takes a ``Strategy`` or its value ("random",
"axy", "puncture-shorten"); anything else is refused.

AXY_NEIGHBORHOOD hill-climbs from an LCD code (I_k | A) using the
two-vector update: sample an isotropic pair, update A, accept moves that
improve or tie the minimum weight (ties up to a plateau cap).  The climb
holds only the A block and its Gram matrix A conj(A)^T; the generator's Gram
matrix is I + A conj(A)^T, which the update preserves, so every visited code
is LCD, and each step asserts that the Gram block is unchanged.  A move is
light-tested on A and only its survivors are assembled into (I_k | A) for
the engine; a ``LinearCode`` is built only for the code returned.  A base
code is first put into standard form (``linalg.standard_form``), which may
permute its columns: the climb runs in, and returns, that form's column
order, so the result can be a column-permuted copy of the base even when no
step is taken.

PUNCTURE_SHORTEN walks the coordinates of a longer base code and collects
the one-coordinate derivatives (punctured and shortened) that are LCD,
keeping the first that matches the requested parameters.

Every strategy stops at its budget: a candidate is drawn or derived only
while fewer than ``budget`` have been, so ``candidates_tried`` never
exceeds it.

Minimum-weight checks during search run with a cutoff at the target weight:
enumeration aborts as soon as any codeword falls below it, which rejects
typical random candidates after a tiny fraction of the scan.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from itertools import islice, product
from typing import Iterable, Optional

import numpy as np

from . import linalg
from .code import (
    _DEFAULT_BUDGET,
    CodeSummary,
    LinearCode,
    _light_survivors,
    _min_weight,
)
from .errors import ExhaustedRetriesError, NoPairExistsError, PreconditionError
from .gf4 import hermitian_inner, weight
from .tables import BoundsTable
from .transform import IsotropicPair, _axy_update, puncture, shorten

_RETRY_CAP = 10000
# Sideways moves the axy climb makes on one plateau before it restarts.
_PLATEAU_CAP = 100


class Strategy(Enum):
    RANDOM = "random"
    AXY_NEIGHBORHOOD = "axy"
    PUNCTURE_SHORTEN = "puncture-shorten"


@dataclass(frozen=True)
class SearchConfig:
    n: int
    k: int
    target_d: int
    seed: int
    budget: int = 100000
    strategy: Strategy = Strategy.RANDOM
    base: Optional[LinearCode] = None
    threads: int = 1  # accepted and ignored: search is serial

    def __post_init__(self):
        # The enum or its value ("random", "axy", "puncture-shorten");
        # Strategy() raises ValueError for anything else.
        object.__setattr__(self, "strategy", Strategy(self.strategy))
        if self.target_d < 1:
            raise ValueError("target_d must be at least 1")
        if self.budget < 1:
            raise ValueError("budget must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be at least 0")
        if not 1 <= self.k <= self.n:
            raise ValueError("need 1 <= k <= n")


@dataclass(frozen=True)
class SearchResult:
    found: Optional[LinearCode]
    summary: Optional[CodeSummary]
    candidates_tried: int
    elapsed: float


def _candidate_rng(seed: int, index: int) -> np.random.Generator:
    # One independent stream per candidate; the pair (seed, index) is the
    # only input.
    return np.random.default_rng([seed, index])


# Random search draws and light-tests consecutive candidate indices in
# blocks: _FIRST_LANES at first, _GROWTH times as many after each block, up
# to the larger of _LANES and about _BLOCK_SYMBOLS drawn symbols.  Every
# block pays a fixed cost of numpy calls (the seed stage, the PCG steps,
# the light test's table) before any per-lane work: a small first block
# keeps an early hit cheap, and large blocks spread that cost over more
# candidates.  The block size never changes which candidate is found.
_FIRST_LANES = 64
_GROWTH = 4
_LANES = 1024
_BLOCK_SYMBOLS = 1 << 18


def _blocks(budget: int, k: int, m: int):
    """The (first index, count) blocks of a random search, up to ``budget``."""
    # Every candidate draws whole 64-bit outputs of eight symbols.
    cap = max(_LANES, _BLOCK_SYMBOLS // (8 * max(1, -(-k * m // 8))))
    first, lanes = 0, _FIRST_LANES
    while first < budget:
        count = min(lanes, budget - first)
        yield first, count
        first += count
        lanes = min(_GROWTH * lanes, cap)


# numpy's SeedSequence hash constants (O'Neill's seed_seq mixing).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_M32 = 0xFFFFFFFF


def _hash_constants(init: int, mult: int, calls: int) -> list[int]:
    """The constants of ``calls`` successive hashmix calls: call j xors with
    entry j and multiplies by entry j + 1."""
    c = [init]
    for _ in range(calls):
        c.append(c[-1] * mult & _M32)
    return c


# The pool mixing makes 16 hashmix calls, the output 8.
_POOL_HASH = _hash_constants(_INIT_A, _MULT_A, 16)
_OUT_HASH = _hash_constants(_INIT_B, _MULT_B, 8)


def _round_columns(src: int):
    """The xor and multiply constants of source round ``src``'s hashmix
    calls as (4, 1) uint32 columns, one row per pool word it mixes into;
    the source's own row holds zeros."""
    xor, mul = np.zeros((2, 4, 1), dtype=np.uint32)
    dsts = [d for d in range(4) if d != src]
    for call, d in enumerate(dsts, 4 + 3 * src):
        xor[d], mul[d] = _POOL_HASH[call], _POOL_HASH[call + 1]
    return xor, mul


_ROUNDS = {src: _round_columns(src) for src in (1, 2, 3)}
# Output word 4a + w hashes pool word w with call 4a + w: the constants as
# (2, 4, 1) arrays indexed [a, w].
_OUT_XOR = np.array(_OUT_HASH[:-1], dtype=np.uint32).reshape(2, 4, 1)
_OUT_MUL = np.array(_OUT_HASH[1:], dtype=np.uint32).reshape(2, 4, 1)
# PCG64's 128-bit LCG multiplier as high and low 64-bit limbs, and the low
# limb's 32-bit halves, as numpy scalars for the in-place steps.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_HI, _PCG_LO = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & 2**64 - 1)
_PCG_LO1, _PCG_LO0 = np.uint64(_PCG_MULT >> 32 & _M32), np.uint64(_PCG_MULT & _M32)
_U32, _U58 = np.uint64(32), np.uint64(58)


def _hash_word(value: int, call: int) -> int:
    """Pool hashmix call ``call`` on one word, a Python int below 2^32 (a
    numpy scalar would warn when the product overflows)."""
    value = (value ^ _POOL_HASH[call]) * _POOL_HASH[call + 1] & _M32
    return value ^ value >> 16


def _mix_word(x: int, y: int) -> int:
    """SeedSequence's mix(x, y) = L * x - R * y on two Python-int words."""
    value = _MIX_L * x - _MIX_R * y & _M32
    return value ^ value >> 16


def _seed_states(seed: int, index: np.ndarray) -> np.ndarray:
    """``SeedSequence([seed, i]).generate_state(8, uint32)`` for each lane
    i of ``index``, seed and i below 2^32, as a (4, lanes, 2) uint32 array
    holding word 2j + h at [j, :, h]: its little-endian uint64 view is
    ``generate_state(4, uint64)``.

    The entropy [seed, i] is padded with zeros to four pool words.  Only
    word 1, the index, depends on the lane until source round 1 mixes it
    into the other three, so words 0, 2 and 3 and every hash of source
    round 0 are computed once per block, as Python ints masked to 32 bits,
    and fill the lane-free rows of the (4, lanes) pool.  The lane
    arithmetic wraps mod 2^32 as SeedSequence's own does, so every word is
    bit-identical to numpy's."""
    lanes = len(index)
    word0 = _hash_word(seed, 0)
    pool = np.empty((4, lanes), dtype=np.uint32)
    pool[0] = word0
    word1 = pool[1]
    np.bitwise_xor(index, _POOL_HASH[1], out=word1)
    word1 *= _POOL_HASH[2]
    word1 ^= word1 >> 16
    # Source round 0: word 0's hashes into words 1, 2 and 3 are lane-free.
    word1 *= _MIX_L
    word1 -= _MIX_R * _hash_word(word0, 4) & _M32
    word1 ^= word1 >> 16
    pool[2] = _mix_word(_hash_word(0, 2), _hash_word(word0, 5))
    pool[3] = _mix_word(_hash_word(0, 3), _hash_word(word0, 6))
    # Source rounds 1, 2 and 3 each mix the source's word into all four
    # rows, mix(w, h) = L * w - R * h, and restore the source's own row.
    for src in (1, 2, 3):
        xor, mul = _ROUNDS[src]
        kept = pool[src].copy()
        hashed = np.bitwise_xor(kept, xor)
        hashed *= mul
        hashed ^= hashed >> 16
        hashed *= _MIX_R
        pool *= _MIX_L
        pool -= hashed
        pool ^= pool >> 16
        pool[src] = kept
    out = np.bitwise_xor(pool, _OUT_XOR)
    out *= _OUT_MUL
    out ^= out >> 16
    # Output word 4a + 2b + h, from pool word 2b + h, goes to [2a + b, :, h].
    states = np.empty((2, 2, lanes, 2), dtype=np.uint32)
    states[..., 0] = out[:, 0::2]
    states[..., 1] = out[:, 1::2]
    return states.reshape(4, lanes, 2)


def _pcg_step(state, inc, scratch):
    """One step of PCG64's LCG, state * multiplier + increment mod 2^128,
    in place on lanes of (high, low) uint64 limbs: ``state`` and ``inc``
    are (2, lanes) arrays, ``scratch`` four uint64 arrays and one bool
    array of the lanes' length."""
    hi, lo = state
    a, b, c, d, carry = scratch
    # The high word of lo * _PCG_LO from the 32-bit halves a, b of lo and
    # b0, b1 of _PCG_LO; no sum below can pass 2^64.
    np.bitwise_and(lo, _M32, out=a)
    np.right_shift(lo, _U32, out=b)
    np.multiply(a, _PCG_LO0, out=c)
    c >>= _U32
    np.multiply(b, _PCG_LO0, out=d)
    c += d  # t = b * b0 + (a * b0 >> 32)
    a *= _PCG_LO1
    np.bitwise_and(c, _M32, out=d)
    a += d  # u = a * b1 + (t & M)
    b *= _PCG_LO1
    c >>= _U32
    b += c
    a >>= _U32
    b += a  # b * b1 + (t >> 32) + (u >> 32)
    np.multiply(lo, _PCG_HI, out=d)
    b += d
    state *= _PCG_LO
    state += inc
    hi += b
    np.less(lo, inc[1], out=carry)
    hi += carry


def _pcg_entries(seed: int, index: np.ndarray, out: np.ndarray) -> None:
    """Write ``default_rng([seed, i]).integers(0, 4, size, dtype=uint8)``
    for each lane i of ``index`` into row i of ``out``, a (lanes, size)
    uint8 array; seed and i below 2^32."""
    lanes, size = out.shape
    # generate_state(4, uint64) pairs the words little-endian: the seed's
    # high and low limbs, then the increment's.
    words = _seed_states(seed, index).view("<u8")[..., 0]
    seed_words, inc = words[:2], words[2:]
    # Set-seq seeding: state 0, increment (inc << 1) | 1, step, add the
    # seed, step.
    inc_hi, inc_lo = inc
    inc_hi <<= 1
    inc_hi |= inc_lo >> 63
    inc_lo <<= 1
    inc_lo |= 1
    state = inc + seed_words
    state[0] += state[1] < seed_words[1]
    scratch = [np.empty(lanes, dtype=np.uint64) for _ in range(4)]
    scratch.append(np.empty(lanes, dtype=bool))
    _pcg_step(state, inc, scratch)
    hi, lo = state
    # The rotation reuses two of the step's scratch arrays.
    x, r = scratch[:2]
    draws = np.empty((lanes, -(-size // 8)), dtype="<u8")
    for t in range(draws.shape[1]):
        _pcg_step(state, inc, scratch)
        # XSL-RR output: rotate hi ^ lo right by the top six bits.
        column = draws[:, t]
        np.bitwise_xor(hi, lo, out=x)
        np.right_shift(hi, _U58, out=r)
        np.right_shift(x, r, out=column)
        np.subtract(64, r, out=r)
        r &= 63
        x <<= r
        column |= x
    # integers() takes its uint8 draws from the little-endian bytes of the
    # outputs; Lemire's method with range 4 never rejects and keeps the
    # top two bits.
    np.right_shift(draws.view(np.uint8)[:, :size], 6, out=out)


def _candidate_block(seed: int, start: int, count: int, k: int, m: int) -> np.ndarray:
    """The (count, k, m) uint8 array whose row i is candidate start + i's
    ``_candidate_rng(seed, start + i).integers(0, 4, size=(k, m),
    dtype=uint8)``, computed for every candidate at once.  Only the index
    word of the SeedSequence pool varies across the block until the second
    mixing round, so the other pool words and the first round's hashes are
    computed once, as Python ints masked to 32 bits (``_seed_states``);
    every lane operation wraps mod 2^32 or 2^64 as SeedSequence and PCG64
    do, so each row is bit-identical to numpy's draw.  A seed or index of
    2^32 or more makes SeedSequence take more entropy words; those
    candidates draw from numpy one at a time."""
    computed = max(0, min(count, 2**32 - start)) if seed < 2**32 else 0
    block = np.empty((count, k, m), dtype=np.uint8)
    index = np.arange(start, start + computed, dtype=np.uint32)
    _pcg_entries(seed, index, block[:computed].reshape(computed, k * m))
    for i in range(computed, count):
        rng = _candidate_rng(seed, start + i)
        block[i] = rng.integers(0, 4, size=(k, m), dtype=np.uint8)
    return block


def random_lcd(n: int, k: int, rng, max_retries: int = _RETRY_CAP) -> LinearCode:
    """Draw an LCD [n, k] code: uniform A in (I_k | A), retried until LCD.

    ``rng`` is a numpy Generator or an integer seed.

    Raises:
        ExhaustedRetriesError: after ``max_retries`` non-LCD draws.
    """
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    rng = np.random.default_rng(rng)
    for _ in range(max_retries):
        a = rng.integers(0, 4, size=(k, n - k), dtype=np.uint8)
        code = LinearCode(np.hstack([linalg.identity(k), a]))
        if code.is_lcd():
            return code
    raise ExhaustedRetriesError(
        f"no LCD code found in {max_retries} draws at (n={n}, k={k})"
    )


def elliptic_quadric_code() -> LinearCode:
    """The [17, 13, 4] code checked by an elliptic quadric cap in PG(3, 4).

    The quadric x0*x1 + x2^2 + x2*x3 + w*x3^2 = 0 has 17 projective points,
    no three of them collinear, so every 3 columns of the 4 x 17 check
    matrix built from the points are independent and the kernel code has
    minimum weight 4.  Serves as a deterministic base for PUNCTURE_SHORTEN
    derivations: strong short codes sit a few shortenings below it.
    """
    from .gf4 import MUL, OMEGA

    points = []
    for value in range(1, 4**4):
        digits = [(value >> (2 * i)) & 3 for i in (3, 2, 1, 0)]
        lead = next(d for d in digits if d)
        if lead != 1:
            continue
        x0, x1, x2, x3 = digits
        q = MUL[x0, x1] ^ MUL[x2, x2] ^ MUL[x2, x3] ^ MUL[OMEGA, MUL[x3, x3]]
        if q == 0:
            points.append(digits)
    check = np.array(points, dtype=np.uint8).T
    return LinearCode(linalg.kernel(check))


def sample_isotropic_pair(length: int, rng) -> IsotropicPair:
    """Sample a valid isotropic pair of the given length.

    Rejection sampling: draw x until it is nonzero with even weight (which
    makes it self-isotropic); draw y from the Hermitian-orthogonal
    complement of x by rejection until nonzero with even weight.

    Raises:
        NoPairExistsError: for length < 2 (a nonzero length-1 vector has
            (x,x)_h = 1).
    """
    if length < 2:
        raise NoPairExistsError(f"no isotropic pair exists at length {length}")
    rng = np.random.default_rng(rng)
    for _ in range(_RETRY_CAP):
        x = rng.integers(0, 4, size=length, dtype=np.uint8)
        if x.any() and weight(x) % 2 == 0:
            break
    else:
        raise ExhaustedRetriesError("could not sample x")
    for _ in range(_RETRY_CAP):
        y = rng.integers(0, 4, size=length, dtype=np.uint8)
        if y.any() and weight(y) % 2 == 0 and hermitian_inner(x, y) == 0:
            return IsotropicPair(x, y)
    raise ExhaustedRetriesError("could not sample y orthogonal to x")


def _exact_weight_at_least(code: LinearCode, target: int) -> Optional[int]:
    """Exact minimum weight if it is >= target, else None (early abort)."""
    r = _min_weight(code, cutoff=target)
    if r.exact and r.best >= target:
        return r.best
    return None


def _search_random(config: SearchConfig) -> tuple[Optional[LinearCode], int]:
    if config.base is not None:
        raise PreconditionError("RANDOM takes no base code")
    n, k, target = config.n, config.k, config.target_d
    for first, count in _blocks(config.budget, k, n - k):
        a = _candidate_block(config.seed, first, count, k, n - k)
        # The light test rejects most candidates and fully decides d >= target
        # when target <= 4; above that its survivors take the engine.
        for j in _light_survivors(a, target):
            code = LinearCode(np.hstack([linalg.identity(k), a[j]]))
            if target > 4 and _exact_weight_at_least(code, target) is None:
                continue
            if code.is_lcd():
                return code, first + int(j) + 1
    return None, config.budget


def _search_axy(config: SearchConfig) -> tuple[Optional[LinearCode], int]:
    n, k = config.n, config.k
    if k >= n:
        raise PreconditionError("the update needs k < n")
    if config.base is not None:
        base = config.base
        if (base.n, base.k) != (n, k):
            raise PreconditionError(f"base is [{base.n},{base.k}], expected [{n},{k}]")
        if not base.is_lcd():
            raise PreconditionError("base code is not LCD")
        start = LinearCode(linalg.standard_form(base.gen).matrix)
    else:
        start = None
    eye = linalg.identity(k)

    def fresh(index: int):
        # The climb holds the A block of (I_k | A) and its Gram block; the
        # generator's Gram matrix is I + A conj(A)^T.
        code = start if start is not None else random_lcd(n, k, _candidate_rng(config.seed, index))
        a = code.gen[:, k:]
        return a, linalg.gram(a), _min_weight(code).best

    a, gram, current_d = fresh(0)
    plateau = 0
    index = 0
    while current_d < config.target_d and index < config.budget:
        index += 1
        pair = sample_isotropic_pair(n - k, _candidate_rng(config.seed, index))
        moved = _axy_update(a, pair)
        if not np.array_equal(linalg.gram(moved), gram):
            raise AssertionError("two-vector update changed the Gram matrix")
        d = None
        if _light_survivors(moved[None], current_d).size:
            d = _exact_weight_at_least(LinearCode(np.hstack([eye, moved])), current_d)
        if d is not None:
            # An improving move leaves the plateau; a sideways move wanders
            # it, up to the cap, then the climb restarts from a fresh draw
            # (budget permitting).
            plateau = 0 if d > current_d else plateau + 1
            a, current_d = moved, d
        if plateau > _PLATEAU_CAP and index < config.budget:
            index += 1
            a, gram, current_d = fresh(index)
            plateau = 0
    found = LinearCode(np.hstack([eye, a])) if current_d >= config.target_d else None
    return found, index


def _search_puncture_shorten(config: SearchConfig) -> tuple[Optional[LinearCode], int]:
    base = config.base
    if base is None:
        raise PreconditionError("PUNCTURE_SHORTEN requires a base code")
    if base.n != config.n + 1:
        raise PreconditionError(
            f"base length must be {config.n + 1}, got {base.n}"
        )
    # The budget caps the derivations tried: each coordinate, punctured then
    # shortened, in order.
    derivations = product(range(1, base.n + 1), (puncture, shorten))
    for tried, (coord, derive) in enumerate(islice(derivations, config.budget), 1):
        candidate = derive(base, coord)
        if (
            (candidate.n, candidate.k) == (config.n, config.k)
            and candidate.is_lcd()
            and _exact_weight_at_least(candidate, config.target_d) is not None
        ):
            return candidate, tried
    return None, min(config.budget, 2 * base.n)


_STRATEGIES = {
    Strategy.RANDOM: _search_random,
    Strategy.AXY_NEIGHBORHOOD: _search_axy,
    Strategy.PUNCTURE_SHORTEN: _search_puncture_shorten,
}


def search(config: SearchConfig) -> SearchResult:
    """Run the configured strategy; deterministic given the seed.

    When the budget runs out before the target is met, the result carries
    ``found = None`` and the number of candidates examined; no exception is
    raised.
    """
    start = time.perf_counter()
    found, tried = _STRATEGIES[config.strategy](config)
    elapsed = time.perf_counter() - start
    # The post-check needs only LCD and d >= target; the codeword budget keeps
    # a large dual from stalling it.  A budget-stopped d is an upper bound,
    # so d < target is still a real failure.
    summary = found.summarize(budget=_DEFAULT_BUDGET) if found is not None else None
    if summary is not None:
        if not summary.is_lcd or summary.d < config.target_d:
            raise AssertionError("search produced a non-conforming code")
    return SearchResult(found=found, summary=summary, candidates_tried=tried, elapsed=elapsed)


class VerifyStatus(Enum):
    REPRODUCED_LOWER = "reproduced-lower"
    BELOW_LOWER = "below-lower"
    CONTRADICTION = "contradiction"
    NOT_LCD = "not-lcd"
    NOT_EXACT = "not-exact"


@dataclass(frozen=True)
class VerifyRecord:
    n: int
    k: int
    d: int
    lower: int
    upper: int
    status: VerifyStatus


def verify_bounds(results: Iterable[CodeSummary], table: BoundsTable) -> list:
    """Check summaries against the bounds table, one record per summary.

    REPRODUCED_LOWER: an exact LCD summary with d at or above the table's
    lower bound.  CONTRADICTION: d above the upper bound, which signals a
    bug here, not a discovery, since upper bounds come from the literature.

    Raises:
        UnknownEntryError: for a summary outside table coverage.
    """
    out = []
    for s in results:
        entry = table.entry(s.n, s.k)
        if not s.is_lcd:
            status = VerifyStatus.NOT_LCD
        elif not s.d_exact:
            status = VerifyStatus.NOT_EXACT
        elif s.d > entry.upper:
            status = VerifyStatus.CONTRADICTION
        elif s.d >= entry.lower:
            status = VerifyStatus.REPRODUCED_LOWER
        else:
            status = VerifyStatus.BELOW_LOWER
        out.append(
            VerifyRecord(
                n=s.n, k=s.k, d=s.d, lower=entry.lower, upper=entry.upper, status=status
            )
        )
    return out
