"""Seeded randomized search for LCD codes and bounds verification.

Three strategies:

RANDOM draws standard-form generator matrices (I_k | A) with uniform A and
keeps the first candidate that is LCD with minimum weight at or above the
target.  Candidate i's A is numpy's ``default_rng([seed, i]).integers(0, 4,
size=(k, n - k), dtype=uint8)``, reproduced for a block of consecutive
indices at once (``_candidate_block``: the SeedSequence hash, PCG64 seeding
and XSL-RR outputs on arrays of lanes) and checked against numpy in the
tests.  The first block holds 1024 indices and each later one twice as
many, up to about 2^17 drawn symbols (never fewer than 1024 indices): 4096
at [12, 8].  One vectorised light weight test, over messages of weight at
most 3, covers the whole block of drawn candidates at any length; it tests
one message weight at a time and drops the candidates each part rejects.
Only its survivors, in index order, take the weight check (for targets
above 4) and the LCD check.  The result is therefore the lowest hit index,
a pure function of (seed, index): the block size never changes which
candidate is found.  The light test and the engine behind the weight check
run one enumerator, ``code._layer_weights``: the light test on the identity
information set of every candidate of the block at once, the engine on the
information sets of one code.
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
# blocks: _LANES at first, twice as many after each block, up to the larger
# of _LANES and about _BLOCK_SYMBOLS drawn symbols.  Larger blocks spread
# each numpy call over more candidates; the block size never changes which
# candidate is found.
_LANES = 1024
_BLOCK_SYMBOLS = 1 << 17


def _blocks(budget: int, k: int, m: int):
    """The (first index, count) blocks of a random search, up to ``budget``."""
    # Every candidate draws whole 64-bit outputs of eight symbols.
    cap = max(_LANES, _BLOCK_SYMBOLS // (8 * max(1, -(-k * m // 8))))
    first, lanes = 0, _LANES
    while first < budget:
        count = min(lanes, budget - first)
        yield first, count
        first += count
        lanes = min(2 * lanes, cap)


# numpy's SeedSequence hash constants (O'Neill's seed_seq mixing).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier as high and low 64-bit limbs.
_PCG_HI, _PCG_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645
_M32 = 0xFFFFFFFF


def _hash_constants(init: int, mult: int, calls: int) -> np.ndarray:
    """The constants of ``calls`` successive hashmix calls, as a column:
    call j xors with entry j and multiplies by entry j + 1."""
    c = [init]
    for _ in range(calls):
        c.append(c[-1] * mult & _M32)
    return np.array(c, dtype=np.uint32)[:, None]


# The pool mixing makes 16 hashmix calls, the output 8.
_POOL_HASH = _hash_constants(_INIT_A, _MULT_A, 16)
_OUT_HASH = _hash_constants(_INIT_B, _MULT_B, 8)


def _hashmix(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """Successive hashmix calls, one per row of ``consts[1:]``, broadcast
    against ``value``."""
    value = (value ^ consts[:-1]) * consts[1:]
    return value ^ value >> 16


def _seed_states(seed: int, index: np.ndarray) -> np.ndarray:
    """``SeedSequence([seed, i]).generate_state(8, uint32)`` for each lane
    i of ``index``, as an (8, lanes) uint32 array; seed and i below 2^32."""
    # Entropy [seed, i] padded with zeros to the pool size of four words.
    pool = np.zeros((4, len(index)), dtype=np.uint32)
    pool[0], pool[1] = seed, index
    pool = _hashmix(pool, _POOL_HASH[:5])
    # Each word is hashed once for each of the other three words, with
    # three successive constants, and mixed into them, all three at once.
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        hashed = _hashmix(pool[src], _POOL_HASH[4 + 3 * src : 8 + 3 * src])
        mixed = pool[dst] * _MIX_L - hashed * _MIX_R
        pool[dst] = mixed ^ mixed >> 16
    return _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _OUT_HASH)


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """One step of PCG64's LCG, state * multiplier + increment mod 2^128,
    on lanes of (high, low) uint64 limbs."""
    # High word of lo * _PCG_LO from 32-bit partial products; no sum below
    # can pass 2^64.
    lo0, lo1 = lo & _M32, lo >> 32
    b0, b1 = _PCG_LO & _M32, _PCG_LO >> 32
    t = lo1 * b0 + (lo0 * b0 >> 32)
    u = lo0 * b1 + (t & _M32)
    carry = lo1 * b1 + (t >> 32) + (u >> 32)
    new_lo = lo * _PCG_LO + inc_lo
    new_hi = carry + lo * _PCG_HI + hi * _PCG_LO + inc_hi + (new_lo < inc_lo)
    return new_hi, new_lo


def _pcg_entries(seed: int, index: np.ndarray, size: int) -> np.ndarray:
    """``default_rng([seed, i]).integers(0, 4, size, dtype=uint8)`` for each
    lane i of ``index``: a (lanes, size) array; seed and i below 2^32."""
    s = _seed_states(seed, index).astype(np.uint64)
    # generate_state(4, uint64) pairs the words little-endian.
    seed_hi, seed_lo, inc_hi, inc_lo = s[0::2] | s[1::2] << 32
    # Set-seq seeding: state 0, increment (inc << 1) | 1, step, add the
    # seed, step.
    inc_hi, inc_lo = inc_hi << 1 | inc_lo >> 63, inc_lo << 1 | 1
    lo = inc_lo + seed_lo
    hi, lo = _pcg_step(inc_hi + seed_hi + (lo < seed_lo), lo, inc_hi, inc_lo)
    words = np.empty((len(index), -(-size // 8)), dtype="<u8")
    for t in range(words.shape[1]):
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        # XSL-RR output: rotate hi ^ lo right by the top six bits.
        x, r = hi ^ lo, hi >> 58
        words[:, t] = x >> r | x << (64 - r & 63)
    # integers() takes its uint8 draws from the little-endian bytes of the
    # outputs; Lemire's method with range 4 never rejects and keeps the
    # top two bits.
    return words.view(np.uint8)[:, :size] >> 6


def _candidate_block(seed: int, start: int, count: int, k: int, m: int) -> np.ndarray:
    """The (count, k, m) uint8 array whose row i is candidate start + i's
    ``_candidate_rng(seed, start + i).integers(0, 4, size=(k, m),
    dtype=uint8)``, computed for every candidate at once.  A seed or index
    of 2^32 or more makes SeedSequence take more entropy words; those
    candidates draw from numpy one at a time."""
    computed = max(0, min(count, 2**32 - start)) if seed < 2**32 else 0
    block = np.empty((count, k, m), dtype=np.uint8)
    if computed:
        index = np.arange(start, start + computed, dtype=np.uint32)
        block[:computed] = _pcg_entries(seed, index, k * m).reshape(computed, k, m)
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


def _exact_weight_at_least(gen: np.ndarray, target: int) -> Optional[int]:
    """Exact minimum weight if it is >= target, else None (early abort)."""
    r = _min_weight(gen, cutoff=target)
    if r.exact and r.best >= target:
        return r.best
    return None


def _search_random(config: SearchConfig) -> tuple[Optional[LinearCode], int]:
    n, k, target = config.n, config.k, config.target_d
    for first, count in _blocks(config.budget, k, n - k):
        a = _candidate_block(config.seed, first, count, k, n - k)
        # The light test rejects most candidates and fully decides d >= target
        # when target <= 4; above that its survivors take the engine.
        for j in _light_survivors(a, target):
            gen = np.hstack([linalg.identity(k), a[j]])
            if target > 4 and _exact_weight_at_least(gen, target) is None:
                continue
            code = LinearCode(gen)
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
        start = linalg.standard_form(base.gen).matrix[:, k:]
    else:
        start = None
    eye = linalg.identity(k)

    def fresh(index: int):
        # The climb holds the A block of (I_k | A) and its Gram block; the
        # generator's Gram matrix is I + A conj(A)^T.
        a = start
        if a is None:
            a = random_lcd(n, k, _candidate_rng(config.seed, index)).gen[:, k:]
        return a, linalg.gram(a), _min_weight(np.hstack([eye, a])).best

    a, gram, current_d = fresh(0)
    plateau = 0
    index = 0
    while current_d < config.target_d and index < config.budget:
        index += 1
        pair = sample_isotropic_pair(n - k, _candidate_rng(config.seed, index))
        moved = _axy_update(a, pair)
        if not np.array_equal(linalg.gram(moved), gram):
            raise AssertionError("two-vector update changed the Gram matrix")
        rejected = not _light_survivors(moved[None], current_d).size
        d = None if rejected else _exact_weight_at_least(np.hstack([eye, moved]), current_d)
        if d is not None and d > current_d:
            a, current_d, plateau = moved, d, 0
        elif d is not None:
            # Sideways move: wander the plateau, up to the cap, then
            # restart the climb from a fresh draw (budget permitting).
            plateau += 1
            a = moved
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
            and _exact_weight_at_least(candidate.gen, config.target_d) is not None
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
