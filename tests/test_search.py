"""Search strategies, determinism, and bounds verification."""

import hashlib
import importlib
import tracemalloc
from dataclasses import replace
from itertools import accumulate

import numpy as np
import pytest

from hlcd4 import linalg
from hlcd4.code import CodeSummary, LinearCode, _light_survivors, _min_weight
from hlcd4.errors import (
    ExhaustedRetriesError,
    NoPairExistsError,
    PreconditionError,
    UnknownEntryError,
)
from hlcd4.search import (
    SearchConfig,
    SearchResult,
    Strategy,
    VerifyStatus,
    _blocks,
    _candidate_block,
    elliptic_quadric_code,
    random_lcd,
    sample_isotropic_pair,
    search,
    verify_bounds,
)
from hlcd4.tables import BoundsTable
from hlcd4.transform import check_isotropic, shorten


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(n=10, k=4, target_d=0, seed=1)
    with pytest.raises(ValueError):
        SearchConfig(n=10, k=4, target_d=3, seed=1, budget=0)
    with pytest.raises(ValueError):
        SearchConfig(n=4, k=5, target_d=1, seed=1)
    with pytest.raises(ValueError):
        SearchConfig(n=10, k=4, target_d=3, seed=-1)


def test_strategy_is_taken_by_value():
    # Each value runs its own strategy; none falls through to
    # puncture-shorten, and an unknown one is refused.
    base = shorten(elliptic_quadric_code(), [1, 2, 3])
    config = dict(n=13, k=9, target_d=4, seed=1)
    for strategy in Strategy:
        assert SearchConfig(**config, strategy=strategy.value).strategy is strategy
    assert set(importlib.import_module("hlcd4.search")._STRATEGIES) == set(Strategy)
    hit = search(SearchConfig(**config, base=base, strategy="puncture-shorten"))
    assert hit.candidates_tried == 2 and hit.found is not None
    with pytest.raises(PreconditionError, match=r"expected \[13,9\]"):
        search(SearchConfig(**config, base=base, strategy="axy"))
    # Random search takes no base, so its runs have none.
    runs = [
        search(SearchConfig(**config, budget=3000, strategy=s)) for s in ("random", Strategy.RANDOM)
    ]
    assert [(r.found, r.candidates_tried) for r in runs] == [(None, 3000)] * 2
    for bad in ("gray", None, 1):
        with pytest.raises(ValueError):
            SearchConfig(**config, strategy=bad)


def test_random_lcd_deterministic_and_valid():
    a = random_lcd(12, 6, 42)
    b = random_lcd(12, 6, 42)
    assert a == b and np.array_equal(a.gen, b.gen)
    for seed in range(60):
        c = random_lcd(12, 6, seed)
        assert c.is_lcd()
        assert np.array_equal(c.gen[:, :6], np.eye(6, dtype=np.uint8))
    with pytest.raises(ValueError):
        random_lcd(4, 5, 1)


def test_random_lcd_retry_cap():
    with pytest.raises(ExhaustedRetriesError):
        # (1,1) draws are the codes {span(a)}; none is checked more than
        # max_retries times, and a cap of zero trips immediately
        random_lcd(2, 1, 1, max_retries=0)


def test_sample_isotropic_pair(rng):
    for _ in range(200):
        length = int(rng.integers(2, 12))
        pair = sample_isotropic_pair(length, rng)
        assert check_isotropic(pair.x, pair.y).valid
    with pytest.raises(NoPairExistsError):
        sample_isotropic_pair(1, rng)


def test_sample_isotropic_pair_retry_cap(monkeypatch):
    # ``hlcd4.search`` is also the name of the search function, so the
    # module comes from importlib.  No draw at all fails on x; one draw
    # each, at seed 0, finds x and fails on y.
    module = importlib.import_module("hlcd4.search")
    monkeypatch.setattr(module, "_RETRY_CAP", 0)
    with pytest.raises(ExhaustedRetriesError, match="could not sample x"):
        sample_isotropic_pair(4, 0)
    monkeypatch.setattr(module, "_RETRY_CAP", 1)
    with pytest.raises(ExhaustedRetriesError, match="could not sample y"):
        sample_isotropic_pair(4, 0)


def test_random_strategy_finds_and_is_deterministic():
    cfg = SearchConfig(n=12, k=6, target_d=5, seed=3, budget=20000)
    first = search(cfg)
    again = search(cfg)
    threaded = search(SearchConfig(n=12, k=6, target_d=5, seed=3, budget=20000, threads=3))
    assert first.found is not None
    assert first.summary.d >= 5 and first.summary.is_lcd
    for other in (again, threaded):
        assert other.candidates_tried == first.candidates_tried == 51
        assert np.array_equal(other.found.gen, first.found.gen)


def _first_hit(config):
    """(candidates tried, generator) of the lowest-index hit, one candidate at
    a time: draw, engine cutoff scan, LCD check; no blocks, no light test."""
    n, k, target = config.n, config.k, config.target_d
    if target > n - k + 1:
        return config.budget, None  # above the Singleton bound nothing hits
    for index in range(config.budget):
        rng = np.random.default_rng([config.seed, index])
        a = rng.integers(0, 4, size=(k, n - k), dtype=np.uint8)
        gen = np.hstack([np.eye(k, dtype=np.uint8), a])
        c = LinearCode(gen)
        r = _min_weight(c, cutoff=target)
        if r.exact and r.best >= target and c.is_lcd():
            return index + 1, gen
    return config.budget, None


@pytest.mark.parametrize(
    "n, k, target, seed",
    [
        (12, 6, 5, 34),  # target above 4: light test, then cutoff scan; hit at 120
        (16, 10, 4, 9),  # the light test decides; hit at 32
        (65, 3, 46, 1),  # two words: light test, then cutoff scan; hit at 74
        (70, 5, 4, 2),  # two words, target <= 4: the light test decides; hit at 2
        (8, 4, 6, 1),  # above the Singleton bound: every budget runs out
        (13, 7, 5, 1),  # hit at 1220, in the third block of streams
        (27, 17, 6, 5),  # k >= 17, target above 4; hit at 1615, in the first capped block
    ],
)
def test_random_search_matches_candidate_loop(n, k, target, seed):
    # budgets 1 and 2, and one below, at and one above the end of each
    # block of drawn and light-tested streams up to the first that has
    # grown to its cap
    sizes = []
    for _, count in _blocks(10**9, k, n - k):
        if sizes and count == sizes[-1]:
            break
        sizes.append(count)
    ends = accumulate(sizes)
    budgets = sorted({1, 2} | {end + step for end in ends for step in (-1, 0, 1)})
    hit, gen = _first_hit(SearchConfig(n=n, k=k, target_d=target, seed=seed, budget=budgets[-1]))
    for budget in budgets:
        r = search(SearchConfig(n=n, k=k, target_d=target, seed=seed, budget=budget))
        assert type(r.candidates_tried) is int
        if gen is not None and hit <= budget:
            assert r.candidates_tried == hit
            assert np.array_equal(r.found.gen, gen)
        else:
            assert r.found is None and r.candidates_tried == budget


def test_block_schedule_grows_to_its_cap():
    # blocks grow fourfold from 64 up to about 2^18 drawn symbols, never
    # below 1024 lanes, and stop at the budget
    assert [c for _, c in _blocks(20000, 8, 4)] == [64, 256, 1024, 4096, 8192, 6368]
    assert [c for _, c in _blocks(3000, 15, 15)] == [64, 256, 1024, 1129, 527]
    assert [c for _, c in _blocks(5000, 16, 17)] == [64, 256] + [1024] * 4 + [584]
    assert [c for _, c in _blocks(3, 2, 2)] == [3]
    assert [c for _, c in _blocks(10**6, 4, 0)][:7] == [64, 256, 1024, 4096, 16384, 32768, 32768]
    blocks = list(_blocks(10**5, 9, 4))
    assert [first for first, _ in blocks] == list(accumulate([0] + [c for _, c in blocks[:-1]]))


@pytest.mark.parametrize(
    "n, k, target, seed, hit",
    [
        (12, 8, 4, 535, 4036),  # the record's shape: hit in the fourth block, of 4096
        (13, 7, 5, 1, 1220),  # target above 4: survivors take the engine
    ],
)
def test_random_search_does_not_depend_on_block_schedule(monkeypatch, n, k, target, seed, hit):
    config = SearchConfig(n=n, k=k, target_d=target, seed=seed, budget=10**5)
    default = search(config)
    assert default.candidates_tried == hit
    search_module = importlib.import_module("hlcd4.search")
    for lanes in (1024, 7):
        with monkeypatch.context() as m:
            # no growth: every block has the starting size
            m.setattr(search_module, "_FIRST_LANES", lanes)
            m.setattr(search_module, "_GROWTH", 1)
            m.setattr(search_module, "_BLOCK_SYMBOLS", 0)
            assert [c for _, c in _blocks(4 * lanes, k, n - k)] == [lanes] * 4
            r = search(config)
        assert r.candidates_tried == default.candidates_tried
        assert np.array_equal(r.found.gen, default.found.gen)


def test_random_search_reduces_each_survivor_once(monkeypatch):
    # Above target 4 every light-test survivor takes the engine.  It is
    # built as a code once, and the engine and the LCD check start from
    # that code: the (k, n) matrices reduced are the survivors' generators
    # up to the hit, in order, each once.
    n, k = 20, 8
    search_module = importlib.import_module("hlcd4.search")
    light, reduce = search_module._light_survivors, linalg._reduce
    batches, reduced = [], []

    def survivors(a, target):
        batches.append((a, light(a, target)))
        return batches[-1][1]

    def recorded(m):
        if m.shape == (k, n):
            reduced.append(m.tobytes())
        return reduce(m)

    monkeypatch.setattr(search_module, "_light_survivors", survivors)
    monkeypatch.setattr(linalg, "_reduce", recorded)
    config = SearchConfig(n=n, k=k, target_d=8, seed=1, budget=10**5)
    found, tried = search_module._search_random(config)
    assert found is not None and tried == 85
    eye, first, want = linalg.identity(k), 0, []
    for a, alive in batches:
        want += [np.hstack([eye, a[j]]).tobytes() for j in alive if first + j < tried]
        first += len(a)
    assert len(want) > 1 and reduced == want


@pytest.mark.parametrize(
    "n, k, target, per_symbol",
    [
        (12, 8, 4, 7),  # about 5.5 bytes: the packing's padded byte a symbol, twice
        (30, 15, 9, 24),  # about 18 bytes: mostly the weight-3 step's chunk
    ],
)
def test_capped_block_memory(n, k, target, per_symbol):
    # The tracemalloc peak of drawing and light-testing the first block at
    # the cap, per drawn symbol (whole 64-bit outputs of eight): a larger
    # cap or a costlier step shows here, not only as the process's peak
    # resident memory.
    m = n - k
    first, count = max(_blocks(10**7, k, m), key=lambda block: block[1])
    symbols = count * 8 * -(-k * m // 8)
    assert symbols <= 1 << 18
    _light_survivors(_candidate_block(1, first, count, k, m), target)  # fill the caches
    tracemalloc.start()
    try:
        _light_survivors(_candidate_block(1, first, count, k, m), target)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= per_symbol * symbols


def test_random_strategy_target_one():
    r = search(SearchConfig(n=6, k=3, target_d=1, seed=1, budget=100))
    assert r.found is not None and r.candidates_tried <= 3


def test_search_post_check_is_budgeted():
    # the hit comes at once; its 18-dimensional dual has 4^18 codewords, but
    # the engine gets its distance exactly within the budget
    r = search(SearchConfig(n=24, k=6, target_d=3, seed=1, budget=100))
    assert r.found is not None
    assert r.summary.is_lcd and r.summary.d >= 3
    assert r.summary.d_dual_exact and r.summary.d_dual == 3
    # the light test is exact below 4 on the dual's standard form: the dual
    # passes at target 3 and fails at target 4
    dual = linalg.standard_form(r.found.hermitian_dual().gen).matrix
    a = dual[None, :, len(dual) :]
    assert _light_survivors(a, 3).tolist() == [0]
    assert _light_survivors(a, 4).size == 0


def test_budget_exhaustion_returns_no_find():
    # Singleton bound caps d at n - k + 1 = 5; target 6 is unreachable
    r = search(SearchConfig(n=8, k=4, target_d=6, seed=1, budget=250))
    assert r.found is None and r.summary is None
    assert r.candidates_tried == 250
    assert r.elapsed >= 0


def test_axy_strategy_climbs():
    # candidate counts and generators pinned; at n = 70 (two words) the
    # light test rejects 185 of the 221 candidates
    for n, k, target, budget, tried, digest in (
        (12, 6, 5, 4000, 315, "0c2699e33f1a4271"),
        (70, 5, 45, 300, 221, "b8a69edae3ce9856"),
    ):
        cfg = SearchConfig(
            n=n, k=k, target_d=target, seed=1, budget=budget,
            strategy=Strategy.AXY_NEIGHBORHOOD,
        )
        r = search(cfg)
        assert r.found is not None and r.summary.d >= target
        assert r.candidates_tried == tried
        assert hashlib.sha256(r.found.gen.tobytes()).hexdigest()[:16] == digest
        again = search(cfg)
        assert np.array_equal(again.found.gen, r.found.gen)
        assert again.candidates_tried == r.candidates_tried


def test_axy_restart_stays_in_budget(monkeypatch):
    # With a cap of 1 the climb restarts often; a restart due on the last
    # candidate of the budget (here at budgets 2, 5, 8 and 13) must not draw
    # one more.  ``hlcd4.search`` names the function, hence importlib.
    monkeypatch.setattr(importlib.import_module("hlcd4.search"), "_PLATEAU_CAP", 1)
    for budget in range(1, 16):
        r = search(
            SearchConfig(
                n=10, k=5, target_d=6, seed=0, budget=budget,
                strategy=Strategy.AXY_NEIGHBORHOOD,
            )
        )
        assert r.candidates_tried <= budget
        if r.found is None:
            assert r.candidates_tried == budget


def test_axy_step_asserts_the_gram_matrix(monkeypatch):
    # An update that broke the Gram matrix would stop the climb at once.
    search_module = importlib.import_module("hlcd4.search")
    update = search_module._axy_update

    def broken(a, pair):
        moved = update(a, pair).copy()
        moved[0, 0] ^= 1
        return moved

    monkeypatch.setattr(search_module, "_axy_update", broken)
    cfg = SearchConfig(
        n=12, k=6, target_d=5, seed=1, budget=10, strategy=Strategy.AXY_NEIGHBORHOOD
    )
    with pytest.raises(AssertionError, match="Gram matrix"):
        search(cfg)


def test_axy_strategy_base_handling():
    base = random_lcd(10, 5, 7)
    target = base.min_weight()
    r = search(
        SearchConfig(
            n=10, k=5, target_d=target, seed=1, budget=10,
            strategy=Strategy.AXY_NEIGHBORHOOD, base=base,
        )
    )
    assert r.candidates_tried == 0 and r.found == base
    with pytest.raises(PreconditionError):
        search(
            SearchConfig(
                n=12, k=5, target_d=2, seed=1,
                strategy=Strategy.AXY_NEIGHBORHOOD, base=base,
            )
        )


def test_random_strategy_refuses_a_base():
    # Random search never reads a base, so it takes none rather than let a
    # provenance header record a parent the result does not derive from.
    base = random_lcd(10, 5, 7)
    config = SearchConfig(n=10, k=5, target_d=2, seed=1, budget=10, base=base)
    with pytest.raises(PreconditionError, match="RANDOM takes no base code"):
        search(config)
    assert search(replace(config, base=None)).found is not None


def test_axy_climb_runs_in_standard_form_columns():
    # A base whose first five columns are not an information set: its
    # standard form moves column 3 behind columns 4 and 5, and the climb
    # starts from, and returns, that column-permuted copy.
    base = LinearCode(random_lcd(10, 5, 0).gen[:, [5, 6, 7, 8, 9, 0, 1, 2, 3, 4]])
    form = linalg.standard_form(base.gen)
    assert form.permutation.tolist() == [0, 1, 2, 4, 5, 3, 6, 7, 8, 9]
    assert base.min_weight() == 3

    def climb(target, seed):
        return search(
            SearchConfig(
                n=10, k=5, target_d=target, seed=seed, budget=50,
                strategy=Strategy.AXY_NEIGHBORHOOD, base=base,
            )
        )

    r = climb(3, 1)
    assert r.candidates_tried == 0
    assert r.found != base
    assert r.found == LinearCode(form.matrix)
    assert np.array_equal(r.found.gen, form.matrix)
    r = climb(4, 3)
    assert r.candidates_tried == 8
    assert hashlib.sha256(r.found.gen.tobytes()).hexdigest()[:16] == "0c1267453fc91e8c"
    assert np.array_equal(r.found.gen[:, :5], linalg.identity(5))


def test_elliptic_quadric_code():
    c = elliptic_quadric_code()
    assert (c.n, c.k) == (17, 13)
    assert c.min_weight() == 4
    # 17 = 4^2 + 1 points, the largest cap meeting every line of PG(3, 4)
    dual = c.hermitian_dual()
    assert dual.k == 4


def test_puncture_shorten_strategy_shortens():
    base = shorten(elliptic_quadric_code(), [1, 2, 3])
    assert (base.n, base.k) == (14, 10)
    cfg = SearchConfig(
        n=13, k=9, target_d=4, seed=1, budget=10**4,
        strategy=Strategy.PUNCTURE_SHORTEN, base=base,
    )
    r = search(cfg)
    assert r.found is not None
    s = r.summary
    assert (s.n, s.k, s.d) == (13, 9, 4) and s.is_lcd and s.d_exact
    assert r.candidates_tried == 2
    again = search(cfg)
    assert np.array_equal(again.found.gen, r.found.gen)
    # Every derivation counts against the budget, including a puncture
    # whose (n, k) does not match: at budget 1 the hit is out of reach.
    for budget in range(1, 8):
        for target in (4, 13):
            r = search(replace(cfg, budget=budget, target_d=target))
            hit = target == 4 and budget >= 2
            assert (r.found is not None) == hit
            assert r.candidates_tried == (2 if hit else budget)


def test_puncture_shorten_candidate_is_not_reduced_for_the_engine(monkeypatch):
    # The candidate reaches the engine as the code it is, already reduced.
    search_module = importlib.import_module("hlcd4.search")
    exact, reduce = search_module._exact_weight_at_least, linalg._reduce
    reduced, weighed = [], []

    def weigh(code, target):
        before = len(reduced)
        result = exact(code, target)
        weighed.append(len(reduced) - before)
        return result

    monkeypatch.setattr(linalg, "_reduce", lambda m: reduced.append(m.shape) or reduce(m))
    monkeypatch.setattr(search_module, "_exact_weight_at_least", weigh)
    base = shorten(elliptic_quadric_code(), [1, 2, 3])
    r = search(
        SearchConfig(
            n=13, k=9, target_d=4, seed=1, budget=10**4,
            strategy=Strategy.PUNCTURE_SHORTEN, base=base,
        )
    )
    assert r.found is not None and weighed == [0]


def test_puncture_shorten_strategy_punctures():
    base = shorten(elliptic_quadric_code(), [1, 2, 3])
    c1394 = search(
        SearchConfig(
            n=13, k=9, target_d=4, seed=1, budget=100,
            strategy=Strategy.PUNCTURE_SHORTEN, base=base,
        )
    ).found
    r = search(
        SearchConfig(
            n=12, k=9, target_d=3, seed=1, budget=100,
            strategy=Strategy.PUNCTURE_SHORTEN, base=c1394,
        )
    )
    # only the punctured derivative keeps k = 9
    assert r.found is not None and r.summary.d >= 3 and r.summary.is_lcd


def test_puncture_shorten_strategy_preconditions():
    with pytest.raises(PreconditionError, match="base"):
        search(
            SearchConfig(
                n=13, k=9, target_d=4, seed=1, strategy=Strategy.PUNCTURE_SHORTEN
            )
        )
    with pytest.raises(PreconditionError, match="length"):
        search(
            SearchConfig(
                n=12, k=9, target_d=3, seed=1,
                strategy=Strategy.PUNCTURE_SHORTEN,
                base=elliptic_quadric_code(),
            )
        )


def test_search_result_shape():
    r = search(SearchConfig(n=6, k=3, target_d=2, seed=9, budget=500))
    assert isinstance(r, SearchResult)
    assert r.found is not None
    assert r.summary.d >= 2
    assert r.elapsed < 60


def _summary(n, k, d, lcd=True, exact=True):
    return CodeSummary(
        n=n, k=k, d=d, d_dual=1, hull_dim=0 if lcd else 1,
        is_lcd=lcd, is_even=False, d_exact=exact,
    )


def test_verify_bounds_statuses():
    table = BoundsTable.load()
    records = verify_bounds(
        [
            _summary(12, 8, 4),
            _summary(12, 8, 8),
            _summary(12, 4, 5),
            _summary(12, 8, 4, lcd=False),
            _summary(12, 8, 4, exact=False),
        ],
        table,
    )
    assert [r.status for r in records] == [
        VerifyStatus.REPRODUCED_LOWER,
        VerifyStatus.CONTRADICTION,
        VerifyStatus.BELOW_LOWER,
        VerifyStatus.NOT_LCD,
        VerifyStatus.NOT_EXACT,
    ]
    assert records[0].lower == 4 and records[0].upper == 4
    assert verify_bounds([], table) == []
    with pytest.raises(UnknownEntryError):
        verify_bounds([_summary(11, 4, 2)], table)
