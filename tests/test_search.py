"""Search strategies, determinism, and bounds verification."""

import hashlib
import importlib
from dataclasses import replace

import numpy as np
import pytest

from hlcd4 import linalg
from hlcd4.code import CodeSummary, LinearCode, _light_min_weight, _min_weight
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
    _LANES,
    _block_size,
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
    for index in range(config.budget):
        rng = np.random.default_rng([config.seed, index])
        a = rng.integers(0, 4, size=(k, n - k), dtype=np.uint8)
        gen = np.hstack([np.eye(k, dtype=np.uint8), a])
        r = _min_weight(gen, cutoff=target)
        if r.exact and r.best >= target and LinearCode(gen).is_lcd():
            return index + 1, gen
    return config.budget, None


@pytest.mark.parametrize(
    "n, k, target, seed",
    [
        (12, 6, 5, 34),  # target above 4: light test, then cutoff scan; hit at 120
        (16, 10, 4, 9),  # the light test decides; 30 per block, hit at 32
        (65, 3, 46, 1),  # two words: light test, then cutoff scan; hit at 74
        (70, 5, 4, 2),  # two words, target <= 4: the light test decides; hit at 2
        (8, 4, 6, 1),  # above the Singleton bound: every budget runs out
        (13, 7, 5, 1),  # hit at 1220, past the first block of streams
    ],
)
def test_random_search_matches_candidate_loop(n, k, target, seed):
    size = _block_size(k)
    # budgets around the light-test block and the block of drawn streams
    budgets = (1, size - 1, size, size + 1, 2 * size + 3,
               _LANES - 1, _LANES, _LANES + 1, 3 * _LANES)
    hit, gen = _first_hit(SearchConfig(n=n, k=k, target_d=target, seed=seed, budget=budgets[-1]))
    for budget in budgets:
        r = search(SearchConfig(n=n, k=k, target_d=target, seed=seed, budget=budget))
        assert type(r.candidates_tried) is int
        if gen is not None and hit <= budget:
            assert r.candidates_tried == hit
            assert np.array_equal(r.found.gen, gen)
        else:
            assert r.found is None and r.candidates_tried == budget


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
    # the light test is exact below 4 on the dual's standard form
    dual = linalg.standard_form(r.found.hermitian_dual().gen).matrix
    assert _light_min_weight(dual[None, :, len(dual) :])[0] == 3


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
