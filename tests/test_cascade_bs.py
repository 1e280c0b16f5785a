import math

import numpy as np
import pytest

from bankcascades import (
    BalanceParams,
    LoanSizeDistribution,
    ShockDraw,
    ThetaDistribution,
    build_sheets,
    draw_shocks,
    from_edges,
    generate_er,
    run_balance_cascade,
)
from bankcascades.checks import run_balance_cascade_async

from conftest import norm_cdf, sheets_from_worth


# -- shock draws -----------------------------------------------------------

def test_zero_volatility_gives_zero_returns():
    sheets = sheets_from_worth([1.0] * 5, [0.0] * 5, sigma=[0.0] * 5)
    shocks = draw_shocks(sheets, 3)
    assert np.all(shocks.asset_returns == 0.0)


def test_standardized_returns_have_zero_mean():
    sheets = sheets_from_worth(np.ones(1000), np.zeros(1000), sigma=np.full(1000, 0.7))
    total, count = 0.0, 0
    for t in range(1000):
        shocks = draw_shocks(sheets, 10_000 + t)
        total += float((shocks.asset_returns / 0.7).sum())
        count += 1000
    assert abs(total / count) <= 4.0 / math.sqrt(count)


def test_failure_frequency_matches_cdf_oracle():
    # sigma chosen freely; the failure rate must match Phi(-w/sigma)
    worth = np.full(1000, 0.8)
    sigma = np.full(1000, 0.5)
    sheets = sheets_from_worth(worth, np.zeros(1000), sigma=sigma)
    expected = norm_cdf(-0.8 / 0.5)
    hits = sum(
        int((draw_shocks(sheets, 500 + t).asset_returns < -worth).sum()) for t in range(300)
    )
    n = 300 * 1000
    assert abs(hits / n - expected) <= 4 * math.sqrt(expected * (1 - expected) / n)


def test_draw_shocks_requires_banks():
    empty = sheets_from_worth([], [], sigma=[])
    with pytest.raises(ValueError):
        draw_shocks(empty, 0)


def test_shock_draw_rejects_non_finite():
    with pytest.raises(ValueError):
        ShockDraw(np.array([0.0, np.inf]))


# -- single cascades -------------------------------------------------------

def test_lender_fails_on_two_defaulted_borrowers():
    net = from_edges(3, [(0, 1, 1.0), (0, 2, 1.0)])
    sheets = sheets_from_worth([1.0, 1.0, 1.0], net.interbank_assets)
    shocks = ShockDraw(np.array([0.0, -2.0, -2.0]))
    res = run_balance_cascade(net, sheets, shocks)
    assert res.n_fundamental == 2
    assert res.defaulted.tolist() == [True, True, True]
    assert res.rounds == 1


def test_positive_return_absorbs_the_same_losses():
    net = from_edges(3, [(0, 1, 1.0), (0, 2, 1.0)])
    sheets = sheets_from_worth([1.0, 1.0, 1.0], net.interbank_assets)
    shocks = ShockDraw(np.array([1.5, -2.0, -2.0]))  # loss 2 vs 1 + 1.5
    res = run_balance_cascade(net, sheets, shocks)
    assert res.defaulted.tolist() == [False, True, True]
    assert res.n_total == 2


def test_three_bank_chain_cascades_in_two_rounds(chain_net, case_a_params):
    sheets = build_sheets(chain_net, case_a_params, rng_seed=0)
    assert np.allclose(sheets.net_worth, 1.0 / 3.0)
    shocks = ShockDraw(np.array([0.0, 0.0, -1.0]))
    res = run_balance_cascade(chain_net, sheets, shocks)
    assert res.n_fundamental == 1
    assert res.n_total == 3
    assert res.rounds == 2
    assert res.fraction == 1.0


def test_no_shock_no_defaults(case_a_params):
    net = generate_er(100, 4.0, LoanSizeDistribution.constant(1.0), 8)
    sheets = build_sheets(net, case_a_params, rng_seed=0)
    res = run_balance_cascade(net, sheets, ShockDraw(np.zeros(100)))
    assert res.n_total == 0
    assert res.rounds == 0


def test_dimension_mismatch_rejected(case_a_params):
    net = generate_er(10, 2.0, LoanSizeDistribution.constant(1.0), 0)
    sheets = build_sheets(net, case_a_params, rng_seed=0)
    with pytest.raises(ValueError):
        run_balance_cascade(net, sheets, ShockDraw(np.zeros(9)))


# -- fixed-point properties ------------------------------------------------

def _random_instance(seed, n_max=14):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, n_max))
    net = generate_er(n, float(rng.uniform(0, n - 1)),
                      LoanSizeDistribution.uniform(0.2, 1.8), rng)
    params = BalanceParams(0.1, 0.01, ThetaDistribution.uniform(0.2, 0.4))
    sheets = build_sheets(net, params, rng_seed=rng)
    shocks = ShockDraw(rng.normal(0.0, 3.0 * sheets.return_std))
    return net, sheets, shocks


def _is_least_fixed_point(net, sheets, shocks, defaulted):
    """Every defaulted bank is justified, every surviving bank is safe."""
    w, r = sheets.net_worth, shocks.asset_returns
    for i in range(net.n_nodes):
        nbrs, loans = net.borrowers_of(i)
        loss = loans[defaulted[nbrs]].sum() if len(nbrs) else 0.0
        should = loss - r[i] > w[i]
        if defaulted[i]:
            if not (should or r[i] < -w[i]):
                return False
        elif should:
            return False
    return True


def test_result_is_a_fixed_point_with_bounded_rounds():
    for seed in range(80):
        net, sheets, shocks = _random_instance(seed)
        res = run_balance_cascade(net, sheets, shocks)
        assert res.rounds <= net.n_nodes
        assert res.n_fundamental <= res.n_total <= net.n_nodes
        assert _is_least_fixed_point(net, sheets, shocks, res.defaulted)


def test_async_schedules_reach_same_fixed_point():
    for seed in range(60):
        net, sheets, shocks = _random_instance(seed)
        sync = run_balance_cascade(net, sheets, shocks)
        for k in range(3):
            alt = run_balance_cascade_async(net, sheets, shocks, 1000 * seed + k)
            assert np.array_equal(alt.defaulted, sync.defaulted)
            assert alt.n_fundamental == sync.n_fundamental


def test_strong_banks_never_default_contagiously():
    # net worth above total lending plus a non-negative own return = immune
    rng = np.random.default_rng(0)
    for seed in range(30):
        net = generate_er(30, 5.0, LoanSizeDistribution.constant(1.0), seed)
        lent = net.interbank_assets
        worth = lent * rng.uniform(0.2, 0.9, 30) + 0.05
        strong = rng.random(30) < 0.3
        worth[strong] = lent[strong] + 0.1
        returns = rng.normal(0, 1.0, 30)
        returns[strong] = np.abs(returns[strong])
        sheets = sheets_from_worth(worth, lent)
        res = run_balance_cascade(net, sheets, ShockDraw(returns))
        assert not res.defaulted[strong].any()


def test_ties_mean_survival():
    # loss exactly equal to capacity: strict rule keeps the bank alive
    net = from_edges(2, [(0, 1, 1.0)])
    sheets = sheets_from_worth([1.0, 1.0], net.interbank_assets)
    shocks = ShockDraw(np.array([0.0, -2.0]))  # loss 1 vs w + 0 = 1
    res = run_balance_cascade(net, sheets, shocks)
    assert res.defaulted.tolist() == [False, True]
