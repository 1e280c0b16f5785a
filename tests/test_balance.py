import math

import numpy as np
import pytest
import scipy.stats

from bankcascades import (
    BalanceParams,
    ThetaDistribution,
    build_sheets,
    draw_thresholds,
    from_edges,
    generate_er,
    normal_quantile,
)
from bankcascades.network import LoanSizeDistribution

from conftest import norm_cdf, quantile_bisect


# -- normal quantile -------------------------------------------------------

def test_quantile_median_is_exactly_zero():
    assert normal_quantile(0.5) == 0.0


def test_quantile_at_one_percent():
    z = normal_quantile(0.01)
    assert z == pytest.approx(-2.326348, abs=1e-5)
    assert z == pytest.approx(quantile_bisect(0.01), abs=1e-9)


def test_quantile_sign_symmetry():
    assert normal_quantile(0.99) == pytest.approx(-normal_quantile(0.01), abs=1e-9)


def test_quantile_inverts_cdf_to_1e_minus_12():
    probs = np.concatenate([
        np.linspace(1e-6, 1 - 1e-6, 2001),
        np.logspace(-12, -2, 50),
        1 - np.logspace(-12, -2, 50),
    ])
    worst = max(abs(norm_cdf(normal_quantile(float(p))) - float(p)) for p in probs)
    assert worst <= 1e-12


def test_quantile_matches_scipy():
    for p in (1e-9, 1e-4, 0.01, 0.3, 0.5, 0.75, 0.975, 1 - 1e-6):
        assert normal_quantile(p) == pytest.approx(scipy.stats.norm.ppf(p), abs=1e-10)


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.5])
def test_quantile_rejects_out_of_range(bad):
    with pytest.raises(ValueError):
        normal_quantile(bad)


# -- parameters ------------------------------------------------------------

def test_params_validation():
    theta = ThetaDistribution.constant(0.3)
    with pytest.raises(ValueError):
        BalanceParams(0.0, 0.01, theta)
    with pytest.raises(ValueError):
        BalanceParams(1.0, 0.01, theta)
    with pytest.raises(ValueError):
        BalanceParams(0.1, 0.5, theta)  # quantile would not be negative
    with pytest.raises(ValueError):
        BalanceParams(0.1, 0.0, theta)
    assert BalanceParams(0.1, 0.01, theta).default_quantile < 0


def test_theta_distribution_validation():
    with pytest.raises(ValueError):
        ThetaDistribution.constant(0.0)
    with pytest.raises(ValueError):
        ThetaDistribution.constant(1.0)
    with pytest.raises(ValueError):
        ThetaDistribution.uniform(0.4, 0.2)


# -- sheet construction ----------------------------------------------------

def _nine_bank_net(n_in: int):
    """Bank 0 lends a unit to 3 banks and borrows a unit from n_in banks."""
    edges = [(0, j, 1.0) for j in (1, 2, 3)]
    edges += [(3 + k, 0, 1.0) for k in range(1, n_in + 1)]
    return from_edges(4 + n_in, edges)


def test_sheet_with_deposit_closure(case_a_params):
    # 3 loans out at share .3 -> tentative total 10; 5 loans in fit under it
    net = _nine_bank_net(5)
    sheets = build_sheets(net, case_a_params, rng_seed=0)
    assert sheets.net_worth[0] == pytest.approx(1.0, rel=1e-12)
    assert sheets.external_assets[0] == pytest.approx(7.0, rel=1e-12)
    assert sheets.return_std[0] == pytest.approx(-1.0 / quantile_bisect(0.01), rel=1e-9)
    assert sheets.return_std[0] == pytest.approx(0.429859, abs=1e-5)
    assert sheets.deposits[0] == pytest.approx(4.0, rel=1e-12)
    assert sheets.riskless_assets[0] == 0.0
    assert 7.0 + 3.0 + 0.0 == pytest.approx(4.0 + 5.0 + 1.0)


def test_sheet_with_riskless_closure(case_a_params):
    # 12 loans in exceed the tentative total: riskless assets top up the
    # asset side and the realized capital ratio drops below the target
    net = _nine_bank_net(12)
    sheets = build_sheets(net, case_a_params, rng_seed=0)
    assert sheets.riskless_assets[0] == pytest.approx(3.0, rel=1e-12)
    assert sheets.deposits[0] == 0.0
    total_assets = (sheets.external_assets[0] + sheets.interbank_assets[0]
                    + sheets.riskless_assets[0])
    assert total_assets == pytest.approx(13.0, rel=1e-12)
    assert sheets.net_worth[0] / total_assets == pytest.approx(1.0 / 13.0, rel=1e-12)


def test_sheet_for_bank_without_loans(case_a_params):
    net = from_edges(3, [(1, 0, 1.0), (2, 0, 1.0)])  # bank 0 only borrows
    sheets = build_sheets(net, case_a_params, rng_seed=0)
    assert sheets.interbank_assets[0] == 0.0
    assert sheets.external_assets[0] == pytest.approx(10.0 / 3.0, rel=1e-12)
    assert sheets.net_worth[0] == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert sheets.return_std[0] == pytest.approx(sheets.net_worth[0] / 2.326348, abs=1e-6)


def _identity_gap(sheets):
    lhs = sheets.external_assets + sheets.interbank_assets + sheets.riskless_assets
    rhs = sheets.deposits + sheets.interbank_liabilities + sheets.net_worth
    scale = np.maximum(np.abs(lhs), 1.0)
    return np.abs(lhs - rhs) / scale


@pytest.mark.parametrize("theta", [ThetaDistribution.constant(0.3),
                                   ThetaDistribution.uniform(0.2, 0.4)])
def test_balance_identity_and_ratios(theta):
    params = BalanceParams(0.1, 0.01, theta)
    net = generate_er(300, 4.0, LoanSizeDistribution.uniform(0.2, 1.8), 42)
    sheets = build_sheets(net, params, rng_seed=9)
    assert _identity_gap(sheets).max() <= 1e-9

    lent = sheets.interbank_assets
    total = sheets.external_assets + lent + sheets.riskless_assets
    no_adjust = sheets.riskless_assets == 0.0
    ratio = sheets.net_worth / total
    assert np.allclose(ratio[no_adjust], 0.1, rtol=1e-12)
    assert np.all(sheets.deposits[no_adjust] >= 0)

    active = lent > 0
    expect = (1.0 - sheets.interbank_share[active]) / 0.1
    assert np.allclose(sheets.external_assets[active] / sheets.net_worth[active],
                       expect, rtol=1e-12)


def test_fundamental_default_probability_calibrated():
    # pooled over 1e6 bank-draws the failure frequency must be delta to 4 sigma
    params = BalanceParams(0.1, 0.01, ThetaDistribution.constant(0.3))
    net = generate_er(1000, 3.0, LoanSizeDistribution.constant(1.0), 11)
    sheets = build_sheets(net, params, rng_seed=1)
    rng = np.random.default_rng(123)
    draws = rng.normal(0.0, sheets.return_std, size=(1000, len(sheets)))
    freq = (draws < -sheets.net_worth).mean()
    bound = 4 * math.sqrt(0.01 * 0.99 / draws.size)
    assert abs(freq - 0.01) <= bound


def test_theta_draws_reproducible_and_overridable():
    params = BalanceParams(0.1, 0.01, ThetaDistribution.uniform(0.2, 0.4))
    net = generate_er(50, 3.0, LoanSizeDistribution.constant(1.0), 3)
    a = build_sheets(net, params, rng_seed=7)
    b = build_sheets(net, params, rng_seed=7)
    assert np.array_equal(a.interbank_share, b.interbank_share)
    thetas = np.full(50, 0.25)
    c = build_sheets(net, params, thetas=thetas)
    assert np.array_equal(c.interbank_share, thetas)
    with pytest.raises(ValueError):
        build_sheets(net, params)
    with pytest.raises(ValueError):
        build_sheets(net, params, rng_seed=1, thetas=thetas)


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.3, 1.5, math.nan, math.inf])
@pytest.mark.parametrize("bank", [0, 2])  # a lender, a non-lender
def test_shares_outside_the_unit_interval_are_rejected_where_they_enter(bad, bank,
                                                                         case_a_params):
    # the range ThetaDistribution enforces on its law, for shares passed in:
    # at 0 net worth and volatility are non-finite, at 1.5 external assets
    # are negative, at -0.3 net worth is
    net = from_edges(3, [(0, 1, 1.0), (1, 0, 2.0)])
    thetas = np.full(3, 0.3)
    thetas[bank] = bad
    with pytest.raises(ValueError, match=f"interbank shares .* got {bad} for bank {bank}"):
        build_sheets(net, case_a_params, thetas=thetas)
    with pytest.raises(ValueError, match=f"interbank shares .* got {bad} for bank {bank}"):
        draw_thresholds(net, case_a_params, thetas, 1)

