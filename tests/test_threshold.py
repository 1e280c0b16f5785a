import math

import numpy as np
import pytest
import scipy.integrate
import scipy.stats

from bankcascades import (
    BalanceParams,
    LoanSizeDistribution,
    ThetaDistribution,
    draw_thresholds,
    from_edges,
    generate_er,
    run_threshold_cascade,
    shadow_threshold_pdf,
    thresholds_from_shocks,
)
from bankcascades.checks import _run_ge_mutant

from conftest import quantile_bisect, sheets_from_worth


# -- the threshold map -----------------------------------------------------

def _shadow_thresholds(returns):
    """Coupled thresholds and round-0 flips on a star: bank 0 lends 3.0 (one
    unit to each of banks 1-3) and every bank has net worth 1."""
    net = from_edges(4, [(0, j, 1.0) for j in (1, 2, 3)])
    sheets = sheets_from_worth(np.ones(4), net.interbank_assets)
    return thresholds_from_shocks(net, sheets, returns)


def test_shadow_threshold_at_zero_return():
    # equals capital_ratio / share when the bank's own return is zero
    t = _shadow_thresholds([0.0, 0.0, 0.0, 0.0])[0][0]
    assert t == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert t == pytest.approx(0.1 / 0.3, rel=1e-12)


def test_shadow_threshold_boundary_and_cushion():
    assert _shadow_thresholds([-1.0, 0.0, 0.0, 0.0])[0][0] == 0.0
    assert _shadow_thresholds([0.5, 0.0, 0.0, 0.0])[0][0] == pytest.approx(0.5)


def test_shadow_threshold_needs_positive_lending():
    # banks that lend nothing carry no threshold; only their own loss flips them
    thresholds, flips = _shadow_thresholds([0.0, 0.0, -2.0, -1.0])
    assert np.isfinite(thresholds[0])
    assert np.isnan(thresholds[1:]).all()
    assert flips.tolist() == [False, False, True, False]  # a loss equal to net worth survives


# -- the sampler -----------------------------------------------------------

def _sample_case_a(n_samples: int):
    params = BalanceParams(0.1, 0.01, ThetaDistribution.constant(0.3))
    net = generate_er(1000, 3.0, LoanSizeDistribution.constant(1.0), 5)
    thetas = np.full(1000, 0.3)
    active = net.interbank_assets > 0
    out = []
    t = 0
    while sum(len(x) for x in out) < n_samples:
        out.append(draw_thresholds(net, params, thetas, 9000 + t)[0][active])
        t += 1
    return np.concatenate(out), params


def test_sampled_threshold_moments():
    sample, _ = _sample_case_a(100_000)
    n = len(sample)
    mean_ref = 0.1 / 0.3
    sd_ref = mean_ref / abs(quantile_bisect(0.01))
    assert abs(sample.mean() - mean_ref) <= 4 * sd_ref / math.sqrt(n)
    assert abs(sample.std(ddof=1) - sd_ref) <= 4 * sd_ref / math.sqrt(2 * n)


def test_negative_threshold_frequency_is_default_probability():
    sample, params = _sample_case_a(200_000)
    freq = (sample < 0).mean()
    bound = 4 * math.sqrt(0.01 * 0.99 / len(sample))
    assert abs(freq - params.default_prob) <= bound


def test_sampled_thresholds_pass_ks_against_closed_form():
    sample, _ = _sample_case_a(100_000)
    mean_ref = 0.1 / 0.3
    sd_ref = mean_ref / abs(quantile_bisect(0.01))
    stat = scipy.stats.kstest(sample, scipy.stats.norm(mean_ref, sd_ref).cdf).statistic
    assert stat < 1.6276 / math.sqrt(len(sample))


def test_extreme_default_probability_rejected():
    # delta = 0.5 would give an unbounded threshold spread; the parameter
    # domain excludes it
    with pytest.raises(ValueError):
        BalanceParams(0.1, 0.5, ThetaDistribution.constant(0.3))


def test_inactive_banks_have_nan_thresholds(case_a_params):
    net = from_edges(3, [(0, 1, 1.0)])
    thresholds, flips = draw_thresholds(net, case_a_params, np.full(3, 0.3), 1)
    assert (net.interbank_assets > 0).tolist() == [True, False, False]
    assert np.isfinite(thresholds[0])
    assert np.isnan(thresholds[1:]).all()
    assert not flips[0]  # a lender flips on its threshold, never on a coin


def test_inactive_flip_rate(case_a_params):
    n, thetas = 20_000, np.full(20_000, 0.3)
    _, flips = draw_thresholds(from_edges(n, []), case_a_params, thetas, 4)
    assert abs(flips.mean() - 0.01) <= 4 * math.sqrt(0.01 * 0.99 / n)
    # lenders never flip through this channel: here every bank lends
    ring = from_edges(n, [(i, (i + 1) % n, 1.0) for i in range(n)])
    thresholds, flips = draw_thresholds(ring, case_a_params, thetas, 4)
    assert not flips.any() and np.isfinite(thresholds).all()


# -- the transformed density ----------------------------------------------

def test_pdf_mode_value():
    g = scipy.stats.norm(0.0, 0.6).pdf
    val = shadow_threshold_pdf(0.1 / 0.3, 3.0, 0.1, 0.3, g)
    assert val == pytest.approx(3.0 * g(0.0), rel=1e-12)


def test_pdf_integrates_to_one():
    g = scipy.stats.norm(0.0, 0.6).pdf
    total, err = scipy.integrate.quad(
        lambda x: float(shadow_threshold_pdf(x, 3.0, 0.1, 0.3, g)), -8, 9
    )
    assert abs(total - 1.0) <= 1e-6


def test_pdf_matches_closed_form_normal():
    # with normal returns scaled by the calibrated volatility the threshold
    # density is exactly Normal(ratio, (ratio/|q|)^2)
    L, gamma, theta = 3.0, 0.1, 0.3
    q = quantile_bisect(0.01)
    sigma = -gamma * L / (theta * q)
    g = scipy.stats.norm(0.0, sigma).pdf
    ratio = gamma / theta
    ref = scipy.stats.norm(ratio, sigma / L).pdf
    xs = np.linspace(-0.5, 1.2, 400)
    assert np.max(np.abs(shadow_threshold_pdf(xs, L, gamma, theta, g) - ref(xs))) <= 1e-9


def test_pdf_requires_positive_lending():
    with pytest.raises(ValueError):
        shadow_threshold_pdf(0.3, 0.0, 0.1, 0.3, scipy.stats.norm(0, 1).pdf)


# -- the cascade -----------------------------------------------------------

def test_thresholds_above_one_block_propagation():
    net = generate_er(50, 6.0, LoanSizeDistribution.constant(1.0), 2)
    active = net.interbank_assets > 0
    thresholds = np.where(active, 1.5, np.nan)
    rng = np.random.default_rng(0)
    start = ~active & (rng.random(50) < 0.3)
    res = run_threshold_cascade(net, thresholds, start)
    assert res.n_total == res.n_fundamental == int(start.sum())
    assert res.rounds == 0


def test_star_lender_flips_at_half_weight():
    net = from_edges(5, [(0, j, 1.0) for j in (1, 2, 3, 4)])
    thresholds = np.array([0.45, np.nan, np.nan, np.nan, np.nan])
    start = np.array([False, True, True, False, False])
    res = run_threshold_cascade(net, thresholds, start)
    assert res.defaulted.tolist() == [True, True, True, False, False]
    assert res.rounds == 1
    # one flipped borrower is not enough: 0.25 < 0.45
    start_one = np.array([False, True, False, False, False])
    res = run_threshold_cascade(net, thresholds, start_one)
    assert res.defaulted.tolist() == [False, True, False, False, False]


def test_exact_tie_does_not_flip():
    net = from_edges(5, [(0, j, 1.0) for j in (1, 2, 3, 4)])
    thresholds = np.array([0.5, np.nan, np.nan, np.nan, np.nan])
    start = np.array([False, True, True, False, False])
    res = run_threshold_cascade(net, thresholds, start)
    assert not res.defaulted[0]
    res = _run_ge_mutant(net, thresholds, start)
    assert res.defaulted[0]


def test_weighted_rule_equals_count_rule_for_unit_loans():
    # with equal loan sizes the weighted fraction is flipped-over-total
    for seed in range(25):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 40))
        net = generate_er(n, float(rng.uniform(0.5, 6.0)) % max(n - 1, 1),
                          LoanSizeDistribution.constant(1.0), seed)
        active = net.interbank_assets > 0
        thresholds = np.where(active, rng.uniform(-0.1, 1.1, n), np.nan)
        start = ~active & (rng.random(n) < 0.2)
        res = run_threshold_cascade(net, thresholds, start)

        flipped = np.where(active, thresholds < 0, start)
        while True:
            changed = False
            for i in range(n):
                if flipped[i] or not active[i]:
                    continue
                nbrs, _ = net.borrowers_of(i)
                if flipped[nbrs].sum() / len(nbrs) > thresholds[i]:
                    flipped[i] = True
                    changed = True
            if not changed:
                break
        assert np.array_equal(res.defaulted, flipped)


def test_dimension_mismatch_rejected(case_a_params):
    net = generate_er(10, 2.0, LoanSizeDistribution.constant(1.0), 0)
    thr, flips = draw_thresholds(net, case_a_params, np.full(10, 0.3), 1)
    with pytest.raises(ValueError):
        run_threshold_cascade(net, thr, np.zeros(9, dtype=bool))
    # one entry per bank means shape (n,), not merely n rows
    for bad_thr, bad_flips in ((np.stack([thr, thr], axis=1), flips),
                               (thr, np.stack([flips, flips], axis=1)),
                               (thr[None], flips)):
        with pytest.raises(ValueError, match="one entry per bank"):
            run_threshold_cascade(net, bad_thr, bad_flips)


def test_nan_threshold_on_a_lender_is_rejected():
    net = from_edges(3, [(0, 1, 1.0), (0, 2, 1.0)])
    flips = np.array([False, True, True])
    with pytest.raises(ValueError, match="NaN"):
        run_threshold_cascade(net, np.full(3, np.nan), flips)
    # NaN on the non-lenders is the contract; +-inf on the lender is legal
    assert run_threshold_cascade(net, np.array([np.inf, np.nan, np.nan]), flips).step.tolist() \
        == [-1, 0, 0]
    assert run_threshold_cascade(net, np.array([-np.inf, np.nan, np.nan]), flips).step.tolist() \
        == [0, 0, 0]


def test_a_non_lenders_threshold_is_not_read():
    # round 0 of a non-lender comes from its flip alone, whatever threshold it carries
    net = from_edges(3, [(0, 1, 1.0), (0, 2, 1.0)])
    res = run_threshold_cascade(net, np.array([0.7, -1.0, 0.3]), np.array([False, False, True]))
    assert res.step.tolist() == [-1, -1, 0]
