import math

import numpy as np
import pytest
import scipy.stats

from bankcascades import (
    BalanceParams,
    LoanSizeDistribution,
    ShockDraw,
    ThetaDistribution,
    build_sheets,
    from_edges,
    generate_er,
    run_balance_cascade,
    run_sweep,
    run_trial,
)
from bankcascades.checks import brute_force_fixed_point, run_balance_cascade_async
from bankcascades.experiment import ExperimentConfig, _network_task, case_presets
from bankcascades.results_io import rows_to_csv

from conftest import sheets_from_worth


def _small_cfg(**over):
    base = dict(
        n_banks=150, capital_ratio=0.1, default_prob=0.01, case="A",
        model="both-independent", degree_grid=(0.0, 2.0, 4.0),
        networks_per_degree=2, trials_per_network=40,
        crisis_cutoff=0.05, master_seed=13,
    )
    base.update(over)
    return ExperimentConfig(**base)


# -- config validation -------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        _small_cfg(case="D")
    with pytest.raises(ValueError):
        _small_cfg(model="bogus")
    with pytest.raises(ValueError):
        _small_cfg(degree_grid=())
    with pytest.raises(ValueError):
        _small_cfg(degree_grid=(2.0, 500.0))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="degree"):
            _small_cfg(degree_grid=(1.0, bad))
    with pytest.raises(ValueError):
        _small_cfg(crisis_cutoff=0.0)
    with pytest.raises(ValueError):
        _small_cfg(trials_per_network=0)
    with pytest.raises(ValueError, match="master_seed"):
        _small_cfg(master_seed=-1)
    with pytest.raises(ValueError, match="capital_ratio"):
        _small_cfg(capital_ratio=5.0)
    with pytest.raises(ValueError, match="default_prob"):
        _small_cfg(default_prob=0.7)


def test_case_presets_are_overridable():
    cfg = _small_cfg(case="C")
    assert cfg.resolved_loan_dist() == LoanSizeDistribution.uniform(0.2, 1.8)
    assert cfg.resolved_theta_dist() == ThetaDistribution.constant(0.3)
    custom = _small_cfg(case="C", loan_dist=LoanSizeDistribution.constant(2.0),
                        theta_dist=ThetaDistribution.constant(0.25))
    assert custom.resolved_loan_dist() == LoanSizeDistribution.constant(2.0)
    assert custom.resolved_theta_dist() == ThetaDistribution.constant(0.25)


# -- brute-force oracle ------------------------------------------------------

def test_oracle_trivial_empty_network():
    net = from_edges(4, [])
    sheets = sheets_from_worth([1.0] * 4, [0.0] * 4)
    res = brute_force_fixed_point(net, sheets, ShockDraw(np.zeros(4)))
    assert res.n_total == 0 and res.rounds == 0


def test_oracle_on_three_bank_chain(chain_net, case_a_params):
    sheets = build_sheets(chain_net, case_a_params, rng_seed=0)
    res = brute_force_fixed_point(chain_net, sheets, ShockDraw(np.array([0.0, 0.0, -1.0])))
    assert res.defaulted.all()
    assert res.n_fundamental == 1
    assert res.rounds == 2


def test_oracle_refuses_large_networks(case_a_params):
    net = generate_er(21, 2.0, LoanSizeDistribution.constant(1.0), 0)
    sheets = build_sheets(net, case_a_params, rng_seed=0)
    with pytest.raises(ValueError):
        brute_force_fixed_point(net, sheets, ShockDraw(np.zeros(21)))


def test_engine_matches_oracle_on_random_instances():
    params = BalanceParams(0.1, 0.01, ThetaDistribution.uniform(0.2, 0.4))
    for seed in range(60):
        rng = np.random.default_rng(777 + seed)
        n = int(rng.integers(2, 11))
        net = generate_er(n, float(rng.uniform(0, n - 1)),
                          LoanSizeDistribution.uniform(0.2, 1.8), rng)
        sheets = build_sheets(net, params, rng_seed=rng)
        shocks = ShockDraw(rng.normal(0.0, 3.0 * sheets.return_std))
        fast = run_balance_cascade(net, sheets, shocks)
        slow = brute_force_fixed_point(net, sheets, shocks)
        assert fast.same_outcome(slow)
        alt = run_balance_cascade_async(net, sheets, shocks, rng)
        assert np.array_equal(alt.defaulted, fast.defaulted)


# -- sweep behaviour ---------------------------------------------------------

def test_disconnected_grid_point_has_no_crises():
    # with no edges a crisis needs >= 5% simultaneous solo failures, an
    # event of vanishing probability (binomial tail oracle below)
    cfg = _small_cfg(n_banks=1000, degree_grid=(0.0,), networks_per_degree=3,
                     trials_per_network=200, model="bs")
    rows = run_sweep(cfg)
    assert len(rows) == 1
    assert rows[0].n_crises == 0
    assert rows[0].crisis_frequency == 0.0
    assert rows[0].mean_crisis_size is None
    tail = scipy.stats.binom.sf(49, 1000, 0.01)
    assert 600 * tail < 1e-15


def test_sweep_rows_are_ordered_and_tagged():
    cfg = _small_cfg()
    rows = run_sweep(cfg)
    assert [r.degree for r in rows] == [0.0, 0.0, 2.0, 2.0, 4.0, 4.0]
    assert [r.model for r in rows] == ["bs", "threshold"] * 3
    assert all(r.case == "A" for r in rows)
    assert all(r.n_runs == 80 for r in rows)
    for r in rows:
        assert 0.0 <= r.crisis_frequency <= 1.0
        if r.mean_crisis_size is not None:
            assert r.mean_crisis_size >= cfg.crisis_cutoff


def test_sweep_is_deterministic():
    rows_a = run_sweep(_small_cfg())
    rows_b = run_sweep(_small_cfg())
    assert rows_a == rows_b
    assert rows_to_csv(rows_a) == rows_to_csv(rows_b)


def test_sweep_output_independent_of_workers():
    cfg = _small_cfg()
    serial = run_sweep(cfg, workers=1)
    parallel = run_sweep(cfg, workers=3)
    assert rows_to_csv(serial) == rows_to_csv(parallel)


def test_pooling_matches_per_network_aggregates():
    cfg = _small_cfg()
    rows = run_sweep(cfg)
    for zi, degree in enumerate(cfg.degree_grid):
        cells = [_network_task((cfg, zi, ni))[1] for ni in range(cfg.networks_per_degree)]
        for row in (r for r in rows if r.degree == degree):
            runs = sum(c["tallies"][row.model].runs for c in cells)
            crises = sum(c["tallies"][row.model].crises for c in cells)
            assert row.n_runs == runs
            assert row.n_crises == crises
            assert row.crisis_frequency == crises / runs


def test_single_trial_reproduction():
    cfg = _small_cfg(model="both-coupled")
    res = run_trial(cfg, z_index=1, net_index=1, trial_index=7)
    again = run_trial(cfg, z_index=1, net_index=1, trial_index=7)
    assert res["bs"].same_outcome(again["bs"])
    assert res["threshold"].same_outcome(again["threshold"])
    assert res["mismatch"] is False


def test_coupled_sweep_reports_zero_mismatches():
    cfg = _small_cfg(model="both-coupled", n_banks=200)
    rows = run_sweep(cfg)
    assert all(r.mismatches == 0 for r in rows)
    by_degree = {}
    for r in rows:
        by_degree.setdefault(r.degree, []).append(r)
    for degree, pair in by_degree.items():
        assert pair[0].crisis_frequency == pair[1].crisis_frequency
        assert pair[0].mean_crisis_size == pair[1].mean_crisis_size


def test_progress_callback_reports_completion():
    seen = []
    cfg = _small_cfg(trials_per_network=10)
    run_sweep(cfg, progress=lambda done, total: seen.append((done, total)))
    total = len(cfg.degree_grid) * cfg.networks_per_degree * 10
    assert seen[-1] == (total, total)
    assert [d for d, _ in seen] == sorted(d for d, _ in seen)


def test_independent_seeds_give_compatible_curves():
    # two disjoint master seeds must agree at nearly every grid point once
    # the binomial confidence bands are taken into account
    # pooled binomial intervals presume runs are exchangeable; with too few
    # networks per point the network-level clustering breaks that, so keep
    # the network count the dominant replication axis as in the full protocol
    grid = tuple(np.arange(0.0, 10.5, 0.5))
    base = dict(
        n_banks=300, capital_ratio=0.1, default_prob=0.01, case="A", model="bs",
        degree_grid=grid, networks_per_degree=12, trials_per_network=125,
        crisis_cutoff=0.05,
    )
    rows_a = run_sweep(ExperimentConfig(master_seed=101, **base))
    rows_b = run_sweep(ExperimentConfig(master_seed=202, **base))
    ok = sum(
        abs(a.crisis_frequency - b.crisis_frequency)
        <= a.frequency_ci_halfwidth + b.frequency_ci_halfwidth
        for a, b in zip(rows_a, rows_b)
    )
    assert ok >= math.ceil(0.95 * len(grid))
