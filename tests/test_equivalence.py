"""The central property: the two engines are the same model.

Mapping one concrete shock draw into flip thresholds must reproduce the
balance-sheet cascade exactly: same default set, same seed-default count,
same number of propagation rounds, on every instance.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    run_threshold_cascade,
    thresholds_from_shocks,
)
from bankcascades.checks import _boundary_probe
from bankcascades.experiment import (
    ExperimentConfig,
    _batch_outcomes,
    _batch_propagate,
    _models_run,
    _network_inputs,
    case_presets,
    run_trial,
)

from conftest import sheets_from_worth


def _coupled_pair(net, sheets, shocks):
    bs = run_balance_cascade(net, sheets, shocks)
    thr, flips = thresholds_from_shocks(net, sheets, shocks)
    return bs, run_threshold_cascade(net, thr, flips)


@pytest.mark.parametrize("case", ["A", "B", "C"])
def test_coupled_engines_agree_on_random_instances(case):
    theta_dist, loan_dist = case_presets(case)
    params = BalanceParams(0.1, 0.01, theta_dist)
    degrees = (1.0, 3.0, 5.0, 8.0)
    for k in range(30):
        rng = np.random.default_rng(10_000 + 31 * k)
        net = generate_er(300, degrees[k % 4], loan_dist, rng)
        sheets = build_sheets(net, params, rng_seed=rng)
        shocks = draw_shocks(sheets, rng)
        bs, thr = _coupled_pair(net, sheets, shocks)
        assert bs.same_outcome(thr), f"case {case}, instance {k}"


def test_chain_example_maps_identically(chain_net, case_a_params):
    sheets = build_sheets(chain_net, case_a_params, rng_seed=0)
    shocks = ShockDraw(np.array([0.0, 0.0, -1.0]))
    bs, thr = _coupled_pair(chain_net, sheets, shocks)
    assert bs.n_total == thr.n_total == 3
    assert bs.rounds == thr.rounds == 2
    assert bs.n_fundamental == thr.n_fundamental == 1


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(2, 16),
       dense=st.floats(0.0, 1.0), scale=st.floats(0.5, 6.0))
def test_coupled_equivalence_property(seed, n, dense, scale):
    rng = np.random.default_rng(seed)
    net = generate_er(n, dense * (n - 1), LoanSizeDistribution.uniform(0.2, 1.8), rng)
    params = BalanceParams(0.1, 0.01, ThetaDistribution.uniform(0.2, 0.4))
    sheets = build_sheets(net, params, rng_seed=rng)
    shocks = ShockDraw(rng.normal(0.0, scale * sheets.return_std))
    bs, thr = _coupled_pair(net, sheets, shocks)
    assert bs.same_outcome(thr)


def test_boundary_probe_agrees_under_strict_rule():
    net, sheets, shocks = _boundary_probe()
    bs, thr = _coupled_pair(net, sheets, shocks)
    assert bs.same_outcome(thr)
    assert not bs.defaulted[0]  # the exact tie favours survival


def test_ge_mutation_is_detected_on_the_probe():
    net, sheets, shocks = _boundary_probe()
    bs = run_balance_cascade(net, sheets, shocks)
    thr, flips = thresholds_from_shocks(net, sheets, shocks)
    mutated = run_threshold_cascade(net, thr, flips, ge_rule=True)
    assert not bs.same_outcome(mutated)
    assert mutated.defaulted[0] and not bs.defaulted[0]


@pytest.mark.parametrize("case,model", [("A", "both-coupled"), ("B", "both-independent"),
                                        ("C", "both-coupled"), ("B", "threshold"),
                                        ("A", "bs")])
def test_batched_sweep_path_equals_per_trial_engines(case, model):
    _assert_batched_path_equals_run_trial(case, model, master_seed=21)


@pytest.mark.parametrize("model", ["both-independent", "both-coupled"])
def test_batched_sweep_path_equals_per_trial_engines_with_multiword_seed(model):
    # a master seed >= 2**32 spans two 32-bit words of every stream key
    _assert_batched_path_equals_run_trial("B", model, master_seed=2**32 + 21)


def _assert_batched_path_equals_run_trial(case, model, master_seed):
    cfg = ExperimentConfig(
        n_banks=250, capital_ratio=0.1, default_prob=0.01, case=case, model=model,
        degree_grid=(1.5, 4.0), networks_per_degree=1, trials_per_network=30,
        crisis_cutoff=0.05, master_seed=master_seed,
    )
    for zi in range(2):
        net, params, thetas, sheets = _network_inputs(cfg, zi, 0)
        out = _batch_outcomes(cfg, net, params, thetas, sheets, zi, 0)
        assert set(out) == set(_models_run(model))
        for m in out:
            n_fund, flipped, rounds = out[m]
            for ti in range(cfg.trials_per_network):
                ref = run_trial(cfg, zi, 0, ti)[m]
                assert np.array_equal(ref.defaulted, flipped[ti])
                assert ref.n_fundamental == n_fund[ti]
                assert ref.rounds == rounds[ti]


# -- the batched kernel against the per-trial engines, row by row ------------

def _assert_batch_rows_match_engines(net, worth, returns):
    """Propagate every row of ``returns`` in one batch, once as balance-sheet
    inputs and once through the coupled threshold mapping, and compare each
    row with the per-trial engine run on that row's draw."""
    worth = np.asarray(worth, dtype=np.float64)
    returns = np.asarray(returns, dtype=np.float64)
    n = net.n_nodes
    sheets = sheets_from_worth(worth, net.interbank_assets)
    draws = [ShockDraw(row.copy()) for row in returns]

    bs_start = returns < -worth
    bs = _batch_propagate(net, bs_start.copy(), np.ones(n, dtype=bool),
                          worth + returns, net.in_loan)
    mapped = [thresholds_from_shocks(net, sheets, d) for d in draws]
    active = net.interbank_assets > 0
    thr_start = np.array([np.where(active, a.thresholds < 0, f) for a, f in mapped])
    thr = _batch_propagate(net, thr_start.copy(), active,
                           np.array([a.thresholds for a, _ in mapped]), net.in_edge_weights)

    for t, draw in enumerate(draws):
        refs = ((run_balance_cascade(net, sheets, draw), bs_start, bs),
                (run_threshold_cascade(net, *mapped[t]), thr_start, thr))
        for ref, start, (flipped, rounds) in refs:
            assert np.array_equal(flipped[t], ref.defaulted), f"row {t}"
            assert start[t].sum() == ref.n_fundamental, f"row {t}"
            assert rounds[t] == ref.rounds, f"row {t}"


def test_batch_kernel_rows_equal_per_trial_engines():
    # 1 and 2 borrow from 0; the chain 10 -> 9 -> 0 carries a cascade on.
    # 3 lends 0.1, 0.2, 0.3, 0.4 (exactly 1.0 in all, so its edge weights
    # equal its loans) to 4..7. 11 is isolated; every non-lender has a NaN
    # threshold and cannot flip after round 0 in the threshold engine.
    net = from_edges(12, [(0, 1, 1.0), (0, 2, 1.0), (9, 0, 1.0), (10, 9, 1.0),
                          (3, 4, 0.1), (3, 5, 0.2), (3, 6, 0.3), (3, 7, 0.4)])
    assert net.interbank_assets[3] == 1.0
    worth = np.ones(12)
    worth[0], worth[3], worth[9], worth[10] = 1.5, 0.6, 0.5, 0.5
    # bank 3's test after 4, 5 and 6 fail together depends on the order
    # of the three additions
    assert (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)

    returns = np.zeros((6, 12))
    returns[0, [1, 2]] = -2.0  # 0 is hit twice in one superstep; 3 rounds
    # row 1: no initial default, between two active rows
    returns[2, [4, 5, 6]] = -2.0  # the accumulation-order probe
    returns[3, [1, 2]] = -2.0
    returns[3, 9] = 1.0  # the same start as row 0, but the chain stops at 9
    returns[4, [11, 7]] = -2.0  # an isolated failure and a lone 0.4 loss
    returns[5, [1, 4, 5, 6]] = -2.0
    _assert_batch_rows_match_engines(net, worth, returns)


@pytest.mark.parametrize("scenario", ["no-defaults", "all-defaulted", "no-edges", "one-trial"])
def test_batch_kernel_edge_cases_equal_per_trial_engines(scenario):
    edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 0.5), (3, 0, 2.0)]
    returns = np.zeros((3, 4))
    if scenario == "all-defaulted":
        returns[:] = -5.0
    elif scenario == "no-edges":
        edges = []
        returns[[0, 2], [1, 3]] = -5.0
    elif scenario == "one-trial":
        returns = np.array([[0.0, 0.0, -5.0, 0.0]])
    net = from_edges(4, edges)
    _assert_batch_rows_match_engines(net, np.full(4, 0.25), returns)
