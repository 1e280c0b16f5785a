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
    draw_inactive_flips,
    draw_shocks,
    from_edges,
    generate_er,
    run_balance_cascade,
    run_threshold_cascade,
    sample_thresholds,
    thresholds_from_shocks,
)
from bankcascades.balance_cascade import _batch_propagate
from bankcascades.checks import _boundary_probe, brute_force_fixed_point
from bankcascades.experiment import (
    MODELS,
    ExperimentConfig,
    _batch_outcomes,
    _models_run,
    _network_inputs,
    case_presets,
    run_trial,
)
from bankcascades.rng import STREAM_SHOCKS, STREAM_THRESHOLDS, stream_rng

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


@pytest.mark.parametrize("model", ["both-independent", "both-coupled"])
def test_run_trial_at_a_multiword_trial_index_equals_per_trial_engines(model):
    # trial 2**32 + 3 spans two 32-bit key words; its streams must not fold
    # onto trial 3's
    cfg = ExperimentConfig(
        n_banks=250, capital_ratio=0.1, default_prob=0.01, case="C", model=model,
        degree_grid=(3.0,), networks_per_degree=1, trials_per_network=1,
        crisis_cutoff=0.05, master_seed=21,
    )
    net, params, thetas, sheets = _network_inputs(cfg, 0, 0)
    returns = {}
    for ti in (2**32 + 3, 3):
        shocks = draw_shocks(sheets, stream_rng(21, STREAM_SHOCKS, 0, 0, ti))
        refs = {"bs": run_balance_cascade(net, sheets, shocks)}
        if model == "both-coupled":
            thresholds, flips = thresholds_from_shocks(net, sheets, shocks)
        else:
            rng = stream_rng(21, STREAM_THRESHOLDS, 0, 0, ti)
            thresholds = sample_thresholds(net, params, thetas, rng)
            flips = draw_inactive_flips(thresholds.active, params.default_prob, rng)
        refs["threshold"] = run_threshold_cascade(net, thresholds, flips)
        got = run_trial(cfg, 0, 0, ti)
        for m, ref in refs.items():
            assert got[m].same_outcome(ref), (m, ti)
        returns[ti] = shocks.asset_returns
    assert not np.array_equal(returns[2**32 + 3], returns[3])


def _assert_batched_path_equals_run_trial(case, model, master_seed):
    """A trial's outcome does not depend on the batch it runs in: each row of
    a whole-cell batch equals :func:`run_trial`, a batch of one."""
    cfg = ExperimentConfig(
        n_banks=250, capital_ratio=0.1, default_prob=0.01, case=case, model=model,
        degree_grid=(1.5, 4.0), networks_per_degree=1, trials_per_network=30,
        crisis_cutoff=0.05, master_seed=master_seed,
    )
    for zi in range(2):
        net, params, thetas, sheets = _network_inputs(cfg, zi, 0)
        out = _batch_outcomes(cfg, net, params, thetas, sheets, zi, 0,
                              range(cfg.trials_per_network))
        assert set(out) == set(_models_run(model))
        for m in out:
            n_fund, flipped, rounds = out[m]
            for ti in range(cfg.trials_per_network):
                ref = run_trial(cfg, zi, 0, ti)[m]
                assert np.array_equal(ref.defaulted, flipped[ti])
                assert ref.n_fundamental == n_fund[ti]
                assert ref.rounds == rounds[ti]


# -- the batched kernel against the brute-force oracle, row by row ------------

def _assert_batch_rows_match_oracle(net, worth, returns):
    """Propagate every row of ``returns`` in one batch, once as balance-sheet
    inputs and once through the coupled threshold mapping, and compare each
    row with :func:`brute_force_fixed_point` on that row's draw. The oracle
    shares no propagation code with the kernel."""
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
        ref = brute_force_fixed_point(net, sheets, draw)
        for start, (flipped, rounds) in ((bs_start, bs), (thr_start, thr)):
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
    _assert_batch_rows_match_oracle(net, worth, returns)


def test_batch_kernel_adds_in_borrower_order_after_round_zero():
    # 4, 5 and 6 lend to 8 and fail together in superstep 1, so lender 3
    # takes its 0.1, 0.2 and 0.3 losses in one later superstep: the
    # accumulation-order probe above, moved off the initial frontier
    net = from_edges(9, [(3, 4, 0.1), (3, 5, 0.2), (3, 6, 0.3), (3, 7, 0.4),
                         (4, 8, 1.0), (5, 8, 1.0), (6, 8, 1.0)])
    assert (0.1 + 0.2) + 0.3 > 0.6 >= (0.3 + 0.2) + 0.1
    worth = np.ones(9)
    worth[3] = 0.6
    returns = np.zeros((2, 9))
    returns[:, 8] = -2.0  # 8 fails at round 0 in both rows
    returns[0, [4, 5, 6]] = -0.5  # in row 1, 4, 5 and 6 sit on an exact tie and survive
    _assert_batch_rows_match_oracle(net, worth, returns)


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
    _assert_batch_rows_match_oracle(net, np.full(4, 0.25), returns)


# -- sweep rows on small nets against references that share no code ----------

def _naive_threshold_fixed_point(net, thresholds, inactive_flips):
    """Sampled-threshold cascade by exhaustive re-evaluation in plain Python:
    a lender flips once the loan-weighted share of its flipped borrowers
    strictly exceeds its threshold; a non-lender flips only at round 0."""
    n = net.n_nodes
    loans = {i: [(int(j), float(a)) for j, a in zip(*net.borrowers_of(i))] for i in range(n)}
    lent = {i: sum(a for _, a in loans[i]) for i in range(n)}
    flipped = [bool(thresholds[i] < 0) if lent[i] > 0 else bool(inactive_flips[i])
               for i in range(n)]
    n_fundamental = sum(flipped)
    rounds = 0
    while True:
        new = list(flipped)
        for i in range(n):
            if flipped[i] or not lent[i] > 0:
                continue
            share = 0.0
            for j, amount in loans[i]:
                if flipped[j]:
                    share += amount / lent[i]
            if share > thresholds[i]:
                new[i] = True
        if new == flipped:
            return flipped, n_fundamental, rounds
        rounds += 1
        flipped = new


@pytest.mark.parametrize("model", MODELS)
def test_batched_rows_match_naive_references_on_small_nets(model):
    # draws are remade with plain numpy from the sweep's stream keys, so
    # neither the draw path nor the kernel is shared with the reference
    cfg = ExperimentConfig(
        n_banks=16, capital_ratio=0.1, default_prob=0.2, case="C", model=model,
        degree_grid=(1.0, 3.0, 8.0), networks_per_degree=2, trials_per_network=25,
        crisis_cutoff=0.05, master_seed=5,
    )
    T, seed = cfg.trials_per_network, cfg.master_seed
    contagious = 0
    for zi in range(len(cfg.degree_grid)):
        for ni in range(cfg.networks_per_degree):
            net, params, thetas, sheets = _network_inputs(cfg, zi, ni)
            out = _batch_outcomes(cfg, net, params, thetas, sheets, zi, ni, range(T))
            for ti in range(T):
                refs = {}
                if model != "threshold":
                    rng = stream_rng(seed, STREAM_SHOCKS, zi, ni, ti)
                    shocks = ShockDraw(rng.normal(0.0, sheets.return_std))
                    oracle = brute_force_fixed_point(net, sheets, shocks)
                    refs["bs"] = (oracle.defaulted.tolist(), oracle.n_fundamental,
                                  oracle.rounds)
                    if model == "both-coupled":
                        refs["threshold"] = refs["bs"]
                if model in ("threshold", "both-independent"):
                    rng = stream_rng(seed, STREAM_THRESHOLDS, zi, ni, ti)
                    ratio = params.capital_ratio / thetas
                    thresholds = rng.normal(ratio, ratio / abs(params.default_quantile))
                    flips = rng.random(cfg.n_banks) < params.default_prob
                    refs["threshold"] = _naive_threshold_fixed_point(net, thresholds, flips)
                assert set(refs) == set(out)
                for m, (defaulted, n_fundamental, rounds) in refs.items():
                    got_fund, got_flipped, got_rounds = out[m]
                    assert got_flipped[ti].tolist() == defaulted, (m, zi, ni, ti)
                    assert got_fund[ti] == n_fundamental, (m, zi, ni, ti)
                    assert got_rounds[ti] == rounds, (m, zi, ni, ti)
                    contagious += rounds > 0
    assert contagious >= 10  # the comparison is not vacuous
