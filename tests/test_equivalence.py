"""The central property: the two engines are the same model.

Mapping one concrete shock draw into flip thresholds must reproduce the
balance-sheet cascade exactly: the same bank defaults in the same round, on
every instance. Both engines return a step matrix, one row per trial, with
each bank's default round (-1 for never), and the tests compare whole rows.
"""
import tracemalloc
from dataclasses import fields, replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bankcascades import (
    BalanceParams,
    DirectedNetwork,
    LoanSizeDistribution,
    ThetaDistribution,
    build_sheets,
    draw_shocks,
    draw_thresholds,
    from_edges,
    generate_er,
    run_balance_cascade,
    run_threshold_cascade,
    thresholds_from_shocks,
)
from bankcascades import CascadeResult, balance_cascade, checks, experiment, threshold_cascade
from bankcascades.balance_cascade import balance_rows, shock_returns
from bankcascades.checks import (
    _boundary_probe,
    _compare_coupled,
    _run_ge_mutant,
    brute_force_fixed_point,
    distribution_suite,
    run_balance_cascade_async,
)
from bankcascades.experiment import (
    MODELS,
    ExperimentConfig,
    _cell_steps,
    _models_run,
    case_presets,
    run_trial,
)
from bankcascades.rng import (
    STREAM_NETWORK,
    STREAM_SHOCKS,
    STREAM_THETA,
    STREAM_THRESHOLDS,
    draw_rows,
    stream_rng,
    stream_seed,
)
from bankcascades.threshold_cascade import threshold_rows

from conftest import lowered_margin, sheets_from_worth


def _cell_inputs(cfg, z_index, net_index):
    """(net, params, thetas, sheets) of one sweep cell, remade with the
    public API from the cell's stream keys."""
    net = generate_er(cfg.n_banks, cfg.degree_grid[z_index], cfg.resolved_loan_dist(),
                      stream_seed(cfg.master_seed, STREAM_NETWORK, z_index, net_index))
    thetas = cfg.resolved_theta_dist().sample(
        cfg.n_banks, stream_rng(cfg.master_seed, STREAM_THETA, z_index, net_index))
    params = cfg.balance_params()
    return net, params, thetas, build_sheets(net, params, thetas=thetas)


def _coupled_pair(net, sheets, shocks):
    bs = run_balance_cascade(net, sheets, shocks)
    thresholds, flips = thresholds_from_shocks(net, sheets, shocks)
    return bs, run_threshold_cascade(net, thresholds, flips)


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
    shocks = np.array([0.0, 0.0, -1.0])
    bs, thr = _coupled_pair(chain_net, sheets, shocks)
    assert bs.n_total == thr.n_total == 3
    assert bs.rounds == thr.rounds == 2
    assert bs.n_fundamental == thr.n_fundamental == 1


def test_same_outcome_compares_each_banks_round():
    # 0 fails on its own loss, 1 lends to 0, 2 and 3 lend to 1
    net = from_edges(4, [(1, 0, 1.0), (2, 1, 1.0), (3, 1, 1.0)])
    sheets = sheets_from_worth(np.full(4, 0.5), net.interbank_assets)
    res = run_balance_cascade(net, sheets, np.array([-1.0, 0.0, 0.0, 0.0]))
    assert res.step.tolist() == [0, 1, 2, 2]
    # banks 1 and 2 swap rounds: the default set, the round count and the
    # round-0 count all stay the same, but the sample path does not
    swapped = CascadeResult(res.step[[0, 2, 1, 3]])
    assert swapped.defaulted.tolist() == res.defaulted.tolist()
    assert (swapped.rounds, swapped.n_fundamental) == (res.rounds, res.n_fundamental) == (2, 1)
    assert not res.same_outcome(swapped)


@pytest.mark.parametrize("n,dtype", [(128, np.int8), (129, np.int16), (300, np.int16)])
def test_lending_chain_cascades_n_minus_one_rounds_without_wrapping(n, dtype):
    # bank i lends to bank i + 1 and the last bank fails outright, so bank
    # n - 1 - k defaults in round k; int8 holds round 127 but not 128
    net = from_edges(n, [(i, i + 1, 1.0) for i in range(n - 1)])
    sheets = sheets_from_worth(np.full(n, 0.5), net.interbank_assets)
    returns = np.zeros(n)
    returns[-1] = -1.0
    for res in _coupled_pair(net, sheets, returns):
        assert res.step.dtype == dtype
        assert res.step.max() == res.rounds == n - 1
        assert res.step.tolist() == list(range(n - 1, -1, -1))


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(2, 16),
       dense=st.floats(0.0, 1.0), scale=st.floats(0.5, 6.0))
def test_coupled_equivalence_property(seed, n, dense, scale):
    rng = np.random.default_rng(seed)
    net = generate_er(n, dense * (n - 1), LoanSizeDistribution.uniform(0.2, 1.8), rng)
    params = BalanceParams(0.1, 0.01, ThetaDistribution.uniform(0.2, 0.4))
    sheets = build_sheets(net, params, rng_seed=rng)
    shocks = rng.normal(0.0, scale * sheets.return_std)
    bs, thr = _coupled_pair(net, sheets, shocks)
    assert bs.same_outcome(thr)


@pytest.mark.parametrize("k", [-30, -1, 1, 30])
def test_power_of_two_scaling_leaves_every_step_unchanged(k):
    # loans, every sheet column but the interbank share, and the returns
    # scaled by 2**k: every sum, comparison and quotient the engines make
    # scales exactly, so both engines' step vectors are bit-identical
    theta_dist, loan_dist = case_presets("C")
    params = BalanceParams(0.1, 0.01, theta_dist)
    scale = 2.0 ** k
    contagious = 0
    for seed in range(30):
        rng = np.random.default_rng(seed)
        net = generate_er(150, (2.0, 3.0, 5.0)[seed % 3], loan_dist, rng)
        sheets = build_sheets(net, params, rng_seed=rng)
        returns = 3.0 * draw_shocks(sheets, rng)
        scaled_net = DirectedNetwork(net.n_nodes, net.lender, net.borrower, net.loan_size * scale)
        scaled_sheets = replace(sheets, **{
            f.name: getattr(sheets, f.name) * scale
            for f in fields(sheets) if f.name != "interbank_share"})
        want = _coupled_pair(net, sheets, returns)
        got = _coupled_pair(scaled_net, scaled_sheets, returns * scale)
        for w, g in zip(want, got):
            assert g.step.dtype == w.step.dtype and g.step.tobytes() == w.step.tobytes(), seed
        contagious += want[0].rounds > 0
    assert contagious == 30  # every network spreads defaults: the comparison is not vacuous


def _case_c_rows(n, trials, seed):
    """(net, worth, returns): a case-C network at z = 3 and ``trials`` rows
    of three-sigma asset returns, enough to spread defaults."""
    theta_dist, loan_dist = case_presets("C")
    rng = np.random.default_rng(seed)
    net = generate_er(n, 3.0, loan_dist, rng)
    sheets = build_sheets(net, BalanceParams(0.1, 0.01, theta_dist), rng_seed=rng)
    return net, sheets.net_worth, 3.0 * shock_returns(rng.standard_normal((trials, n)), sheets)


def _coupled_thresholds(net, margin):
    """The public coupled map, row by row: fl(m / L) for a lender with
    interbank assets L; a non-lender keeps its margin, read by its sign."""
    return margin / np.where(net.is_lender, net.interbank_assets, 1.0)


def _both_rules(net, worth, returns):
    bs = balance_cascade.balance_rows(net, worth + returns)  # as a test may wrap it
    return bs, threshold_rows(net, _coupled_thresholds(net, worth + returns))


def test_disjoint_union_steps_are_the_components_side_by_side():
    # two case-C networks glued block-diagonally share no edge, so each
    # keeps its own cascade: the union's step matrix is theirs, column-joined
    contagious = 0
    for seed in range(40):
        parts = [_case_c_rows(n, 5, seed=2 * seed + k) for k, n in enumerate((150, 200))]
        (net_a, worth_a, returns_a), (net_b, worth_b, returns_b) = parts
        a = net_a.n_nodes
        union = from_edges(a + net_b.n_nodes, [
            *zip(net_a.lender, net_a.borrower, net_a.loan_size),
            *zip(net_b.lender + a, net_b.borrower + a, net_b.loan_size)])
        got = _both_rules(union, np.concatenate([worth_a, worth_b]),
                          np.concatenate([returns_a, returns_b], axis=1))
        alone = [_both_rules(*part) for part in parts]
        for g, *w in zip(got, *alone):
            w = np.concatenate(w, axis=1)
            assert g.dtype == w.dtype and np.array_equal(g, w), seed
        contagious += all(steps[0].max() > 0 for steps in alone)
    assert contagious == 40  # both components spread defaults: the comparison is not vacuous


def test_boundary_probe_agrees_under_strict_rule():
    net, sheets, shocks = _boundary_probe()
    bs, thr = _coupled_pair(net, sheets, shocks)
    assert bs.same_outcome(thr)
    assert not bs.defaulted[0]  # the exact tie favours survival


def test_boundary_probe_maps_to_its_pinned_thresholds_and_flips():
    net, sheets, shocks = _boundary_probe()
    assert sheets.net_worth.tolist() == [4.0, 1.0, 1.0, 1.0, 1.0]
    thresholds, flips = thresholds_from_shocks(net, sheets, shocks)
    assert thresholds[0] == 0.5 and np.isnan(thresholds[1:]).all()
    assert flips.tolist() == [False, True, True, False, False]


@pytest.mark.parametrize("seed,figures", [
    (0, ("failure rate 0.00992", "negative-threshold rate 0.01003", "(target 0.01)",
         "KS 0.00233 < 0.00528")),
    (3, ("failure rate 0.00996", "negative-threshold rate 0.01001", "(target 0.01)",
         "KS 0.00355 < 0.00527")),
])
def test_distribution_suite_prints_its_pinned_figures(seed, figures):
    report = distribution_suite(seed=seed)
    assert report.passed
    for figure in figures:
        assert figure in report.detail


def test_distribution_suite_calibrates_the_non_lender_flips(monkeypatch):
    assert "non-lender flip rate 0.01018 (target 0.01)" in distribution_suite(seed=0).detail

    def doubled_flips(rngs, n_rows, n, flip_prob=None, inactive=None):
        flip_prob = None if flip_prob is None else 2 * flip_prob
        return draw_rows(rngs, n_rows, n, flip_prob, inactive)

    monkeypatch.setattr(checks, "draw_rows", doubled_flips)
    report = distribution_suite(seed=0)
    assert not report.passed
    assert report.detail.startswith("non-lender flip frequency 0.020")


def test_ge_mutation_is_detected_on_the_probe():
    net, sheets, shocks = _boundary_probe()
    bs = run_balance_cascade(net, sheets, shocks)
    thresholds, flips = thresholds_from_shocks(net, sheets, shocks)
    mutated = _run_ge_mutant(net, thresholds, flips)
    assert not bs.same_outcome(mutated)
    assert mutated.defaulted[0] and not bs.defaulted[0]
    assert not _compare_coupled(net, sheets, shocks, inject_fault=True)[0]



def test_round_zero_tie_survives_and_the_ge_mutant_flips_it():
    # lender 0's return is exactly -net_worth: not a round-0 default, and its
    # mapped threshold is exactly 0.0, which the strict rule keeps
    net = from_edges(3, [(0, 1, 1.0), (0, 2, 1.0)])
    sheets = sheets_from_worth(np.ones(3), net.interbank_assets)
    shocks = np.array([-1.0, 0.0, 0.0])
    bs, thr = _coupled_pair(net, sheets, shocks)
    thresholds, flips = thresholds_from_shocks(net, sheets, shocks)
    assert thresholds[0] == 0.0
    assert bs.same_outcome(thr) and bs.n_total == 0
    # under >= a zero exposure meets a zero threshold, so the mutant flips it
    mutated = _run_ge_mutant(net, thresholds, flips)
    assert mutated.defaulted.tolist() == [True, False, False]
    assert mutated.n_fundamental == 1


def test_round_zero_ties_are_decided_exactly_by_both_rules():
    # every bank's return at exactly -worth, one ulp below and one ulp above:
    # one bank per row, then all banks at once in a random mix of the three.
    # 0, 1, 2 and 4 lend; 3, 5 and 6 only borrow; 7 is isolated
    net = from_edges(8, [(0, 1, 1.0), (0, 2, 0.5), (1, 3, 2.0), (2, 3, 1.0),
                         (4, 5, 0.25), (4, 0, 0.125)])
    assert net.is_lender.any() and not net.is_lender.all()
    worth = np.geomspace(1e-3, 1e6, 8)
    ties = [-worth, np.nextafter(-worth, -np.inf), np.nextafter(-worth, np.inf)]
    pick = np.random.default_rng(5).integers(0, 3, size=(30, 8))
    returns = np.concatenate([*map(np.diag, ties), np.choose(pick, ties)])
    below = returns < -worth
    assert below.sum(axis=1)[:24].tolist() == [0] * 8 + [1] * 8 + [0] * 8
    for step in _both_rules(net, worth, returns):
        assert np.array_equal(step == 0, below)
    _assert_batch_rows_match_oracle(net, worth, returns)


def test_row_functions_and_engines_leave_every_argument_unchanged():
    net, worth, returns = _case_c_rows(150, 20, seed=3)
    worth = worth.copy()  # a sheet column, which is frozen
    thresholds = _coupled_thresholds(net, worth + returns)
    flips = thresholds < 0
    flips |= np.random.default_rng(3).random(flips.shape) < 0.1  # lenders' flips are not read
    assert ((thresholds < 0) & net.is_lender).any()  # lenders that fail at round 0
    sheets = sheets_from_worth(worth.copy(), net.interbank_assets)
    calls = [(balance_rows, worth + returns), (threshold_rows, thresholds)]
    for t in range(3):
        calls += [(run_balance_cascade, sheets, returns[t]),
                  (run_threshold_cascade, thresholds[t], flips[t])]
    for fn, *args in calls:
        arrays = [a for a in args if isinstance(a, np.ndarray)]
        assert all(a.flags.writeable for a in arrays)
        before = [a.copy() for a in arrays]
        fn(net, *args)
        for a, b in zip(arrays, before):
            assert np.array_equal(a, b, equal_nan=True), fn.__name__


def test_round_zero_tie_survives_in_the_sweep_path(monkeypatch):
    cfg = ExperimentConfig(
        n_banks=12, capital_ratio=0.1, default_prob=0.01, case="A", model="both-coupled",
        degree_grid=(2.0,), networks_per_degree=1, trials_per_network=20,
        crisis_cutoff=0.05, master_seed=3,
    )
    net, _, _, sheets = _cell_inputs(cfg, 0, 0)
    lender = int(np.flatnonzero(net.interbank_assets > 0)[0])
    tied = []

    def tied_returns(z, sheets):
        returns = shock_returns(z, sheets)  # scales z in place
        returns[:, lender] = -sheets.net_worth[lender]
        tied.append(returns.copy())
        return returns

    monkeypatch.setattr(experiment, "shock_returns", tied_returns)
    out = next(_cell_steps(cfg, 0, 0, range(20)))
    (returns,) = tied
    survived = 0
    for t, row in enumerate(returns):
        ref = brute_force_fixed_point(net, sheets, row)
        survived += ref[lender] < 0
        for m in ("bs", "threshold"):
            assert out[m][t].tolist() == ref.tolist(), (m, t)
    assert survived  # the tie is decided, not masked by a defaulted borrower


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
    # onto trial 3's. run_trial runs one trial, whatever the sweep's size
    cfg = ExperimentConfig(
        n_banks=250, capital_ratio=0.1, default_prob=0.01, case="C", model=model,
        degree_grid=(3.0,), networks_per_degree=1, trials_per_network=2**32 + 4,
        crisis_cutoff=0.05, master_seed=21,
    )
    net, params, thetas, sheets = _cell_inputs(cfg, 0, 0)
    returns = {}
    for ti in (2**32 + 3, 3):
        shocks = draw_shocks(sheets, stream_rng(21, STREAM_SHOCKS, 0, 0, ti))
        refs = {"bs": run_balance_cascade(net, sheets, shocks)}
        if model == "both-coupled":
            thresholds, flips = thresholds_from_shocks(net, sheets, shocks)
        else:
            thresholds, flips = draw_thresholds(
                net, params, thetas, stream_rng(21, STREAM_THRESHOLDS, 0, 0, ti))
        refs["threshold"] = run_threshold_cascade(net, thresholds, flips)
        got = run_trial(cfg, 0, 0, ti)
        for m, ref in refs.items():
            assert got[m].same_outcome(ref), (m, ti)
        returns[ti] = shocks
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
        out = next(_cell_steps(cfg, zi, 0, range(cfg.trials_per_network)))
        assert set(out) == set(_models_run(model))
        for m, step in out.items():
            for ti in range(cfg.trials_per_network):
                assert run_trial(cfg, zi, 0, ti)[m].step.tolist() == step[ti].tolist(), (m, ti)


# -- the batched kernel against the brute-force oracle, row by row ------------

def _assert_batch_rows_match_oracle(net, worth, returns):
    """Propagate every row of ``returns`` in one batch through both engines'
    row functions, once as balance-sheet inputs and once through the coupled
    threshold mapping, and compare each row with
    :func:`brute_force_fixed_point` on that row's draw. The oracle shares no
    propagation code with the kernel."""
    worth = np.asarray(worth, dtype=np.float64)
    returns = np.asarray(returns, dtype=np.float64)
    sheets = sheets_from_worth(worth, net.interbank_assets)

    bs = balance_rows(net, worth + returns)
    thr = threshold_rows(net, _coupled_thresholds(net, worth + returns))

    for t, row in enumerate(returns):
        ref = brute_force_fixed_point(net, sheets, row)
        for step in (bs, thr):
            assert step[t].tolist() == ref.tolist(), f"row {t}"


def _kernel_probe_rows():
    """(net, worth, returns): six trials of a 12-bank network, each probing
    one corner of the kernel."""
    # 1 and 2 borrow from 0; the chain 10 -> 9 -> 0 carries a cascade on.
    # 3 lends 0.1, 0.2, 0.3, 0.4 (exactly 1.0 in all, so its thresholds
    # equal its margins) to 4..7. 11 is isolated; a non-lender's entry is
    # read only by its sign, so it cannot flip after round 0.
    net = from_edges(12, [(0, 1, 1.0), (0, 2, 1.0), (9, 0, 1.0), (10, 9, 1.0),
                          (3, 4, 0.1), (3, 5, 0.2), (3, 6, 0.3), (3, 7, 0.4)])
    assert net.interbank_assets[3] == 1.0
    worth = np.ones(12)
    worth[0], worth[3], worth[9], worth[10] = 1.5, 0.6, 0.5, 0.5
    # in floats, bank 3's test after 4, 5 and 6 fail together would depend
    # on the order of the three additions; in loan units it cannot
    assert (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)

    returns = np.zeros((6, 12))
    returns[0, [1, 2]] = -2.0  # 0 is hit twice in one superstep; 3 rounds
    # row 1: no initial default, between two active rows
    returns[2, [4, 5, 6]] = -2.0  # the accumulation-order probe
    returns[3, [1, 2]] = -2.0
    returns[3, 9] = 1.0  # the same start as row 0, but the chain stops at 9
    returns[4, [11, 7]] = -2.0  # an isolated failure and a lone 0.4 loss
    returns[5, [1, 4, 5, 6]] = -2.0
    return net, worth, returns


def _borrower_order_rows():
    """(net, worth, returns): the accumulation-order probe of
    :func:`_kernel_probe_rows`, moved off the initial frontier."""
    # 4, 5 and 6 lend to 8 and fail together in superstep 1, so lender 3
    # takes its 0.1, 0.2 and 0.3 losses in one later superstep. Their exact
    # sum exceeds fl(0.6), as one float order says and the other does not
    net = from_edges(9, [(3, 4, 0.1), (3, 5, 0.2), (3, 6, 0.3), (3, 7, 0.4),
                         (4, 8, 1.0), (5, 8, 1.0), (6, 8, 1.0)])
    assert (0.1 + 0.2) + 0.3 > 0.6 >= (0.3 + 0.2) + 0.1
    worth = np.ones(9)
    worth[3] = 0.6
    returns = np.zeros((2, 9))
    returns[:, 8] = -2.0  # 8 fails at round 0 in both rows
    returns[0, [4, 5, 6]] = -0.5  # in row 1, 4, 5 and 6 sit on an exact tie and survive
    return net, worth, returns


def test_batch_kernel_rows_equal_per_trial_engines():
    _assert_batch_rows_match_oracle(*_kernel_probe_rows())


def test_batch_kernel_adds_in_borrower_order_after_round_zero():
    _assert_batch_rows_match_oracle(*_borrower_order_rows())


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


# rows per kernel block: one, 4 (a 4 + 2 split of a six-trial batch), all
@pytest.mark.parametrize("rows", [1, 4, None])
def test_kernel_blocks_leave_every_step_and_input_unchanged(monkeypatch, rows):
    cases = [_kernel_probe_rows(), _borrower_order_rows(), _case_c_rows(150, 200, seed=11)]
    want = [_both_rules(*case) for case in cases]  # a single block each
    kernel = balance_cascade.balance_rows

    def kernel_keeping_its_inputs(net, margin):
        margin_before = margin.copy()
        step = kernel(net, margin)
        assert np.array_equal(margin, margin_before, equal_nan=True)
        return step

    monkeypatch.setattr(balance_cascade, "balance_rows", kernel_keeping_its_inputs)
    monkeypatch.setattr(threshold_cascade, "balance_rows", kernel_keeping_its_inputs)
    for (net, worth, returns), steps in zip(cases, want):
        block_rows = len(returns) if rows is None else rows
        monkeypatch.setattr(balance_cascade, "_BLOCK_KEYS", block_rows * net.n_nodes)
        for got, w in zip(_both_rules(net, worth, returns), steps):
            assert got.dtype == w.dtype and np.array_equal(got, w)
        assert np.array_equal(*steps)
    assert (want[2][0].max(axis=1) > 0).sum() > 100  # most case-C rows spread defaults


def _tie_dense_margins(z, trials, seed):
    """(net, margin): case-A margins rounded to integers, rint(w + 3r)
    (ROADMAP item 11). Float loan weights fl(1/k) summed against fl(m/k)
    parted the coupled engines mid-cascade on most of these trials."""
    theta_dist, loan_dist = case_presets("A")
    rng = np.random.default_rng(seed)
    net = generate_er(1000, z, loan_dist, rng)
    sheets = build_sheets(net, BalanceParams(0.1, 0.01, theta_dist), rng_seed=rng)
    returns = shock_returns(rng.standard_normal((trials, 1000)), sheets)
    return net, np.rint(sheets.net_worth + 3.0 * returns)


def _margin_rows():
    """(net, margin) inputs for kernel calls: the probe rows, case-C rows,
    tie-dense rows, the subnormal corner and a 128-bank lending chain."""
    margins = [(net, worth + returns) for net, worth, returns in
               (_kernel_probe_rows(), _borrower_order_rows(), _case_c_rows(150, 200, seed=11))]
    margins += [_tie_dense_margins(z, 60, seed=int(z)) for z in (2.0, 4.0)]
    # a negative subnormal margin: fl(m / L) is -0.0, but K is -1
    margins.append((from_edges(2, [(0, 1, 3.0)]), np.array([[-5e-324, 1.0]])))
    # a 128-bank lending chain: round 127 is the last an int8 step holds
    chain = np.full((1, 128), 0.5)
    chain[0, -1] = -0.5
    margins.append((from_edges(128, [(i, i + 1, 1.0) for i in range(127)]), chain))
    return margins


def _coupled_sweep_chunk(monkeypatch, net, margin):
    """(steps, buffer): the sweep's coupled chunk (:func:`_cell_steps`) on
    ``net``, its draw replaced by the given margin rows and net worth 0, and
    the chunk's buffer rows after the kernel ran on them."""
    cfg = ExperimentConfig(
        n_banks=net.n_nodes, capital_ratio=0.1, default_prob=0.01, case="A",
        model="both-coupled", degree_grid=(0.0,), networks_per_degree=1,
        trials_per_network=len(margin), crisis_cutoff=0.05, master_seed=0,
    )
    buffers = []

    def draw(rngs, n_rows, n, out):
        buffers.append(out)
        return np.copyto(out, margin) or out

    monkeypatch.setattr(experiment, "generate_er", lambda *args: net)
    monkeypatch.setattr(experiment, "build_sheets",
                        lambda *args, **kwargs: SimpleNamespace(net_worth=0.0))
    monkeypatch.setattr(experiment, "draw_rows", draw)
    monkeypatch.setattr(experiment, "shock_returns", lambda z, sheets: z)
    (steps,) = _cell_steps(cfg, 0, 0, range(len(margin)))
    (buffer,) = buffers
    return steps, buffer


# rows per kernel block: one, four, all
@pytest.mark.parametrize("rows", [1, 4, None])
def test_kernel_blocks_part_the_mutant_and_give_the_coupled_chunk_its_steps(monkeypatch, rows):
    # each margin and the mutant coupled map's rows, and their steps in a
    # single block each
    pairs = [(net, (margin, lowered_margin(net, margin))) for net, margin in _margin_rows()]
    want = [[balance_rows(net, rows_in) for rows_in in pair] for net, pair in pairs]
    parted = 0
    for (net, (margin, lowered)), steps in zip(pairs, want):
        monkeypatch.setattr(balance_cascade, "_BLOCK_KEYS",
                            (len(margin) if rows is None else rows) * net.n_nodes)
        for rows_in, w in zip((margin, lowered), steps):
            rows_before = rows_in.copy()
            got = balance_rows(net, rows_in)
            assert np.array_equal(rows_in, rows_before)
            assert got.dtype == w.dtype and np.array_equal(got, w)
        # the sweep's coupled chunk propagates its margin once, for both engines
        coupled, buffer = _coupled_sweep_chunk(monkeypatch, net, margin)
        assert coupled["threshold"] is coupled["bs"]
        assert coupled["bs"].dtype == steps[0].dtype and np.array_equal(coupled["bs"], steps[0])
        assert np.array_equal(buffer, margin)
        parted += int((steps[0] != steps[1]).any(axis=1).sum())
    assert parted > 10  # the mutant parts from the margin: the comparison is not vacuous


# rows per kernel block: one, all
@pytest.mark.parametrize("rows", [1, None])
def test_scan_and_gather_frontiers_give_one_answer(monkeypatch, rows):
    inputs = _margin_rows() + [(net, margin) for net, margin, _ in _object_unit_rows()]
    by_path = []
    # a bound above every block's size scans at every superstep, then one
    # below it gathers at every superstep
    for scan_keys in (1 << 62, -1):
        monkeypatch.setattr(balance_cascade, "_SCAN_KEYS", scan_keys)
        steps = []
        for net, margin in inputs:
            monkeypatch.setattr(balance_cascade, "_BLOCK_KEYS",
                                (len(margin) if rows is None else rows) * net.n_nodes)
            steps.append(balance_rows(net, margin))
        by_path.append(steps)
    for scanned, gathered in zip(*by_path):
        assert scanned.dtype == gathered.dtype and np.array_equal(scanned, gathered)
    dtypes = {net.in_loan_units.dtype for net, _ in inputs}
    assert dtypes == {np.dtype(np.int8), np.dtype(np.int64), np.dtype(object)}
    assert sum(int((s.max(axis=1) > 1).sum()) for s in by_path[0]) > 100  # cascades


@pytest.mark.parametrize("case", ["A", "C"])
def test_one_row_blocks_match_the_same_rows_in_one_block(monkeypatch, case):
    # above _BLOCK_KEYS banks every block is one row, whose keys are bank ids
    # with no row offset; int8 units in case A, int64 in case C
    theta_dist, loan_dist = case_presets(case)
    rng = np.random.default_rng(140)
    n = 140_000
    net = generate_er(n, 1.5, loan_dist, rng)
    sheets = build_sheets(net, BalanceParams(0.1, 0.01, theta_dist), rng_seed=rng)
    margin = sheets.net_worth + shock_returns(rng.standard_normal((3, n)), sheets)
    assert n > balance_cascade._BLOCK_KEYS
    one_row = balance_rows(net, margin)
    monkeypatch.setattr(balance_cascade, "_BLOCK_KEYS", margin.size)
    one_block = balance_rows(net, margin)
    assert one_row.dtype == one_block.dtype and np.array_equal(one_row, one_block)
    assert net.in_loan_units.dtype == {"A": np.int8, "C": np.int64}[case]
    assert (one_row.max(axis=1) > 50).all()  # every row spreads defaults


def test_sign_corners_keep_each_engines_own_steps(monkeypatch):
    (*_, (corner, corner_margin), (chain, chain_margin)) = _margin_rows()
    # the subnormal corner: fl(m / L) underflows to -0.0, yet both sweep
    # engines default at round 0, as the balance rule and the exact oracle say
    steps, _ = _coupled_sweep_chunk(monkeypatch, corner, corner_margin)
    assert [steps[m].tolist() for m in ("bs", "threshold")] == [[[0, -1]]] * 2
    sheets = sheets_from_worth(corner_margin[0], corner.interbank_assets)
    assert brute_force_fixed_point(corner, sheets, np.zeros(2)).tolist() == [0, -1]
    assert balance_rows(corner, corner_margin).tolist() == [[0, -1]]
    # so does the public coupled pair: its threshold stays negative
    assert run_balance_cascade(corner, sheets, np.zeros(2)).step.tolist() == [0, -1]
    thresholds, flips = thresholds_from_shocks(corner, sheets, np.zeros(2))
    assert thresholds[0] < 0
    assert run_threshold_cascade(corner, thresholds, flips).step.tolist() == [0, -1]
    # fraction thresholds: a negative subnormal t flips at round 0 even where
    # fl(t * L) underflows to -0.0 (L = 0.5); -0.0 itself is not negative, and
    # a positive subnormal t flips on any loss
    half = from_edges(2, [(0, 1, 0.5)])
    rows = np.array([[-5e-324, 1.0], [-0.0, 1.0], [5e-324, -1.0]])
    assert threshold_rows(half, rows).tolist() == [[0, -1], [-1, -1], [1, 0]]
    flips = np.zeros(2, dtype=bool)
    assert run_threshold_cascade(half, np.array([-5e-324, np.nan]), flips).step.tolist() == [0, -1]
    step = balance_rows(chain, chain_margin)
    assert step.dtype == np.int8
    assert step.tolist() == [list(range(127, -1, -1))]


def test_a_non_lenders_round_zero_is_the_sign_of_its_entry_alone():
    # a non-lender receives no exposure, so the kernel reads its entry only by
    # sign, at round 0: each special value acts as -1.0 if negative, else as
    # +1.0 (-0.0 is not negative)
    specials = np.array([-np.inf, -1e300, -5e-324, -0.0, 0.0, 5e-324, 1e300, np.inf])
    spread = 0
    for net, worth, returns in (_kernel_probe_rows(), _case_c_rows(150, 200, seed=11)):
        inactive = ~net.is_lender
        rows = worth + returns
        pick = np.random.default_rng(7).integers(0, specials.size, size=rows.shape)
        rows[:, inactive] = specials[pick[:, inactive]]
        signs = np.where(inactive & (rows < 0), -1.0, np.where(inactive, 1.0, rows))
        step, by_sign = balance_rows(net, rows), balance_rows(net, signs)
        assert np.array_equal(step, by_sign)
        assert np.array_equal(step[:, inactive] == 0, rows[:, inactive] < 0)
        spread += (step.max(axis=1) > 0).sum()
    assert spread  # non-lender flips spread defaults: the comparison is not vacuous


def test_kernel_memory_is_flat_in_the_trial_count():
    # case A at z = 4 sits inside the crisis window, so nearly every trial
    # cascades through most of the network; a kernel whose exposure, mask
    # and edge temporaries span all 3000 trials peaks at ~81 MiB here
    theta_dist, loan_dist = case_presets("A")
    rng = np.random.default_rng(4)
    net = generate_er(1000, 4.0, loan_dist, rng)
    sheets = build_sheets(net, BalanceParams(0.1, 0.01, theta_dist), rng_seed=rng)
    returns = shock_returns(rng.standard_normal((3000, 1000)), sheets)
    thresholds = sheets.net_worth + returns
    del returns
    # build the cached indexes untraced
    net.in_degree, net.in_indptr, net.in_lender, net.in_loan_units
    tracemalloc.start()
    try:
        step = balance_rows(net, thresholds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (step.max(axis=1) > 10).mean() > 0.9
    assert peak - step.nbytes <= 16 * 2**20


# -- sweep rows on small nets against references that share no code ----------

def _naive_threshold_fixed_point(net, thresholds, inactive_flips):
    """Sampled-threshold cascade by exhaustive re-evaluation in plain Python:
    a lender flips once the loan-weighted share of its flipped borrowers
    strictly exceeds its threshold; a non-lender flips only at round 0.
    Returns each bank's flip round, -1 for never."""
    n = net.n_nodes
    loans = {i: [] for i in range(n)}
    for i, j, a in zip(net.lender.tolist(), net.borrower.tolist(), net.loan_size.tolist()):
        loans[i].append((j, a))
    lent = {i: sum(a for _, a in loans[i]) for i in range(n)}
    flipped = [bool(thresholds[i] < 0) if lent[i] > 0 else bool(inactive_flips[i])
               for i in range(n)]
    step = [0 if f else -1 for f in flipped]
    rounds = 0
    while True:
        new = list(step)
        for i in range(n):
            if step[i] >= 0 or not lent[i] > 0:
                continue
            share = 0.0
            for j, amount in loans[i]:
                if step[j] >= 0:
                    share += amount / lent[i]
            if share > thresholds[i]:
                new[i] = rounds + 1
        if new == step:
            return step
        rounds += 1
        step = new


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
            net, params, thetas, sheets = _cell_inputs(cfg, zi, ni)
            out = next(_cell_steps(cfg, zi, ni, range(T)))
            for ti in range(T):
                refs = {}
                if model != "threshold":
                    rng = stream_rng(seed, STREAM_SHOCKS, zi, ni, ti)
                    shocks = rng.normal(0.0, sheets.return_std)
                    refs["bs"] = brute_force_fixed_point(net, sheets, shocks).tolist()
                    if model == "both-coupled":
                        refs["threshold"] = refs["bs"]
                if model in ("threshold", "both-independent"):
                    rng = stream_rng(seed, STREAM_THRESHOLDS, zi, ni, ti)
                    ratio = params.capital_ratio / thetas
                    thresholds = rng.normal(ratio, ratio / abs(params.default_quantile))
                    flips = rng.random(cfg.n_banks) < params.default_prob
                    refs["threshold"] = _naive_threshold_fixed_point(net, thresholds, flips)
                assert set(refs) == set(out)
                for m, step in refs.items():
                    assert out[m][ti].tolist() == step, (m, zi, ni, ti)
                    contagious += max(step) > 0
    assert contagious >= 10  # the comparison is not vacuous


# -- exact flips at float ties (ROADMAP items 2 and 8) ------------------------

def _near_tie_margins(total, ulps=4):
    """The 2 * ulps + 1 floats from ``ulps`` below ``total`` to ``ulps`` above."""
    below, above = [total], [total]
    for _ in range(ulps):
        below.insert(0, np.nextafter(below[0], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    return np.array(below[:-1] + above)


def test_equal_loans_against_near_tie_margins_match_the_exact_oracle(monkeypatch):
    # bank 0 lends k equal loans of a to banks 1..k, which all fail at round
    # 0; its margin sits within 4 ulps of fl(k * a). 540 probes: the float
    # kernel got 43 of them wrong in the balance engine alone
    probes = agree = defaulted = 0
    for k in range(2, 12):
        for a in (0.1, 0.2, 0.3, 0.37, 0.7, 1.1):
            net = from_edges(k + 1, [(0, j, a) for j in range(1, k + 1)])
            margin = np.full((9, k + 1), -1.0)
            margin[:, 0] = _near_tie_margins(k * a)
            steps, _ = _coupled_sweep_chunk(monkeypatch, net, margin)
            bs = balance_rows(net, margin)
            for t, row in enumerate(margin):
                sheets = sheets_from_worth(row, net.interbank_assets)
                want = brute_force_fixed_point(net, sheets, np.zeros(k + 1)).tolist()
                got = [bs[t].tolist(), steps["bs"][t].tolist(), steps["threshold"][t].tolist()]
                agree += got == [want] * 3
                defaulted += want[0] == 1
                probes += 1
    assert agree == probes == 540
    assert 0 < defaulted < probes  # the margins straddle the exact sums


_TIE_LOANS = (0.1, 0.2, 0.3, 0.37, 0.7, 1.1)


@st.composite
def _near_tie_instances(draw):
    """(net, margin): 3-12 banks lending loans from ``_TIE_LOANS`` or case
    C's range, a random set that fails at round 0, and every other lender's
    margin within 4 ulps of the float nearest its exact loss to that set."""
    n = draw(st.integers(3, 12))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=3 * n, unique=True))
    loan = st.sampled_from(_TIE_LOANS) if draw(st.booleans()) else st.floats(0.2, 1.8)
    edges = [(i, j, draw(loan)) for i, j in edges]
    failed = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    margin = np.where(failed, -1.0, 1.0)
    for bank in {i for i, _, _ in edges} - {i for i in range(n) if failed[i]}:
        exact = sum(Fraction(a) for i, j, a in edges if i == bank and failed[j])
        ulps = draw(st.integers(-4, 4))
        margin[bank] = float(exact)
        for _ in range(abs(ulps)):
            margin[bank] = np.nextafter(margin[bank], np.copysign(np.inf, ulps))
    return from_edges(n, edges), margin


@settings(max_examples=200, deadline=None)
@given(_near_tie_instances())
def test_margins_near_a_tie_match_the_exact_oracle(instance):
    net, margin = instance
    sheets = sheets_from_worth(margin, net.interbank_assets)
    returns = np.zeros(net.n_nodes)
    want = brute_force_fixed_point(net, sheets, returns)
    assert run_balance_cascade(net, sheets, returns).step.tolist() == want.tolist()


def _raised(margin, rng):
    """``margin`` with 30% of its entries raised by |N(0, 0.2)|."""
    lift = np.abs(rng.normal(0.0, 0.2, margin.shape))
    return np.where(rng.random(margin.shape) < 0.3, margin + lift, margin)


def test_raising_margins_never_adds_or_hastens_a_default():
    # monotonicity (ROADMAP item 8): a raised row's defaults are a subset of
    # the original's, and none comes earlier
    rng = np.random.default_rng(17)
    margins = [_tie_dense_margins(z, 50, seed=int(z) + 30) for z in (2.0, 4.0, 6.0)]
    for case in ("A", "C"):
        theta_dist, loan_dist = case_presets(case)
        for z in (2.0, 4.0, 6.0):
            net = generate_er(1000, z, loan_dist, rng)
            sheets = build_sheets(net, BalanceParams(0.1, 0.01, theta_dist), rng_seed=rng)
            returns = shock_returns(rng.standard_normal((50, 1000)), sheets)
            margins.append((net, sheets.net_worth + 3.0 * returns))
    removed = 0
    for net, margin in margins:
        step, raised = balance_rows(net, margin), balance_rows(net, _raised(margin, rng))
        assert np.all((raised < 0) | ((step >= 0) & (step <= raised)))
        removed += int(np.count_nonzero((step >= 0) & (raised < 0)))
    assert removed > 1000  # raising removes defaults: the comparison is not vacuous


def _relabelled(net, perm):
    """``net`` with bank i renamed perm[i]."""
    return from_edges(net.n_nodes, zip(perm[net.lender], perm[net.borrower], net.loan_size))


def test_relabelling_the_banks_relabels_every_step(monkeypatch):
    # renaming banks changes the order of every sum but no exact one, so
    # each bank keeps its step under its new name, near ties included
    pair = from_edges(4, [(0, 1, 0.1), (0, 2, 0.2), (0, 3, 0.3)])
    pair_margin = np.array([[0.6, -1.0, -1.0, -1.0]])
    cases = [(pair, pair_margin, np.array([0, 3, 2, 1]))]  # the loans' order reversed
    probe_net, probe_worth, probe_returns = _kernel_probe_rows()
    case_c_net, case_c_worth, case_c_returns = _case_c_rows(150, 40, seed=5)
    for net, margin in (_tie_dense_margins(4.0, 30, seed=9),
                        (probe_net, probe_worth + probe_returns),
                        (case_c_net, case_c_worth + case_c_returns)):
        cases.append((net, margin, np.random.default_rng(5).permutation(net.n_nodes)))
    contagious = 0
    for net, margin, perm in cases:
        renamed, renamed_margin = _relabelled(net, perm), np.empty_like(margin)
        renamed_margin[:, perm] = margin
        want = balance_rows(net, margin)
        for got in (balance_rows(renamed, renamed_margin),
                    *_coupled_sweep_chunk(monkeypatch, renamed, renamed_margin)[0].values()):
            assert np.array_equal(got[:, perm], want)
        contagious += int((want.max(axis=1) > 0).sum())
    assert balance_rows(pair, pair_margin).tolist() == [[1, 0, 0, 0]]  # 0.1 + 0.2 + 0.3 > 0.6
    assert contagious > 20


def _object_unit_rows():
    """(net, margin, want) for networks whose loan units are Python ints:
    loans of 4 and 2**-61, a lender's total of 2**63 + 1 units of 2**-61
    (the small loan decides the ties that fl(4 + 2**-61) = 4.0 would hide),
    with its exact steps; and an 80-bank network of 800 loans from
    [0.001, 1.8], whose smallest loan is some 2**11 times below the largest
    total, so U passes 2**63 (``want`` None)."""
    net = from_edges(3, [(0, 1, 4.0), (0, 2, 2.0**-61)])
    margin = np.array([[4.0, -1.0, -1.0], [4.0, -1.0, 1.0], [2.0**-62, 1.0, -1.0],
                       [2.0**-61, 1.0, -1.0], [-2.0**-70, 1.0, 1.0], [5.0, -1.0, -1.0]])
    want = [[1, 0, 0], [-1, 0, -1], [1, -1, 0], [-1, -1, 0], [0, -1, -1], [-1, 0, 0]]
    loans = LoanSizeDistribution.uniform(0.001, 1.8)
    wide = generate_er(80, 10.0, loans, np.random.default_rng(4))
    wide_margin = np.random.default_rng(5).uniform(-0.5, 3.0, size=(20, 80))
    return [(net, margin, want), (wide, wide_margin, None)]


def test_loan_unit_totals_beyond_int64_stay_exact():
    (net, margin, want), (wide, wide_margin, _) = _object_unit_rows()
    assert (net.loan_unit_exponent, net.in_loan_units.dtype) == (61, object)
    for row, steps in zip(margin, want):
        sheets = sheets_from_worth(row, net.interbank_assets)
        assert brute_force_fixed_point(net, sheets, np.zeros(3)).tolist() == steps
    assert balance_rows(net, margin).tolist() == want
    assert threshold_rows(net, margin / np.where(net.is_lender, 4.0, 1.0)).tolist() == want
    assert wide.in_loan_units.dtype == object
    steps = balance_rows(wide, wide_margin)
    for t, row in enumerate(wide_margin):
        sheets = sheets_from_worth(row, wide.interbank_assets)
        async_flips = run_balance_cascade_async(wide, sheets, np.zeros(80), t)
        assert np.array_equal(steps[t] >= 0, async_flips)
    assert (steps.max(axis=1) > 0).sum() > 5  # cascades: the comparison is not vacuous
    # loans of 2 and 2**-61 total 2**62 + 1 units: still int64
    net = from_edges(3, [(0, 1, 2.0), (0, 2, 2.0**-61)])
    assert net.in_loan_units.dtype == np.int64
    assert balance_rows(net, np.array([[2.0, -1.0, -1.0]])).tolist() == [[1, 0, 0]]
    # a total beyond float range, in units of 2**-1074, raises
    with pytest.raises(OverflowError):
        balance_rows(from_edges(3, [(0, 1, 1.0), (0, 2, 5e-324)]), np.zeros((1, 3)))
