"""The central property: the two engines are the same model.

Mapping one concrete shock draw into flip thresholds must reproduce the
balance-sheet cascade exactly: the same bank defaults in the same round, on
every instance. Both engines return a step matrix, one row per trial, with
each bank's default round (-1 for never), and the tests compare whole rows.
"""
import tracemalloc
from dataclasses import fields, replace

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
)
from bankcascades.experiment import (
    MODELS,
    ExperimentConfig,
    _batch_outcomes,
    _models_run,
    _network_inputs,
    case_presets,
    run_trial,
)
from bankcascades.rng import STREAM_SHOCKS, STREAM_THRESHOLDS, draw_rows, stream_rng
from bankcascades.threshold_cascade import coupled_rows, threshold_rows

from conftest import sheets_from_worth


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


def _both_rules(net, worth, returns):
    return balance_rows(net, worth, returns), threshold_rows(net, *coupled_rows(net, worth, returns))


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

    def doubled_flips(rngs, n_rows, n, flip_prob=None):
        flip_prob = None if flip_prob is None else 2 * flip_prob
        return draw_rows(rngs, n_rows, n, flip_prob)

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


def test_round_zero_tie_survives_in_the_sweep_path(monkeypatch):
    cfg = ExperimentConfig(
        n_banks=12, capital_ratio=0.1, default_prob=0.01, case="A", model="both-coupled",
        degree_grid=(2.0,), networks_per_degree=1, trials_per_network=20,
        crisis_cutoff=0.05, master_seed=3,
    )
    net, params, thetas, sheets = _network_inputs(cfg, 0, 0)
    lender = int(np.flatnonzero(net.interbank_assets > 0)[0])
    tied = []

    def tied_returns(z, sheets):
        returns = shock_returns(z, sheets)  # scales z in place
        returns[:, lender] = -sheets.net_worth[lender]
        tied.append(returns.copy())
        return returns

    monkeypatch.setattr(experiment, "shock_returns", tied_returns)
    out = _batch_outcomes(cfg, net, params, thetas, sheets, 0, 0, range(20))
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
    net, params, thetas, sheets = _network_inputs(cfg, 0, 0)
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
        net, params, thetas, sheets = _network_inputs(cfg, zi, 0)
        out = _batch_outcomes(cfg, net, params, thetas, sheets, zi, 0,
                              range(cfg.trials_per_network))
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

    bs = balance_rows(net, worth, returns)
    thr = threshold_rows(net, *coupled_rows(net, worth, returns))

    for t, row in enumerate(returns):
        ref = brute_force_fixed_point(net, sheets, row)
        for step in (bs, thr):
            assert step[t].tolist() == ref.tolist(), f"row {t}"


def _kernel_probe_rows():
    """(net, worth, returns): six trials of a 12-bank network, each probing
    one corner of the kernel."""
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
    return net, worth, returns


def _borrower_order_rows():
    """(net, worth, returns): the accumulation-order probe of
    :func:`_kernel_probe_rows`, moved off the initial frontier."""
    # 4, 5 and 6 lend to 8 and fail together in superstep 1, so lender 3
    # takes its 0.1, 0.2 and 0.3 losses in one later superstep
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
    kernel = balance_cascade._batch_propagate

    def kernel_keeping_its_inputs(net, start, thresholds, edge_amount):
        start_before, thresholds_before = start.copy(), thresholds.copy()
        step = kernel(net, start, thresholds, edge_amount)
        assert np.array_equal(start, start_before)
        assert np.array_equal(thresholds, thresholds_before, equal_nan=True)
        return step

    monkeypatch.setattr(balance_cascade, "_batch_propagate", kernel_keeping_its_inputs)
    monkeypatch.setattr(threshold_cascade, "_batch_propagate", kernel_keeping_its_inputs)
    for (net, worth, returns), steps in zip(cases, want):
        block_rows = len(returns) if rows is None else rows
        monkeypatch.setattr(balance_cascade, "_BLOCK_KEYS", block_rows * net.n_nodes)
        for got, w in zip(_both_rules(net, worth, returns), steps):
            assert got.dtype == w.dtype and np.array_equal(got, w)
        assert np.array_equal(*steps)
    assert (want[2][0].max(axis=1) > 0).sum() > 100  # most case-C rows spread defaults


def test_kernel_memory_is_flat_in_the_trial_count():
    # case A at z = 4 sits inside the crisis window, so nearly every trial
    # cascades through most of the network; a kernel whose exposure, mask
    # and edge temporaries span all 3000 trials peaks at ~81 MiB here
    theta_dist, loan_dist = case_presets("A")
    rng = np.random.default_rng(4)
    net = generate_er(1000, 4.0, loan_dist, rng)
    sheets = build_sheets(net, BalanceParams(0.1, 0.01, theta_dist), rng_seed=rng)
    returns = shock_returns(rng.standard_normal((3000, 1000)), sheets)
    start, thresholds = returns < -sheets.net_worth, sheets.net_worth + returns
    del returns
    net.in_degree, net.in_indptr, net.in_lender, net.in_loan  # build the cached indexes untraced
    tracemalloc.start()
    try:
        step = balance_cascade._batch_propagate(net, start, thresholds, net.in_loan)
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
    loans = {i: [(int(j), float(a)) for j, a in zip(*net.borrowers_of(i))] for i in range(n)}
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
            net, params, thetas, sheets = _network_inputs(cfg, zi, ni)
            out = _batch_outcomes(cfg, net, params, thetas, sheets, zi, ni, range(T))
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
