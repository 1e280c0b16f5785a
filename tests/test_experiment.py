import math
import tracemalloc
from concurrent.futures import Future

import numpy as np
import pytest
import scipy.stats

from bankcascades import (
    BalanceParams,
    LoanSizeDistribution,
    ThetaDistribution,
    build_sheets,
    from_edges,
    generate_er,
    run_balance_cascade,
    run_sweep,
    run_trial,
)
from bankcascades import experiment
from bankcascades.balance_cascade import balance_rows
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
    for name in ("n_banks", "networks_per_degree", "trials_per_network", "master_seed"):
        for bad in (2.5, 60.0, "60", None, True):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                _small_cfg(**{name: bad})
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
    step = brute_force_fixed_point(net, sheets, np.zeros(4))
    assert step.tolist() == [-1, -1, -1, -1]


def test_oracle_on_three_bank_chain(chain_net, case_a_params):
    sheets = build_sheets(chain_net, case_a_params, rng_seed=0)
    step = brute_force_fixed_point(chain_net, sheets, np.array([0.0, 0.0, -1.0]))
    assert step.tolist() == [2, 1, 0]  # 2 fails outright, then 1, then 0


def test_oracle_refuses_large_networks(case_a_params):
    net = generate_er(21, 2.0, LoanSizeDistribution.constant(1.0), 0)
    sheets = build_sheets(net, case_a_params, rng_seed=0)
    with pytest.raises(ValueError):
        brute_force_fixed_point(net, sheets, np.zeros(21))


def test_engine_matches_oracle_on_random_instances():
    params = BalanceParams(0.1, 0.01, ThetaDistribution.uniform(0.2, 0.4))
    for seed in range(60):
        rng = np.random.default_rng(777 + seed)
        n = int(rng.integers(2, 11))
        net = generate_er(n, float(rng.uniform(0, n - 1)),
                          LoanSizeDistribution.uniform(0.2, 1.8), rng)
        sheets = build_sheets(net, params, rng_seed=rng)
        shocks = rng.normal(0.0, 3.0 * sheets.return_std)
        fast = run_balance_cascade(net, sheets, shocks)
        assert fast.step.tolist() == brute_force_fixed_point(net, sheets, shocks).tolist()
        alt = run_balance_cascade_async(net, sheets, shocks, rng)
        assert np.array_equal(alt, fast.defaulted)


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


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records the pool size it is asked
    for and runs each task at submit, in this process."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, arg):
        fut = Future()
        fut.set_result(fn(arg))
        return fut


@pytest.mark.parametrize("workers,networks,pool_size", [
    (64, 2, 2), (64, 1, None), (3, 5, 3), (1, 5, None),
])
def test_sweep_pool_is_capped_at_one_process_per_network(workers, networks, pool_size,
                                                           monkeypatch):
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(_InlinePool, "sizes", [])
    cfg = _small_cfg(degree_grid=(2.0,), networks_per_degree=networks, trials_per_network=10)
    seen = []
    rows = run_sweep(cfg, workers=workers, progress=lambda done, total: seen.append(done))
    assert _InlinePool.sizes == ([] if pool_size is None else [pool_size])
    assert seen == [10 * k for k in range(1, networks + 1)]
    monkeypatch.undo()
    assert rows_to_csv(rows) == rows_to_csv(run_sweep(cfg, workers=1))


def test_pooling_matches_per_network_aggregates():
    cfg = _small_cfg()
    rows = run_sweep(cfg)
    for zi, degree in enumerate(cfg.degree_grid):
        cells = [_network_task((cfg, zi, ni))[1] for ni in range(cfg.networks_per_degree)]
        for row in (r for r in rows if r.degree == degree):
            runs = cfg.networks_per_degree * cfg.trials_per_network
            crises = sum(c["tallies"][row.model][0] for c in cells)
            assert row.n_runs == runs
            assert row.n_crises == crises
            assert row.crisis_frequency == crises / runs


@pytest.mark.parametrize("case", experiment.CASES)
@pytest.mark.parametrize("model", experiment.MODELS)
def test_outputs_do_not_depend_on_the_chunk_size(case, model, monkeypatch):
    # 7 trials: 3-row chunks split them 3 + 3 + 1, and the default chunk
    # holds them all. A chunk's row takes one row of the buffer per engine
    # run, so a two-engine chunk takes twice the keys per row.
    cfg = _small_cfg(case=case, model=model, degree_grid=(1.0, 3.0), trials_per_network=7)
    row_keys = len(experiment._models_run(model)) * cfg.n_banks
    batch_outcomes = experiment._batch_outcomes
    csvs, steps = [], []
    for rows in (1, 3, None):
        chunk_keys = experiment._CHUNK_KEYS if rows is None else rows * row_keys
        monkeypatch.setattr(experiment, "_CHUNK_KEYS", chunk_keys)
        seen = {}

        def recording(*args):
            out = batch_outcomes(*args)
            _, _, _, _, _, zi, ni, trials, _ = args
            assert len(trials) == min(chunk_keys // row_keys, 7 - trials.start)
            for m, step in out.items():
                seen.setdefault((zi, ni, m), []).append(step)
            return out

        monkeypatch.setattr(experiment, "_batch_outcomes", recording)
        csvs.append(rows_to_csv(run_sweep(cfg)))
        steps.append({key: np.concatenate(chunks) for key, chunks in seen.items()})
    assert csvs[0] == csvs[1] == csvs[2]
    assert steps[0].keys() == steps[1].keys() == steps[2].keys()
    for key, step in steps[2].items():
        assert step.shape == (7, cfg.n_banks)
        assert np.array_equal(steps[0][key], step) and np.array_equal(steps[1][key], step), key
    monkeypatch.undo()
    for (zi, ni, m), step in steps[2].items():
        for ti in (2, 3, 6):  # the ends of the first 3-row chunk, and the 1-row chunk
            got = run_trial(cfg, zi, ni, ti)[m].step
            assert got.tolist() == step[ti].tolist(), (zi, ni, m, ti)
    assert any(step.max() > 0 for step in steps[2].values())  # some trial spreads defaults


@pytest.mark.parametrize("model", experiment.MODELS)
def test_each_sweep_chunks_steps_are_one_run_calls_on_its_rows(model, monkeypatch):
    # 600 trials at N = 1000: two-engine chunks of 262 + 262 + 76 rows,
    # one-engine chunks of 524 + 76; the last chunk fills the front of the
    # reused buffer. Case C's loans are not unit: the kernel adds int64 loan
    # units
    cfg = ExperimentConfig(
        n_banks=1000, capital_ratio=0.1, default_prob=0.01, case="C", model=model,
        degree_grid=(3.0,), networks_per_degree=1, trials_per_network=600,
        crisis_cutoff=0.05, master_seed=8,
    )
    batch_outcomes, batch_propagate = experiment._batch_outcomes, experiment._batch_propagate
    calls = []

    def recording_kernel(net, rows):
        calls.append([net, rows.copy()])
        return batch_propagate(net, rows)

    def recording_outcomes(*args):
        out = batch_outcomes(*args)
        calls[-1].append(out)
        return out

    monkeypatch.setattr(experiment, "_batch_propagate", recording_kernel)
    monkeypatch.setattr(experiment, "_batch_outcomes", recording_outcomes)
    _network_task((cfg, 0, 0))
    models = experiment._models_run(model)
    chunk = experiment._CHUNK_KEYS // (len(models) * cfg.n_banks)
    assert [len(rows[0]) for _, rows, _ in calls] == [chunk] * (600 // chunk) + [600 % chunk]
    spread = parted = 0
    for net, rows, out in calls:
        assert len(rows) == len(models) and list(out) == list(models)
        for m, run in zip(models, rows):
            want = batch_propagate(net, run[None])[0]
            assert out[m].dtype == want.dtype and np.array_equal(out[m], want), m
            spread += int((want.max(axis=1) > 0).sum())
        if len(models) == 2:
            parted += int((out["bs"] != out["threshold"]).any(axis=1).sum())
    assert spread > 100  # many trials spread defaults: the comparison is not vacuous
    assert (parted > 100) == (model == "both-independent")  # its runs part at round 0


def test_sweep_memory_is_flat_in_the_trial_count():
    # case A at z = 4 sits inside the crisis window, so nearly every trial
    # cascades; one (trials x banks) float64 draw of all 3000 trials would
    # alone take 24 MB
    cfg = ExperimentConfig(
        n_banks=1000, capital_ratio=0.1, default_prob=0.01, case="A", model="both-coupled",
        degree_grid=(4.0,), networks_per_degree=1, trials_per_network=3000,
        crisis_cutoff=0.05, master_seed=4,
    )
    tracemalloc.start()
    try:
        _, result = _network_task((cfg, 0, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result["tallies"]["bs"][0] > 0.9 * cfg.trials_per_network
    assert result["mismatches"] == 0
    assert peak <= 24 * 2**20


def test_single_trial_reproduction():
    cfg = _small_cfg(model="both-coupled")
    res = run_trial(cfg, z_index=1, net_index=1, trial_index=7)
    again = run_trial(cfg, z_index=1, net_index=1, trial_index=7)
    assert res["bs"].same_outcome(again["bs"])
    assert res["threshold"].same_outcome(again["threshold"])
    assert res["mismatch"] is False



@pytest.mark.parametrize("indices,named", [
    ((0, 7, 99), "net_index 7"), ((3, 0, 0), "z_index 3"), ((0, 0, 5), "trial_index 5"),
    ((-1, 0, 0), "z_index -1"), ((0, 0, -1), "trial_index -1"),
])
def test_run_trial_rejects_indices_outside_the_sweep(indices, named):
    # 3 degrees x 1 network x 5 trials
    cfg = _small_cfg(networks_per_degree=1, trials_per_network=5)
    with pytest.raises(ValueError, match=named):
        run_trial(cfg, *indices)

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


def test_coupled_sweep_counts_every_mismatch(monkeypatch):
    # the sweep hands the kernel its margin as one run repeated, so its
    # engines agree by construction. A mutant map that lowers one bank's K by
    # one in the threshold run (x - 1 under unit loans) parts them, and the
    # sweep's count must be the one that two separate one-run kernel calls
    # give on the same rows
    cfg = ExperimentConfig(
        n_banks=1000, capital_ratio=0.1, default_prob=0.01, case="A", model="both-coupled",
        degree_grid=(4.0,), networks_per_degree=1, trials_per_network=300,
        crisis_cutoff=0.05, master_seed=2,
    )
    assert _network_task((cfg, 0, 0))[1]["mismatches"] == 0
    batch_propagate = experiment._batch_propagate
    chunks = []

    def mutant(net, rows):
        assert rows.strides[0] == 0  # one run, repeated
        rows = rows.copy()
        rows[1, :, np.argmax(net.out_degree)] -= 1.0
        chunks.append((net, rows))
        return batch_propagate(net, rows)

    monkeypatch.setattr(experiment, "_batch_propagate", mutant)
    _, result = _network_task((cfg, 0, 0))
    assert [len(rows[0]) for _, rows in chunks] == [262, 38]  # 2**19 keys over two runs
    mismatches = 0
    for net, (margin, lowered) in chunks:
        parted = balance_rows(net, margin) != balance_rows(net, lowered)
        mismatches += int(parted.any(axis=1).sum())
    assert result["mismatches"] == mismatches > 0


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
