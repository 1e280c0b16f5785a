import math
import tracemalloc
from concurrent.futures import Future
from types import SimpleNamespace

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
from bankcascades.results_io import rows_to_csv, write_manifest

from conftest import lowered_margin, sheets_from_worth


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


def test_numpy_degree_grids_are_stored_as_float_tuples(tmp_path):
    # a numpy grid's truth value is ambiguous: the config converts it first
    cfg = _small_cfg(degree_grid=np.arange(0, 2, 0.5))
    assert cfg == _small_cfg(degree_grid=(0.0, 0.5, 1.0, 1.5))
    assert all(type(z) is float for z in cfg.degree_grid)
    write_manifest(cfg, [], tmp_path / "numpy.json", created="t")
    write_manifest(_small_cfg(degree_grid=(0.0, 0.5, 1.0, 1.5)), [], tmp_path / "tuple.json",
                   created="t")
    assert (tmp_path / "numpy.json").read_bytes() == (tmp_path / "tuple.json").read_bytes()
    with pytest.raises(ValueError, match="degree_grid must be nonempty"):
        _small_cfg(degree_grid=np.array([]))


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


def test_exact_oracles_read_only_the_edge_list(case_a_params):
    # the oracles share no index with the engines: on the bare edge list,
    # with none of the network's cached indexes, they give the same answers.
    # Instances as check's oracle suite draws them, then the relabelled pair
    instances = []
    for k in range(12):
        rng = np.random.default_rng(900 + k)
        n = int(rng.integers(2, 11))
        net = generate_er(n, float(rng.uniform(0, n - 1)),
                          case_presets("C" if k % 2 else "A")[1], rng)
        sheets = build_sheets(net, case_a_params, rng_seed=rng)
        instances.append((net, sheets, rng.normal(0.0, 3.0 * sheets.return_std)))
    for loans in ((0.1, 0.2, 0.3), (0.3, 0.2, 0.1)):
        net = from_edges(4, [(0, j, a) for j, a in enumerate(loans, 1)])
        instances.append((net, sheets_from_worth([0.6, 1.0, 1.0, 1.0], net.interbank_assets),
                          np.array([0.0, -2.0, -2.0, -2.0])))
    spread = 0
    for k, (net, sheets, returns) in enumerate(instances):
        bare = SimpleNamespace(n_nodes=net.n_nodes, lender=net.lender, borrower=net.borrower,
                               loan_size=net.loan_size)
        step = brute_force_fixed_point(net, sheets, returns)
        assert brute_force_fixed_point(bare, sheets, returns).tolist() == step.tolist(), k
        assert np.array_equal(run_balance_cascade_async(bare, sheets, returns, k),
                              run_balance_cascade_async(net, sheets, returns, k)), k
        spread += step.max() > 0
    assert spread > 3  # defaults spread: the comparison is not vacuous


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
    # holds them all. Each engine run of a chunk reuses the chunk's rows
    cfg = _small_cfg(case=case, model=model, degree_grid=(1.0, 3.0), trials_per_network=7)
    cell_steps, default_keys = experiment._cell_steps, experiment._CHUNK_KEYS
    csvs, steps = [], []
    for rows, sizes in ((1, [1] * 7), (3, [3, 3, 1]), (None, [7])):
        chunk_keys = default_keys if rows is None else rows * cfg.n_banks
        monkeypatch.setattr(experiment, "_CHUNK_KEYS", chunk_keys)
        seen = {}

        def recording(cfg, zi, ni, trials):
            for out in cell_steps(cfg, zi, ni, trials):
                for m, step in out.items():
                    seen.setdefault((zi, ni, m), []).append(step)
                yield out

        monkeypatch.setattr(experiment, "_cell_steps", recording)
        csvs.append(rows_to_csv(run_sweep(cfg)))
        assert all([len(s) for s in chunks] == sizes for chunks in seen.values())
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
    # 600 trials at N = 1000: chunks of 262 + 262 + 76 rows; every engine
    # run of every chunk draws into the front of one reused buffer, so the
    # recording copies each call's rows. Case C's loans are not unit: the
    # kernel adds int64 loan units
    cfg = ExperimentConfig(
        n_banks=1000, capital_ratio=0.1, default_prob=0.01, case="C", model=model,
        degree_grid=(3.0,), networks_per_degree=1, trials_per_network=600,
        crisis_cutoff=0.05, master_seed=8,
    )
    cell_steps, kernel = experiment._cell_steps, experiment.balance_rows
    calls = []  # each kernel call's network and rows since the last chunk
    chunks = []  # per chunk: its network, each kernel call's rows, its steps
    buffers = set()  # the address of each kernel call's rows

    def recording_kernel(net, rows):
        calls.append((net, rows.copy()))
        buffers.add(rows.__array_interface__["data"][0])
        return kernel(net, rows)

    def recording_cell(*args):
        for out in cell_steps(*args):
            chunks.append((calls[0][0], [rows for _, rows in calls], out))
            calls.clear()
            yield out

    monkeypatch.setattr(experiment, "balance_rows", recording_kernel)
    monkeypatch.setattr(experiment, "_cell_steps", recording_cell)
    _network_task((cfg, 0, 0))
    models = experiment._models_run(model)
    chunk = experiment._CHUNK_KEYS // cfg.n_banks
    assert [len(rows[0]) for _, rows, _ in chunks] == [chunk] * (600 // chunk) + [600 % chunk]
    assert len(buffers) == 1
    spread = parted = 0
    for net, rows, out in chunks:
        # one call per engine run; the coupled margin is propagated once
        assert len(rows) == (1 if model == "both-coupled" else len(models))
        assert list(out) == list(models)
        for m, run in zip(models, rows * len(models)):
            want = kernel(net, run)
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
    # the sweep propagates a coupled chunk's margin once, for both engines,
    # so they agree by construction. A mutant map that lowers one bank's K by
    # one for the threshold engine (K - 1 under unit loans) parts them, and
    # the sweep must count every trial whose two step rows differ
    cfg = ExperimentConfig(
        n_banks=1000, capital_ratio=0.1, default_prob=0.01, case="A", model="both-coupled",
        degree_grid=(4.0,), networks_per_degree=1, trials_per_network=300,
        crisis_cutoff=0.05, master_seed=2,
    )
    assert _network_task((cfg, 0, 0))[1]["mismatches"] == 0
    cell_steps = experiment._cell_steps
    calls, chunks = [], []

    def recording_kernel(net, rows):
        calls.append((net, rows))  # the chunk's margin, left unmodified by the kernel
        return balance_rows(net, rows)

    def mutant(*args):
        for out in cell_steps(*args):
            assert out["threshold"] is out["bs"]  # the margin, propagated once
            ((net, margin),) = calls
            calls.clear()
            out["threshold"] = balance_rows(net, lowered_margin(net, margin))
            chunks.append(out)
            yield out

    monkeypatch.setattr(experiment, "balance_rows", recording_kernel)
    monkeypatch.setattr(experiment, "_cell_steps", mutant)
    _, result = _network_task((cfg, 0, 0))
    assert [len(out["bs"]) for out in chunks] == [262, 38]  # 2**18 keys per chunk
    mismatches = sum(int((out["bs"] != out["threshold"]).any(axis=1).sum()) for out in chunks)
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
