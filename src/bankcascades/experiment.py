"""Monte Carlo harness: sweep average degree, run either or both cascade
engines over many random networks and shock draws, and pool crisis
frequency and conditional crisis size.

Every random quantity is keyed by (master_seed, stream, z-index,
network-index, trial-index), so a sweep is reproducible trial by trial and
its output is independent of how work is spread across processes.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .balance import BalanceParams, BalanceSheets, ThetaDistribution, build_sheets
from .balance_cascade import CascadeResult, _batch_propagate, shock_returns
from .network import DirectedNetwork, LoanSizeDistribution, generate_er
from .rng import (
    STREAM_NETWORK,
    STREAM_SHOCKS,
    STREAM_THETA,
    STREAM_THRESHOLDS,
    draw_rows,
    stream_rng,
    stream_rngs,
    stream_seed,
)
from .threshold_cascade import _in_loans, thresholds_from_normals

__all__ = [
    "CASES",
    "MODELS",
    "ExperimentConfig",
    "CrisisStats",
    "case_presets",
    "run_sweep",
    "run_trial",
]

CASES = ("A", "B", "C")
MODELS = ("bs", "threshold", "both-independent", "both-coupled")

_Z95 = 1.959963984540054  # two-sided 95% normal quantile

# (trial, bank) keys per sweep chunk: a 4 MiB float64 buffer, reused for
# every chunk of a network. A chunk gives each engine run its own share of
# it, so a two-engine chunk holds half as many trials. Half and double this
# size measured many more page faults per sweep (ROADMAP item 5).
_CHUNK_KEYS = 1 << 19


def case_presets(case: str) -> tuple[ThetaDistribution, LoanSizeDistribution]:
    """Distribution presets for the three experiment variants.

    A: every bank lends in units of 1 and targets a 30% interbank share.
    B: shares spread uniformly over [.2, .4], unit loans.
    C: 30% share, loan sizes spread uniformly over [.2, 1.8].
    """
    if case == "A":
        return ThetaDistribution.constant(0.3), LoanSizeDistribution.constant(1.0)
    if case == "B":
        return ThetaDistribution.uniform(0.2, 0.4), LoanSizeDistribution.constant(1.0)
    if case == "C":
        return ThetaDistribution.constant(0.3), LoanSizeDistribution.uniform(0.2, 1.8)
    raise ValueError(f"unknown case {case!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one sweep; two configs that compare equal produce
    byte-identical results."""

    n_banks: int
    capital_ratio: float
    default_prob: float
    case: str
    model: str
    degree_grid: tuple[float, ...]
    networks_per_degree: int
    trials_per_network: int
    crisis_cutoff: float
    master_seed: int
    theta_dist: ThetaDistribution | None = None
    loan_dist: LoanSizeDistribution | None = None

    def __post_init__(self):
        for name in ("n_banks", "networks_per_degree", "trials_per_network", "master_seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("capital_ratio", "default_prob", "crisis_cutoff", "degree_grid"):
            value = getattr(self, name)  # a str grid fails as a sequence of strs
            for v in (value if name == "degree_grid" else (value,)):
                if isinstance(v, bool) or not isinstance(v, numbers.Real):
                    raise ValueError(f"{name} must hold numbers, got {value!r}")
        if self.case not in CASES:
            raise ValueError(f"case must be one of {CASES}, got {self.case!r}")
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}, got {self.model!r}")
        if self.n_banks < 1:
            raise ValueError("n_banks must be >= 1")
        if not self.degree_grid:
            raise ValueError("degree_grid must be nonempty")
        object.__setattr__(self, "degree_grid", tuple(float(z) for z in self.degree_grid))
        for z in self.degree_grid:
            if not 0 <= z <= self.n_banks - 1:  # also rejects NaN
                raise ValueError(f"degree {z} outside [0, n_banks-1]")
        if self.networks_per_degree < 1 or self.trials_per_network < 1:
            raise ValueError("network and trial counts must be >= 1")
        if not 0 < self.crisis_cutoff <= 1:
            raise ValueError("crisis_cutoff must lie in (0, 1]")
        if self.master_seed < 0:
            raise ValueError("master_seed must be >= 0")
        self.balance_params()  # validates capital_ratio and default_prob

    def resolved_theta_dist(self) -> ThetaDistribution:
        return self.theta_dist if self.theta_dist is not None else case_presets(self.case)[0]

    def resolved_loan_dist(self) -> LoanSizeDistribution:
        return self.loan_dist if self.loan_dist is not None else case_presets(self.case)[1]

    def balance_params(self) -> BalanceParams:
        return BalanceParams(self.capital_ratio, self.default_prob, self.resolved_theta_dist())


@dataclass(frozen=True)
class CrisisStats:
    """Pooled result for one (degree, model) cell of a sweep.

    ``mean_crisis_size`` is the average defaulted fraction conditional on a
    crisis, or None when the cell saw no crisis at all;
    ``mean_crisis_size_se`` is that mean's standard error (None below two
    crises). ``mismatches`` is the number of coupled trials whose two
    engines' step rows differ, that is, where some bank defaulted in one
    engine only or in a different round (always 0 for other models and, per
    the sample-path equivalence, expected 0 everywhere).
    """

    degree: float
    model: str
    case: str
    crisis_frequency: float
    frequency_ci_halfwidth: float
    mean_crisis_size: float | None
    mean_crisis_size_se: float | None
    n_runs: int
    n_crises: int
    mismatches: int


def _models_run(model: str) -> tuple[str, ...]:
    return (model,) if model in ("bs", "threshold") else ("bs", "threshold")


def _network_inputs(cfg: ExperimentConfig, z_index: int, net_index: int):
    """Network, share draws and (when needed) sheets for one sweep cell."""
    net = generate_er(cfg.n_banks, cfg.degree_grid[z_index], cfg.resolved_loan_dist(),
                      stream_seed(cfg.master_seed, STREAM_NETWORK, z_index, net_index))
    thetas = cfg.resolved_theta_dist().sample(
        cfg.n_banks, stream_rng(cfg.master_seed, STREAM_THETA, z_index, net_index)
    )
    params = cfg.balance_params()
    sheets = None
    if cfg.model != "threshold":
        sheets = build_sheets(net, params, thetas=thetas)
    return net, params, thetas, sheets


def _batch_outcomes(
    cfg: ExperimentConfig,
    net: DirectedNetwork,
    params: BalanceParams,
    thetas: np.ndarray,
    sheets: BalanceSheets | None,
    z_index: int,
    net_index: int,
    trials: range,
    buffer: np.ndarray | None = None,
) -> dict:
    """The given trials of one network cell, propagated in one kernel call.

    ``buffer`` is a (runs, trials, banks) float array, one run per engine
    run of :func:`_models_run` (one in all for the coupled model), with at
    least ``len(trials)`` rows (a fresh one without it). Each run's rows
    carry its stages in place, ending in the loans' scale the kernel
    compares with. Run 0 takes the margin 'bs' reads: the draw
    (:func:`draw_rows`), scaled to returns (:func:`shock_returns`), plus
    each bank's net worth. Coupled, a lender's threshold m / L in the loans'
    scale is its margin m itself, so 'threshold' reads the margin too: the
    kernel gets it as one run repeated, propagates it once, and the two
    engines agree by construction. Otherwise the last run takes the
    thresholds t 'threshold' reads, drawn (:func:`thresholds_from_normals`)
    and scaled to fl(t * L). Returns the kernel's step matrix per engine run.
    """
    models = _models_run(cfg.model)
    n_rows, n = len(trials), cfg.n_banks
    if buffer is None:
        buffer = np.empty((len(models), n_rows, n))
    rows = buffer[:, :n_rows]  # whole rows of each run: contiguous
    if cfg.model != "threshold":
        rngs = stream_rngs(cfg.master_seed, STREAM_SHOCKS, z_index, net_index, trials=trials)
        margin = draw_rows(rngs, n_rows, n, out=rows[0])
        np.add(sheets.net_worth, shock_returns(margin, sheets), out=margin)
    if cfg.model == "both-coupled":
        rows = np.broadcast_to(margin, (2, n_rows, n))
    elif cfg.model != "bs":
        rngs = stream_rngs(cfg.master_seed, STREAM_THRESHOLDS, z_index, net_index, trials=trials)
        normals = draw_rows(rngs, n_rows, n, params.default_prob, ~net.is_lender, out=rows[-1])
        _in_loans(net, thresholds_from_normals(normals, net, params, thetas), out=normals)
    return dict(zip(models, _batch_propagate(net, rows)))


def _network_task(args) -> tuple[tuple[int, int], dict]:
    """Run all trials for one (degree, network) cell and tally each engine
    run as (crises, summed crisis sizes, summed squared crisis sizes). Top
    level so process pools can pickle it.

    The trials run in chunks of about ``_CHUNK_KEYS`` (trial, bank) keys,
    each drawn into the same (runs, chunk, banks) buffer (see
    :func:`_batch_outcomes`), so memory does not grow with the trial count.
    Each trial has its own streams and chunks are tallied in trial order, so
    every float sum, and so every output byte, is the one a single batch of
    all trials would give.
    """
    cfg, z_index, net_index = args
    net, params, thetas, sheets = _network_inputs(cfg, z_index, net_index)
    n, n_trials = cfg.n_banks, cfg.trials_per_network
    tallies = {m: [0, 0.0, 0.0] for m in _models_run(cfg.model)}
    chunk = min(n_trials, max(1, _CHUNK_KEYS // (len(tallies) * n)))
    # the coupled model draws one run: its two engines read the same margin
    buffer = np.empty((1 if cfg.model == "both-coupled" else len(tallies), chunk, n))
    mismatches = 0
    for first in range(0, n_trials, chunk):
        outcomes = _batch_outcomes(cfg, net, params, thetas, sheets, z_index, net_index,
                                   range(n_trials)[first:first + chunk], buffer)
        for m, tally in tallies.items():
            frac = np.count_nonzero(outcomes[m] >= 0, axis=1) / n
            crisis = frac >= cfg.crisis_cutoff
            tally[0] += int(crisis.sum())
            for f in frac[crisis]:  # sequential sums keep output worker- and chunk-invariant
                tally[1] += float(f)
                tally[2] += float(f) * float(f)
        if cfg.model == "both-coupled":  # trials whose step rows differ anywhere
            mismatches += int(np.count_nonzero(
                (outcomes["bs"] != outcomes["threshold"]).any(axis=1)))
    return (z_index, net_index), {"tallies": tallies, "mismatches": mismatches}


def run_trial(
    cfg: ExperimentConfig, z_index: int, net_index: int, trial_index: int
) -> dict:
    """Reproduce a single trial of a sweep in isolation: the sweep's own
    batched path run on a batch of one, with the same seeds and results.

    Returns a :class:`CascadeResult` per engine run ('bs', 'threshold') plus
    'mismatch', True when coupled engines disagree. Raises ValueError for an
    index outside the sweep's grid.
    """
    for name, index, count in (("z_index", z_index, len(cfg.degree_grid)),
                               ("net_index", net_index, cfg.networks_per_degree),
                               ("trial_index", trial_index, cfg.trials_per_network)):
        if not 0 <= index < count:
            raise ValueError(f"{name} {index} outside the sweep's range [0, {count - 1}]")
    net, params, thetas, sheets = _network_inputs(cfg, z_index, net_index)
    steps = _batch_outcomes(cfg, net, params, thetas, sheets, z_index, net_index,
                            range(trial_index, trial_index + 1))
    out: dict = {m: CascadeResult(step[0]) for m, step in steps.items()}
    out["mismatch"] = (cfg.model == "both-coupled"
                       and not out["bs"].same_outcome(out["threshold"]))
    return out


def _task_results(tasks: list, workers: int):
    """Yield each task's (key, result) as it finishes: in this process, or in a
    pool capped at one process per task, since a pool under the ``fork``
    start method starts every worker at its first submit."""
    workers = min(workers, len(tasks))
    if workers <= 1:
        yield from map(_network_task, tasks)
        return
    # imported here: the pool's modules take memory that one-process sweeps never use
    from concurrent.futures import ProcessPoolExecutor, as_completed
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for fut in as_completed([pool.submit(_network_task, t) for t in tasks]):
            yield fut.result()


def run_sweep(cfg: ExperimentConfig, *, workers: int = 1, progress=None) -> list[CrisisStats]:
    """Run the full sweep and pool statistics over networks x trials.

    Work is partitioned by network; partial sums are recombined in a fixed
    order, so the output is byte-identical for any ``workers`` value. The
    optional ``progress`` callback receives (trials_done, trials_total).
    """
    tasks = [
        (cfg, zi, ni)
        for zi in range(len(cfg.degree_grid))
        for ni in range(cfg.networks_per_degree)
    ]
    total_trials = len(tasks) * cfg.trials_per_network

    cell_results: dict[tuple[int, int], dict] = {}
    for done, (key, res) in enumerate(_task_results(tasks, workers), 1):
        cell_results[key] = res
        if progress is not None:
            progress(done * cfg.trials_per_network, total_trials)

    runs = cfg.networks_per_degree * cfg.trials_per_network
    rows: list[CrisisStats] = []
    for zi, degree in enumerate(cfg.degree_grid):
        cells = [cell_results[(zi, ni)] for ni in range(cfg.networks_per_degree)]
        mismatches = sum(c["mismatches"] for c in cells)
        for m in _models_run(cfg.model):
            crises, size_sum, sq_sum = 0, 0.0, 0.0
            # a left-to-right loop in fixed network order, not sum(), whose
            # float result is compensated from Python 3.12 on
            for c in cells:
                cell_crises, cell_size_sum, cell_sq_sum = c["tallies"][m]
                crises += cell_crises
                size_sum += cell_size_sum
                sq_sum += cell_sq_sum
            freq = crises / runs
            ci = _Z95 * math.sqrt(freq * (1.0 - freq) / runs)
            mean_size = (size_sum / crises) if crises else None
            size_se = None
            if crises > 1:
                var = max(sq_sum - crises * mean_size * mean_size, 0.0) / (crises - 1)
                size_se = math.sqrt(var / crises)
            rows.append(
                CrisisStats(
                    degree=degree,
                    model=m,
                    case=cfg.case,
                    crisis_frequency=freq,
                    frequency_ci_halfwidth=ci,
                    mean_crisis_size=mean_size,
                    mean_crisis_size_se=size_se,
                    n_runs=runs,
                    n_crises=crises,
                    mismatches=mismatches,
                )
            )
    return rows
