"""Monte Carlo harness: sweep average degree, run either or both cascade
engines over many random networks and shock draws, and pool crisis
frequency and conditional crisis size.

Every random quantity is keyed by (master_seed, stream, z-index,
network-index, trial-index), so a sweep is reproducible trial by trial and
its output is independent of how work is spread across processes.
"""
from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor, as_completed
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
    stream_rng,
    stream_rngs,
    stream_seed,
)
from .threshold_cascade import coupled_thresholds, initial_flips, thresholds_from_normals

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
    engines disagreed (always 0 for other models and, per the equivalence
    property, expected 0 everywhere).
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


@dataclass
class _Tally:
    runs: int = 0
    crises: int = 0
    size_sum: float = 0.0
    size_sq_sum: float = 0.0


def _models_run(model: str) -> tuple[str, ...]:
    if model == "bs":
        return ("bs",)
    if model == "threshold":
        return ("threshold",)
    return ("bs", "threshold")


def _network_inputs(cfg: ExperimentConfig, z_index: int, net_index: int):
    """Network, share draws and (when needed) sheets for one sweep cell."""
    degree = cfg.degree_grid[z_index]
    net = generate_er(
        cfg.n_banks, degree, cfg.resolved_loan_dist(),
        stream_seed(cfg.master_seed, STREAM_NETWORK, z_index, net_index),
    )
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
) -> dict:
    """The given trials of one network cell, propagated in one batch.

    Each trial draws from its own stream with the per-trial seed scheme, so
    its row does not depend on which other trials share the batch; one
    :func:`stream_rngs` pass seeds the whole batch of streams. The draws
    go straight into one row per trial; the laws that the public draw
    functions apply (:func:`shock_returns`, :func:`thresholds_from_normals`)
    then run once over the (trials, banks) matrix, with bit-identical
    results. Returns, per engine run ('bs', 'threshold'), a tuple
    (fundamental defaults per trial, flip matrix, rounds per trial).
    """
    n, T = cfg.n_banks, len(trials)
    seed = cfg.master_seed
    out: dict = {}
    active = net.interbank_assets > 0

    if cfg.model != "threshold":
        returns = np.empty((T, n))
        for row, rng in enumerate(stream_rngs(seed, STREAM_SHOCKS, z_index, net_index,
                                              trials=trials)):
            rng.standard_normal(out=returns[row])
        shock_returns(returns, sheets)
        worth = sheets.net_worth
        start = returns < -worth
        out["bs"] = (start.sum(axis=1), *_batch_propagate(
            net, start, np.ones(n, dtype=bool), worth + returns, net.in_loan))

    if cfg.model in ("threshold", "both-independent"):
        thresholds = np.empty((T, n))
        inactive_flips = np.empty((T, n), dtype=bool)
        for row, rng in enumerate(stream_rngs(seed, STREAM_THRESHOLDS, z_index, net_index,
                                              trials=trials)):
            rng.standard_normal(out=thresholds[row])
            np.less(rng.random(n), params.default_prob, out=inactive_flips[row])
        thresholds_from_normals(thresholds, net, params, thetas)
        start = initial_flips(active, thresholds, inactive_flips)
    elif cfg.model == "both-coupled":
        thresholds = coupled_thresholds(net, worth, returns)
        start = initial_flips(active, thresholds, returns < -worth)
    if cfg.model != "bs":
        out["threshold"] = (start.sum(axis=1), *_batch_propagate(
            net, start, active, thresholds, net.in_edge_weights))
    return out


def _network_task(args) -> tuple[tuple[int, int], dict]:
    """Run all trials for one (degree, network) cell. Top level so process
    pools can pickle it."""
    cfg, z_index, net_index = args
    net, params, thetas, sheets = _network_inputs(cfg, z_index, net_index)
    outcomes = _batch_outcomes(cfg, net, params, thetas, sheets, z_index, net_index,
                               range(cfg.trials_per_network))

    tallies = {}
    for m in _models_run(cfg.model):
        n_fund, flipped, rounds = outcomes[m]
        frac = flipped.sum(axis=1) / cfg.n_banks
        crisis = frac >= cfg.crisis_cutoff
        size_sum = sq_sum = 0.0
        for f in frac[crisis]:  # sequential sums keep output worker-invariant
            size_sum += float(f)
            sq_sum += float(f) * float(f)
        tallies[m] = _Tally(runs=cfg.trials_per_network, crises=int(crisis.sum()),
                            size_sum=size_sum, size_sq_sum=sq_sum)

    mismatches = 0
    if cfg.model == "both-coupled":
        nf_b, fl_b, ro_b = outcomes["bs"]
        nf_t, fl_t, ro_t = outcomes["threshold"]
        agree = (fl_b == fl_t).all(axis=1) & (nf_b == nf_t) & (ro_b == ro_t)
        mismatches = int((~agree).sum())
    return (z_index, net_index), {"tallies": tallies, "mismatches": mismatches}


def run_trial(
    cfg: ExperimentConfig, z_index: int, net_index: int, trial_index: int
) -> dict:
    """Reproduce a single trial of a sweep in isolation: the sweep's own
    batched path run on a batch of one, with the same seeds and results.

    Returns a :class:`CascadeResult` per engine run ('bs', 'threshold') plus
    'mismatch', True when coupled engines disagree.
    """
    net, params, thetas, sheets = _network_inputs(cfg, z_index, net_index)
    rows = _batch_outcomes(cfg, net, params, thetas, sheets, z_index, net_index,
                           range(trial_index, trial_index + 1))
    out: dict = {
        m: CascadeResult(flipped[0], int(n_fundamental[0]), int(flipped[0].sum()), int(rounds[0]))
        for m, (n_fundamental, flipped, rounds) in rows.items()
    }
    out["mismatch"] = (cfg.model == "both-coupled"
                       and not out["bs"].same_outcome(out["threshold"]))
    return out


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
    done = 0
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_network_task, t) for t in tasks]
            for fut in as_completed(futures):
                key, res = fut.result()
                cell_results[key] = res
                done += cfg.trials_per_network
                if progress is not None:
                    progress(done, total_trials)
    else:
        for t in tasks:
            key, res = _network_task(t)
            cell_results[key] = res
            done += cfg.trials_per_network
            if progress is not None:
                progress(done, total_trials)

    rows: list[CrisisStats] = []
    for zi, degree in enumerate(cfg.degree_grid):
        cells = [cell_results[(zi, ni)] for ni in range(cfg.networks_per_degree)]
        mismatches = sum(c["mismatches"] for c in cells)
        for m in _models_run(cfg.model):
            runs = sum(c["tallies"][m].runs for c in cells)
            crises = sum(c["tallies"][m].crises for c in cells)
            size_sum = sq_sum = 0.0
            for c in cells:  # fixed network order keeps float sums reproducible
                size_sum += c["tallies"][m].size_sum
                sq_sum += c["tallies"][m].size_sq_sum
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
                    mismatches=mismatches if cfg.model == "both-coupled" else 0,
                )
            )
    return rows
