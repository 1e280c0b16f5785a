"""Built-in verification suites behind the ``check`` CLI command.

Independent lines of evidence that the two cascade engines implement the
same model: exact trial-for-trial agreement when coupled through one shock
draw (the same bank defaults in the same round), on random draws and on a
tie-dense family, agreement of the fast
engine with a naive fixed-point oracle on desk-scale networks, round by
round, and distributional calibration of the sweep's own draws (those of
``rng.draw_rows``). The validation-only oracles, a brute-force fixed point
and a random asynchronous schedule, live here too, apart from the product
modules: they decide in exact rationals and share no propagation code,
predicate or summation order with the engines they check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .balance import BalanceParams, BalanceSheets, ThetaDistribution, build_sheets
from .balance_cascade import (CascadeResult, _trial_returns, draw_shocks, run_balance_cascade,
                              shock_returns)
from .experiment import CASES, case_presets
from .network import DirectedNetwork, from_edges, generate_er
from .rng import as_generator, draw_rows, stream_rng, stream_rngs, stream_seed
from .threshold_cascade import (run_threshold_cascade, thresholds_from_normals,
                                thresholds_from_shocks)

__all__ = [
    "CheckReport",
    "equivalence_suite",
    "oracle_suite",
    "distribution_suite",
    "tie_suite",
    "brute_force_fixed_point",
    "run_balance_cascade_async",
]

# Stream tags local to the check harness; disjoint from the sweep streams.
_CHK_NET = 901
_CHK_THETA = 902
_CHK_SHOCK = 903
_CHK_ORACLE = 904
_CHK_DIST = 905
_CHK_TIES = 906

# The capital ratio and fundamental default probability every suite checks.
_GAMMA, _DELTA = 0.1, 0.01


@dataclass
class CheckReport:
    name: str
    passed: bool
    detail: str
    counterexample: dict | None = None


def _boundary_probe() -> tuple[DirectedNetwork, BalanceSheets, np.ndarray]:
    """Instance sitting exactly on the flip boundary, its sheets built with
    capital ratio and interbank share 1/4 so that every value is exact.

    Bank 0 lends 1.0 to each of banks 1-4 and has net worth 4; the others
    have net worth 1, and banks 1 and 2 fail outright. Bank 0's return of -2
    maps it to a threshold of exactly (4 - 2) / 4 = 0.5, which its
    flipped-weight fraction 2/4 meets exactly, so under the strict rule both
    engines agree it survives. Random draws never produce exact ties, so
    this probe is what lets the suite detect a >= mutation of the flip rule.
    """
    net = from_edges(5, [(0, j, 1.0) for j in (1, 2, 3, 4)])
    params = BalanceParams(0.25, _DELTA, ThetaDistribution.constant(0.25))
    sheets = build_sheets(net, params, thetas=np.full(5, 0.25))
    return net, sheets, np.array([-2.0, -2.0, -2.0, 0.0, 0.0])


def _run_ge_mutant(net: DirectedNetwork, thresholds: np.ndarray,
                   inactive_flips: np.ndarray) -> CascadeResult:
    """The fault that ``check --inject-fault`` plants: the threshold engine
    with its strict flip rule mutated to >=. Against every threshold nudged
    to the previous float, ``mu > t`` becomes ``mu >= t``, at round 0 too,
    where a zero threshold now flips."""
    return run_threshold_cascade(net, np.nextafter(thresholds, -np.inf), inactive_flips)


def _compare_coupled(net, sheets, returns, *, inject_fault: bool) -> tuple[bool, dict]:
    res_bs = run_balance_cascade(net, sheets, returns)
    thresholds, flips = thresholds_from_shocks(net, sheets, returns)
    threshold_engine = _run_ge_mutant if inject_fault else run_threshold_cascade
    res_thr = threshold_engine(net, thresholds, flips)
    if res_bs.same_outcome(res_thr):
        return True, {}
    bank = int(np.flatnonzero(res_bs.step != res_thr.step)[0])  # -1: never defaulted
    return False, {"bank_id": bank, "bs_step": int(res_bs.step[bank]),
                   "threshold_step": int(res_thr.step[bank])}


def equivalence_suite(
    *,
    instances: int = 100,
    seed: int = 0,
    inject_fault: bool = False,
) -> CheckReport:
    """Coupled trial-for-trial agreement of the two engines on ``instances``
    networks per case A/B/C (1000 banks, z cycling over 1, 3, 5, 8) and the
    exact boundary probe; zero mismatches required. ``inject_fault`` swaps in
    :func:`_run_ge_mutant`, which the suite must then report as a failure."""
    name = "coupled equivalence"
    if instances < 0:
        raise ValueError(f"instances must be >= 0, got {instances}")
    if instances == 0:
        return CheckReport(name, True, "vacuous pass: 0 instances requested (warning)")
    n_banks, degrees = 1000, (1.0, 3.0, 5.0, 8.0)

    probe_net, probe_sheets, probe_returns = _boundary_probe()
    ok, info = _compare_coupled(probe_net, probe_sheets, probe_returns, inject_fault=inject_fault)
    if not ok:
        info.update({"case": "boundary-probe", "instance": -1, "network": probe_net})
        return CheckReport(name, False, "mismatch on the exact-tie boundary probe", info)

    for ci, case in enumerate(CASES):
        theta_dist, loan_dist = case_presets(case)
        params = BalanceParams(_GAMMA, _DELTA, theta_dist)
        for k in range(instances):
            z = degrees[k % len(degrees)]
            net = generate_er(n_banks, z, loan_dist, stream_seed(seed, _CHK_NET, ci, k))
            thetas = theta_dist.sample(n_banks, stream_rng(seed, _CHK_THETA, ci, k))
            sheets = build_sheets(net, params, thetas=thetas)
            returns = draw_shocks(sheets, stream_rng(seed, _CHK_SHOCK, ci, k))
            ok, info = _compare_coupled(net, sheets, returns, inject_fault=inject_fault)
            if not ok:
                info.update({"case": case, "instance": k, "z": z, "seed": seed,
                             "network": net})
                return CheckReport(
                    name, False,
                    f"engines disagree on case {case} instance {k} (z={z}, seed={seed})",
                    info,
                )
    return CheckReport(name, True, f"{len(CASES) * instances} coupled instances + boundary "
                                   "probe, 0 mismatches")


def oracle_suite(*, instances: int = 200, seed: int = 0) -> CheckReport:
    """Fast engine vs naive fixed-point oracle vs randomized asynchronous
    schedule on random instances of 2 to 10 banks. The oracle must default
    the same banks in the same rounds; the schedules, which have no rounds,
    the same banks."""
    name = "small-instance oracle"
    if instances < 0:
        raise ValueError(f"instances must be >= 0, got {instances}")
    theta_dist, _ = case_presets("A")
    params = BalanceParams(_GAMMA, _DELTA, theta_dist)
    for k in range(instances):
        rng = stream_rng(seed, _CHK_ORACLE, k)
        n = int(rng.integers(2, 11))
        z = float(rng.uniform(0, n - 1))
        loan = case_presets("C")[1] if k % 2 else case_presets("A")[1]
        net = generate_er(n, z, loan, rng)
        sheets = build_sheets(net, params, rng_seed=rng)
        # inflated volatility so small instances actually seed defaults
        returns = rng.normal(0.0, 3.0 * sheets.return_std)
        engine = run_balance_cascade(net, sheets, returns)
        if not np.array_equal(engine.step, brute_force_fixed_point(net, sheets, returns)):
            return CheckReport(name, False, f"engine differs from oracle on instance {k}",
                               {"instance": k, "seed": seed, "network": net})
        for schedule in range(3):
            async_defaulted = run_balance_cascade_async(net, sheets, returns, rng)
            if not np.array_equal(async_defaulted, engine.defaulted):
                return CheckReport(
                    name, False,
                    f"asynchronous schedule {schedule} differs on instance {k}",
                    {"instance": k, "seed": seed, "network": net},
                )
    return CheckReport(name, True, f"{instances} instances match oracle and async schedules")


def _ks_statistic(sample: np.ndarray, mean: float, sd: float) -> float:
    x = np.sort(sample)
    cdf = 0.5 * (1.0 + np.vectorize(math.erf)((x - mean) / (sd * math.sqrt(2.0))))
    n = len(x)
    grid = np.arange(1, n + 1) / n
    return float(np.maximum(grid - cdf, cdf - (grid - 1.0 / n)).max())


def distribution_suite(*, seed: int = 0) -> CheckReport:
    """Calibration of the sweep's own draws: 1000 trials on one 1000-bank
    case-A network, drawn by the sweep's draw path on the check's streams.

    Pooled over banks x trials, the frequencies of outright failures under
    the shock model, of negative sampled thresholds and of round-0 flips of
    non-lenders must each sit within 4 binomial standard deviations of the
    target default probability; the sampled thresholds must also pass a KS
    test at the 1% level against their implied normal law.
    """
    name = "input distributions"
    n_banks, trials = 1000, range(1000)
    theta_dist, loan_dist = case_presets("A")
    params = BalanceParams(_GAMMA, _DELTA, theta_dist)
    net = generate_er(n_banks, 3.0, loan_dist, stream_seed(seed, _CHK_DIST, 0))
    thetas = theta_dist.sample(n_banks, stream_rng(seed, _CHK_DIST, 1))
    sheets = build_sheets(net, params, thetas=thetas)
    active = net.is_lender

    normals = draw_rows(stream_rngs(seed, _CHK_DIST, 2, trials=trials), len(trials), n_banks)
    returns = shock_returns(normals, sheets)
    rows = draw_rows(stream_rngs(seed, _CHK_DIST, 3, trials=trials), len(trials), n_banks,
                     _DELTA, ~active)
    vals = thresholds_from_normals(rows, net, params, thetas)[:, active]

    bound = 4.0 * math.sqrt(_DELTA * (1.0 - _DELTA))
    rates = []
    for label, hits in (("fundamental-default", returns < -sheets.net_worth),
                        ("negative-threshold", vals < 0),
                        ("non-lender flip", rows[:, ~active] < 0)):
        rate = np.count_nonzero(hits) / hits.size
        if abs(rate - _DELTA) > bound / math.sqrt(hits.size):
            return CheckReport(name, False, f"{label} frequency {rate:.5f} misses "
                                            f"{_DELTA} by more than 4 sigma")
        rates.append(rate)

    sample = vals[:100].ravel()
    mean = _GAMMA / theta_dist.mean()
    stat = _ks_statistic(sample, mean, mean / abs(params.default_quantile))
    crit = 1.6276 / math.sqrt(len(sample))  # asymptotic 1% Kolmogorov critical value
    if stat > crit:
        return CheckReport(name, False,
                           f"threshold sample fails KS at 1% ({stat:.5f} > {crit:.5f})")
    return CheckReport(
        name, True,
        "failure rate {:.5f}, negative-threshold rate {:.5f}, non-lender flip rate {:.5f} "
        "(target {}), KS {:.5f} < {:.5f}".format(*rates, _DELTA, stat, crit),
    )


def tie_suite(*, seed: int = 0) -> CheckReport:
    """Coupled agreement where loss sums tie margins exactly, checked
    against paths the sweep's coupled model does not take (it reads one
    margin in both engines, so agrees by construction). Integer margins
    rint(w + 3r) on 1000-bank case-A networks (z = 2, 4, 6; 100 trials
    each) run through the per-trial engines, where float loan weights fl(1/k)
    summed against fl(m/k) once parted them on most trials; each network's
    first trial also runs through the exact asynchronous oracle. These
    out-degrees stay below 22, where fl(fl(m / L) * L) = m for every tie
    0 <= m <= L, so the engines' mapped thresholds are exact. Then the
    relabelled pair: bank 0 lends 0.1, 0.2 and 0.3 to three failed banks
    against a margin of 0.6, in both label orders, against the exact
    brute-force oracle. Zero mismatches required."""
    theta_dist, loan_dist = case_presets("A")
    params, zero, mismatches = BalanceParams(_GAMMA, _DELTA, theta_dist), np.zeros(1000), 0
    trials = range(100)
    for k, z in enumerate((2.0, 4.0, 6.0)):
        net = generate_er(1000, z, loan_dist, stream_seed(seed, _CHK_TIES, k, 0))
        sheets = build_sheets(net, params, thetas=theta_dist.sample(
            1000, stream_rng(seed, _CHK_TIES, k, 1)))
        normals = draw_rows(stream_rngs(seed, _CHK_TIES, k, 2, trials=trials), len(trials), 1000)
        margins = np.rint(sheets.net_worth + 3.0 * shock_returns(normals, sheets))
        for t, margin in enumerate(margins):
            tied = replace(sheets, net_worth=margin)
            ok, _ = _compare_coupled(net, tied, zero, inject_fault=False)
            if ok and t == 0:
                ok = np.array_equal(run_balance_cascade(net, tied, zero).defaulted,
                                    run_balance_cascade_async(net, tied, zero,
                                                              stream_rng(seed, _CHK_TIES, k, 3)))
            mismatches += not ok
    steps = []
    for loans in ((0.1, 0.2, 0.3), (0.3, 0.2, 0.1)):
        net = from_edges(4, [(0, j, a) for j, a in enumerate(loans, 1)])
        sheets = replace(build_sheets(net, params, thetas=np.full(4, 0.3)),
                         net_worth=np.array([0.6, 1.0, 1.0, 1.0]))
        returns = np.array([0.0, -2.0, -2.0, -2.0])
        got = run_balance_cascade(net, sheets, returns).step
        mismatches += not np.array_equal(got, brute_force_fixed_point(net, sheets, returns))
        steps.append(int(got[0]))
    return CheckReport("tie-dense coupled", not mismatches,
                       f"{3 * len(trials)} trials and the relabelled pair (bank 0 steps "
                       f"{steps}), coupled mismatches: {mismatches}")


# -- validation-only oracles -----------------------------------------------


def _margins(net: DirectedNetwork, sheets: BalanceSheets, returns: np.ndarray) -> list:
    """Each bank's margin m = fl(w + r), the engines' input, as a Fraction."""
    return [Fraction(m) for m in sheets.net_worth + _trial_returns(net, sheets, returns)]


def _exact_loss(net: DirectedNetwork, node: int, defaulted) -> Fraction:
    """The exact sum of ``node``'s loans to defaulted borrowers, read from the
    raw edge arrays: the oracles share no edge index with the engines."""
    lost = (net.lender == node) & np.asarray(defaulted)[net.borrower]
    return sum(map(Fraction, net.loan_size[lost]), Fraction(0))


def brute_force_fixed_point(
    net: DirectedNetwork,
    sheets: BalanceSheets,
    returns: np.ndarray,
) -> np.ndarray:
    """Desk-scale oracle: least fixed point by exhaustive re-evaluation.

    Every pass re-derives every bank's full default condition from the
    current default set, with none of the engine's incremental bookkeeping,
    in exact rational arithmetic: a bank defaults once its loans to
    defaulted borrowers exceed its margin fl(w + r). Returns each bank's
    default round: 0 for a default on its own loss, k for one added by the
    k-th pass, -1 for a survivor. Quadratic and deliberately naive; refuses
    networks above 20 nodes.
    """
    n = net.n_nodes
    if n > 20:
        raise ValueError("brute-force oracle is limited to networks of <= 20 nodes")
    margin = _margins(net, sheets, returns)
    step = [0 if m < 0 else -1 for m in margin]
    rounds = 0
    while True:
        defaulted = [s >= 0 for s in step]
        new = [rounds + 1 if s < 0 and _exact_loss(net, i, defaulted) > margin[i] else s
               for i, s in enumerate(step)]
        if new == step:
            return np.array(step)
        rounds += 1
        step = new


def run_balance_cascade_async(
    net: DirectedNetwork,
    sheets: BalanceSheets,
    returns: np.ndarray,
    rng_seed,
) -> np.ndarray:
    """Random-order, one-bank-at-a-time schedule, in exact rational
    arithmetic. Validation harness only: the default condition is monotone,
    so this must reach the same fixed point as the synchronous engine. It
    has no rounds, so it returns only who defaulted, as a bool vector."""
    n = net.n_nodes
    margin = _margins(net, sheets, returns)
    rng = as_generator(rng_seed)

    defaulted = np.array([m < 0 for m in margin], dtype=bool)
    changed = True
    while changed:
        changed = False
        for i in rng.permutation(n):
            if not defaulted[i] and _exact_loss(net, i, defaulted) > margin[i]:
                defaulted[i] = True
                changed = True
    return defaulted
