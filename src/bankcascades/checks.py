"""Built-in verification suites behind the ``check`` CLI command.

Three independent lines of evidence that the two cascade engines implement
the same model: exact trial-for-trial agreement when coupled through one
shock draw, agreement of the fast engine with a naive fixed-point oracle on
desk-scale networks, and distributional calibration of the sampled inputs.
The validation-only oracles, a brute-force fixed point and a random
asynchronous schedule, live here too, apart from the product modules: they
share no propagation code with the engines they check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .balance import BalanceParams, BalanceSheets, build_sheets, normal_quantile
from .balance_cascade import CascadeResult, ShockDraw, draw_shocks, run_balance_cascade
from .experiment import case_presets
from .network import DirectedNetwork, from_edges, generate_er
from .rng import as_generator, stream_rng, stream_seed
from .threshold_cascade import run_threshold_cascade, sample_thresholds, thresholds_from_shocks

__all__ = [
    "CheckReport",
    "equivalence_suite",
    "oracle_suite",
    "distribution_suite",
    "brute_force_fixed_point",
    "run_balance_cascade_async",
]

# Stream tags local to the check harness; disjoint from the sweep streams.
_CHK_NET = 901
_CHK_THETA = 902
_CHK_SHOCK = 903
_CHK_ORACLE = 904
_CHK_DIST = 905


@dataclass
class CheckReport:
    name: str
    passed: bool
    detail: str
    counterexample: dict | None = None


def _boundary_probe() -> tuple[DirectedNetwork, BalanceSheets, ShockDraw]:
    """Hand-built instance sitting exactly on the flip boundary.

    Bank 0 lends 1.0 to each of banks 1-4; banks 1 and 2 fail outright.
    Bank 0's flipped-weight fraction is then exactly 0.5 and its mapped
    threshold exactly 0.5, so under the strict rule both engines agree it
    survives. Random draws never produce exact ties, so this probe is what
    lets the suite detect a >= mutation of the flip rule.
    """
    net = from_edges(5, [(0, j, 1.0) for j in (1, 2, 3, 4)])
    zeros = np.zeros(5)
    worth = np.ones(5)
    sheets = BalanceSheets(
        external_assets=np.full(5, 2.0),
        interbank_assets=net.interbank_assets.copy(),
        riskless_assets=zeros.copy(),
        deposits=np.full(5, 1.0) + net.interbank_assets,
        interbank_liabilities=net.interbank_liabilities.copy(),
        net_worth=worth,
        interbank_share=np.full(5, 0.3),
        return_std=np.full(5, 0.4),
    )
    shocks = ShockDraw(np.array([1.0, -2.0, -2.0, 0.0, 0.0]))
    return net, sheets, shocks


def _compare_coupled(net, sheets, shocks, *, ge_rule: bool) -> tuple[bool, dict]:
    res_bs = run_balance_cascade(net, sheets, shocks)
    thr, flips = thresholds_from_shocks(net, sheets, shocks)
    res_thr = run_threshold_cascade(net, thr, flips, ge_rule=ge_rule)
    if res_bs.same_outcome(res_thr):
        return True, {}
    diff = np.flatnonzero(res_bs.defaulted != res_thr.defaulted)
    info = {
        "bank_id": int(diff[0]) if diff.size else None,
        "bs_rounds": res_bs.rounds,
        "threshold_rounds": res_thr.rounds,
        "bs_total": res_bs.n_total,
        "threshold_total": res_thr.n_total,
    }
    return False, info


def equivalence_suite(
    *,
    cases: tuple[str, ...] = ("A", "B", "C"),
    instances: int = 100,
    n_banks: int = 1000,
    degrees: tuple[float, ...] = (1.0, 3.0, 5.0, 8.0),
    capital_ratio: float = 0.1,
    default_prob: float = 0.01,
    seed: int = 0,
    ge_rule: bool = False,
) -> CheckReport:
    """Coupled trial-for-trial agreement of the two engines, plus the exact
    boundary probe. Zero mismatches required."""
    name = "coupled equivalence"
    if instances == 0:
        return CheckReport(name, True, "vacuous pass: 0 instances requested (warning)")

    probe_net, probe_sheets, probe_shocks = _boundary_probe()
    ok, info = _compare_coupled(probe_net, probe_sheets, probe_shocks, ge_rule=ge_rule)
    if not ok:
        info.update({"case": "boundary-probe", "instance": -1, "network": probe_net})
        return CheckReport(name, False, "mismatch on the exact-tie boundary probe", info)

    checked = 0
    for ci, case in enumerate(cases):
        theta_dist, loan_dist = case_presets(case)
        params = BalanceParams(capital_ratio, default_prob, theta_dist)
        for k in range(instances):
            z = degrees[k % len(degrees)]
            net = generate_er(n_banks, z, loan_dist, stream_seed(seed, _CHK_NET, ci, k))
            thetas = theta_dist.sample(n_banks, stream_rng(seed, _CHK_THETA, ci, k))
            sheets = build_sheets(net, params, thetas=thetas)
            shocks = draw_shocks(sheets, stream_rng(seed, _CHK_SHOCK, ci, k))
            ok, info = _compare_coupled(net, sheets, shocks, ge_rule=ge_rule)
            checked += 1
            if not ok:
                info.update({"case": case, "instance": k, "z": z, "seed": seed,
                             "network": net})
                return CheckReport(
                    name, False,
                    f"engines disagree on case {case} instance {k} (z={z}, seed={seed})",
                    info,
                )
    return CheckReport(name, True, f"{checked} coupled instances + boundary probe, 0 mismatches")


def oracle_suite(*, instances: int = 200, max_nodes: int = 10, seed: int = 0) -> CheckReport:
    """Fast engine vs naive fixed-point oracle vs randomized asynchronous
    schedule on small random instances; exact agreement required."""
    name = "small-instance oracle"
    theta_dist, _ = case_presets("A")
    params = BalanceParams(0.1, 0.01, theta_dist)
    for k in range(instances):
        rng = stream_rng(seed, _CHK_ORACLE, k)
        n = int(rng.integers(2, max_nodes + 1))
        z = float(rng.uniform(0, n - 1))
        loan = case_presets("C")[1] if k % 2 else case_presets("A")[1]
        net = generate_er(n, z, loan, rng)
        sheets = build_sheets(net, params, rng_seed=rng)
        # inflated volatility so small instances actually seed defaults
        shocks = ShockDraw(rng.normal(0.0, 3.0 * sheets.return_std))
        engine = run_balance_cascade(net, sheets, shocks)
        oracle = brute_force_fixed_point(net, sheets, shocks)
        if not engine.same_outcome(oracle):
            return CheckReport(name, False, f"engine differs from oracle on instance {k}",
                               {"instance": k, "seed": seed, "network": net})
        for schedule in range(3):
            async_res = run_balance_cascade_async(net, sheets, shocks, rng)
            if not np.array_equal(async_res.defaulted, engine.defaulted):
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


def distribution_suite(
    *,
    capital_ratio: float = 0.1,
    default_prob: float = 0.01,
    n_banks: int = 1000,
    trials: int = 1000,
    seed: int = 0,
) -> CheckReport:
    """Calibration of the sampled inputs.

    Pooled over n_banks x trials draws: the frequency of outright failures
    under the shock model and of negative sampled thresholds must each sit
    within 4 binomial standard deviations of the target default probability;
    the sampled thresholds must also pass a KS test at the 1% level against
    their implied normal law.
    """
    name = "input distributions"
    theta_dist, loan_dist = case_presets("A")
    params = BalanceParams(capital_ratio, default_prob, theta_dist)
    net = generate_er(n_banks, 3.0, loan_dist, stream_seed(seed, _CHK_DIST, 0))
    thetas = theta_dist.sample(n_banks, stream_rng(seed, _CHK_DIST, 1))
    sheets = build_sheets(net, params, thetas=thetas)

    n_fund = 0
    neg_thr = 0
    active_total = 0
    collected = []
    active = net.interbank_assets > 0
    for t in range(trials):
        shocks = draw_shocks(sheets, stream_rng(seed, _CHK_DIST, 2, t))
        n_fund += int((shocks.asset_returns < -sheets.net_worth).sum())
        thr = sample_thresholds(net, params, thetas, stream_rng(seed, _CHK_DIST, 3, t))
        vals = thr.thresholds[active]
        neg_thr += int((vals < 0).sum())
        active_total += int(active.sum())
        if len(collected) < 100:
            collected.append(vals)

    pooled = n_banks * trials
    bound = 4.0 * math.sqrt(default_prob * (1.0 - default_prob))
    fund_freq = n_fund / pooled
    if abs(fund_freq - default_prob) > bound / math.sqrt(pooled):
        return CheckReport(name, False,
                           f"fundamental-default frequency {fund_freq:.5f} misses "
                           f"{default_prob} by more than 4 sigma")
    thr_freq = neg_thr / active_total
    if abs(thr_freq - default_prob) > bound / math.sqrt(active_total):
        return CheckReport(name, False,
                           f"negative-threshold frequency {thr_freq:.5f} misses "
                           f"{default_prob} by more than 4 sigma")

    sample = np.concatenate(collected)
    mean = capital_ratio / theta_dist.mean()
    sd = mean / abs(normal_quantile(default_prob))
    stat = _ks_statistic(sample, mean, sd)
    crit = 1.6276 / math.sqrt(len(sample))  # asymptotic 1% Kolmogorov critical value
    if stat > crit:
        return CheckReport(name, False,
                           f"threshold sample fails KS at 1% ({stat:.5f} > {crit:.5f})")
    return CheckReport(
        name, True,
        f"failure rate {fund_freq:.5f}, negative-threshold rate {thr_freq:.5f} "
        f"(target {default_prob}), KS {stat:.5f} < {crit:.5f}",
    )


# -- validation-only oracles -----------------------------------------------


def brute_force_fixed_point(
    net: DirectedNetwork,
    sheets: BalanceSheets,
    shocks: ShockDraw,
) -> CascadeResult:
    """Desk-scale oracle: least fixed point by exhaustive re-evaluation.

    Every pass re-derives every bank's full default condition from the
    current default set, with none of the engine's incremental bookkeeping.
    Quadratic and deliberately naive; refuses networks above 20 nodes.
    """
    n = net.n_nodes
    if n > 20:
        raise ValueError("brute-force oracle is limited to networks of <= 20 nodes")
    returns = shocks.asset_returns
    worth = sheets.net_worth
    if len(sheets) != n or len(returns) != n:
        raise ValueError("network, sheets and shocks must agree on the number of banks")

    defaulted = [returns[i] < -worth[i] for i in range(n)]
    n_fundamental = sum(defaulted)
    rounds = 0
    while True:
        new = list(defaulted)
        changed = False
        for i in range(n):
            if defaulted[i]:
                continue
            loss = 0.0
            nbrs, loans = net.borrowers_of(i)
            for j, amount in zip(nbrs, loans):
                if defaulted[j]:
                    loss += amount
            if loss - returns[i] > worth[i]:
                new[i] = True
                changed = True
        if not changed:
            break
        rounds += 1
        defaulted = new
    return CascadeResult(np.asarray(defaulted, dtype=bool), int(n_fundamental),
                         int(sum(defaulted)), rounds)


def run_balance_cascade_async(
    net: DirectedNetwork,
    sheets: BalanceSheets,
    shocks: ShockDraw,
    rng_seed,
) -> CascadeResult:
    """Random-order, one-bank-at-a-time schedule. Validation harness only:
    the default condition is monotone, so this must reach the same fixed
    point as the synchronous engine (round counts are not comparable and
    are reported as 0)."""
    n = net.n_nodes
    returns = shocks.asset_returns
    worth = sheets.net_worth
    if len(sheets) != n or len(returns) != n:
        raise ValueError("network, sheets and shocks must agree on the number of banks")
    rng = as_generator(rng_seed)

    defaulted = returns < -worth
    n_fundamental = int(defaulted.sum())
    changed = True
    while changed:
        changed = False
        for i in rng.permutation(n):
            if defaulted[i]:
                continue
            nbrs, loans = net.borrowers_of(i)
            loss = float(loans[defaulted[nbrs]].sum()) if len(nbrs) else 0.0
            if loss - returns[i] > worth[i]:
                defaulted[i] = True
                changed = True
    return CascadeResult(defaulted, n_fundamental, int(defaulted.sum()), 0)
