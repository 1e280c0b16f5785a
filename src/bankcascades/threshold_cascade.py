"""Threshold-rule cascades that need no balance sheets.

Each lending bank carries a scalar threshold: it flips once the weighted
fraction of its defaulted borrowers strictly exceeds that threshold (with
equal loan sizes the fraction is simply flipped-over-total borrowers). A
negative threshold means the bank fails at the outset, which is how the
initial shock enters. Thresholds are either sampled directly from the
normal law implied by the sheet parameters, or mapped from a concrete
shock draw via ``(net_worth + return) / interbank_assets``; in the mapped
form this engine reproduces the balance-sheet engine trial for trial.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .balance import BalanceParams, BalanceSheets
from .balance_cascade import CascadeResult, ShockDraw, _one_trial
from .network import DirectedNetwork
from .rng import as_generator, normal_from_standard

__all__ = [
    "ThresholdAssignment",
    "shadow_threshold",
    "sample_thresholds",
    "shadow_threshold_pdf",
    "run_threshold_cascade",
    "thresholds_from_shocks",
    "draw_inactive_flips",
]


@dataclass(frozen=True, eq=False)
class ThresholdAssignment:
    """Per-bank flip thresholds plus the per-edge borrower weights.

    ``thresholds`` is meaningful (finite) only where ``active`` is True,
    i.e. for banks that lend; non-lenders hold NaN and can only flip at
    round 0. ``edge_weights`` is aligned with the network's borrower-grouped
    edge arrays and holds loan_size / lender's total lending, so each active
    lender's weights sum to 1.
    """

    thresholds: np.ndarray
    active: np.ndarray
    edge_weights: np.ndarray

    def __post_init__(self):
        self.thresholds.setflags(write=False)
        self.active.setflags(write=False)


def shadow_threshold(net_worth: float, interbank_assets: float, asset_return: float) -> float:
    """Flip threshold implied by one bank's state:
    (net_worth + asset_return) / interbank_assets.

    May be negative (the bank fails on its own) or exceed 1 (immune to
    contagion this trial). Only defined for banks that lend.
    """
    if not interbank_assets > 0:
        raise ValueError("shadow threshold requires positive interbank assets")
    return (net_worth + asset_return) / interbank_assets


def thresholds_from_normals(
    z: np.ndarray,
    net: DirectedNetwork,
    params: BalanceParams,
    theta_draws: np.ndarray,
) -> np.ndarray:
    """Map standard normal draws ``z`` (one row per trial) onto each lending
    bank's threshold law, in place; non-lenders get NaN.

    The law of a bank with share theta is Normal(ratio, (ratio / |q|)^2)
    where ratio = capital_ratio / theta and q is the normal quantile of the
    default probability.
    """
    ratio = params.capital_ratio / theta_draws
    thresholds = normal_from_standard(z, ratio, ratio / abs(params.default_quantile))
    thresholds[..., ~(net.interbank_assets > 0)] = np.nan
    return thresholds


def sample_thresholds(
    net: DirectedNetwork,
    params: BalanceParams,
    theta_draws: np.ndarray,
    rng_seed,
) -> ThresholdAssignment:
    """Draw each lending bank's threshold directly from its implied law
    (see :func:`thresholds_from_normals`). No sheets are consulted: the
    parameters and loan sizes are all the model needs.
    """
    n = net.n_nodes
    theta_draws = np.asarray(theta_draws, dtype=np.float64)
    if theta_draws.shape != (n,):
        raise ValueError("theta_draws must have one entry per bank")
    rng = as_generator(rng_seed)
    thresholds = thresholds_from_normals(rng.standard_normal(n), net, params, theta_draws)
    return ThresholdAssignment(thresholds, net.interbank_assets > 0, net.in_edge_weights)


def draw_inactive_flips(active: np.ndarray, default_prob: float, rng_seed) -> np.ndarray:
    """Round-0 flips for non-lending banks: each flips independently with
    the common default probability (they carry no threshold)."""
    rng = as_generator(rng_seed)
    return ~active & (rng.random(len(active)) < default_prob)


def shadow_threshold_pdf(x, interbank_assets: float, capital_ratio: float,
                         theta: float, return_pdf) -> np.ndarray:
    """Density of the implied threshold under an arbitrary return density.

    ``return_pdf`` is the density g of the bank's asset return; the
    threshold density at x is L * g(x * L - capital_ratio * L / theta) with
    L the bank's interbank assets. Used to validate sampled thresholds.
    """
    if not interbank_assets > 0:
        raise ValueError("threshold density requires positive interbank assets")
    x = np.asarray(x, dtype=np.float64)
    L = interbank_assets
    return L * return_pdf(x * L - capital_ratio * L / theta)


def coupled_thresholds(net: DirectedNetwork, worth: np.ndarray,
                       returns: np.ndarray) -> np.ndarray:
    """The coupled mapping: each lending bank's threshold is
    (net_worth + return) / interbank_assets; non-lenders get NaN.
    ``returns`` may hold one row per trial."""
    with np.errstate(divide="ignore", invalid="ignore"):
        thresholds = (worth + returns) / net.interbank_assets
    thresholds[..., ~(net.interbank_assets > 0)] = np.nan
    return thresholds


def initial_flips(active: np.ndarray, thresholds: np.ndarray,
                  inactive_flips: np.ndarray) -> np.ndarray:
    """The round-0 rule: a lender flips when its threshold is negative, a
    non-lender when ``inactive_flips`` marks it. Rows broadcast; the lenders'
    entries of ``inactive_flips`` are overwritten and the array returned."""
    np.copyto(inactive_flips, thresholds < 0, where=active)
    return inactive_flips


def thresholds_from_shocks(
    net: DirectedNetwork,
    sheets: BalanceSheets,
    shocks: ShockDraw,
) -> tuple[ThresholdAssignment, np.ndarray]:
    """Map one concrete shock draw onto the threshold model.

    Lending banks get (net_worth + return) / interbank_assets; non-lenders
    get a round-0 flip exactly when the return alone wipes out their net
    worth. Feeding the result to :func:`run_threshold_cascade` reproduces
    the balance-sheet engine's outcome on the same draw.
    """
    active = net.interbank_assets > 0
    worth = sheets.net_worth
    returns = shocks.asset_returns
    thresholds = coupled_thresholds(net, worth, returns)
    inactive_flips = ~active & (returns < -worth)
    return ThresholdAssignment(thresholds, active, net.in_edge_weights), inactive_flips


def run_threshold_cascade(
    net: DirectedNetwork,
    thr: ThresholdAssignment,
    inactive_flips: np.ndarray,
    *,
    ge_rule: bool = False,
) -> CascadeResult:
    """Run the threshold cascade to its fixed point.

    Round 0 flips every active bank with a negative threshold plus the
    non-lenders marked in ``inactive_flips``. Each later synchronous round
    flips an active bank iff the summed weights of its flipped borrowers
    strictly exceed its threshold; flipped banks stay flipped.

    ``ge_rule`` switches the comparison to >= and exists only as a fault
    injection hook for the self-check harness; leave it False.
    """
    n = net.n_nodes
    start = np.array(inactive_flips, dtype=bool)  # a copy: the cascade flips it
    if len(thr.thresholds) != n or len(start) != n:
        raise ValueError("assignment and flip vector must have one entry per bank")

    initial_flips(thr.active, thr.thresholds, start)
    thresholds = thr.thresholds
    if ge_rule:
        # compare mu >= t by nudging the threshold to the previous float
        thresholds = np.nextafter(thresholds, -np.inf)
    return _one_trial(net, start, thr.active, thresholds, thr.edge_weights)
