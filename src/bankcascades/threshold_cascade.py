"""Threshold-rule cascades that need no balance sheets.

Each lending bank carries a scalar threshold: it flips once the weighted
fraction of its defaulted borrowers strictly exceeds that threshold, so a
negative threshold fails at the outset. Thresholds are either sampled from
the normal law that the sheet parameters imply (:func:`draw_thresholds`) or
mapped from asset returns (:func:`thresholds_from_shocks`); in the mapped
form this engine reproduces the balance-sheet engine trial for trial, exactly
where the mapped threshold times L gives back the margin.
"""
from __future__ import annotations

import numpy as np

from .balance import BalanceParams, BalanceSheets, _require_shares
from .balance_cascade import CascadeResult, _trial_returns, balance_rows
from .network import DirectedNetwork
from .rng import as_generator, draw_rows, normal_from_standard

__all__ = [
    "draw_thresholds",
    "shadow_threshold_pdf",
    "run_threshold_cascade",
    "thresholds_from_shocks",
]


def thresholds_from_normals(
    z: np.ndarray,
    net: DirectedNetwork,
    params: BalanceParams,
    theta_draws: np.ndarray,
) -> np.ndarray:
    """Map standard normal draws ``z`` (one row per trial) onto each lending
    bank's threshold law, in place; a non-lender's entry keeps its value.

    The law of a bank with share theta is Normal(ratio, (ratio / |q|)^2)
    where ratio = capital_ratio / theta and q is the normal quantile of the
    default probability.
    """
    lends = net.is_lender
    ratio = np.where(lends, params.capital_ratio / theta_draws, 0.0)
    scale = np.where(lends, ratio / abs(params.default_quantile), 1.0)
    return normal_from_standard(z, ratio, scale)


def _split(net: DirectedNetwork, row: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One trial row as the public (thresholds, inactive_flips): NaN and a
    round-0 flip where the row is negative, for each non-lender."""
    inactive = ~net.is_lender
    return np.where(inactive, np.nan, row), (row < 0) & inactive


def draw_thresholds(
    net: DirectedNetwork,
    params: BalanceParams,
    theta_draws: np.ndarray,
    rng_seed,
) -> tuple[np.ndarray, np.ndarray]:
    """One trial of the standalone threshold model, as (thresholds,
    inactive_flips): row 0 of :func:`draw_rows`. Lenders' thresholds follow
    their implied law (see :func:`thresholds_from_normals`); each non-lender
    flips at round 0 with the default probability. No sheets are consulted.
    A Generator passed as ``rng_seed`` ends where drawing n standard normals
    and then n uniforms leaves it, though only the uniforms up to the last
    non-lender are read: a buffered 32-bit half, which ``PCG64.advance``
    drops, is put back.
    """
    n = net.n_nodes
    theta_draws = np.asarray(theta_draws, dtype=np.float64)
    if theta_draws.shape != (n,):
        raise ValueError("theta_draws must have one entry per bank")
    _require_shares(theta_draws)
    rng = as_generator(rng_seed)
    before = rng.bit_generator.state
    rows = draw_rows([rng], 1, n, params.default_prob, ~net.is_lender)
    if before.get("has_uint32"):  # a full draw keeps it; PCG64.advance does not
        rng.bit_generator.state = {**rng.bit_generator.state, "has_uint32": 1,
                                   "uinteger": before["uinteger"]}
    return _split(net, thresholds_from_normals(rows, net, params, theta_draws)[0])


def shadow_threshold_pdf(x, interbank_assets: float, capital_ratio: float,
                         theta: float, return_pdf) -> np.ndarray:
    """Density of the implied threshold under an arbitrary return density.

    ``return_pdf`` is the density g of the bank's asset return; the
    threshold density at x is L * g(x * L - capital_ratio * L / theta) with
    L the bank's interbank assets. Used to validate sampled thresholds.
    """
    if not interbank_assets > 0:
        raise ValueError("threshold density requires positive interbank assets")
    for name, value in (("theta", theta), ("capital_ratio", capital_ratio)):
        if not 0 < value < 1:  # the ranges ThetaDistribution and BalanceParams enforce
            raise ValueError(f"{name} must lie in (0, 1), got {value!r}")
    x = np.asarray(x, dtype=np.float64)
    L = interbank_assets
    return L * return_pdf(x * L - capital_ratio * L / theta)


def _in_loans(net: DirectedNetwork, thresholds: np.ndarray, out=None) -> np.ndarray:
    """Fraction thresholds t, (trials, banks) rows, in the loans' own scale,
    which the kernel compares with: fl(t * L) for a lender with interbank
    assets L, kept negative where t is (fl(t * L) may underflow to -0.0). A
    non-lender's entry, read only by its sign, is kept."""
    negative = thresholds < 0
    x = np.multiply(thresholds, np.where(net.is_lender, net.interbank_assets, 1.0), out=out)
    return np.minimum(x, -5e-324, out=x, where=negative)


def threshold_rows(net: DirectedNetwork, thresholds: np.ndarray) -> np.ndarray:
    """The threshold rule over (trials, banks) rows: a lender flips once the
    loan-weighted share of its flipped borrowers strictly exceeds its
    threshold t, at round 0 when t is negative: the kernel
    (:func:`balance_rows`) on fl(t * L) (:func:`_in_loans`), so no weight
    loan / L is ever rounded. A non-lender flips at round 0 where its entry
    is negative, and never after. ``thresholds`` is not modified. Returns
    the kernel's step matrix.
    """
    return balance_rows(net, _in_loans(net, thresholds))


def thresholds_from_shocks(
    net: DirectedNetwork,
    sheets: BalanceSheets,
    returns: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Map one trial's asset returns onto the threshold model: each lender's
    threshold is fl(m / L), its margin m (net worth plus return) over its
    interbank assets L, kept negative where m is (fl(m / L) may underflow to
    -0.0), and each non-lender flips at round 0 where m < 0. Feeding the
    result to :func:`run_threshold_cascade` reproduces the balance-sheet
    engine's outcome on the same draw wherever fl(fl(m / L) * L) = m or
    m < 0; the sweep's coupled model maps m exactly. The returns must be
    finite, and are not modified."""
    margin = sheets.net_worth + _trial_returns(net, sheets, returns)
    t = margin / np.where(net.is_lender, net.interbank_assets, 1.0)
    return _split(net, np.minimum(t, -5e-324, out=t, where=margin < 0))


def run_threshold_cascade(
    net: DirectedNetwork,
    thresholds: np.ndarray,
    inactive_flips: np.ndarray,
) -> CascadeResult:
    """Run the threshold cascade to its fixed point: :func:`threshold_rows`
    on one row, with ``inactive_flips`` marking the non-lenders that flip
    at round 0. Neither input is modified. A lender's threshold may be
    +-inf but not NaN; a non-lender's is not read."""
    thresholds = np.asarray(thresholds, dtype=np.float64)
    flips = np.asarray(inactive_flips, dtype=bool)
    if thresholds.shape != (net.n_nodes,) or flips.shape != (net.n_nodes,):
        raise ValueError("thresholds and flip vector must have one entry per bank")
    if np.isnan(thresholds[net.is_lender]).any():
        raise ValueError("a lender's threshold must not be NaN")
    row = np.where(net.is_lender, thresholds, np.where(flips, -1.0, 0.0))
    return CascadeResult(threshold_rows(net, row[None])[0])
