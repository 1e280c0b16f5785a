"""Default cascades driven by explicit balance sheets.

One trial draws a return on every bank's external assets, marks the banks
whose loss alone wipes out their net worth, then propagates defaults with
zero recovery: a lender writes off the full face value of every loan to a
defaulted borrower and fails as soon as write-offs minus its own asset
return exceed its net worth. Propagation is synchronous and monotone, so it
reaches a fixed point in at most N rounds.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .balance import BalanceSheets
from .network import DirectedNetwork
from .rng import as_generator, normal_from_standard

__all__ = ["ShockDraw", "CascadeResult", "draw_shocks", "run_balance_cascade",
           "run_balance_cascade_async"]


def _require_finite(returns: np.ndarray) -> None:
    if not np.isfinite(returns).all():
        raise ValueError("asset returns must be finite")


@dataclass(frozen=True, eq=False)
class ShockDraw:
    """Per-bank return on external assets for one trial."""

    asset_returns: np.ndarray

    def __post_init__(self):
        _require_finite(self.asset_returns)
        self.asset_returns.setflags(write=False)


@dataclass(frozen=True, eq=False)
class CascadeResult:
    """Outcome of one cascade: who defaulted, and how it unfolded.

    ``rounds`` counts the synchronous propagation rounds after the initial
    shock that added at least one new default; a pure shock with no
    contagion has ``rounds == 0``.
    """

    defaulted: np.ndarray
    n_fundamental: int
    n_total: int
    rounds: int

    @property
    def fraction(self) -> float:
        return self.n_total / len(self.defaulted)

    def same_outcome(self, other: "CascadeResult") -> bool:
        """True when default set, round count and seed-default count all match."""
        return (
            self.n_fundamental == other.n_fundamental
            and self.n_total == other.n_total
            and self.rounds == other.rounds
            and bool(np.array_equal(self.defaulted, other.defaulted))
        )


def shock_returns(z: np.ndarray, sheets: BalanceSheets) -> np.ndarray:
    """Asset returns from standard normal draws ``z`` (one row per trial),
    scaled in place by each bank's calibrated volatility: the same values
    as ``rng.normal(0.0, sheets.return_std)``. Raises ValueError unless
    every return is finite."""
    returns = normal_from_standard(z, 0.0, sheets.return_std)
    _require_finite(returns)
    return returns


def draw_shocks(sheets: BalanceSheets, rng_seed) -> ShockDraw:
    """Independent zero-mean normal returns, one per bank, scaled by each
    bank's calibrated volatility."""
    if len(sheets) == 0:
        raise ValueError("need at least one bank")
    rng = as_generator(rng_seed)
    return ShockDraw(shock_returns(rng.standard_normal(len(sheets)), sheets))


def _propagate(
    net: DirectedNetwork,
    defaulted: np.ndarray,
    can_flip: np.ndarray,
    exposure: np.ndarray,
    threshold: np.ndarray,
    edge_amount: np.ndarray,
) -> tuple[np.ndarray, int]:
    """Shared synchronous fixed-point loop for both cascade engines.

    Starting from the already-defaulted set, repeatedly: add ``edge_amount``
    of every edge pointing at a newly defaulted borrower into the lenders'
    ``exposure`` accumulator, then flip every live bank whose exposure
    strictly exceeds its ``threshold``. ``exposure`` is mutated in place.
    """
    frontier = np.flatnonzero(defaulted)
    rounds = 0
    while frontier.size:
        idx, _ = net.in_edges_of(frontier)
        if idx.size:
            np.add.at(exposure, net.in_lender[idx], edge_amount[idx])
        newly = can_flip & ~defaulted & (exposure > threshold)
        frontier = np.flatnonzero(newly)
        if frontier.size:
            rounds += 1
            defaulted |= newly
    return defaulted, rounds


def run_balance_cascade(
    net: DirectedNetwork,
    sheets: BalanceSheets,
    shocks: ShockDraw,
) -> CascadeResult:
    """Run one trial to its fixed point.

    Initial defaults are the banks with ``return < -net_worth``. In each
    synchronous round a live bank defaults iff its accumulated write-offs
    minus its own return strictly exceed its net worth; ties survive.
    """
    n = net.n_nodes
    returns = shocks.asset_returns
    worth = sheets.net_worth
    if len(sheets) != n or len(returns) != n:
        raise ValueError("network, sheets and shocks must agree on the number of banks")

    defaulted = returns < -worth
    n_fundamental = int(defaulted.sum())
    defaulted, rounds = _propagate(
        net,
        defaulted,
        can_flip=np.ones(n, dtype=bool),
        exposure=np.zeros(n),
        threshold=worth + returns,
        edge_amount=net.in_loan,
    )
    return CascadeResult(defaulted, n_fundamental, int(defaulted.sum()), rounds)


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
