"""Default cascades driven by explicit balance sheets.

One trial draws a return on every bank's external assets, marks the banks
whose loss alone wipes out their net worth, then propagates defaults with
zero recovery: a lender writes off the full face value of every loan to a
defaulted borrower and fails as soon as write-offs minus its own asset
return exceed its net worth. Propagation is synchronous and monotone, so it
reaches a fixed point in at most N rounds. The propagation kernel here,
:func:`_batch_propagate`, is the only one in the package: both engines run
it on a batch of one trial, and the sweep on all trials of a network.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .balance import BalanceSheets
from .network import DirectedNetwork
from .rng import as_generator, normal_from_standard

__all__ = ["ShockDraw", "CascadeResult", "draw_shocks", "run_balance_cascade"]


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


def _batch_propagate(
    net: DirectedNetwork,
    flipped: np.ndarray,
    can_flip: np.ndarray,
    thresholds: np.ndarray,
    edge_amount: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The one cascade kernel: propagate many trials of one network together,
    superstep by superstep, to their synchronous fixed points.

    ``flipped`` is (trials, banks), holds each trial's round-0 flips and is
    mutated in place. In every superstep, ``edge_amount`` of each edge into a
    newly flipped borrower is added to the lender's exposure in that trial,
    and every lender that ``can_flip`` and has not flipped yet flips once its
    exposure strictly exceeds its threshold. Batching only removes per-round
    Python overhead; the per-trial engines run a batch of one.

    - Within a superstep, each (trial, lender) exposure receives its additions
      in ascending borrower order: the frontier stays sorted by (trial, bank)
      and ``np.add.at`` applies additions in input order.
    - Exposures of lenders that have flipped or cannot flip are no longer
      accumulated, since nothing reads them again. Only the exposures a
      superstep changed are compared with their thresholds.

    Returns (flipped, rounds-per-trial), where a trial's round count is the
    number of supersteps that flipped at least one of its banks.
    """
    flipped = np.ascontiguousarray(flipped)  # flat view below must alias it
    n_trials, n = flipped.shape
    rounds = np.zeros(n_trials, dtype=np.int64)
    exposure = np.zeros(n_trials * n)
    thr_flat = np.ascontiguousarray(thresholds).ravel()
    flip_flat = flipped.ravel()
    live = (can_flip & ~flipped).ravel()  # (trial, lender) keys that may still flip
    in_degree, in_lender, edge_end = net.in_degree, net.in_lender, net.in_indptr[1:]
    frontier = flip_flat.nonzero()[0]  # flat (trial, bank) keys, sorted
    superstep = 0
    while frontier.size:
        tt, jj = np.divmod(frontier, n)
        # a trial whose frontier empties never gets one back, so the last
        # superstep that flipped anything in it is its round count
        rounds[tt] = superstep
        base = frontier - jj
        # one entry per edge into the frontier: its frontier position, then
        # its index into the borrower-grouped edge arrays
        counts = in_degree.take(jj)
        pos = np.arange(jj.size).repeat(counts)
        shift = edge_end.take(jj)
        shift -= counts.cumsum()
        idx = shift.take(pos)
        keys = base.take(pos)
        del pos  # one edge-sized array less at the superstep's peak
        idx += np.arange(idx.size)
        keys += in_lender.take(idx)
        # only the live (trial, lender) keys can change state; take/compress
        # rather than boolean-mask indexing, which is several times slower
        # on these irregular masks
        on_live = live.take(keys).nonzero()[0]
        keys = keys.take(on_live)
        np.add.at(exposure, keys, edge_amount.take(idx.take(on_live)))
        hit = keys.compress(exposure.take(keys) > thr_flat.take(keys))
        if not hit.size:
            break
        superstep += 1
        hit.sort()
        first = np.empty(hit.size, dtype=bool)  # first of each run of equal keys
        first[0] = True
        np.not_equal(hit[1:], hit[:-1], out=first[1:])
        frontier = hit.compress(first)
        flip_flat[frontier] = True
        live[frontier] = False
    return flipped, rounds


def _one_trial(net: DirectedNetwork, start: np.ndarray, can_flip: np.ndarray,
               thresholds: np.ndarray, edge_amount: np.ndarray) -> CascadeResult:
    """Run one trial as a batch of one; ``start`` holds its round-0 flips."""
    n_fundamental = int(np.count_nonzero(start))
    flipped, rounds = _batch_propagate(net, start[None], can_flip, thresholds[None],
                                       edge_amount)
    return CascadeResult(flipped[0], n_fundamental, int(np.count_nonzero(flipped)),
                         int(rounds[0]))


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

    return _one_trial(net, returns < -worth, np.ones(n, dtype=bool), worth + returns,
                      net.in_loan)
