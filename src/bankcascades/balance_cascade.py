"""Default cascades driven by explicit balance sheets.

One trial draws a return on every bank's external assets, marks the banks
whose loss alone wipes out their net worth, then propagates defaults with
zero recovery: a lender writes off the full face value of every loan to a
defaulted borrower and fails as soon as write-offs minus its own asset
return exceed its net worth. Propagation is synchronous and monotone, so it
reaches a fixed point in at most N rounds. The propagation kernel here,
:func:`_batch_propagate`, is the only one in the package, and only the row
functions :func:`balance_rows` and ``threshold_cascade.threshold_rows`` call
it: the sweep on all trials of a network, everything else on a batch of one.
Asset returns are plain float arrays, one row per trial. Every outcome is a
step matrix, one row per trial too: the round in which each bank defaulted
(0 for its own loss, -1 for never). Default sets, round counts and
fundamental-default counts are all read from it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .balance import BalanceSheets
from .network import DirectedNetwork
from .rng import as_generator, draw_rows, normal_from_standard

__all__ = ["CascadeResult", "draw_shocks", "run_balance_cascade"]


def _require_finite(returns: np.ndarray) -> None:
    if not np.isfinite(returns).all():
        raise ValueError("asset returns must be finite")


def _trial_returns(net: DirectedNetwork, sheets: BalanceSheets, returns) -> np.ndarray:
    """One trial's asset returns as a float array: one per bank, all finite."""
    returns = np.asarray(returns, dtype=np.float64)
    if len(sheets) != net.n_nodes or returns.shape != (net.n_nodes,):
        raise ValueError("network, sheets and returns must agree on the number of banks")
    _require_finite(returns)
    return returns


@dataclass(frozen=True, eq=False)
class CascadeResult:
    """Outcome of one cascade: ``step[i]`` is the synchronous round in which
    bank i defaulted, 0 for a default on its own loss and -1 for a survivor.

    ``rounds`` counts the rounds after the initial shock that added at least
    one default; a pure shock with no contagion has ``rounds == 0``.
    """

    step: np.ndarray

    @property
    def defaulted(self) -> np.ndarray:
        return self.step >= 0

    @property
    def n_fundamental(self) -> int:
        return int(np.count_nonzero(self.step == 0))

    @property
    def rounds(self) -> int:
        return int(self.step.max(initial=0))

    @property
    def n_total(self) -> int:
        return int(np.count_nonzero(self.step >= 0))

    @property
    def fraction(self) -> float:
        return self.n_total / len(self.step)

    def same_outcome(self, other: "CascadeResult") -> bool:
        """True when every bank defaults in the same round, or survives, in both."""
        return bool(np.array_equal(self.step, other.step))


def shock_returns(z: np.ndarray, sheets: BalanceSheets) -> np.ndarray:
    """Asset returns from standard normal draws ``z`` (one row per trial),
    scaled in place by each bank's calibrated volatility: the same values
    as ``rng.normal(0.0, sheets.return_std)``. Raises ValueError unless
    every return is finite."""
    returns = normal_from_standard(z, 0.0, sheets.return_std)
    _require_finite(returns)
    return returns


def draw_shocks(sheets: BalanceSheets, rng_seed) -> np.ndarray:
    """Independent zero-mean normal returns, one per bank, scaled by each
    bank's calibrated volatility: row 0 of :func:`draw_rows`."""
    if len(sheets) == 0:
        raise ValueError("need at least one bank")
    normals, _ = draw_rows([as_generator(rng_seed)], 1, len(sheets))
    return shock_returns(normals, sheets)[0]


def _batch_propagate(
    net: DirectedNetwork,
    start: np.ndarray,
    thresholds: np.ndarray,
    edge_amount: np.ndarray,
) -> np.ndarray:
    """The one cascade kernel: propagate many trials of one network together,
    superstep by superstep, to their synchronous fixed points.

    ``start`` is (trials, banks) and marks each trial's round-0 flips; it is
    not modified. In every superstep, ``edge_amount`` of each edge into a
    newly flipped borrower is added to the lender's exposure in that trial,
    and every lender that has not flipped yet flips once its exposure
    strictly exceeds its threshold. Only lenders receive exposure, so a
    non-lender flips at round 0 or never. Batching only removes per-round
    Python overhead; the per-trial engines run a batch of one.

    - Within a superstep, each (trial, lender) exposure receives its additions
      in ascending borrower order: the frontier stays sorted by (trial, bank)
      and ``np.add.at`` applies additions in input order.
    - Exposures of lenders that have flipped are no longer accumulated, since
      nothing reads them again. Only the exposures a superstep changed are
      compared with their thresholds.

    Returns the (trials, banks) step matrix: the superstep in which each bank
    flipped (0 for round 0), or -1 if it never did, in the smallest signed
    dtype that holds -N (int16 at N = 1000).
    """
    n_trials, n = start.shape
    step = start.astype(np.min_scalar_type(-n))  # 1 where flipped at round 0
    step -= 1
    exposure = np.zeros(n_trials * n)
    thr_flat = np.ascontiguousarray(thresholds).ravel()
    step_flat = step.ravel()  # ``step`` is a fresh C-ordered array: a view
    live = (~start).ravel()  # (trial, bank) keys that may still flip
    in_degree, in_lender, edge_end = net.in_degree, net.in_lender, net.in_indptr[1:]
    frontier = np.flatnonzero(start)  # flat (trial, bank) keys, sorted
    superstep = 0
    while frontier.size:
        jj = frontier % n
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
        step_flat[frontier] = superstep
        live[frontier] = False
    return step


def balance_rows(net: DirectedNetwork, worth: np.ndarray, returns: np.ndarray) -> np.ndarray:
    """The balance-sheet rule over (trials, banks) rows of asset returns.

    Initial defaults are the banks with ``return < -net_worth``. In each
    synchronous round a live bank defaults iff its accumulated write-offs
    minus its own return strictly exceed its net worth; ties survive.
    Returns the kernel's step matrix.
    """
    return _batch_propagate(net, returns < -worth, worth + returns, net.in_loan)


def run_balance_cascade(
    net: DirectedNetwork,
    sheets: BalanceSheets,
    returns: np.ndarray,
) -> CascadeResult:
    """Run one trial to its fixed point: :func:`balance_rows` on one row of
    asset returns, which it does not modify and which must be finite."""
    returns = _trial_returns(net, sheets, returns)
    return CascadeResult(balance_rows(net, sheets.net_worth, returns[None])[0])
