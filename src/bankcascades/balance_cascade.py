"""Default cascades driven by explicit balance sheets, and the one
propagation kernel that both engines share.

One trial draws a return on every bank's external assets, then propagates
defaults with zero recovery: a lender writes off the full face value of every
loan to a defaulted borrower, and a bank fails as soon as its write-offs
exceed its margin m = fl(w + r), net worth plus asset return. The kernel
decides this exactly, in integer units of the network's loans. Every outcome
is a step matrix, one row per trial: the round in which each bank defaulted
(0 for its own loss, -1 for never).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .balance import BalanceSheets
from .network import DirectedNetwork, _as_units
from .rng import as_generator, draw_rows, normal_from_standard

__all__ = ["CascadeResult", "draw_shocks", "run_balance_cascade"]

# (trial, bank) keys per kernel block: 1 MiB per int64 array (128 KiB in
# int8), so a run's room and step rows fit a 2 MiB L2 cache. Half, double and
# four times this size read 2-9% slower on window-shaped int8 chunks
_BLOCK_KEYS = 1 << 17
# A block of at most _SCAN_KEYS keys (one trial up to N = 4096) finds each
# superstep's new frontier by scanning its rooms; a larger block gathers the
# expanded edges' lenders. A scan of 1,000 keys costs about as much as a
# gather of 200 edges
_SCAN_KEYS = 4096


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
    return shock_returns(draw_rows([as_generator(rng_seed)], 1, len(sheets)), sheets)[0]


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """``keys`` sorted in place, then the first of each run of equal keys."""
    if not keys.size:
        return keys
    keys.sort()
    first = np.empty(keys.size, dtype=bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys.compress(first)


def balance_rows(net: DirectedNetwork, margin: np.ndarray) -> np.ndarray:
    """The one cascade kernel, and the only place a flip is decided: propagate
    (trials, banks) rows of ``margin`` on one network, superstep by
    superstep, to their synchronous fixed points.

    Each entry x of ``margin`` is a float in the loans' own scale (not NaN),
    and ``margin`` is not modified. A bank flips once its loans to flipped
    borrowers sum to more than its x: at round 0 iff x is negative, and
    ties survive. For the balance-sheet rule x is the margin, net worth plus
    asset return; for a fraction threshold t it is fl(t * L), L the lender's
    interbank assets (``threshold_cascade.threshold_rows``). The kernel
    decides this exactly, on integers:

    - Loans are exact integers of 2**-s units (``in_loan_units``; s is the
      network's ``loan_unit_exponent``), so their sums are exact in any
      order. Each x becomes K = clip(floor(x * 2**s), -1, top), top >= U
      being the network's ``loan_unit_top`` and U the largest lender's
      total; a sum of units exceeds x iff it exceeds K. Units and K share
      the units' dtype, the smallest that holds -(U + 1): int8 for unit
      loans at N = 1000, int64 for case C, Python ints beyond int64.
    - Each (trial, bank) key's room starts at its K, so superstep 0 (round
      0) flips exactly the negative x; a non-lender loses nothing, so only
      its sign is read. Each later superstep takes each loan to a newly
      flipped borrower off its lender's room in that trial, and a key flips
      once its room is negative. A flipped key is retired by setting its
      room to top: at most U more can leave it, so it stays at least 0 and
      never flips again; an unflipped room stays >= -1 - U.
    - Trials never interact, so they run in blocks of about ``_BLOCK_KEYS``
      (trial, bank) keys, and memory beyond the step matrix does not grow
      with the trial count.

    Returns the step matrix: the superstep in which each bank flipped (0 for
    round 0), or -1 if it never did, in the smallest signed dtype that holds
    -N (int16 at N = 1000).
    """
    n_trials, n = margin.shape
    step = np.full(margin.shape, -1, dtype=np.min_scalar_type(-n))
    units, s, top = net.in_loan_units, net.loan_unit_exponent, net.loan_unit_top
    # K's bounds, -1 and top, scaled down by 2**s: exactly, as s <= 1074
    low, high = -(2.0**-s), math.ldexp(top, -s)
    in_degree, edge_end, in_lender = net.in_degree, net.in_indptr[1:], net.in_lender
    rows = max(1, _BLOCK_KEYS // n)
    for first_row in range(0, n_trials, rows):
        block = slice(first_row, first_row + rows)
        room = margin[block].clip(low, high).ravel()
        if s:
            np.ldexp(room, s, out=room)
        room = _as_units(np.floor(room, out=room), units.dtype)
        step_flat = step[block].ravel()  # whole rows of a C-ordered array: a view
        scan, one_row = room.size <= _SCAN_KEYS, room.size == n
        frontier, superstep = (room < 0).nonzero()[0], 0
        while frontier.size:
            step_flat[frontier] = superstep
            room[frontier] = top
            # one entry per edge into the frontier: its index into the
            # borrower-grouped edge arrays, and its lender's key; a one-row
            # block's keys are bank ids, with no row offset to add
            jj = frontier if one_row else frontier % n
            counts = in_degree.take(jj)
            shift = edge_end.take(jj)
            shift -= counts.cumsum()
            idx = shift.repeat(counts)
            idx += np.arange(idx.size)
            keys = in_lender.take(idx)
            if not one_row:
                keys += (frontier - jj).repeat(counts)
            np.subtract.at(room, keys, units.take(idx))
            # every earlier flip was retired at top, so the negative rooms are
            # exactly this superstep's new flips: a scan and a gather agree
            if scan:
                frontier = (room < 0).nonzero()[0]
            else:
                frontier = _sorted_unique(keys.compress(room.take(keys) < 0))
            superstep += 1
    return step


def run_balance_cascade(
    net: DirectedNetwork,
    sheets: BalanceSheets,
    returns: np.ndarray,
) -> CascadeResult:
    """Run one trial to its fixed point: :func:`balance_rows` on one row of
    asset returns, which it does not modify and which must be finite."""
    returns = _trial_returns(net, sheets, returns)
    return CascadeResult(balance_rows(net, (sheets.net_worth + returns)[None])[0])
