"""Default cascades driven by explicit balance sheets, and the one
propagation kernel that both engines share.

One trial draws a return on every bank's external assets, then propagates
defaults with zero recovery: a lender writes off the full face value of every
loan to a defaulted borrower, and a bank fails as soon as its write-offs
minus its own asset return exceed its net worth. Every outcome is a step
matrix, one row per trial: the round in which each bank defaulted (0 for its
own loss, -1 for never).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .balance import BalanceSheets
from .network import DirectedNetwork
from .rng import as_generator, draw_rows, normal_from_standard

__all__ = ["CascadeResult", "draw_shocks", "run_balance_cascade"]

# (trial, bank) keys per kernel block: 1 MiB per float64 array, so one run's
# exposure and the thresholds it reads together fit a 2 MiB L2 cache
_BLOCK_KEYS = 1 << 17


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


def _batch_propagate(net: DirectedNetwork, thresholds: np.ndarray,
                     edge_amounts) -> np.ndarray:
    """The one cascade kernel, and the only place a flip is decided: propagate
    runs of many trials on one network together, superstep by superstep, to
    their synchronous fixed points.

    ``thresholds`` is a (runs, trials, banks) stack and is not modified;
    ``edge_amounts`` is a sequence of per-edge amount arrays, one per run. A
    bank flips once its exposure strictly exceeds its threshold. Exposure
    starts at 0, so superstep 0 (round 0) flips exactly the negative
    thresholds. In each later superstep, a run's amount of each edge into a
    newly flipped borrower is added to the lender's exposure in that trial.
    Only lenders receive exposure, so a non-lender's entry is read only by
    its sign, at round 0: -inf, NaN and +inf are all valid there. Batching
    only removes per-round Python overhead; the per-trial engines run one
    run of one trial.

    A block's runs go on together while all their flips agree, round 0
    included: they share each superstep's edge expansion, sort and dedup,
    while each run adds its own amounts in the same order and makes its own
    comparison. From the first superstep where any flips differ, each run
    goes on alone. So every run's steps are, bit for bit, those of a one-run
    call. The sweep runs each of a chunk's engines as one run of one call.

    - Round 0 is exact. A rounded sum or difference keeps the sign of the
      exact one and is 0 only when it is, so fl(w + r) < 0 (net worth w,
      asset return r) exactly when r < -w, and the standalone draw's
      fl(u - p) < 0 exactly when u < p. Only the exposure sums of later
      supersteps round.
    - Trials never interact, so they run in blocks of about ``_BLOCK_KEYS``
      (trial, bank) keys, with one exposure per run and block. Each run's
      float arrays stay cache-sized, and the kernel's memory beyond its step
      matrices does not grow with the trial count.
    - A block retires each flipped key by setting its exposure to ``-inf``:
      the round-0 flips first, then each new frontier. Adding a finite loss
      leaves ``-inf`` in place and ``-inf > threshold`` never holds, so a
      flipped key never flips again and needs no mask.
    - Within a superstep, each (trial, lender) exposure receives its additions
      in ascending borrower order: the frontier stays sorted by (trial, bank)
      and ``np.add.at`` applies additions in input order.

    Returns a stack of step matrices, one per run: the superstep in which
    each bank flipped (0 for round 0), or -1 if it never did, in the
    smallest signed dtype that holds -N (int16 at N = 1000).
    """
    n_trials, n = thresholds.shape[1:]
    step = np.full(thresholds.shape, -1, dtype=np.min_scalar_type(-n))
    in_degree, edge_end, hop = net.in_degree, net.in_indptr[1:], net.in_hop
    rows = max(1, _BLOCK_KEYS // n)
    for first_row in range(0, n_trials, rows):
        block = slice(first_row, first_row + rows)
        # per run: its thresholds (only read), its exposure and its steps, as
        # flat (trial, bank) keys; whole rows of a C-ordered array are a view
        group = [(t[block].ravel(), np.zeros(t[block].size), amount, s[block].ravel())
                 for t, amount, s in zip(thresholds, edge_amounts, step)]
        # (runs that go on together, keys, each run's flips of those keys,
        # superstep); round 0 reads every key (None), with exposure 0
        pending = [(group, None, [thr < 0 for thr, _, _, _ in group], 0)]
        while pending:
            group, keys, flips, superstep = pending.pop()
            while True:
                if len(flips) > 1 and any(not np.array_equal(flips[0], f) for f in flips[1:]):
                    # the runs part: each goes on alone with its own flips
                    pending += [([run], keys, [f], superstep) for run, f in zip(group, flips)]
                    break
                frontier = (np.flatnonzero(flips[0]) if keys is None
                            else _sorted_unique(keys.compress(flips[0])))
                if not frontier.size:
                    break
                for _, exposure, _, step_flat in group:
                    step_flat[frontier] = superstep
                    exposure[frontier] = -np.inf
                jj = frontier % n
                # one entry per edge into the frontier: its frontier position,
                # then its index into the borrower-grouped edge arrays
                counts = in_degree.take(jj)
                pos = np.arange(jj.size).repeat(counts)
                shift = edge_end.take(jj)
                shift -= counts.cumsum()
                idx = shift.take(pos)
                idx += np.arange(idx.size)
                keys = frontier.take(pos)
                del pos  # one edge-sized array less at the superstep's peak
                keys += hop.take(idx)
                # each run adds, then compares, while its block's arrays are cached
                flips = []
                for thr, exposure, amount, _ in group:
                    np.add.at(exposure, keys, amount.take(idx))
                    flips.append(exposure.take(keys) > thr.take(keys))
                superstep += 1
    return step


def balance_rows(net: DirectedNetwork, margin: np.ndarray) -> np.ndarray:
    """The balance-sheet rule over (trials, banks) rows of ``margin``, each
    bank's net worth plus its asset return: the kernel with the margin as
    threshold and each loan's face value as exposure. A bank defaults at
    round 0 iff its return alone wipes out its net worth (a negative
    margin), and in a later synchronous round iff its accumulated
    write-offs strictly exceed its margin; ties survive. ``margin`` is not
    modified. Returns the kernel's step matrix, as a one-run call.
    """
    return _batch_propagate(net, margin[None], [net.in_loan])[0]


def run_balance_cascade(
    net: DirectedNetwork,
    sheets: BalanceSheets,
    returns: np.ndarray,
) -> CascadeResult:
    """Run one trial to its fixed point: :func:`balance_rows` on one row of
    asset returns, which it does not modify and which must be finite."""
    returns = _trial_returns(net, sheets, returns)
    return CascadeResult(balance_rows(net, (sheets.net_worth + returns)[None])[0])
