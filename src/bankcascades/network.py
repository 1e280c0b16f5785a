"""Directed random networks of interbank loans.

An edge points lender -> borrower (the direction funds flowed when the loan
was made); losses travel the other way when a borrower defaults. Edges are
stored in canonical order, sorted by (lender, borrower), so regenerating a
network from the same seed reproduces the edge list byte for byte.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import ClassVar

import numpy as np

from .rng import as_generator

__all__ = [
    "LoanSizeDistribution",
    "DirectedNetwork",
    "from_edges",
    "generate_er",
    "save_edge_list",
    "load_edge_list",
]

# The edge stream generate_er draws, stamped on every manifest: new draws need a new name.
NETWORK_STREAM = "er-v2"


@dataclass(frozen=True)
class LoanSizeDistribution:
    """A law on [lo, hi] with 0 < lo <= hi, constant or uniform: the size of
    individual interbank loans. ``balance.ThetaDistribution`` narrows it to
    shares below 1."""

    kind: str
    lo: float
    hi: float
    quantity: ClassVar[str] = "loan sizes"  # what the law draws, for error messages

    def __post_init__(self):
        if self.kind not in ("constant", "uniform"):
            raise ValueError(f"unknown {self.quantity} distribution kind {self.kind!r}")
        if isinstance(self.lo, bool) or isinstance(self.hi, bool):
            raise ValueError(f"{self.quantity} must be numbers, got {self.lo!r}, {self.hi!r}")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"{self.quantity} must be finite, got lo={self.lo}, hi={self.hi}")
        if not 0 < self.lo <= self.hi:
            raise ValueError(f"{self.quantity} require 0 < lo <= hi, got {self.lo}, {self.hi}")

    @classmethod
    def constant(cls, value: float):
        return cls("constant", float(value), float(value))

    @classmethod
    def uniform(cls, lo: float, hi: float):
        return cls("uniform", float(lo), float(hi))

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.kind == "constant":
            return np.full(n, self.lo)
        return rng.uniform(self.lo, self.hi, size=n)

    def mean(self) -> float:
        return 0.5 * (self.lo + self.hi)


def _as_units(x: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """Whole-number floats ``x`` as ``dtype``; for the object dtype, as Python
    ints, which a cast would leave floats."""
    return np.frompyfunc(int, 1, 1)(x) if dtype == object else x.astype(dtype)


@dataclass(frozen=True, eq=False)
class DirectedNetwork:
    """Weighted directed network, edges in canonical (lender, borrower) order.

    The constructor validates the edge list; use :func:`from_edges` for
    unsorted input. All arrays are frozen so a network can be shared
    read-only across concurrent trials.
    """

    n_nodes: int
    lender: np.ndarray
    borrower: np.ndarray
    loan_size: np.ndarray

    def __post_init__(self):
        n, E = self.n_nodes, len(self.lender)
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise ValueError(f"n_nodes must be an integer, got {n!r}")
        if n < 1:
            raise ValueError("network needs at least one node")
        if not (len(self.borrower) == len(self.loan_size) == E):
            raise ValueError("edge arrays must have equal length")
        if self.lender.dtype.kind not in "iu" or self.borrower.dtype.kind not in "iu":
            raise ValueError("lender and borrower ids must be integer arrays")
        if E:
            if self.lender.min() < 0 or self.lender.max() >= n:
                raise ValueError("lender id out of range")
            if self.borrower.min() < 0 or self.borrower.max() >= n:
                raise ValueError("borrower id out of range")
            if np.any(self.lender == self.borrower):
                raise ValueError("self-loops are not allowed")
            if not (self.loan_size.min() > 0 and self.loan_size.max() < np.inf):  # NaN fails too
                raise ValueError("loan sizes must be positive and finite")
            key = self.lender.astype(np.int64, copy=False) * n
            key += self.borrower
            if np.any(key[1:] <= key[:-1]):
                raise ValueError("edges must be unique and sorted by (lender, borrower)")
        for arr in (self.lender, self.borrower, self.loan_size):
            arr.setflags(write=False)

    @property
    def n_edges(self) -> int:
        return len(self.lender)

    # -- cached per-direction indexes -------------------------------------

    @cached_property
    def _in_order(self) -> np.ndarray:
        """Permutation of canonical edges into (borrower, lender) order:
        canonical edges already run in lender order, so a stable sort by
        borrower alone keeps it (a radix sort up to 65,536 nodes)."""
        borrower = self.borrower.astype(np.min_scalar_type(self.n_nodes - 1))
        return np.argsort(borrower, kind="stable")

    @cached_property
    def in_indptr(self) -> np.ndarray:
        return np.concatenate(([0], self.in_degree.cumsum()))

    @cached_property
    def in_lender(self) -> np.ndarray:
        """Per edge (borrower-grouped): the lender's id, as intp."""
        lender = self.lender.take(self._in_order).astype(np.intp, copy=False)
        lender.setflags(write=False)
        return lender

    @cached_property
    def interbank_assets(self) -> np.ndarray:
        """Total amount each bank has lent out (sum of its outgoing loans)."""
        return np.bincount(self.lender, weights=self.loan_size, minlength=self.n_nodes)

    @cached_property
    def is_lender(self) -> np.ndarray:
        """Per bank: does it lend anything (interbank assets > 0)?"""
        lends = self.interbank_assets > 0
        lends.setflags(write=False)
        return lends

    @cached_property
    def interbank_liabilities(self) -> np.ndarray:
        """Total amount each bank has borrowed (sum of its incoming loans)."""
        return np.bincount(self.borrower, weights=self.loan_size, minlength=self.n_nodes)

    @cached_property
    def out_degree(self) -> np.ndarray:
        return np.bincount(self.lender, minlength=self.n_nodes).astype(np.int64, copy=False)

    @cached_property
    def in_degree(self) -> np.ndarray:
        return np.bincount(self.borrower, minlength=self.n_nodes).astype(np.int64, copy=False)

    @cached_property
    def loan_unit_exponent(self) -> int:
        """The least s >= 0 for which every loan * 2**s is an integer: 0 for
        unit loans, about 55 for loans drawn from [0.2, 1.8]. A loan with
        frexp exponent e is bits * 2**(e - 53), so s <= 53 - e for the smallest
        loan's e, and a normal loan of that binade with odd bits attains it;
        failing that, every loan is scanned. It reads 2**16 loans at a time,
        so its temporaries stay small at any network size."""
        loans = self.loan_size
        pieces = [loans[first:first + (1 << 16)] for first in range(0, self.n_edges, 1 << 16)]
        at = int(loans.argmin()) if self.n_edges else None
        # a normal float64's lowest raw bit is its significand's lowest bit
        if at is not None and loans.dtype == np.float64 and loans[at] >= 2.0**-1022:
            e = math.frexp(loans[at])[1]
            top = math.ldexp(1.0, e)
            if (loans.view(np.int64)[at] & 1
                    or any((piece.view(np.int64)[piece < top] & 1).any() for piece in pieces)):
                return max(0, 53 - e)
        least = 54
        for piece in pieces:
            mantissa, exponent = np.frexp(piece)
            bits = np.ldexp(mantissa, 53).astype(np.int64)  # loan = bits * 2**(exponent - 53)
            exponent += np.frexp(bits & -bits)[1]  # plus 1 + the lowest set bit's position
            least = min(least, int(exponent.min()))
        return 54 - least

    @cached_property
    def in_loan_units(self) -> np.ndarray:
        """Per edge (borrower-grouped): the loan in exact integer units of
        2**-loan_unit_exponent, in the smallest signed dtype that holds
        -(U + 1), U being the largest lender's total units: int8 for unit
        loans at N = 1000, int64 for case C up to z of about 190. Where U may
        pass 2**63 - 1024 (by a float bound within 2**-20 of exact), the units
        are Python ints (object dtype): slower, and as exact. A total beyond
        float range (loans some 2**970 apart in size) raises OverflowError."""
        s = self.loan_unit_exponent
        # the float total is exact below 2**53 units, where each partial sum is
        # a whole number of units, and within 2**-20 of exact above it
        most = math.ldexp(self.interbank_assets.max(initial=0), s)
        dtype = (np.min_scalar_type(-int(most) - 1) if most < math.ldexp(1 - 2.0**-20, 63)
                 else np.dtype(object))
        units = _as_units(np.ldexp(self.loan_size, s), dtype).take(self._in_order)  # whole units
        units.setflags(write=False)
        return units

    @cached_property
    def loan_unit_top(self) -> int:
        """A whole number of loan units, at least U, that ``in_loan_units``'
        dtype holds and a float represents exactly."""
        if self.in_loan_units.dtype == object:
            return int(math.ldexp(self.interbank_assets.max(), self.loan_unit_exponent + 1))
        return min(int(np.iinfo(self.in_loan_units.dtype).max), 2**63 - 1024)


def _node_ids(ids: list) -> np.ndarray:
    """Node ids as int64; ValueError unless each is a whole number."""
    ids = np.asarray(ids)
    if ids.dtype.kind == "f" and np.all(np.isfinite(ids) & (ids == np.floor(ids))):
        ids = ids.astype(np.int64)  # also the empty list's float64 array
    if ids.dtype.kind not in "iu":
        raise ValueError("node ids must be whole numbers")
    return ids.astype(np.int64, copy=False)


def from_edges(n_nodes: int, edges) -> DirectedNetwork:
    """Build a network from an iterable of (lender, borrower, loan_size)."""
    edges = list(edges)
    lender = _node_ids([e[0] for e in edges])
    borrower = _node_ids([e[1] for e in edges])
    loan = np.asarray([e[2] for e in edges], dtype=np.float64)
    order = np.lexsort((borrower, lender))
    lender, borrower, loan = lender[order], borrower[order], loan[order]
    return DirectedNetwork(n_nodes, lender, borrower, loan)


def generate_er(
    n: int,
    mean_degree: float,
    loan_dist: LoanSizeDistribution,
    rng_seed,
) -> DirectedNetwork:
    """Directed Erdos-Renyi network: each ordered pair (i, j), i != j, becomes
    an edge independently with probability mean_degree / (n - 1).

    Network stream ``er-v2``, O(edges): the gaps between successive edges in
    row-major pair order are geometric (Batagelj & Brandes, PRE 2005), drawn in
    chunks sized by (n, p) alone, then one loan size per edge in that order.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    if not 0 <= mean_degree <= n - 1:  # also rejects NaN
        raise ValueError(f"mean_degree must lie in [0, n-1], got {mean_degree}")
    rng = as_generator(rng_seed)
    if n == 1 or mean_degree == 0:  # rng.geometric needs p > 0
        return from_edges(n, [])

    n_pairs, p = n * (n - 1), mean_degree / (n - 1)
    # numpy gives INT64_MAX gaps at tiny p. Clipping gaps to n_pairs + 1 moves no position
    # below n_pairs and bounds a chunk's positions by n_pairs + 2**62 < 2**63 (no wrap).
    chunk = min(int(n_pairs * p + 4 * math.sqrt(n_pairs * p)) + 16, 2**62 // (n_pairs + 1))
    parts, last = [], -1
    while last < n_pairs:
        gaps = rng.geometric(p, chunk)
        np.minimum(gaps, n_pairs + 1, out=gaps)
        np.cumsum(gaps, out=gaps)
        gaps += last
        parts.append(gaps)
        last = int(gaps[-1])
    flat = parts[0] if len(parts) == 1 else np.concatenate(parts)
    del parts, gaps  # several chunks were copied into flat: freeing them lowers peak memory
    flat = flat[:np.searchsorted(flat, n_pairs)]
    lender = flat // (n - 1)  # int64, like flat: no cast needed below
    borrower = np.remainder(flat, n - 1, out=flat)  # the column, in place
    borrower += borrower >= lender  # skip the diagonal
    loan = loan_dist.sample(len(borrower), rng)
    # flat order is already sorted by (lender, borrower)
    return DirectedNetwork(n, lender, borrower, loan)


def save_edge_list(net: DirectedNetwork, path) -> None:
    """Plain-text dump: first line is the node count, then one
    ``lender borrower loan_size`` triple per line in canonical order."""
    lines = [str(net.n_nodes)]
    for i in range(net.n_edges):
        lines.append(f"{net.lender[i]} {net.borrower[i]} {net.loan_size[i]:.17g}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_edge_list(path) -> DirectedNetwork:
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty edge-list file")
    n = int(lines[0])
    edges = []
    for line in lines[1:]:
        if not line.strip():
            continue
        a, b, s = line.split()
        edges.append((int(a), int(b), float(s)))
    return from_edges(n, edges)
