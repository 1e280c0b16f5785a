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

import numpy as np

from .rng import as_generator

__all__ = [
    "LoanSizeDistribution",
    "DirectedNetwork",
    "generate_er",
    "degrees",
    "save_edge_list",
    "load_edge_list",
]


@dataclass(frozen=True)
class LoanSizeDistribution:
    """Loan-size law for individual interbank loans: constant or uniform."""

    kind: str
    lo: float
    hi: float

    def __post_init__(self):
        if self.kind not in ("constant", "uniform"):
            raise ValueError(f"unknown loan size distribution kind {self.kind!r}")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"loan sizes must be finite, got lo={self.lo}, hi={self.hi}")
        if self.kind == "constant":
            if not self.lo > 0:
                raise ValueError("constant loan size must be > 0")
        else:
            if not (0 < self.lo <= self.hi):
                raise ValueError("uniform loan sizes require 0 < lo <= hi")

    @classmethod
    def constant(cls, size: float) -> "LoanSizeDistribution":
        return cls("constant", float(size), float(size))

    @classmethod
    def uniform(cls, lo: float, hi: float) -> "LoanSizeDistribution":
        return cls("uniform", float(lo), float(hi))

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.kind == "constant":
            return np.full(n, self.lo)
        return rng.uniform(self.lo, self.hi, size=n)

    def mean(self) -> float:
        return 0.5 * (self.lo + self.hi)


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
        if n < 1:
            raise ValueError("network needs at least one node")
        if not (len(self.borrower) == len(self.loan_size) == E):
            raise ValueError("edge arrays must have equal length")
        if E:
            if self.lender.min() < 0 or self.lender.max() >= n:
                raise ValueError("lender id out of range")
            if self.borrower.min() < 0 or self.borrower.max() >= n:
                raise ValueError("borrower id out of range")
            if np.any(self.lender == self.borrower):
                raise ValueError("self-loops are not allowed")
            if np.any(self.loan_size <= 0):
                raise ValueError("loan sizes must be positive")
            key = self.lender.astype(np.int64) * n + self.borrower
            if np.any(np.diff(key) <= 0):
                raise ValueError("edges must be unique and sorted by (lender, borrower)")
        for arr in (self.lender, self.borrower, self.loan_size):
            arr.setflags(write=False)

    @property
    def n_edges(self) -> int:
        return len(self.lender)

    # -- cached per-direction indexes -------------------------------------

    @cached_property
    def out_indptr(self) -> np.ndarray:
        """Offsets into the canonical edge arrays, grouped by lender."""
        counts = np.bincount(self.lender, minlength=self.n_nodes)
        indptr = np.zeros(self.n_nodes + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return indptr

    @cached_property
    def _in_order(self) -> np.ndarray:
        """Permutation of canonical edges into (borrower, lender) order. The
        (borrower, lender) keys are unique, so an unstable sort is exact."""
        return np.argsort(self.borrower.astype(np.int64, copy=False) * self.n_nodes + self.lender)

    @cached_property
    def in_indptr(self) -> np.ndarray:
        counts = np.bincount(self.borrower, minlength=self.n_nodes)
        indptr = np.zeros(self.n_nodes + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return indptr

    @cached_property
    def in_lender(self) -> np.ndarray:
        """Lender of each edge, grouped by borrower (aligned with in_indptr)."""
        return self.lender[self._in_order]

    @cached_property
    def in_loan(self) -> np.ndarray:
        return self.loan_size[self._in_order]

    @cached_property
    def interbank_assets(self) -> np.ndarray:
        """Total amount each bank has lent out (sum of its outgoing loans)."""
        return np.bincount(self.lender, weights=self.loan_size, minlength=self.n_nodes)

    @cached_property
    def interbank_liabilities(self) -> np.ndarray:
        """Total amount each bank has borrowed (sum of its incoming loans)."""
        return np.bincount(self.borrower, weights=self.loan_size, minlength=self.n_nodes)

    @cached_property
    def out_degree(self) -> np.ndarray:
        return np.bincount(self.lender, minlength=self.n_nodes).astype(np.int64)

    @cached_property
    def in_degree(self) -> np.ndarray:
        return np.bincount(self.borrower, minlength=self.n_nodes).astype(np.int64)

    @cached_property
    def in_edge_weights(self) -> np.ndarray:
        """Per edge (borrower-grouped): loan size over the lender's total lending."""
        w = self.in_loan / self.interbank_assets[self.in_lender]
        w.setflags(write=False)
        return w

    def borrowers_of(self, node: int) -> tuple[np.ndarray, np.ndarray]:
        """(borrower ids, loan sizes) for one lender."""
        lo, hi = self.out_indptr[node], self.out_indptr[node + 1]
        return self.borrower[lo:hi], self.loan_size[lo:hi]

    def lenders_of(self, node: int) -> tuple[np.ndarray, np.ndarray]:
        """(lender ids, loan sizes) for one borrower."""
        lo, hi = self.in_indptr[node], self.in_indptr[node + 1]
        return self.in_lender[lo:hi], self.in_loan[lo:hi]


def from_edges(n_nodes: int, edges) -> DirectedNetwork:
    """Build a network from an iterable of (lender, borrower, loan_size)."""
    edges = list(edges)
    if edges:
        lender = np.asarray([e[0] for e in edges], dtype=np.int64)
        borrower = np.asarray([e[1] for e in edges], dtype=np.int64)
        loan = np.asarray([e[2] for e in edges], dtype=np.float64)
        order = np.lexsort((borrower, lender))
        lender, borrower, loan = lender[order], borrower[order], loan[order]
    else:
        lender = np.empty(0, dtype=np.int64)
        borrower = np.empty(0, dtype=np.int64)
        loan = np.empty(0, dtype=np.float64)
    return DirectedNetwork(n_nodes, lender, borrower, loan)


def generate_er(
    n: int,
    mean_degree: float,
    loan_dist: LoanSizeDistribution,
    rng_seed,
) -> DirectedNetwork:
    """Directed Erdos-Renyi network: each ordered pair (i, j), i != j, becomes
    an edge independently with probability mean_degree / (n - 1).

    Loan sizes are drawn independently per edge, in canonical edge order, so
    a fixed seed reproduces the network exactly.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 <= mean_degree <= n - 1:  # also rejects NaN
        raise ValueError(f"mean_degree must lie in [0, n-1], got {mean_degree}")
    rng = as_generator(rng_seed)
    if n == 1:
        return from_edges(1, [])

    p = mean_degree / (n - 1)
    n_pairs = n * (n - 1)
    flat = np.flatnonzero(rng.random(n_pairs) < p)
    lender = flat // (n - 1)
    col = flat % (n - 1)
    borrower = col + (col >= lender)  # skip the diagonal
    loan = loan_dist.sample(len(flat), rng)
    # flat order is already sorted by (lender, borrower)
    return DirectedNetwork(n, lender.astype(np.int64), borrower.astype(np.int64), loan)


def degrees(net: DirectedNetwork, node: int) -> tuple[int, int, float, float]:
    """(out_degree, in_degree, total lent, total borrowed) for one bank."""
    if not 0 <= node < net.n_nodes:
        raise ValueError(f"node {node} out of range for {net.n_nodes} nodes")
    return (
        int(net.out_degree[node]),
        int(net.in_degree[node]),
        float(net.interbank_assets[node]),
        float(net.interbank_liabilities[node]),
    )


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
