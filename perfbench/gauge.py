"""Machine-speed gauge: a fixed reference kernel timed between workload calls.

On a shared host the same input can take up to twice as long from one minute
to the next because the machine's speed changes, not the code. The gauge
times a fixed kernel that uses no package code, only the kinds of operation
the package's hot paths are made of: per-trial ``SeedSequence`` generators
and draws, a scatter-add, a sort-based unique, a short Python loop, and a
generator-sized uniform fill, compare and ``flatnonzero`` over 8 MB. Its
arrays are allocated once, so a reading does not depend on the allocator's
state.

The benchmark takes a checkpoint (a reading) before its first call, after
each network of a sweep, at least every ``EVERY_S`` between calls, after its
last call, and around each set-up probe. Time between two checkpoints is scaled by ``NOMINAL_S`` over
the median of their two readings and the readings on either side; the
checkpoints themselves are not counted. Reported times are thus seconds at
the machine's usual speed. Raw wall-clock figures are printed alongside.
"""
from __future__ import annotations

import statistics
from time import perf_counter

# Median reading on the baseline machine (2-core Intel Xeon, Python 3.11.7,
# numpy 2.4.6) during benchmark runs; only ratios to it are used.
NOMINAL_S = 0.016
# Longest stretch of calls between two readings.
EVERY_S = 0.5


class Gauge:
    def __init__(self, np):
        self.np = np
        self.acc = np.zeros(1 << 14)
        self.grid = np.random.default_rng(0).random((200, 1000))
        self.mask = np.empty(self.grid.shape, dtype=bool)
        self.pairs = np.empty(1 << 20)  # the size of one N=1000 generator draw
        self.pair_mask = np.empty(self.pairs.shape, dtype=bool)
        self._once()  # one-off first-call costs
        self.marks: list[tuple[float, float, float]] = []  # (start, end, reading)

    def checkpoint(self) -> None:
        start = perf_counter()
        reading = self.reading()
        self.marks.append((start, perf_counter(), reading))

    def since_checkpoint(self) -> float:
        return perf_counter() - self.marks[-1][1]

    def seconds(self, a: float, b: float, corrected: bool = True) -> float:
        """Seconds from raw time ``a`` to ``b`` outside checkpoints, scaled
        to nominal speed unless ``corrected`` is false. Both ends must lie
        between the first and the last checkpoint."""
        total = 0.0
        for i, ((_, end0, _), (start1, _, _)) in enumerate(zip(self.marks, self.marks[1:])):
            span = min(b, start1) - max(a, end0)
            if span > 0:
                total += span * (self._scale(i) if corrected else 1.0)
        return total

    def scale_at(self, t: float) -> float:
        """Nominal over actual speed at raw time ``t``, which must lie
        between two checkpoints."""
        for i, ((_, end0, _), (start1, _, _)) in enumerate(zip(self.marks, self.marks[1:])):
            if end0 <= t <= start1:
                return self._scale(i)
        raise ValueError("time outside the checkpoints")

    def _scale(self, i: int) -> float:
        """Scale between checkpoints i and i + 1: from the median of their
        two readings and one on either side, so that one unlucky reading
        cannot set it."""
        near = [r for _, _, r in self.marks[max(i - 1, 0):i + 3]]
        return NOMINAL_S / statistics.median(near)

    def reading(self) -> float:
        """Seconds the kernel takes now: the fastest of three runs, so a
        single interruption does not count but a slow machine does."""
        return min(self._once() for _ in range(3))

    def _once(self) -> float:
        np = self.np
        start = perf_counter()
        total = 0
        for k in range(8):
            g = np.random.default_rng(np.random.SeedSequence((7, k)))
            draws = g.normal(0.0, 1.0, 1000)
            keys = g.integers(0, self.acc.size, 8000)
            np.add.at(self.acc, keys, draws[keys % draws.size])
            total += np.unique(keys).size
            for i in range(200):
                total += i & 7
        np.less(self.grid, self.acc[: self.grid.shape[1]], out=self.mask)
        total += int(self.mask.sum())
        g.random(out=self.pairs)
        np.less(self.pairs, 0.005, out=self.pair_mask)
        total += np.flatnonzero(self.pair_mask).size
        return perf_counter() - start
