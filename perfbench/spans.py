"""In-memory span tracing around the package's layer entry points.

The benchmark never edits the package. It swaps a layer's entry point, as a
module attribute, for a wrapper that records a span (name, start, end,
parent span, run id) and restores the original when the traced pass ends.
Callers in the package resolve these names through their module globals at
call time, so the wrappers see every call. A layer whose module or attribute
no longer exists is recorded as absent instead of failing the trace.

A layer's self time is its spans' duration minus the time covered by their
direct child spans. Work counts are added by per-layer hooks; each hook runs
inside a ``perfbench.count`` span, so its cost is charged to neither the
layer nor its caller.
"""
from __future__ import annotations

import importlib
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT_SPAN = "perfbench.call"
COUNT_SPAN = "perfbench.count"


def _after_generate_er(counts, net, args, kwargs):
    counts["network.edges"] += int(net.n_edges)
    # computed, not observed: the generator draws one uniform per ordered pair
    counts["network.pairs_sampled"] += net.n_nodes * (net.n_nodes - 1)


def _relaxations(net, flipped) -> int:
    """Edges a kernel relaxed: every flipped bank has each of its in-edges
    relaxed exactly once."""
    in_degree = np.diff(net.in_indptr)
    return int(in_degree[np.nonzero(flipped)[-1]].sum())


def _after_batch_propagate(counts, result, args, kwargs):
    net = args[0] if args else kwargs["net"]
    flipped, rounds = result
    relaxed = _relaxations(net, flipped)
    counts["experiment.edge_relaxations"] += relaxed
    counts["layer.propagation.edge_relaxations"] += relaxed
    if rounds.size:
        counts["experiment._batch_propagate.supersteps"] += int(rounds.max())


def _after_propagate(counts, result, args, kwargs):
    net = args[0] if args else kwargs["net"]
    counts["layer.propagation.edge_relaxations"] += _relaxations(net, result[0])


def _after_write(counts, result, args, kwargs):
    path = args[-1] if len(args) > 1 else kwargs["path"]  # path follows the data
    counts["results_io.bytes_written"] += Path(path).stat().st_size


# (span name, hook, [(module, attribute), ...]): every namespace through which
# the package or the benchmark looks the entry point up at call time; module
# "" is the package itself, whose public names the benchmark calls.
LAYERS = [
    ("experiment.run_sweep", None, [("cli", "run_sweep")]),
    ("experiment._network_task", None, [("experiment", "_network_task")]),
    ("experiment._network_inputs", None, [("experiment", "_network_inputs")]),
    ("experiment._batch_outcomes", None, [("experiment", "_batch_outcomes")]),
    ("experiment._batch_propagate", _after_batch_propagate,
     [("experiment", "_batch_propagate")]),
    ("network.generate_er", _after_generate_er,
     [("", "generate_er"), ("experiment", "generate_er"), ("network", "generate_er")]),
    ("balance.build_sheets", None,
     [("", "build_sheets"), ("experiment", "build_sheets"), ("balance", "build_sheets")]),
    ("rng.stream_rng", None, [("experiment", "stream_rng"), ("rng", "stream_rng")]),
    ("balance_cascade.draw_shocks", None,
     [("", "draw_shocks"), ("experiment", "draw_shocks"), ("balance_cascade", "draw_shocks")]),
    ("balance_cascade.run_balance_cascade", None,
     [("", "run_balance_cascade"), ("experiment", "run_balance_cascade"),
      ("balance_cascade", "run_balance_cascade")]),
    ("balance_cascade._propagate", _after_propagate,
     [("balance_cascade", "_propagate"), ("threshold_cascade", "_propagate")]),
    ("threshold_cascade.sample_thresholds", None,
     [("experiment", "sample_thresholds"), ("threshold_cascade", "sample_thresholds")]),
    ("threshold_cascade.draw_inactive_flips", None,
     [("experiment", "draw_inactive_flips"), ("threshold_cascade", "draw_inactive_flips")]),
    ("threshold_cascade.thresholds_from_shocks", None,
     [("", "thresholds_from_shocks"), ("experiment", "thresholds_from_shocks"),
      ("threshold_cascade", "thresholds_from_shocks")]),
    ("threshold_cascade.run_threshold_cascade", None,
     [("", "run_threshold_cascade"), ("experiment", "run_threshold_cascade"),
      ("threshold_cascade", "run_threshold_cascade")]),
    ("results_io.write_rows_csv", _after_write, [("cli", "write_rows_csv")]),
    ("results_io.write_manifest", _after_write, [("cli", "write_manifest")]),
]


def _resolve(module: str, attr: str):
    """(module object, current attribute) or None when either is gone."""
    try:
        mod = importlib.import_module(f"bankcascades.{module}" if module else "bankcascades")
    except ImportError:
        return None
    fn = getattr(mod, attr, None)
    return (mod, fn) if callable(fn) else None


class Tracer:
    """Spans and work counts of one traced pass, kept in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index, run id]
        self.counts: dict[str, int] = defaultdict(int)
        self.present: set[str] = set()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, 0.0, 0.0, parent, self.run_id]
        self.spans.append(record)
        self._stack.append(idx)
        record[1] = perf_counter()
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, hook):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                with self.span(COUNT_SPAN):
                    hook(self.counts, result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def patched(self):
        """Wrap every layer entry point that still exists; restore on exit."""
        saved = []
        try:
            for name, hook, places in LAYERS:
                for module, attr in places:
                    found = _resolve(module, attr)
                    if found is None:
                        continue
                    mod, fn = found
                    saved.append((mod, attr, fn))
                    setattr(mod, attr, self.wrap(name, fn, hook))
                    self.present.add(name)
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def absent(self) -> list[str]:
        return [name for name, _, _ in LAYERS if name not in self.present]

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, net of the time covered by direct children."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), covered in zip(self.spans, child_time):
            totals[name] += (end - start) - covered
        return dict(totals)

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for name, *_ in self.spans:
            out[name] += 1
        return dict(out)


@contextmanager
def peak_alloc(counts: dict):
    """Record ``experiment._batch_outcomes.peak_alloc_mb``: the largest
    tracemalloc peak above entry over the calls made inside the block.

    Kept apart from :class:`Tracer` so that tracemalloc's per-allocation cost
    never inflates traced self times.
    """
    import tracemalloc

    found = _resolve("experiment", "_batch_outcomes")
    if found is None:
        yield
        return
    mod, fn = found
    key = "experiment._batch_outcomes.peak_alloc_mb"

    def measured(*args, **kwargs):
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
        counts[key] = max(counts.get(key, 0.0), (peak - base) / 2**20)
        return result

    tracemalloc.start()
    mod._batch_outcomes = measured
    try:
        yield
    finally:
        mod._batch_outcomes = fn
        tracemalloc.stop()
