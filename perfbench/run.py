"""Benchmark of the bankcascades package, driven from outside through its
public entry points.

    python3 perfbench/run.py --workload window --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1`` runs a
fixed amount of work with every layer entry point wrapped in a span and
reports per-layer self times and exact work counts, then a separate pass
under tracemalloc for ``experiment._batch_outcomes.peak_alloc_mb``.
``--workload all`` runs each workload in its own process (so ``ru_maxrss``
is per workload), prints every metric with its unit and, with ``--trace 1``,
the tracing overhead. The last line of standard output is one JSON object.

The package is imported from ``src/`` of the checkout holding this file and
runs single-process (``--workers 1``).
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import gauge
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_PROBES = 7
SUBPROCESS_TIMEOUT_S = 170

END_TO_END = {
    "trials_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "trial_p50_ms": "ms",
    "trial_p99_ms": "ms",
}

# Entry points whose share of traced time and call count the traced run
# reports, grouped into the sweep's five layers. Every group runs on every
# workload, so no group's self time is a constant zero.
LAYER_GROUPS = {
    "network": ("network.generate_er",),
    "sheets": ("balance.build_sheets",),
    "draws": (
        "rng.stream_rng",
        "balance_cascade.draw_shocks",
        "threshold_cascade.sample_thresholds",
        "threshold_cascade.draw_inactive_flips",
        "threshold_cascade.thresholds_from_shocks",
    ),
    "propagation": (
        "experiment._batch_propagate",
        "balance_cascade.run_balance_cascade",
        "balance_cascade._propagate",
        "threshold_cascade.run_threshold_cascade",
    ),
    "tally_io": (
        "perfbench.call",
        "experiment.run_sweep",
        "experiment._network_task",
        "experiment._network_inputs",
        "experiment._batch_outcomes",
        "results_io.write_rows_csv",
        "results_io.write_manifest",
    ),
}
COUNTS = {
    "experiment._batch_propagate.supersteps": "count",
    "experiment.edge_relaxations": "count",
    "layer.propagation.edge_relaxations": "count",
    "network.edges": "count",
    "network.pairs_sampled": "count",
    "results_io.bytes_written": "B",
}


def per_layer_units() -> dict[str, str]:
    units = {f"layer.{group}.self_s": "s" for group in LAYER_GROUPS}
    units["layer.propagation.ns_per_relaxation"] = "ns"
    for group in LAYER_GROUPS.values():
        for layer in group:
            units[f"{layer}.self_pct"] = "%"
            if layer != "perfbench.call":
                units[f"{layer}.calls"] = "count"
    units.update(COUNTS)
    units["experiment._batch_outcomes.peak_alloc_mb"] = "MB"
    units["trace.trials_per_s"] = "1/s"
    units["trace.wall_s"] = "s"
    return units


def import_package() -> SimpleNamespace:
    """Import numpy and the package from this checkout's ``src/``."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        np = importlib.import_module("numpy")
        api = importlib.import_module("bankcascades")
        cli = importlib.import_module("bankcascades.cli")
        rng = importlib.import_module("bankcascades.rng")
    except ImportError as exc:
        raise SystemExit(f"error: cannot import bankcascades from {src}: {exc}")
    if src.resolve() not in Path(api.__file__).resolve().parents:
        raise SystemExit(f"error: bankcascades was imported from {api.__file__}, not {src}")
    return SimpleNamespace(np=np, api=api, cli=cli, rng=rng)


def setup(name: str, seed: int, scale: workloads.Scale, out_dir):
    """Import, input construction and one warm-up call; returns the workload
    and the seconds this took."""
    start = perf_counter()
    pkg = import_package()
    workload = workloads.make(name, pkg, seed, scale, out_dir)
    workload.warm_up()
    return workload, perf_counter() - start


def setup_probe(args) -> float:
    """Set-up time of a fresh interpreter, so that import cost is included."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--scale", args.scale, "--setup-probe"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True,
                          timeout=SUBPROCESS_TIMEOUT_S)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def weighted_percentile(samples, q: float) -> float:
    """Nearest-rank percentile of (value, weight) samples."""
    ordered = sorted(samples)
    rank = math.ceil(q * sum(w for _, w in ordered))
    seen = 0
    for value, weight in ordered:
        seen += weight
        if seen >= rank:
            return value
    raise ValueError("no samples")


def run_calls(workload, meter, count: int | None = None, seconds: float = 0.0):
    """Closed loop: ``count`` calls, or calls until ``seconds`` have passed
    and at least ``workload.min_calls`` are done, with gauge checkpoints
    before, between and after the calls. Returns (outcomes, raw seconds,
    gauge-corrected seconds), both excluding the checkpoints."""
    outcomes = []
    meter.checkpoint()
    start = perf_counter()
    while (len(outcomes) < count if count is not None else
           len(outcomes) < workload.min_calls or perf_counter() - start < seconds):
        outcomes.append(workload.call(len(outcomes)))
        if meter.since_checkpoint() >= gauge.EVERY_S:
            meter.checkpoint()
    end = perf_counter()
    meter.checkpoint()
    return outcomes, meter.seconds(start, end, corrected=False), meter.seconds(start, end)


def untraced(workload, args):
    meter = gauge.Gauge(workload.pkg.np)
    if hasattr(workload, "checkpoint"):
        workload.checkpoint = meter.checkpoint
    outcomes, raw, corrected = run_calls(workload, meter, seconds=args.seconds)
    latencies, pooled = [], defaultdict(lambda: [0.0, 0])
    for group, a, b, n in (entry for o in outcomes for entry in o.latencies):
        ms = meter.seconds(a, b) * 1e3
        if group is None:
            latencies.append((ms / n, n))
        else:
            pooled[group][0] += ms
            pooled[group][1] += n
    latencies += [(ms / n, n) for ms, n in pooled.values()]
    trials = sum(o.trials for o in outcomes)
    probes = []  # (raw set-up seconds, when the probe started)
    for _ in range(SETUP_PROBES):
        started = perf_counter()
        probes.append((setup_probe(args), started))
        meter.checkpoint()
    setup_raw = statistics.median(raw_s for raw_s, _ in probes)
    readings = [r for _, _, r in meter.marks]
    metrics = {
        "trials_per_s": trials / corrected,
        "setup_s": statistics.median(raw_s * meter.scale_at(t) for raw_s, t in probes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "trial_p50_ms": weighted_percentile(latencies, 0.50),
        "trial_p99_ms": weighted_percentile(latencies, 0.99),
    }
    beyond = sum(w for v, w in latencies if v > metrics["trial_p99_ms"])
    notes = [f"{len(outcomes)} calls, {trials} trials; latency samples stand for "
             f"{sum(w for _, w in latencies)} trials, {beyond} beyond p99",
             f"raw wall clock: {trials / raw:.4f} trials/s over {raw:.3f} s, "
             f"setup {setup_raw:.4f} s; "
             f"gauge-corrected: {corrected:.3f} s; median of {len(readings)} gauge "
             f"readings {statistics.median(readings):.5f} s"]
    return outcomes, {k: (v, END_TO_END[k]) for k, v in metrics.items()}, notes


def traced(workload, args):
    import spans

    calls = max(1, round(args.seconds / workloads.NOMINAL_CALL_S[workload.name]))
    if args.scale != "full":
        calls = workload.min_calls
    tracer = spans.Tracer(run_id=f"{workload.name}-seed{args.seed}")
    workload.around = lambda: tracer.span(spans.ROOT_SPAN)
    with tracer.patched():
        outcomes, wall, corrected = run_calls(
            workload, gauge.Gauge(workload.pkg.np), count=calls)
    workload.around = contextlib.nullcontext

    peak = {}
    with spans.peak_alloc(peak):
        outcomes.append(workload.call(0))

    self_s, n_calls, counts = tracer.self_times(), tracer.calls(), tracer.counts
    trials = sum(o.trials for o in outcomes[:calls])
    values = {}
    for group, layers in LAYER_GROUPS.items():
        values[f"layer.{group}.self_s"] = sum(self_s.get(layer, 0.0) for layer in layers)
    relax = counts.get("layer.propagation.edge_relaxations", 0)
    values["layer.propagation.ns_per_relaxation"] = (
        values["layer.propagation.self_s"] * 1e9 / relax if relax else 0.0)
    for layers in LAYER_GROUPS.values():
        for layer in layers:
            values[f"{layer}.self_pct"] = 100 * self_s.get(layer, 0.0) / wall
            if layer != spans.ROOT_SPAN:
                values[f"{layer}.calls"] = n_calls.get(layer, 0)
    values.update({name: counts.get(name, 0) for name in COUNTS})
    values["experiment._batch_outcomes.peak_alloc_mb"] = peak.get(
        "experiment._batch_outcomes.peak_alloc_mb", 0.0)
    values["trace.trials_per_s"] = trials / corrected
    values["trace.wall_s"] = wall

    units = per_layer_units()
    notes = [f"traced {calls} calls, {trials} trials in {wall:.3f} s; "
             f"{len(tracer.spans)} spans, run id {tracer.run_id}"]
    shares = sorted(((t, name) for name, t in self_s.items()), reverse=True)
    notes += [f"  self {name:<42} {t:10.4f} s {100 * t / wall:6.1f}%" for t, name in shares]
    notes.append("absent layers: " + (", ".join(tracer.absent()) or "none"))
    return outcomes, {k: (v, units[k]) for k, v in values.items()}, notes


def run_one(args) -> int:
    scale = workloads.SCALES[args.scale]
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root)
    try:
        workload, setup_s = setup(args.workload, args.seed, scale, out_dir)
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        outcomes, metrics, notes = (traced if args.trace else untraced)(workload, args)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            tmp_root.rmdir()

    attempted = sum(o.trials for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    problems = [p for o in outcomes for p in o.problems]
    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}: {workload.why}")
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        shown = f"{value:.6f}" if isinstance(value, float) else str(value)
        print(f"  {name:<50} {shown:>16} {unit}")
    print(f"  {'failed_frac':<50} {failed / attempted:>16.6f} fraction "
          f"({failed} of {attempted} trials)")
    print(f"results_sha256 {workloads.digest(outcomes, workload.min_calls)} "
          f"(first {workload.min_calls} calls)")
    for problem in problems[:20]:
        print(f"problem: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; prints one table."""
    results, correct, attempted, failed = {}, True, 0, 0
    for name in workloads.NAMES:
        for trace in (0, 1) if args.trace else (0,):
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--scale", args.scale]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=SUBPROCESS_TIMEOUT_S)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            doc = json.loads(proc.stdout.splitlines()[-1])
            results[(name, trace)] = doc["metrics"]
            correct &= doc["correct"]
            attempted += doc["attempted"]
            failed += doc["failed"]

    print()
    print(f"{'workload':<16} {'metric':<28} {'value':>14} unit")
    merged = {}
    for (name, trace), metrics in results.items():
        shown = metrics if not trace else {"trace.trials_per_s": metrics["trace.trials_per_s"]}
        for metric, m in shown.items():
            merged[f"{name}.{metric}"] = m
            print(f"{name:<16} {metric:<28} {m['value']:>14.4f} {m['unit']}")
        if trace:
            ratio = metrics["trace.trials_per_s"]["value"] / \
                results[(name, 0)]["trials_per_s"]["value"]
            print(f"{name:<16} {'tracing overhead':<28} {100 * (1 / ratio - 1):>13.1f}% "
                  f"(untraced over traced trials/s, minus 1)")
    print(f"{'all':<16} {'failed_frac':<28} {failed / attempted:>14.6f} fraction")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": merged}))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(workloads.SCALES), default="full",
                        help="problem size; 'tiny' only exercises the harness")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
