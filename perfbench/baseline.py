"""Measure the benchmark's baseline and its run-to-run spread.

    python3 perfbench/baseline.py --runs 10 --first-seed 1 --write

For every workload: ``--runs`` untraced runs, one per seed, giving each
end-to-end metric's median, quartiles and spread (quartile distance over
median); two traced runs of one seed, whose work counts must agree exactly;
the tracing overhead; and a digest check across two seeds. With ``--write``
the record goes to ``perfbench/BASELINE.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 180

# Which end-to-end metric each layer metric should move, and on which
# workload; the measured shares are added from the traced runs.
PREDICTIONS = [
    (["layer.propagation.self_s", "layer.propagation.ns_per_relaxation",
      "experiment._batch_propagate.self_pct", "experiment._batch_propagate.calls",
      "experiment._batch_propagate.supersteps", "experiment.edge_relaxations"],
     "trials_per_s", "window (most); fringe (little); coupled-trials (none)",
     ["experiment._batch_propagate"]),
    (["layer.draws.self_s", "rng.stream_rng.self_pct", "rng.stream_rng.calls",
      "balance_cascade.draw_shocks.self_pct", "balance_cascade.draw_shocks.calls",
      "threshold_cascade.sample_thresholds.self_pct",
      "threshold_cascade.sample_thresholds.calls",
      "threshold_cascade.draw_inactive_flips.self_pct"],
     "trials_per_s", "fringe (most); window (little)",
     ["rng.stream_rng", "balance_cascade.draw_shocks", "threshold_cascade.sample_thresholds",
      "threshold_cascade.draw_inactive_flips"]),
    (["layer.tally_io.self_s", "experiment._network_task.self_pct",
      "experiment._batch_outcomes.self_pct", "experiment.run_sweep.self_pct"],
     "trials_per_s", "fringe",
     ["experiment._network_task", "experiment._batch_outcomes", "experiment.run_sweep"]),
    (["experiment._batch_outcomes.peak_alloc_mb"], "peak_rss_mb", "window, fringe", []),
    (["layer.network.self_s", "network.generate_er.self_pct", "network.generate_er.calls",
      "network.pairs_sampled", "network.edges"],
     "trials_per_s, trial_p50_ms", "coupled-trials (most); sweeps (little)",
     ["network.generate_er"]),
    (["layer.propagation.self_s", "layer.propagation.edge_relaxations",
      "balance_cascade.run_balance_cascade.self_pct", "balance_cascade._propagate.self_pct",
      "threshold_cascade.run_threshold_cascade.self_pct",
      "threshold_cascade.thresholds_from_shocks.self_pct"],
     "trial_p50_ms, trial_p99_ms", "coupled-trials",
     ["balance_cascade.run_balance_cascade", "balance_cascade._propagate",
      "threshold_cascade.run_threshold_cascade", "threshold_cascade.thresholds_from_shocks"]),
    (["layer.sheets.self_s", "balance.build_sheets.self_pct", "balance.build_sheets.calls"],
     "trial_p50_ms", "coupled-trials", ["balance.build_sheets"]),
    (["results_io.write_rows_csv.self_pct", "results_io.write_manifest.self_pct",
      "results_io.bytes_written"],
     "trials_per_s", "window, fringe (kept so that a regression shows)",
     ["results_io.write_rows_csv", "results_io.write_manifest"]),
]
SHARE_SUFFIX = ".self_pct"


def run(workload: str, seed: int, trace: int, seconds: int) -> tuple[dict, list[str]]:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
                          cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), lines


def digest_of(lines: list[str]) -> str:
    return next(line.split()[1] for line in lines if line.startswith("results_sha256 "))


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def machine() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def measure(workload: str, runs: int, first_seed: int, seconds: int) -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    untraced = []
    digests = {}
    for seed in range(first_seed, first_seed + runs):
        doc, lines = run(workload, seed, 0, seconds)
        if not doc["correct"] or doc["failed"]:
            raise SystemExit(f"{workload} seed {seed}: incorrect output\n" + "\n".join(lines))
        untraced.append(doc)
        digests[seed] = digest_of(lines)
        print(f"{workload} seed {seed}: " + ", ".join(
            f"{k}={v['value']:.5g}" for k, v in doc["metrics"].items()), flush=True)
    metrics = {}
    for m in bench["end_to_end"]:
        s = summary([d["metrics"][m["name"]]["value"] for d in untraced])
        s.update(unit=m["unit"], better=m["better"], bound=m["bound"])
        metrics[m["name"]] = s

    traced = [run(workload, first_seed, 1, seconds) for _ in range(2)]
    (doc_a, lines_a), (doc_b, _) = traced
    counts = {k: v["value"] for k, v in doc_a["metrics"].items() if v["unit"] in ("count", "B")}
    counts_b = {k: v["value"] for k, v in doc_b["metrics"].items() if v["unit"] in ("count", "B")}
    shares = {k[:-len(SHARE_SUFFIX)]: v["value"] / 100
              for k, v in doc_a["metrics"].items() if k.endswith(SHARE_SUFFIX)}
    untraced_first = untraced[0]["metrics"]["trials_per_s"]["value"]
    traced_rate = doc_a["metrics"]["trace.trials_per_s"]["value"]
    return {
        "runs": runs,
        "seeds": [first_seed, first_seed + runs - 1],
        "attempted_per_run": [d["attempted"] for d in untraced],
        "failed": sum(d["failed"] for d in untraced),
        "end_to_end": metrics,
        "traced": {
            "seed": first_seed,
            "self_time_share": dict(sorted(shares.items(), key=lambda kv: -kv[1])),
            "counts": counts,
            "counts_repeat_exactly": counts == counts_b,
            "trials_per_s": traced_rate,
            "untraced_trials_per_s_same_seed": untraced_first,
            "overhead": untraced_first / traced_rate - 1.0,
            "absent": next(line for line in lines_a if line.startswith("absent layers:")),
            "layer_metrics": {k: v["value"] for k, v in doc_a["metrics"].items()},
        },
        "digests_differ_across_seeds": len(set(digests.values())) == len(digests),
        "digest_first_seed": digests[first_seed],
    }


def _top(shares: dict | None) -> str | None:
    return max(shares, key=shares.get) if shares else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="window,fringe,coupled-trials")
    parser.add_argument("--write", action="store_true",
                        help="write perfbench/BASELINE.json")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in bench["workloads"]}

    record = {
        "note": "Baseline of perfbench (see README.md). It replaces ROADMAP item 2's "
                "'bankcascades bench' / BENCH_<label>.json sketch; the product has no "
                "bench subcommand.",
        "machine": machine(),
        "run_seconds": bench["run_seconds"],
        "workloads": {},
    }
    for name in args.workloads.split(","):
        result = measure(name, args.runs, args.first_seed, bench["run_seconds"])
        record["workloads"][name] = {"why": why[name], **result}
        for metric, s in result["end_to_end"].items():
            flag = "" if s["spread"] is None or s["spread"] < s["bound"] / 3 else "  <-- wide"
            print(f"{name:<16} {metric:<14} median {s['median']:.5g} {s['unit']} "
                  f"q1 {s['q1']:.5g} q3 {s['q3']:.5g} spread {s['spread']:.4f} "
                  f"(bound {s['bound']}){flag}", flush=True)
        t = result["traced"]
        print(f"{name:<16} counts repeat: {t['counts_repeat_exactly']}; overhead "
              f"{100 * t['overhead']:.1f}%; top self share "
              f"{next(iter(t['self_time_share'].items()))}", flush=True)

    shares = {w: r["traced"]["self_time_share"] for w, r in record["workloads"].items()}
    draws = ("rng.stream_rng", "balance_cascade.draw_shocks",
             "threshold_cascade.sample_thresholds", "threshold_cascade.draw_inactive_flips")
    record["chosen_layer_confirmed"] = {
        "window: experiment._batch_propagate has the largest self time":
            _top(shares.get("window")) == "experiment._batch_propagate",
        "fringe: rng plus draws have the largest combined self time":
            "fringe" in shares and sum(shares["fringe"].get(d, 0.0) for d in draws)
            > max(v for k, v in shares["fringe"].items() if k not in draws),
        "coupled-trials: network.generate_er has the largest self time":
            _top(shares.get("coupled-trials")) == "network.generate_er",
    }
    record["predictions"] = [
        {"layer_metrics": metrics, "should_move": moves, "on": on,
         "measured_share": {
             w: round(sum(r["traced"]["self_time_share"].get(layer, 0.0) for layer in layers), 4)
             for w, r in record["workloads"].items()} if layers else None}
        for metrics, moves, on, layers in PREDICTIONS
    ]
    if args.write:
        (BENCH_DIR / "BASELINE.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
