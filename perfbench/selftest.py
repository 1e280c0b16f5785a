"""Fast self-test of the benchmark harness at tiny problem sizes.

    python3 perfbench/selftest.py

For every workload it checks that each metric declared in BENCHMARK.json is
printed with its unit, both in the text lines and in the final JSON object;
that outputs are correct with no failed trial; that two traced runs of one
seed give identical work counts and digests; and that another seed gives
another digest. It also checks that a missing layer entry point is reported
as absent, that ``--workload all`` reports the tracing overhead, and that
the benchmark fails, printing no result, when the package sources are
missing.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads  # noqa: E402

SECONDS = "0.2"


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), *args, "--scale", "tiny"]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=cwd)


def result(workload: str, seed: int, trace: int) -> tuple[dict, list[str]]:
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", SECONDS,
                 "--trace", str(trace))
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    doc = json.loads(lines[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}, doc.keys()
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1, lines[-8:]
    return doc, lines


def check_metrics(doc: dict, lines: list[str], declared: list[dict]) -> None:
    assert set(doc["metrics"]) == {m["name"] for m in declared}, \
        set(doc["metrics"]) ^ {m["name"] for m in declared}
    text = [line.split() for line in lines[:-1]]
    for m in declared:
        got = doc["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m, got)
        assert isinstance(got["value"], (int, float)), (m, got)
        assert any(len(t) >= 3 and t[0] == m["name"] and t[2] == m["unit"] for t in text), \
            f"{m['name']} not printed with unit {m['unit']}"


def digest(lines: list[str]) -> str:
    return next(line.split()[1] for line in lines if line.startswith("results_sha256 "))


def check_absent_layer() -> None:
    """A layer whose entry point is gone, as ``_propagate`` will be once the
    per-trial engines route through the batched kernel, is reported absent
    instead of failing the trace."""
    import spans

    run.import_package()
    import bankcascades.balance_cascade as balance_cascade
    import bankcascades.threshold_cascade as threshold_cascade

    saved = balance_cascade._propagate
    del balance_cascade._propagate, threshold_cascade._propagate
    try:
        tracer = spans.Tracer("selftest")
        with tracer.patched():
            assert not hasattr(threshold_cascade, "_propagate")
        assert tracer.absent() == ["balance_cascade._propagate"], tracer.absent()
    finally:
        balance_cascade._propagate = threshold_cascade._propagate = saved
    print("ok absent: a missing entry point is listed as absent")


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_absent_layer()
    assert [m["name"] for m in declared["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in declared["workloads"]] == list(workloads.NAMES)

    for name in workloads.NAMES:
        doc, lines = result(name, 3, 0)
        check_metrics(doc, lines, declared["end_to_end"])
        assert any(line.split()[:1] == ["failed_frac"] for line in lines), "no failed_frac"
        traced = [result(name, 3, 1) for _ in range(2)]
        for tdoc, tlines in traced:
            check_metrics(tdoc, tlines, declared["per_layer"])
        counts = [{k: v["value"] for k, v in d["metrics"].items() if v["unit"] in ("count", "B")}
                  for d, _ in traced]
        assert counts[0] == counts[1], f"{name}: work counts differ between runs of one seed"
        assert counts[0]["network.generate_er.calls"] > 0, counts[0]
        assert digest(lines) == digest(traced[0][1]) == digest(traced[1][1]), name
        other, other_lines = result(name, 4, 0)
        assert digest(other_lines) != digest(lines), f"{name}: seed does not change the inputs"
        print(f"ok {name}: {len(declared['end_to_end'])} end-to-end and "
              f"{len(declared['per_layer'])} per-layer metrics, counts repeat, digest "
              f"{digest(lines)[:12]} (seed 3) / {digest(other_lines)[:12]} (seed 4)")

    proc = bench("--workload", "all", "--seed", "3", "--seconds", SECONDS, "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("tracing overhead") == len(workloads.NAMES), proc.stdout
    print("ok all: one command prints every workload and the tracing overhead")

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="selftest-", dir=scratch))
    try:
        shutil.copytree(BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench("--workload", "window", "--seed", "3", "--seconds", SECONDS, cwd=bare)
        assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare)
        if not any(scratch.iterdir()):
            scratch.rmdir()
    print("ok bare: exits non-zero without a result when src/ is missing")
    return 0


if __name__ == "__main__":
    sys.exit(main())
