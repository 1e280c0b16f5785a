"""The benchmark's workloads, each a closed loop: one caller, and the next call
starts when the previous one has returned.

``window`` and ``fringe`` run ``bankcascades sweep`` in-process through
``cli.main``; ``coupled-trials`` calls the per-trial public engines the way
``bankcascades check`` does. Every call derives its inputs from the workload
seed and its call index only, so a seed fixes every input of a run, and no
two timed calls see the same input.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter


@dataclass(frozen=True)
class Scale:
    """Problem size. ``full`` is what the benchmark measures; ``tiny`` only
    exercises the harness."""

    n_banks: int
    trials_per_network: int
    min_trials: int  # coupled-trials: enough that >= 10 samples lie beyond p99


SCALES = {
    "full": Scale(n_banks=1000, trials_per_network=1000, min_trials=1100),
    "tiny": Scale(n_banks=60, trials_per_network=20, min_trials=30),
}


@dataclass
class CallOutcome:
    trials: int
    failed: int
    # (group, raw start, raw end, trials): intervals of one group are pooled
    # into one per-trial latency; group None stands alone
    latencies: list
    output: bytes  # result bytes that enter the run's digest
    problems: list = field(default_factory=list)


class _ProgressClock(io.TextIOBase):
    """Stands in for stderr during a sweep and timestamps each progress
    update (``done/total trials``) the CLI prints after a network finishes,
    then calls ``checkpoint`` if one is set."""

    _UPDATE = re.compile(r"(\d+)/(\d+) trials")

    def __init__(self, checkpoint):
        self.checkpoint = checkpoint
        self.marks: list[tuple[float, int, float]] = []  # (end, done, next start)
        self.other: list[str] = []

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        now = perf_counter()
        match = self._UPDATE.search(text)
        if match:
            if self.checkpoint is not None:
                self.checkpoint()
            self.marks.append((now, int(match.group(1)), perf_counter()))
        elif text.strip():
            self.other.append(text)
        return len(text)


class SweepWorkload:
    """Repeated ``bankcascades sweep`` calls, one master seed per call."""

    min_calls = 1  # the digest covers the first call's results.csv

    def __init__(self, name, why, case, model, grid, networks, pkg, seed, scale, out_dir):
        self.name, self.why = name, why
        self.case, self.model, self.grid, self.networks = case, model, grid, networks
        self.pkg, self.cli = pkg, pkg.cli
        self.seed, self.scale = seed, scale
        self.out_dir = Path(out_dir)
        self.around = contextlib.nullcontext  # replaced by a span in traced passes
        self.checkpoint = None  # gauge checkpoint after each network, when set

    def _argv(self, master: int, n_banks: int, trials: int) -> list[str]:
        return [
            "sweep", "--case", self.case, "--model", self.model,
            "--n", str(n_banks), "--z", ",".join(repr(z) for z in self.grid),
            "--networks", str(self.networks), "--trials", str(trials),
            "--workers", "1", "--seed", str(master), "--out", str(self.out_dir),
        ]

    def warm_up(self) -> None:
        """One small call through the same path, so numpy first-call costs
        and lazy imports fall outside the timed phase."""
        self._run(self._argv(self._master(-1), 100, 10))

    def _master(self, index: int) -> int:
        return self.seed * 1_000_003 + index + 1

    def _run(self, argv):
        clock, out = _ProgressClock(self.checkpoint), io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stderr(clock), contextlib.redirect_stdout(out):
            with self.around():
                code = self.cli.main(argv)
        return code, start, clock, out.getvalue()

    def call(self, index: int) -> CallOutcome:
        trials = self.scale.trials_per_network
        per_degree = self.networks * trials
        attempted = per_degree * len(self.grid)
        code, start, clock, stdout = self._run(
            self._argv(self._master(index), self.scale.n_banks, trials))
        end = perf_counter()

        # trials are propagated one network at a time in batches and reported
        # per degree, so a trial's latency is its degree's share: the time
        # spent on that degree's networks (progress updates come in degree
        # order) over their trials
        latencies, prev_t, prev_done = [], start, 0
        for k, (mark_end, done, resume) in enumerate(clock.marks):
            if done > prev_done:
                latencies.append((k // self.networks, prev_t, mark_end, done - prev_done))
            prev_t, prev_done = resume, done
        if prev_done != attempted:  # no usable progress updates: time the call
            latencies = [(None, start, end, attempted)]

        if code != 0:
            return CallOutcome(attempted, attempted, latencies, b"",
                               [f"sweep exited {code}: {''.join(clock.other)[-300:]}"])
        try:
            csv_bytes = (self.out_dir / "results.csv").read_bytes()
        except OSError as exc:
            return CallOutcome(attempted, attempted, latencies, b"", [f"no results.csv: {exc}"])
        failed, problems = self._check(csv_bytes.decode(), stdout, per_degree)
        return CallOutcome(attempted, failed, latencies, csv_bytes, problems)

    def _check(self, text: str, stdout: str, per_degree: int):
        """Failed trials and problems found in one results.csv.

        A trial fails on a coupled mismatch, or when its row is missing or
        reports the wrong ``n_runs``.
        """
        lines = text.splitlines()
        header = lines[0].split(",") if lines else []
        rows = {}
        for line in lines[1:]:
            rec = dict(zip(header, line.split(",")))
            rows[(float(rec["z"]), rec["model"])] = rec
        failed, problems, mismatches = 0, [], 0
        for z in self.grid:
            pair = [rows.get((z, m)) for m in ("bs", "threshold")]
            if any(r is None or int(r["n_runs"]) != per_degree for r in pair):
                failed += per_degree
                problems.append(f"z={z}: row missing or wrong n_runs")
                continue
            bad = int(pair[0]["mismatches"])
            mismatches += bad
            failed += min(bad, per_degree)
            if self.model == "both-independent":
                problems += _frequency_gap(z, *pair, per_degree)
        if self.model == "both-coupled" and f"coupled mismatches: {mismatches}" not in stdout:
            problems.append("CLI mismatch total disagrees with results.csv")
        if failed:
            problems.append(f"{failed} failed trials")
        return failed, problems


def _frequency_gap(z, bs, thr, n):
    """The independent engines must agree in distribution: their crisis
    frequencies may differ by at most six binomial standard errors."""
    fb, ft = float(bs["crisis_frequency"]), float(thr["crisis_frequency"])
    allowed = 6.0 * math.sqrt((fb * (1 - fb) + ft * (1 - ft)) / n) + 2.0 / n
    if abs(fb - ft) > allowed:
        return [f"z={z}: crisis frequency {fb} (bs) vs {ft} (threshold)"]
    return []


class CoupledTrialsWorkload:
    """Per-trial coupled equivalence, as ``check`` and acceptance criterion 1
    run it: a fresh case-C network per trial, z cycling over 1, 3, 5, 8."""

    degrees = (1.0, 3.0, 5.0, 8.0)
    tags = (901, 902, 903)  # network, share and shock stream tags of ``check``
    case_index = 2  # case C

    def __init__(self, name, why, pkg, seed, scale):
        self.name, self.why = name, why
        self.pkg, self.seed, self.scale = pkg, seed, scale
        self.min_calls = scale.min_trials
        self.theta_dist, self.loan_dist = pkg.api.case_presets("C")
        self.params = pkg.api.BalanceParams(0.1, 0.01, self.theta_dist)
        self.around = contextlib.nullcontext

    def warm_up(self) -> None:
        self._trial(2**31, 100)  # an index no timed call uses

    def _trial(self, k: int, n: int):
        api, rng = self.pkg.api, self.pkg.rng
        net_tag, theta_tag, shock_tag = self.tags
        ci = self.case_index
        z = self.degrees[k % len(self.degrees)]
        with self.around():
            net = api.generate_er(n, z, self.loan_dist, rng.stream_seed(self.seed, net_tag, ci, k))
            thetas = self.theta_dist.sample(n, rng.stream_rng(self.seed, theta_tag, ci, k))
            sheets = api.build_sheets(net, self.params, thetas=thetas)
            shocks = api.draw_shocks(sheets, rng.stream_rng(self.seed, shock_tag, ci, k))
            res_bs = api.run_balance_cascade(net, sheets, shocks)
            thr, flips = api.thresholds_from_shocks(net, sheets, shocks)
            res_thr = api.run_threshold_cascade(net, thr, flips)
            same = res_bs.same_outcome(res_thr)
        return res_bs, same

    def call(self, index: int) -> CallOutcome:
        start = perf_counter()
        res_bs, same = self._trial(index, self.scale.n_banks)
        end = perf_counter()
        packed = self.pkg.np.packbits(res_bs.defaulted).tobytes()
        problems = [] if same else [f"trial {index}: coupled engines disagree"]
        return CallOutcome(1, 0 if same else 1, [(None, start, end, 1)], packed, problems)


WHY = {
    "window": "coupled sweep inside the crisis window: cascades run 35-42 supersteps, "
              "so the batched propagation kernel does most of the work",
    "fringe": "independent sweep at the window's edges: cascades stay small, so the "
              "per-trial seeding and draw path dominates",
    "coupled-trials": "per-trial coupled engines as check runs them: a fresh case-C "
                      "network per trial, so network generation dominates",
}
NAMES = tuple(WHY)

# Seconds one call takes at the recorded baseline; sizes the fixed-work
# traced pass (calls = seconds / this) so its counts repeat exactly.
NOMINAL_CALL_S = {"window": 4.5, "fringe": 2.2, "coupled-trials": 0.008}


def make(name: str, pkg, seed: int, scale: Scale, out_dir):
    if name == "window":
        return SweepWorkload(name, WHY[name], "A", "both-coupled", (2.0, 3.0, 4.0, 5.0, 6.0),
                             1, pkg, seed, scale, out_dir)
    if name == "fringe":
        return SweepWorkload(name, WHY[name], "B", "both-independent", (0.0, 0.5, 9.0, 10.0),
                             2, pkg, seed, scale, out_dir)
    if name == "coupled-trials":
        return CoupledTrialsWorkload(name, WHY[name], pkg, seed, scale)
    raise ValueError(f"unknown workload {name!r}")


def digest(outcomes, count: int) -> str:
    h = hashlib.sha256()
    for outcome in outcomes[:count]:
        h.update(outcome.output)
    return h.hexdigest()
