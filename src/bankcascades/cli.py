"""Command-line interface.

``bankcascades sweep``  runs a degree sweep and writes results.csv plus a
JSON manifest that reproduces the run exactly. ``bankcascades check`` runs
the built-in verification suites and reports pass/fail.

Exit codes: 0 success / all checks pass, 1 runtime or check failure,
2 usage error.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from .balance import ThetaDistribution
from .checks import distribution_suite, equivalence_suite, oracle_suite, tie_suite
from .experiment import CASES, MODELS, ExperimentConfig, run_sweep
from .network import LoanSizeDistribution, save_edge_list
from .results_io import load_manifest, write_manifest, write_rows_csv

OUT_ENV_VAR = "BANKCASCADES_OUT"


def _parse_degree_grid(text: str) -> tuple[float, ...]:
    """Accept 'start:stop:step' (inclusive) or a comma list like '1,3,5,8'."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError("degree grid must be start:stop:step or a comma list")
        start, stop, step = (float(p) for p in parts)
        if step <= 0:
            raise argparse.ArgumentTypeError("degree grid step must be > 0")
        if stop < start:
            raise argparse.ArgumentTypeError("degree grid stop must be >= start")
        span = (stop - start) / step + 1e-9
        if not math.isfinite(span):  # an infinite bound, or a step that underflows
            raise argparse.ArgumentTypeError("degree grid must have a finite number of points")
        return tuple(start + k * step for k in range(int(span) + 1))
    return tuple(float(p) for p in text.split(","))


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bankcascades",
        description="Monte Carlo interbank default cascades: balance-sheet and "
                    "threshold engines, degree sweeps, and self-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    out_default = os.environ.get(OUT_ENV_VAR)
    sweep = sub.add_parser("sweep", help="run a degree sweep and write CSV + manifest")
    sweep.add_argument("--case", choices=CASES,
                       help="experiment variant (required unless --from-manifest)")
    sweep.add_argument("--model", choices=MODELS, default="both-independent")
    sweep.add_argument("--n", type=int, default=1000, help="number of banks")
    sweep.add_argument("--gamma", type=float, default=0.1, help="tentative capital ratio")
    sweep.add_argument("--delta", type=float, default=0.01, help="fundamental default probability")
    theta = sweep.add_mutually_exclusive_group()
    theta.add_argument("--theta-l", type=float, default=None,
                       help="override: constant interbank-asset share")
    theta.add_argument("--theta-range", type=float, nargs=2, metavar=("LO", "HI"), default=None,
                       help="override: uniform interbank-asset share")
    loan = sweep.add_mutually_exclusive_group()
    loan.add_argument("--loan-size", type=float, default=None,
                      help="override: constant loan size")
    loan.add_argument("--loan-range", type=float, nargs=2, metavar=("LO", "HI"), default=None,
                      help="override: uniform loan size")
    sweep.add_argument("--z", type=_parse_degree_grid, default="0:10:0.5",
                       help="degree grid, start:stop:step or comma list (default 0:10:0.5)")
    sweep.add_argument("--networks", type=int, default=20, help="networks per degree")
    sweep.add_argument("--trials", type=int, default=1000, help="trials per network")
    sweep.add_argument("--crisis-cutoff", type=float, default=0.05,
                       help="defaulted fraction that counts as a crisis")
    sweep.add_argument("--seed", type=_non_negative_int, default=0, help="master seed (>= 0)")
    sweep.add_argument("--workers", type=int, default=os.cpu_count() or 1,
                       help="worker processes (output is identical for any value)")
    sweep.add_argument("--out", type=Path, default=out_default, required=out_default is None,
                       help=f"output directory (or set ${OUT_ENV_VAR})")
    sweep.add_argument("--from-manifest", type=Path, default=None,
                       help="rerun the configuration stored in an existing manifest "
                            "(other configuration flags are ignored)")
    sweep.add_argument("--quiet", action="store_true", help="suppress progress output")
    sweep.set_defaults(func=cmd_sweep)

    check = sub.add_parser("check", help="run the built-in verification suites")
    check.add_argument("--instances", type=_non_negative_int, default=100,
                       help="coupled instances per case (0 = vacuous pass)")
    check.add_argument("--oracle-instances", type=_non_negative_int, default=200)
    check.add_argument("--seed", type=_non_negative_int, default=0, help="master seed (>= 0)")
    check.add_argument("--dump-dir", type=Path, default=Path("."),
                       help="where to write a counterexample network dump")
    check.add_argument("--inject-fault", action="store_true",
                       help="self-test: mutate the flip rule to >= (the suite must FAIL)")
    check.set_defaults(func=cmd_check)
    return parser


def _config_from_args(args) -> ExperimentConfig:
    theta = None
    if args.theta_range is not None:
        theta = ThetaDistribution.uniform(*args.theta_range)
    elif args.theta_l is not None:
        theta = ThetaDistribution.constant(args.theta_l)
    loan = None
    if args.loan_range is not None:
        loan = LoanSizeDistribution.uniform(*args.loan_range)
    elif args.loan_size is not None:
        loan = LoanSizeDistribution.constant(args.loan_size)
    return ExperimentConfig(
        n_banks=args.n,
        capital_ratio=args.gamma,
        default_prob=args.delta,
        case=args.case,
        model=args.model,
        degree_grid=args.z,
        networks_per_degree=args.networks,
        trials_per_network=args.trials,
        crisis_cutoff=args.crisis_cutoff,
        master_seed=args.seed,
        theta_dist=theta,
        loan_dist=loan,
    )


def cmd_sweep(args) -> int:
    if args.from_manifest is None and args.case is None:
        print("usage error: --case is required unless --from-manifest is given",
              file=sys.stderr)
        return 2
    try:
        if args.from_manifest is not None:
            cfg, _ = load_manifest(args.from_manifest)
        else:
            cfg = _config_from_args(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    progress = None
    if not args.quiet:
        def progress(done, total):
            print(f"\r{done}/{total} trials", end="", file=sys.stderr, flush=True)

    rows = run_sweep(cfg, workers=max(1, args.workers), progress=progress)
    if not args.quiet:
        print(file=sys.stderr)

    try:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        csv_path = out_dir / "results.csv"
        manifest_path = out_dir / "manifest.json"
        write_rows_csv(rows, csv_path)
        write_manifest(cfg, rows, manifest_path)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"wrote {csv_path} and {manifest_path}")
    if cfg.model == "both-coupled":
        total_mismatch = sum(r.mismatches for r in rows if r.model == "bs")
        print(f"coupled mismatches: {total_mismatch}")
    return 0


def cmd_check(args) -> int:
    reports = [
        equivalence_suite(instances=args.instances, seed=args.seed,
                          inject_fault=args.inject_fault),
        oracle_suite(instances=args.oracle_instances, seed=args.seed),
        distribution_suite(seed=args.seed),
        tie_suite(seed=args.seed),
    ]
    all_passed = True
    for report in reports:
        status = "PASS" if report.passed else "FAIL"
        print(f"[{status}] {report.name}: {report.detail}")
        if not report.passed:
            all_passed = False
            info = report.counterexample or {}
            net = info.pop("network", None)
            if info:
                print(f"  counterexample: {info}")
            if net is not None:
                try:
                    args.dump_dir.mkdir(parents=True, exist_ok=True)
                    dump = args.dump_dir / "counterexample_network.txt"
                    save_edge_list(net, dump)
                    print(f"  network dump: {dump}")
                except OSError as exc:
                    print(f"  could not write network dump: {exc}", file=sys.stderr)
    print("ALL CHECKS PASSED" if all_passed else "CHECKS FAILED")
    return 0 if all_passed else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
