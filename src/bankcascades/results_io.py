"""Sweep output files: a plain CSV of per-degree rows and a JSON manifest
that echoes the full configuration so any run can be reproduced exactly.

Floats in both files are written as their shortest round-trip text
(``repr``), so identical runs produce identical bytes and a reloaded
manifest reruns to the same CSV. Manifests written in the earlier
17-significant-digit float format hold the same values and still load.
"""
from __future__ import annotations

import json
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

from .balance import ThetaDistribution
from .experiment import CrisisStats, ExperimentConfig
from .network import LoanSizeDistribution

__all__ = [
    "CSV_HEADER",
    "NO_CRISIS_MARKER",
    "rows_to_csv",
    "write_rows_csv",
    "write_manifest",
    "load_manifest",
]

CSV_HEADER = "z,model,case,crisis_frequency,freq_ci,mean_crisis_size,n_runs,mismatches"
NO_CRISIS_MARKER = "no-crisis"


def rows_to_csv(rows: list[CrisisStats]) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        size = NO_CRISIS_MARKER if r.mean_crisis_size is None else repr(r.mean_crisis_size)
        lines.append(
            f"{r.degree!r},{r.model},{r.case},{r.crisis_frequency!r},"
            f"{r.frequency_ci_halfwidth!r},{size},{r.n_runs},{r.mismatches}"
        )
    return "\n".join(lines) + "\n"


def write_rows_csv(rows: list[CrisisStats], path) -> None:
    Path(path).write_text(rows_to_csv(rows))


def write_manifest(cfg: ExperimentConfig, rows: list[CrisisStats], path, *,
                   created: str | None = None) -> None:
    from . import __version__

    doc = {
        "artifact": "bankcascades",
        "version": __version__,
        "created_utc": created or datetime.now(timezone.utc).isoformat(),
        "master_seed": cfg.master_seed,
        "config": asdict(cfg),
        "results": [
            {
                "z": r.degree,
                "model": r.model,
                "case": r.case,
                "crisis_frequency": r.crisis_frequency,
                "freq_ci": r.frequency_ci_halfwidth,
                "mean_crisis_size": r.mean_crisis_size,
                "mean_crisis_size_se": r.mean_crisis_size_se,
                "n_runs": r.n_runs,
                "n_crises": r.n_crises,
                "mismatches": r.mismatches,
            }
            for r in rows
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def _dist_from_dict(d: dict | None, cls):
    if d is None:
        return None
    return cls(d["kind"], d["lo"], d["hi"])


def load_manifest(path) -> tuple[ExperimentConfig, list[CrisisStats]]:
    """Read back a manifest: the config to rerun plus the recorded rows."""
    doc = json.loads(Path(path).read_text())
    c = doc["config"]
    cfg = ExperimentConfig(
        n_banks=c["n_banks"],
        capital_ratio=c["capital_ratio"],
        default_prob=c["default_prob"],
        case=c["case"],
        model=c["model"],
        degree_grid=tuple(c["degree_grid"]),
        networks_per_degree=c["networks_per_degree"],
        trials_per_network=c["trials_per_network"],
        crisis_cutoff=c["crisis_cutoff"],
        master_seed=c["master_seed"],
        theta_dist=_dist_from_dict(c["theta_dist"], ThetaDistribution),
        loan_dist=_dist_from_dict(c["loan_dist"], LoanSizeDistribution),
    )
    rows = [
        CrisisStats(
            degree=r["z"],
            model=r["model"],
            case=r["case"],
            crisis_frequency=r["crisis_frequency"],
            frequency_ci_halfwidth=r["freq_ci"],
            mean_crisis_size=r["mean_crisis_size"],
            mean_crisis_size_se=r["mean_crisis_size_se"],
            n_runs=r["n_runs"],
            n_crises=r["n_crises"],
            mismatches=r["mismatches"],
        )
        for r in doc["results"]
    ]
    return cfg, rows
