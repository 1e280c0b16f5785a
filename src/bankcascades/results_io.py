"""Sweep output files: a plain CSV of per-degree rows and a JSON manifest
that echoes the full configuration so any run can be reproduced exactly.

Floats in both files are written as their shortest round-trip text
(``repr``), so identical runs produce identical bytes and a reloaded
manifest reruns to the same CSV.
"""
from __future__ import annotations

import json
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

from .balance import ThetaDistribution
from .experiment import CrisisStats, ExperimentConfig
from .network import NETWORK_STREAM, LoanSizeDistribution

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

# The manifest schema: a config is ``asdict(ExperimentConfig)`` plus its stream stamp, and
# a result ``asdict(CrisisStats)`` with these fields renamed to their manifest keys.
_RESULT_KEYS = {"degree": "z", "frequency_ci_halfwidth": "freq_ci"}
_RESULT_FIELDS = {key: field for field, key in _RESULT_KEYS.items()}


def _renamed(entries, keys: dict) -> dict:
    """A JSON object's entries with the keys in ``keys`` renamed."""
    if not isinstance(entries, dict):
        raise TypeError(f"expected a JSON object, got {entries!r}")
    return {keys.get(k, k): v for k, v in entries.items()}


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
        "config": {**asdict(cfg), "network_generator": NETWORK_STREAM},
        "results": [_renamed(asdict(r), _RESULT_KEYS) for r in rows],
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_manifest(path) -> tuple[ExperimentConfig, list[CrisisStats]]:
    """Read back a manifest: the config to rerun plus the recorded rows. Text
    that is not JSON, a missing or unknown key, a value of the wrong JSON
    type, one the config rejects and a stream stamp other than
    ``NETWORK_STREAM`` all make it malformed (a ValueError naming it)."""
    try:
        doc = json.loads(Path(path).read_text())
        config = {**doc["config"]}  # a copy; ** rejects a config that is not a JSON object
        if config.pop("network_generator", None) != NETWORK_STREAM:  # missing: predates er-v2
            raise ValueError(f"network_generator must be {NETWORK_STREAM!r}, the one drawn now")
        for key, cls in (("theta_dist", ThetaDistribution), ("loan_dist", LoanSizeDistribution)):
            if config.get(key) is not None:
                config[key] = cls(**config[key])
        cfg = ExperimentConfig(**config)
        rows = [CrisisStats(**_renamed(r, _RESULT_FIELDS)) for r in doc["results"]]
    except KeyError as exc:
        raise ValueError(f"{path}: malformed manifest: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed manifest: {exc}") from None
    return cfg, rows
