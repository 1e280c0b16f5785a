"""Monte Carlo interbank default cascades.

Two engines simulate the same contagion process on directed random loan
networks: one works through explicit bank balance sheets hit by random
asset returns, the other through per-bank flip thresholds sampled from the
law those returns imply. Fed the same draw they produce identical default
sets; fed independent draws they produce statistically indistinguishable
crisis frequencies and sizes. The experiment harness sweeps average degree
to map out the connectivity window where system-wide crises occur.
"""
from .balance import (
    BalanceParams,
    BalanceSheets,
    ThetaDistribution,
    build_sheets,
    normal_quantile,
    save_sheets_csv,
)
from .balance_cascade import (
    CascadeResult,
    ShockDraw,
    draw_shocks,
    run_balance_cascade,
)
from .experiment import (
    CASES,
    MODELS,
    CrisisStats,
    ExperimentConfig,
    case_presets,
    run_sweep,
    run_trial,
)
from .network import (
    DirectedNetwork,
    LoanSizeDistribution,
    degrees,
    from_edges,
    generate_er,
    load_edge_list,
    save_edge_list,
)
from .threshold_cascade import (
    draw_inactive_flips,
    run_threshold_cascade,
    sample_thresholds,
    shadow_threshold_pdf,
    thresholds_from_shocks,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BalanceParams",
    "BalanceSheets",
    "CASES",
    "CascadeResult",
    "CrisisStats",
    "DirectedNetwork",
    "ExperimentConfig",
    "LoanSizeDistribution",
    "MODELS",
    "ShockDraw",
    "ThetaDistribution",
    "build_sheets",
    "case_presets",
    "degrees",
    "draw_inactive_flips",
    "draw_shocks",
    "from_edges",
    "generate_er",
    "load_edge_list",
    "normal_quantile",
    "run_balance_cascade",
    "run_sweep",
    "run_threshold_cascade",
    "run_trial",
    "sample_thresholds",
    "save_edge_list",
    "save_sheets_csv",
    "shadow_threshold_pdf",
    "thresholds_from_shocks",
]
