"""Every exported name resolves, so a deletion cannot leave a stale export."""
import importlib
import pkgutil

import pytest

import bankcascades

MODULES = ["bankcascades"] + sorted(
    f"bankcascades.{m.name}" for m in pkgutil.iter_modules(bankcascades.__path__)
    if m.name != "__main__"
)


@pytest.mark.parametrize("module", MODULES)
def test_every_name_in_all_resolves(module):
    mod = importlib.import_module(module)
    exported = getattr(mod, "__all__", [])
    assert len(set(exported)) == len(exported), f"{module}.__all__ repeats a name"
    missing = [name for name in exported if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names what the module lacks: {missing}"
    namespace: dict = {}
    exec(f"from {module} import *", namespace)
    assert set(exported) <= set(namespace)


def test_package_exports_every_public_engine_name():
    # the names the package keeps public after dropping its wrapper types
    for name in ("ThetaDistribution", "LoanSizeDistribution", "BalanceSheets",
                 "draw_thresholds", "thresholds_from_shocks", "run_threshold_cascade",
                 "shadow_threshold_pdf"):
        assert name in bankcascades.__all__
    for gone in ("ThresholdAssignment", "BankBalanceSheet", "shadow_threshold", "ShockDraw",
                 "sample_thresholds", "draw_inactive_flips", "save_sheets_csv", "degrees"):
        assert not hasattr(bankcascades, gone)


def test_package_exports_exactly_the_public_names():
    # the package joins its modules' lists; this pins the result, since demos
    # and benchmark harnesses call these names
    assert sorted(bankcascades.__all__) == [
        "BalanceParams", "BalanceSheets", "CASES", "CascadeResult", "CrisisStats",
        "DirectedNetwork", "ExperimentConfig", "LoanSizeDistribution", "MODELS",
        "ThetaDistribution", "__version__", "build_sheets", "case_presets",
        "draw_shocks", "draw_thresholds", "from_edges", "generate_er", "load_edge_list",
        "normal_quantile", "run_balance_cascade", "run_sweep", "run_threshold_cascade",
        "run_trial", "save_edge_list", "shadow_threshold_pdf",
        "thresholds_from_shocks",
    ]
