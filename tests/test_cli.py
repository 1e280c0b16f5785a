import hashlib
import json
from pathlib import Path

import pytest

from bankcascades import ExperimentConfig, ThetaDistribution, run_sweep
from bankcascades.checks import equivalence_suite, oracle_suite
from bankcascades.cli import main
from bankcascades.network import NETWORK_STREAM
from bankcascades.results_io import (CSV_HEADER, NO_CRISIS_MARKER, load_manifest,
                                     write_manifest)

SWEEP_ARGS = [
    "sweep", "--case", "A", "--model", "both-coupled", "--n", "150",
    "--z", "0:4:2", "--networks", "2", "--trials", "25", "--seed", "11", "--quiet",
]


def _run_sweep(out_dir, extra=()):
    code = main(SWEEP_ARGS + ["--out", str(out_dir)] + list(extra))
    assert code == 0
    return (out_dir / "results.csv").read_bytes()


def test_sweep_writes_csv_and_manifest(tmp_path):
    csv_bytes = _run_sweep(tmp_path)
    lines = csv_bytes.decode().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 3 * 2  # three degrees, two models
    z0 = lines[1].split(",")
    assert z0[0] == "0.0" and z0[1] == "bs" and z0[2] == "A"
    assert z0[5] == NO_CRISIS_MARKER
    assert all(line.split(",")[7] == "0" for line in lines[1:])  # mismatch column
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["artifact"] == "bankcascades"
    assert manifest["config"]["master_seed"] == 11
    assert manifest["config"]["network_generator"] == "er-v2"
    assert len(manifest["results"]) == 6


def test_sweep_is_byte_deterministic_across_workers(tmp_path):
    a = _run_sweep(tmp_path / "a", ["--workers", "1"])
    b = _run_sweep(tmp_path / "b", ["--workers", "2"])
    c = _run_sweep(tmp_path / "c", ["--workers", "1"])
    assert a == b == c


def test_missing_required_flag_exits_2(capsys, monkeypatch, tmp_path):
    monkeypatch.delenv("BANKCASCADES_OUT", raising=False)
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--model", "bs"])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err.lower()
    # --case is required too, even when the output directory is given
    assert main(["sweep", "--model", "bs", "--out", str(tmp_path)]) == 2
    assert "--case" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sweep", "check"])
def test_negative_seed_is_a_usage_error(command, capsys, tmp_path):
    argv = [command, "--seed", "-1"]
    if command == "sweep":
        argv += ["--case", "A", "--out", str(tmp_path)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--seed" in err and "non-negative" in err
    assert not (tmp_path / "results.csv").exists()


def test_manifest_with_negative_seed_is_rejected(tmp_path, capsys):
    _run_sweep(tmp_path / "one")
    manifest = tmp_path / "one" / "manifest.json"
    data = json.loads(manifest.read_text())
    data["config"]["master_seed"] = -1
    manifest.write_text(json.dumps(data))
    code = main(["sweep", "--quiet", "--from-manifest", str(manifest),
                 "--out", str(tmp_path / "two")])
    assert code == 1
    assert "master_seed" in capsys.readouterr().err
    assert not (tmp_path / "two").exists()


@pytest.mark.parametrize("source", ["gamma", "delta", "manifest"])
def test_invalid_sheet_parameters_are_rejected_before_the_sweep(source, tmp_path, capsys):
    out = tmp_path / "out"
    if source == "manifest":
        _run_sweep(tmp_path / "one")
        manifest = tmp_path / "one" / "manifest.json"
        data = json.loads(manifest.read_text())
        data["config"]["capital_ratio"] = 5
        manifest.write_text(json.dumps(data))
        argv = ["sweep", "--quiet", "--from-manifest", str(manifest)]
    else:
        value = {"gamma": "5", "delta": "0.7"}[source]
        argv = SWEEP_ARGS + [f"--{source}", value, "--workers", "2"]
    capsys.readouterr()
    code = main(argv + ["--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "Traceback" not in err
    assert ("capital_ratio" if source != "delta" else "default_prob") in err
    assert not out.exists()


@pytest.mark.parametrize("flags,named", [
    (["--z", "nan,1"], "degree nan"),
    (["--loan-size", "inf"], "finite"),
    (["--loan-range", "1", "inf"], "finite"),
], ids=["z-nan", "loan-size-inf", "loan-range-inf"])
def test_non_finite_inputs_are_rejected_before_the_sweep(flags, named, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(SWEEP_ARGS + flags + ["--workers", "2", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "Traceback" not in err
    assert named in err
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--theta-l", "0.3", "--theta-range", "0.2", "0.4"],
    ["--loan-range", "0.2", "1.8", "--loan-size", "1"],
], ids=["theta", "loan"])
def test_conflicting_overrides_are_a_usage_error(flags, tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(SWEEP_ARGS + flags + ["--out", str(out)])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not out.exists()


def test_degenerate_single_point_grid(tmp_path):
    code = main(["sweep", "--case", "A", "--model", "bs", "--n", "200", "--z", "0:0:1",
                 "--networks", "2", "--trials", "30", "--seed", "1", "--quiet",
                 "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "results.csv").read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("0.0,bs,A,0.0,")


@pytest.mark.parametrize("workers", ["1", "2"])
def test_manifest_rerun_reproduces_csv(workers, tmp_path):
    first = _run_sweep(tmp_path / "one")
    cfg, rows = load_manifest(tmp_path / "one" / "manifest.json")
    assert len(rows) == 6
    code = main(["sweep", "--quiet",
                 "--from-manifest", str(tmp_path / "one" / "manifest.json"),
                 "--workers", workers, "--out", str(tmp_path / "two")])
    assert code == 0
    assert (tmp_path / "two" / "results.csv").read_bytes() == first



# SHA-256 of results.csv for N=200, z in {1, 3, 6}, 2 networks x 60 trials,
# seed 11, network stream er-v2: any change to a draw, the round-0 rule, the
# kernel or the CSV format shows up here
GOLDEN_SWEEP_SHA256 = {
    ("C", "both-coupled"): "9c04d85a03708002d333f9918a197e9ca336e0825a70b8fbede8cb88b7cf7e60",
    ("B", "both-independent"): "ae3f622ebef16b2e3a0116905be6a4752cdbfaf11894ea0c87acf8d52dad1b45",
    ("A", "bs"): "7f8d3aa589fea54e48486c1dd6a6a23a72b3e45b3efcead481e1346b4a2bb92a",
    ("C", "threshold"): "548cc8c5119299023d568fb3d8cee022a5acfbde7b023e8ddbe027ad46ea4c58",
}


@pytest.mark.parametrize("case,model", list(GOLDEN_SWEEP_SHA256))
def test_sweep_golden_bytes(case, model, tmp_path):
    code = main(["sweep", "--case", case, "--model", model, "--n", "200", "--z", "1,3,6",
                 "--networks", "2", "--trials", "60", "--seed", "11", "--workers", "1",
                 "--quiet", "--out", str(tmp_path)])
    assert code == 0
    digest = hashlib.sha256((tmp_path / "results.csv").read_bytes()).hexdigest()
    assert digest == GOLDEN_SWEEP_SHA256[(case, model)]


@pytest.mark.parametrize("theta_dist,expected", [
    (None, "0f2f4539ed44145c7b16f4a00626e3e3bddd059f7795d367a1910dd5b588acad"),
    (ThetaDistribution.uniform(0.25, 0.35),
     "54e5a60932a0b03e586746a956c26e234b6cfa6d7c0227114a10e964e09fbfd3"),
], ids=["presets", "theta-override"])
def test_manifest_golden_bytes(theta_dist, expected, tmp_path):
    cfg = ExperimentConfig(
        n_banks=200, capital_ratio=0.1, default_prob=0.01, case="C", model="both-coupled",
        degree_grid=(1.0, 3.0, 6.0), networks_per_degree=2, trials_per_network=60,
        crisis_cutoff=0.05, master_seed=11, theta_dist=theta_dist,
    )
    path = tmp_path / "manifest.json"
    write_manifest(cfg, run_sweep(cfg), path, created="2026-01-01T00:00:00+00:00")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == expected
    assert load_manifest(path)[0] == cfg

def test_out_dir_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("BANKCASCADES_OUT", str(tmp_path / "envout"))
    code = main(["sweep", "--case", "A", "--model", "bs", "--n", "120", "--z", "1",
                 "--networks", "1", "--trials", "10", "--quiet"])
    assert code == 0
    assert (tmp_path / "envout" / "results.csv").exists()


def test_case_c_sweeps_run_past_int64_loan_units(tmp_path, capsys):
    # case C's loans come in units of 2**-55, so at N = 1000 a lender's total
    # passes int64 near z = 200; the kernel then goes on in Python ints
    code = main(["sweep", "--case", "C", "--model", "both-coupled", "--n", "1000",
                 "--z", "120,300", "--networks", "1", "--trials", "20", "--seed", "3",
                 "--quiet", "--out", str(tmp_path)])
    assert code == 0
    assert "coupled mismatches: 0" in capsys.readouterr().out
    lines = (tmp_path / "results.csv").read_text().splitlines()
    assert [line.split(",")[:2] for line in lines[1:]] == [
        ["120.0", "bs"], ["120.0", "threshold"], ["300.0", "bs"], ["300.0", "threshold"]]


def test_check_passes_on_small_run(capsys):
    code = main(["check", "--instances", "3", "--oracle-instances", "15"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("[PASS]") == 4
    assert ("[PASS] tie-dense coupled: 300 trials and the relabelled pair (bank 0 steps "
            "[1, 1]), coupled mismatches: 0") in out
    assert "ALL CHECKS PASSED" in out


def test_check_detects_injected_fault(tmp_path, capsys):
    code = main(["check", "--instances", "2", "--oracle-instances", "5",
                 "--inject-fault", "--dump-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "[FAIL] coupled equivalence" in out
    assert "counterexample" in out
    assert (tmp_path / "counterexample_network.txt").exists()


def test_check_dump_dir_is_created_when_missing(tmp_path, capsys):
    dump_dir = tmp_path / "not" / "yet"
    code = main(["check", "--instances", "2", "--oracle-instances", "5",
                 "--inject-fault", "--dump-dir", str(dump_dir)])
    captured = capsys.readouterr()
    assert code == 1
    assert "could not write network dump" not in captured.err
    assert (dump_dir / "counterexample_network.txt").exists()


def test_check_zero_instances_is_vacuous_pass(capsys):
    code = main(["check", "--instances", "0", "--oracle-instances", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "vacuous" in out and "warning" in out


# a manifest written before network stream er-v2 existed: its config has no
# network_generator stamp
ER_V1_FIXTURE = Path(__file__).parent / "data" / "er-v1-sweep"


def _stamped_manifest() -> dict:
    """The pre-er-v2 sample with today's stream stamp: a manifest that loads,
    so a fault planted in it is the only thing wrong with it."""
    data = json.loads((ER_V1_FIXTURE / "manifest.json").read_text())
    data["config"]["network_generator"] = NETWORK_STREAM
    return data


@pytest.mark.parametrize("stamp", [None, "er-v1", "er-v9"], ids=["missing", "er-v1", "er-v9"])
def test_manifest_with_unknown_network_generator_is_rejected(stamp, tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    data = _stamped_manifest()
    manifest.write_text(json.dumps(data))
    load_manifest(manifest)  # loads with the stamp
    if stamp is None:
        del data["config"]["network_generator"]
    else:
        data["config"]["network_generator"] = stamp
    manifest.write_text(json.dumps(data))
    code = main(["sweep", "--quiet", "--from-manifest", str(manifest),
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {manifest}: malformed manifest") and "Traceback" not in err
    assert "network_generator" in err and repr(NETWORK_STREAM) in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag,value", [("--instances", "-1"), ("--oracle-instances", "-3")])
def test_check_rejects_negative_instance_counts(flag, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", flag, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert flag in captured.err and "non-negative" in captured.err
    assert "[PASS]" not in captured.out


@pytest.mark.parametrize("suite", [equivalence_suite, oracle_suite])
def test_suites_reject_negative_instance_counts(suite):
    with pytest.raises(ValueError, match="instances"):
        suite(instances=-1)


@pytest.mark.parametrize("field,value", [
    ("degree_grid", 5), ("n_banks", "60"), (None, [1]), ("theta_dist", 0.3),
    ("networks_per_degree", 2.5), ("n_banks", 60.0), ("capital_ratio", "0.1"),
    ("trials_per_network", True), ("future_field", 1), ("degree_grid", "35"),
    ("degree_grid", [3.0, True]), ("crisis_cutoff", True),
    ("loan_dist", {"kind": "constant", "lo": True, "hi": True}),
], ids=["degree_grid-int", "n_banks-str", "config-list", "theta_dist-float",
        "networks-float", "n_banks-float", "capital_ratio-str", "trials-bool",
        "unknown-config-key", "degree_grid-str", "degree-bool", "crisis_cutoff-bool",
        "loan_dist-bool"])
def test_manifest_with_wrong_typed_config_is_an_error_not_a_traceback(field, value, tmp_path,
                                                                      capsys):
    data = _stamped_manifest()
    if field is None:
        data["config"] = value
    else:
        data["config"][field] = value
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(data))
    code = main(["sweep", "--quiet", "--from-manifest", str(manifest),
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "Traceback" not in err
    assert str(manifest) in err and "network_generator" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("result", [
    {"z": 0.0, "future_field": 1}, [0.0, "bs"],
], ids=["unknown-result-key", "result-list"])
def test_manifest_with_a_malformed_result_is_an_error(result, tmp_path):
    data = _stamped_manifest()
    if isinstance(result, dict):
        result = {**data["results"][0], **result}
    data["results"][0] = result
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="malformed manifest") as exc:
        load_manifest(manifest)
    assert "network_generator" not in str(exc.value)


@pytest.mark.parametrize("grid", ["0:inf:1", "-inf:0:1", "0:1:1e-320"])
def test_degree_grid_without_a_finite_point_count_is_a_usage_error(grid, tmp_path, capsys):
    # the step count overflows to inf: an infinite bound, or a step that underflows
    with pytest.raises(SystemExit) as exc:
        main(["sweep", f"--z={grid}", "--case", "A", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--z" in err and "finite number of points" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("fault", ["config", "results", "not-json"])
def test_manifest_missing_a_section_or_not_json_is_named_as_malformed(fault, tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    if fault == "not-json":
        manifest.write_text('{"artifact": "bankcascades",')
    else:
        data = _stamped_manifest()
        del data[fault]
        manifest.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="malformed manifest"):
        load_manifest(manifest)
    code = main(["sweep", "--quiet", "--from-manifest", str(manifest),
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {manifest}: malformed manifest") and "Traceback" not in err
    if fault != "not-json":
        assert repr(fault) in err
    assert "network_generator" not in err
    assert not (tmp_path / "out").exists()
