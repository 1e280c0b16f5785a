import json

import pytest

from bankcascades.cli import main
from bankcascades.results_io import CSV_HEADER, NO_CRISIS_MARKER, load_manifest

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


@pytest.mark.parametrize("grid", ["nan", "1,500"])
def test_check_rejects_degrees_outside_the_network(grid, capsys):
    code = main(["check", "--instances", "1", "--n", "100", "--z", grid])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: degree ") and "Traceback" not in captured.err
    assert "[PASS]" not in captured.out


def test_degenerate_single_point_grid(tmp_path):
    code = main(["sweep", "--case", "A", "--model", "bs", "--n", "200", "--z", "0:0:1",
                 "--networks", "2", "--trials", "30", "--seed", "1", "--quiet",
                 "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "results.csv").read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("0.0,bs,A,0.0,")


def test_manifest_rerun_reproduces_csv(tmp_path):
    first = _run_sweep(tmp_path / "one")
    cfg, rows = load_manifest(tmp_path / "one" / "manifest.json")
    assert len(rows) == 6
    code = main(["sweep", "--quiet",
                 "--from-manifest", str(tmp_path / "one" / "manifest.json"),
                 "--out", str(tmp_path / "two")])
    assert code == 0
    assert (tmp_path / "two" / "results.csv").read_bytes() == first


def test_out_dir_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("BANKCASCADES_OUT", str(tmp_path / "envout"))
    code = main(["sweep", "--case", "A", "--model", "bs", "--n", "120", "--z", "1",
                 "--networks", "1", "--trials", "10", "--quiet"])
    assert code == 0
    assert (tmp_path / "envout" / "results.csv").exists()


def test_check_passes_on_small_run(capsys):
    code = main(["check", "--instances", "3", "--n", "150", "--oracle-instances", "15"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("[PASS]") == 3
    assert "ALL CHECKS PASSED" in out


def test_check_detects_injected_fault(tmp_path, capsys):
    code = main(["check", "--instances", "2", "--n", "120", "--oracle-instances", "5",
                 "--inject-fault", "--dump-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "[FAIL] coupled equivalence" in out
    assert "counterexample" in out
    assert (tmp_path / "counterexample_network.txt").exists()


def test_check_zero_instances_is_vacuous_pass(capsys):
    code = main(["check", "--instances", "0", "--oracle-instances", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "vacuous" in out and "warning" in out
