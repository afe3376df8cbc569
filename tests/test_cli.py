"""Command-line interface: outputs, overrides, determinism, error paths."""

import json

import pytest

from csplab.cli import main


@pytest.fixture
def weak_config(tmp_path):
    cfg = {
        "codec": {"class": "sparse", "n": 8, "k": 1, "rho": 1.0, "delta": 0.2},
        "regime": "weak", "d": 5, "trials": 3, "master_seed": 5,
        "theorem_id": "T3", "bound_params": {"tau1": 3.0, "tau2": 0.75},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def test_rd_profile(tmp_path, capsys):
    rc = main(["rd-profile", "--codec-class", "grid", "--n", "2", "--rho", "1",
               "--deltas", "0.1,0.0001", "--out", str(tmp_path)])
    assert rc == 0
    text = (tmp_path / "rd_profile.csv").read_text()
    lines = text.strip().split("\n")
    assert lines[1] == "delta,rate_bits,alpha_hat"
    last = lines[-1].split(",")
    assert abs(float(last[2]) - 2.2257934452284527) < 1e-12


def test_recover_deterministic(tmp_path, weak_config):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    out_a.mkdir()
    out_b.mkdir()
    assert main(["recover", "--config", str(weak_config), "--out", str(out_a)]) == 0
    assert main(["recover", "--config", str(weak_config), "--out", str(out_b)]) == 0
    assert (out_a / "recover.csv").read_bytes() == (out_b / "recover.csv").read_bytes()


def test_recover_overrides(tmp_path, weak_config):
    assert main(["recover", "--config", str(weak_config), "--out", str(tmp_path),
                 "--trials", "2", "--seed", "99"]) == 0
    text = (tmp_path / "recover.csv").read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "# master_seed=99"
    assert len(lines) == 2 + 2  # provenance + header + 2 trials


def test_override_is_validated(tmp_path, weak_config, capsys):
    rc = main(["recover", "--config", str(weak_config), "--out", str(tmp_path),
               "--trials", "0"])
    assert rc == 2
    assert capsys.readouterr().err == "error: trials must be >= 1\n"
    assert not (tmp_path / "recover.csv").exists()


@pytest.mark.parametrize("key,value,message", [
    ("trials", 2.0, "trials=2.0 must be an integer"),
    ("panel_size", 0, "panel_size must be >= 1"),
    ("master_seed", 1.5, "master_seed=1.5 must be an integer"),
    ("eta", float("inf"), "eta=inf must be finite"),
    ("eta", float("nan"), "eta=nan must be finite"),
])
def test_bad_config_fields_exit_2_before_running(tmp_path, weak_config, capsys,
                                                  key, value, message):
    # json writes inf and nan as Infinity and NaN, and reads them back
    cfg = json.loads(weak_config.read_text())
    cfg[key] = value
    weak_config.write_text(json.dumps(cfg))
    rc = main(["recover", "--config", str(weak_config), "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "recover.csv").exists()


def test_sweep_outputs(tmp_path):
    cfg = {
        "codec": {"class": "sparse", "n": 8, "k": 1, "rho": 1.0, "delta": 0.2},
        "regime": "weak", "d": 5, "trials": 2, "master_seed": 5,
        "theorem_id": "T3", "bound_params": {"tau1": 3.0, "tau2": 0.75},
        "axis": {"name": "d", "values": [3, 5]},
    }
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(cfg))
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path)]) == 0
    csv_text = (tmp_path / "sweep.csv").read_text()
    assert csv_text.startswith("# master_seed=5\n")
    svg_a = (tmp_path / "sweep.svg").read_bytes()
    assert svg_a.startswith(b"<svg")
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "sweep.svg").read_bytes() == svg_a


def test_bounds_table(capsys):
    rc = main(["bounds", "--theorem", "T3", "--theorem", "T5",
               "--r", "10", "--d", "40", "--delta", "0.05", "--zeta", "0.05",
               "--tau1", "3", "--tau2", "0.75"])
    assert rc == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0] == "theorem_id,inputs,error_bound,failure_probability"
    assert out[1].startswith("T3,")
    assert out[2].startswith("T5,")
    assert float(out[1].split(",")[2]) == pytest.approx(0.2)


def test_bounds_rejects_a_fractional_count(capsys):
    rc = main(["bounds", "--theorem", "T3", "--r", "1", "--d", "2.5",
               "--delta", "0.1", "--tau1", "3", "--tau2", "0.75"])
    assert rc == 2
    assert capsys.readouterr().err == "error: T3: d=2.5 must be an integer >= 1\n"


def test_pair_output(tmp_path):
    assert main(["pair", "--n", "10", "--k", "2", "--d", "3", "--seed", "4",
                 "--out", str(tmp_path)]) == 0
    text = (tmp_path / "pair.csv").read_text()
    gap = float([ln for ln in text.split("\n")
                 if ln.startswith("measurement_gap")][0].split(",")[1])
    assert gap < 1e-9


def test_analog_demo(tmp_path, capsys):
    rc = main(["analog-demo", "--d", "6", "--delta", "0.1", "--grid", "256",
               "--trials", "5", "--seed", "2", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "analog.csv").exists()
    assert "within bound" in capsys.readouterr().out


def test_bad_config_reports_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"codec": {"class": "grid"}, "nope": 1}))
    rc = main(["recover", "--config", str(path)])
    assert rc == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_analog_demo_rejects_zero_trials(tmp_path, capsys):
    rc = main(["analog-demo", "--d", "4", "--grid", "256", "--trials", "0",
               "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == "error: trials must be >= 1\n"
    assert not (tmp_path / "analog.csv").exists()


def test_analog_demo_defaults_to_50_trials(tmp_path):
    assert main(["analog-demo", "--d", "4", "--delta", "0.2", "--grid", "256",
                 "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "analog.csv").read_text().strip().split("\n")
    assert len(lines) == 2 + 50  # provenance + header + 50 trials


@pytest.mark.parametrize("argv", [
    ["rd-profile", "--codec-class", "grid", "--n", "2", "--rho", "1",
     "--deltas", "0.1"],
    ["pair", "--n", "10", "--k", "2", "--d", "3"],
])
def test_trials_offered_only_where_read(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--trials", "7", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --trials 7" in capsys.readouterr().err
