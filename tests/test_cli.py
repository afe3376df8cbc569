"""Command-line interface: outputs, overrides, determinism, error paths."""

import hashlib
import json

import pytest

from csplab.cli import _RD_FLAGS, build_parser, main
from csplab.codecs import _CODEC_CLASSES


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
    assert lines[0] == "# master_seed=0"
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
    ("noise", {"kind": "gaussian", "sigma": float("nan")},
     "sigma=nan must be finite and >= 0"),
    ("noise", {"kind": "bounded", "zeta": float("inf")},
     "zeta=inf must be finite and >= 0"),
    # these ran at sigma = 1, or ended in a TypeError traceback
    ("noise", {"kind": "gaussian", "sigma": True}, "sigma=True must be finite and >= 0"),
    ("noise", None, "noise=None must be a JSON object"),
    ("bound_params", None, "bound_params=None must be a JSON object"),
    ("d", "5", "d='5' must be a number"),
    ("d", [5], "d=[5] must be a number"),
    ("axis", {"name": "d", "values": 5}, "axis values must be a nonempty list"),
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


@pytest.mark.parametrize("text", ["null", "5", '"abc"', "[]"])
def test_config_must_be_an_object(tmp_path, weak_config, capsys, text):
    # these ended in a TypeError traceback, or named the letters of a string
    # as unknown keys
    weak_config.write_text(text)
    rc = main(["recover", "--config", str(weak_config), "--out", str(tmp_path), "--seed", "1"])
    assert rc == 2
    assert capsys.readouterr().err == f"error: config must be a JSON object, not {json.loads(text)!r}\n"


@pytest.mark.parametrize("codec,message", [
    ({"class": "sparse", "n": 8, "rho": 1.0, "delta": 0.2},
     "sparse codec config lacks keys: ['k']"),
    ({"class": "sparse", "n": 8, "k": 1, "rho": 1.0, "delta": None},
     "delta=None must be a number"),
    ({"class": "sparse", "n": 8, "k": 1, "rho": True, "delta": 0.2},
     "rho=True must be finite and > 0"),
    ("sparse", "codec='sparse' must be a JSON object"),
])
def test_recover_names_a_bad_codec_descriptor(tmp_path, weak_config, capsys,
                                              codec, message):
    cfg = json.loads(weak_config.read_text())
    weak_config.write_text(json.dumps(dict(cfg, codec=codec)))
    rc = main(["recover", "--config", str(weak_config), "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "recover.csv").exists()


@pytest.mark.parametrize("change,expected", [
    (dict(theorem_id=None, bound_params={}),
     "wrote {out} (3 trials; mean error 0.0572192, max 0.0996893)\n"),
    (dict(d=3, trials=8, noise={"kind": "bounded", "zeta": 0.3}, theorem_id="T5",
          bound_params={"tau1": 0.01, "tau2": 0.01}),
     "wrote {out} (8 trials; mean error 0.245012, max 1.27295)\n"
     "bound 0.550165 exceeded in 0.1250 of trials (bound failure prob 1)\n"),
])
def test_recover_summary_lines(tmp_path, weak_config, capsys, change, expected):
    cfg = json.loads(weak_config.read_text())
    weak_config.write_text(json.dumps(dict(cfg, **change)))
    assert main(["recover", "--config", str(weak_config), "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out == expected.format(out=tmp_path / "recover.csv")


def test_recover_refuses_an_infinite_bound_parameter(tmp_path, weak_config, capsys):
    # json reads Infinity, which passed the "> 0" range of tau1
    cfg = json.loads(weak_config.read_text())
    cfg["bound_params"]["tau1"] = float("inf")
    weak_config.write_text(json.dumps(cfg))
    assert "Infinity" in weak_config.read_text()
    rc = main(["recover", "--config", str(weak_config), "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == "error: T3: tau1=inf must be finite\n"
    assert not (tmp_path / "recover.csv").exists()


def test_sweep_refuses_a_nan_axis_value_before_running(tmp_path, capsys):
    cfg = {
        "codec": {"class": "sparse", "n": 8, "k": 1, "rho": 1.0, "delta": 0.2},
        "d": 5, "noise": {"kind": "gaussian", "sigma": 0.0},
        "axis": {"name": "sigma", "values": [0.1, float("nan")]},
    }
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(cfg))
    rc = main(["sweep", "--config", str(path), "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == "error: axis value nan must be a finite number\n"
    assert not (tmp_path / "sweep.csv").exists()


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


def test_sweep_over_one_huge_axis_value_draws_its_chart(tmp_path):
    # 1e16 - 0.5 == 1e16: the one-point x range once had width 0, and the
    # chart ended in a ZeroDivisionError traceback
    cfg = {
        "codec": {"class": "sparse", "n": 8, "k": 1, "rho": 1.0, "delta": 0.2},
        "d": 5, "trials": 2, "noise": {"kind": "gaussian", "sigma": 0.1},
        "axis": {"name": "sigma", "values": [1e16]},
    }
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(cfg))
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "sweep.svg").read_bytes().startswith(b"<svg")


@pytest.mark.parametrize("change,argv,message,lines", [
    # every point's codebook is over the cap
    (dict(axis={"name": "delta", "values": [1e-9, 2e-9]}), [],
     "sweep has no plottable points",
     ["wrote {csv} (0 rows)", "  delta=1e-09: unavailable (CapacityError: ",
      "  delta=2e-09: unavailable (CapacityError: "]),
    # noiseless codeword signals recover exactly: a log scale drops every 0
    (dict(signal_source="codebook", theorem_id=None, bound_params={},
          axis={"name": "d", "values": [3, 5]}), ["--log-scale"],
     "nothing to plot (log scale dropped every value)",
     ["wrote {csv} (4 rows)", "  d=3: mean 0, max 0", "  d=5: mean 0, max 0"]),
], ids=["all-unavailable", "log-scale-all-zero"])
def test_sweep_prints_its_points_before_the_chart(tmp_path, weak_config, capsys,
                                                  change, argv, message, lines):
    cfg = json.loads(weak_config.read_text())
    weak_config.write_text(json.dumps(dict(cfg, trials=2, **change)))
    # a chart from an earlier run would not describe the new sweep.csv
    (tmp_path / "sweep.svg").write_text("<svg/>")
    rc = main(["sweep", "--config", str(weak_config), "--out", str(tmp_path), *argv])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    out = captured.out.splitlines()
    assert len(out) == len(lines)
    for got, want in zip(out, lines):
        assert got.startswith(want.format(csv=tmp_path / "sweep.csv"))
    assert not (tmp_path / "sweep.svg").exists()


def test_rd_profile_names_why_a_point_is_nan(tmp_path, capsys):
    rc = main(["rd-profile", "--codec-class", "ppoly", "--N", "1", "--Q", "1",
               "--rho", "1", "--deltas", "0.5,0.2", "--cap", "1000",
               "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"wrote {tmp_path / 'rd_profile.csv'} (2 points)"
    assert out[1] == ("  delta=0.5: unavailable (CapacityError: piecewise-poly codec: "
                      "codebook has 65536 codewords (needs cap >= 2^16); "
                      "configured cap is 1000)")
    assert out[2].startswith("  delta=0.2: unavailable (CapacityError: ")
    assert len(out) == 3
    assert (tmp_path / "rd_profile.csv").read_text().endswith("0.5,nan,nan\n0.2,nan,nan\n")


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


@pytest.mark.parametrize("flag", ["--gamma1", "--gamma2"])
def test_bounds_has_no_unread_symbols(capsys, flag):
    # no guarantee reads gamma1 or gamma2, so neither is a flag
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--theorem", "T11", flag, "1"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


def test_pair_output(tmp_path):
    assert main(["pair", "--n", "10", "--k", "2", "--d", "3", "--seed", "4",
                 "--out", str(tmp_path)]) == 0
    text = (tmp_path / "pair.csv").read_text()
    gap = float([ln for ln in text.split("\n")
                 if ln.startswith("measurement_gap")][0].split(",")[1])
    assert gap < 1e-9


def test_pair_refuses_a_negative_seed(tmp_path, capsys):
    rc = main(["pair", "--n", "10", "--k", "2", "--d", "3", "--seed", "-1",
               "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == "error: --seed must be >= 0, not -1\n"
    assert not (tmp_path / "pair.csv").exists()


def test_analog_demo(tmp_path, capsys):
    rc = main(["analog-demo", "--d", "6", "--delta", "0.1", "--grid", "256",
               "--trials", "5", "--seed", "2", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "analog.csv").exists()
    # the same summary lines as recover
    assert capsys.readouterr().out == (
        f"wrote {tmp_path / 'analog.csv'} (5 trials; mean error 0.0281441, "
        "max 0.0415139)\n"
        "bound 0.4 exceeded in 0.0000 of trials (bound failure prob 1)\n")


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


def test_rd_profile_takes_no_seed(tmp_path, capsys):
    # the profile draws nothing from a master seed, so none is offered
    with pytest.raises(SystemExit) as exc:
        main(["rd-profile", "--codec-class", "grid", "--n", "2", "--rho", "1",
              "--deltas", "0.1", "--seed", "1", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


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


@pytest.mark.parametrize("argv,message", [
    (["--codec-class", "grid"], "grid codec config lacks keys: ['n']"),
    (["--codec-class", "sparse", "--n", "4"], "sparse codec config lacks keys: ['k']"),
])
def test_rd_profile_missing_count_exits_2(tmp_path, capsys, argv, message):
    # a missing count is a usage error, not a traceback
    rc = main(["rd-profile", *argv, "--rho", "1", "--deltas", "0.1",
               "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "rd_profile.csv").exists()


@pytest.mark.parametrize("argv,keys", [
    (["grid", "--n", "2", "--k", "5"], ["k"]),
    (["grid", "--n", "2", "--N", "3"], ["N"]),
    (["grid", "--n", "2", "--k", "5", "--N", "3"], ["N", "k"]),
    (["sparse", "--n", "8", "--k", "2", "--Q", "1"], ["Q"]),
    (["ppoly", "--k", "2"], ["k"]),
], ids=["grid-k", "grid-N", "grid-k-N", "sparse-Q", "ppoly-k"])
def test_rd_profile_refuses_a_flag_its_class_does_not_read(tmp_path, capsys, argv, keys):
    # each flag is the descriptor key of its name; one the class does not
    # read used to be ignored, so another family was profiled than described
    rc = main(["rd-profile", "--codec-class", *argv, "--rho", "1", "--deltas", "0.5",
               "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: unknown codec config keys: {keys}\n"
    assert not (tmp_path / "rd_profile.csv").exists()


def test_rd_profile_flags_are_the_descriptor_keys():
    # every rd-profile codec flag is a key some class reads, the command
    # passes each on under its name, and every key but the profiled delta
    # has its flag
    args = vars(build_parser().parse_args(
        ["rd-profile", "--codec-class", "grid", "--rho", "1", "--deltas", "0.1"]))
    flags = set(args) - {"command", "func", "codec_class", "deltas", "out"}
    keys = set().union(*(cls._descriptor for cls, _, _ in _CODEC_CLASSES.values()))
    assert flags == set(_RD_FLAGS) == keys - {"delta"}


def test_rd_profile_checks_a_given_ppoly_grid(tmp_path, capsys):
    # --n 0 used to fall back to a 4,096-point grid; the codec's default
    # applies only when --n is not given
    rc = main(["rd-profile", "--codec-class", "ppoly", "--n", "0", "--rho", "1",
               "--deltas", "0.5", "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == "error: grid=0 must be an integer >= 2\n"
    assert not (tmp_path / "rd_profile.csv").exists()


# Every file the CLI writes, pinned byte for byte: a literal where it is short,
# its sha256 otherwise.  The rd-profile ppoly cap admits the delta=0.5 codebook
# (2^16 codewords) and refuses the delta=0.2 one, which becomes a nan row.
_RD_GRID = ("# master_seed=0\n"
            "delta,rate_bits,alpha_hat\n"
            "0.1,9.90839262077375,2.9827233876685453\n"
            "0.0001,29.575703116482128,2.2257934452284527\n")
_RD_PPOLY = ("# master_seed=0\n"
             "delta,rate_bits,alpha_hat\n"
             "0.5,16.0,16.0\n"
             "0.2,nan,nan\n")
_PAIR = ("# master_seed=4\n"
         "beta,1.1126990024819428\n"
         "columns,0;1;2;3\n"
         "measurement_gap,3.477763656540197e-16\n"
         "x1,-0.4530917855409484;-0.7761427972264976;0.0;0.0;0.0;0.0;0.0;0.0;0.0;0.0\n"
         "x2,0.0;0.0;0.3811254256315165;-0.2169184227444462;0.0;0.0;0.0;0.0;0.0;0.0\n")
_SWEEP_CSV = "63a82eda022abaf0258107c43218a3d11fe8de6e5f6d66c5f87a99739670840e"


@pytest.mark.parametrize("argv,expected", [
    (["rd-profile", "--codec-class", "grid", "--n", "2", "--rho", "1",
      "--deltas", "0.1,0.0001"], {"rd_profile.csv": _RD_GRID}),
    (["rd-profile", "--codec-class", "ppoly", "--N", "1", "--Q", "1", "--rho", "1",
      "--deltas", "0.5,0.2", "--cap", "100000"], {"rd_profile.csv": _RD_PPOLY}),
    (["pair", "--n", "10", "--k", "2", "--d", "3", "--seed", "4"],
     {"pair.csv": _PAIR}),
    (["recover", "--config", "{weak}"], {
        "recover.csv":
            "04882d93325930c66a895342b646bdb2321d6164a0ec9b660a0ff39ce4402132"}),
    (["analog-demo", "--d", "6", "--grid", "256", "--trials", "5", "--seed", "2"], {
        "analog.csv":
            "7aa9d33e7c580185715dfd2044f45a324464e47fd4412630aa096eea250a104a"}),
    (["sweep", "--config", "{sweep}"], {
        "sweep.csv": _SWEEP_CSV,
        "sweep.svg":
            "29d32f0a218e88ba89b82f6e72031bfda8afdabd1e9a094cf2e510c73ccdef9a"}),
    (["sweep", "--config", "{sweep}", "--log-scale"], {
        "sweep.csv": _SWEEP_CSV,
        "sweep.svg":
            "b60be9135872a77c6d99b0ed0dd7fec4ef4efa5cca7a8395110cd87d8cdb45b7"}),
], ids=["rd-grid", "rd-ppoly-cap", "pair", "recover", "analog-demo", "sweep",
        "sweep-log"])
def test_cli_files_are_pinned(tmp_path, weak_config, argv, expected):
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps(dict(json.loads(weak_config.read_text()), trials=2,
                                     axis={"name": "d", "values": [3, 5]})))
    out = tmp_path / "out"
    out.mkdir()
    argv = [a.format(weak=weak_config, sweep=sweep) for a in argv]
    assert main(argv + ["--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(expected)
    for name, want in expected.items():
        data = (out / name).read_bytes()
        if want.startswith("#"):
            assert data == want.encode()
        else:
            assert hashlib.sha256(data).hexdigest() == want, name
