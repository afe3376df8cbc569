"""Experiment runner: determinism, CSV contract, sweeps, panels, SVG."""

import math
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path
from xml.dom import minidom

import numpy as np
import pytest

from csplab import harness
from csplab.bounds import THEOREM_IDS, BoundInputs, ParameterError, evaluate_bound
from csplab.codecs import SparseCodec, codec_from_config
from csplab.harness import (CSV_COLUMNS, MAX_WIENER_PATHS, ExperimentConfig,
                            build_panel, records_to_csv, run_sweep, run_trial,
                            run_trials, stream_id)
from csplab.rng import derive_stream
from csplab.svgplot import render_svg


def small_config(**overrides):
    base = dict(
        codec={"class": "sparse", "n": 8, "k": 1, "rho": 1.0, "delta": 0.2},
        regime="weak", d=5, trials=3, master_seed=77,
        theorem_id="T3", bound_params={"tau1": 3.0, "tau2": 0.75},
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentConfig.from_dict({
                "codec": {"class": "grid", "n": 2, "rho": 1.0, "delta": 0.5},
                "d": 2, "frobscottle": True,
            })

    def test_unknown_noise_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown noise keys"):
            small_config(noise={"kind": "gaussian", "zeta": 0.2})

    def test_noise_block_may_leave_kind_out(self):
        # the theorem check reads the parsed kind, which defaults to none
        record = run_trial(small_config(noise={}, trials=1), 0)
        assert record.noise_kind == "none" and record.within_bound is not None

    def test_unknown_bound_params_rejected(self):
        with pytest.raises(ValueError, match="bound_params"):
            small_config(bound_params={"tau9": 1.0})

    # the experiment supplies these seven, so a bound_params value for one
    # would describe another experiment than the trial's; gamma1 and gamma2
    # are no symbols at all
    @pytest.mark.parametrize("name", ["r", "delta", "d", "n", "sigma", "zeta", "eta",
                                      "gamma1", "gamma2"])
    def test_bound_params_take_only_free_parameters(self, name):
        with pytest.raises(ValueError,
                           match=re.escape(f"unknown bound_params keys: ['{name}']")):
            small_config(bound_params={"tau1": 3.0, "tau2": 0.75, name: 500})

    def test_config_eta_is_the_guarantees_eta(self):
        # the budget factor eta is the eta the corollary reads, though d is set
        config = small_config(codec={"class": "sparse", "n": 8, "k": 1, "rho": 1.0,
                                     "delta": 0.05},
                              d=8, eta=2.0, theorem_id="C4", bound_params={"eps": 1.5})
        codec = codec_from_config(config.codec)
        expected = evaluate_bound("C4", BoundInputs(r=codec.rate_bits, delta=codec.delta,
                                                    d=8, eta=2.0, eps=1.5))
        for record in run_trials(config):
            assert record.bound_error == expected.error_bound
            assert record.bound_fail_prob == expected.failure_probability

    @pytest.mark.parametrize("regime,tid", [("weak", "C4"), ("strong", "C9")])
    def test_a_set_d_must_reach_the_budget_of_the_guarantees_eta(self, regime, tid):
        # eta=50 budgets hundreds of measurements; the trial has 5
        config = small_config(codec={"class": "sparse", "n": 8, "k": 1, "rho": 1.0,
                                     "delta": 0.05},
                              regime=regime, d=5, eta=50.0, theorem_id=tid,
                              bound_params={"eps": 30.0})
        with pytest.raises(ParameterError,
                           match=rf"^{tid}: d=5 is below the budget \d+ at eta=50\.0$"):
            run_trial(config, 0)

    def test_requires_d_or_eta(self):
        with pytest.raises(ValueError, match="eta"):
            small_config(d=None, eta=None)

    # the guarantees each (regime, noise kind) admits; the analog noiseless
    # and bounded-noise guarantees share the weak finite-dimensional formulas
    ALLOWED = {
        ("weak", "none"): ["C4", "T3"],
        ("weak", "bounded"): ["C6", "T5"],
        ("weak", "gaussian"): ["T6", "T7"],
        ("strong", "none"): ["C9", "T8"],
        ("strong", "bounded"): ["C11", "T9"],
        ("strong", "gaussian"): ["T10", "T11"],
        ("analog", "none"): ["T3"],
        ("analog", "bounded"): ["T5"],
        ("analog", "gaussian"): [],
    }
    NOISE = {"none": {"kind": "none"}, "bounded": {"kind": "bounded", "zeta": 0.05},
             "gaussian": {"kind": "gaussian", "sigma": 0.05}}

    @pytest.mark.parametrize("regime,kind", sorted(ALLOWED))
    def test_theorem_regime_compatibility(self, regime, kind):
        allowed = self.ALLOWED[regime, kind]
        for tid in THEOREM_IDS:
            kw = dict(regime=regime, noise=self.NOISE[kind], theorem_id=tid,
                      bound_params={})
            if tid in allowed:
                assert small_config(**kw).theorem_id == tid
                continue
            with pytest.raises(ValueError) as err:
                small_config(**kw)
            assert str(err.value) == (f"theorem {tid} incompatible with regime="
                                      f"{regime}, noise={kind}; allowed: {allowed}")

    def test_round_trip(self):
        cfg = small_config()
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_eta_budget_resolves_d(self):
        cfg = small_config(d=None, eta=2.0,
                           codec={"class": "sparse", "n": 12, "k": 1,
                                  "rho": 4.0, "delta": 0.05})
        rec = run_trial(cfg, 0)
        codec = codec_from_config(cfg.codec)
        want = math.ceil(2.0 * codec.rate_bits
                         / math.log2(1.0 / (math.e * codec.delta)))
        assert rec.d == want == 8

    @pytest.mark.parametrize("regime,codec,mult", [
        ("strong", {"class": "sparse", "n": 12, "k": 1, "rho": 4.0, "delta": 0.05}, 2),
        ("analog", {"class": "ppoly", "n": 256, "N": 0, "Q": 0, "rho": 1.0,
                    "delta": 0.1}, 1),
    ])
    def test_eta_budget_multiplier_per_regime(self, regime, codec, mult):
        # one matrix for the whole class doubles the budget; analog
        # measurements of one signal take the weak rule
        cfg = small_config(d=None, eta=2.0, regime=regime, codec=codec, trials=1,
                           theorem_id=None, bound_params={}, panel_size=20)
        c = codec_from_config(codec)
        want = math.ceil(mult * 2.0 * c.rate_bits / math.log2(1.0 / (math.e * c.delta)))
        assert run_trial(cfg, 0).d == want

    def test_eta_budget_needs_eta_above_one(self):
        # the harness applies measurement_budget's rule, range checks included
        with pytest.raises(ParameterError, match=r"eta=0\.5 must be > 1"):
            run_trial(small_config(d=None, eta=0.5), 0)

    @pytest.mark.parametrize("eta", [0.5, 1.0])
    def test_eta_checked_at_construction(self, eta):
        # eta's range is known up front, unlike the codec-dependent delta range
        with pytest.raises(ParameterError, match=rf"^eta={eta} must be > 1$"):
            ExperimentConfig(codec={"class": "grid", "n": 2, "rho": 1.0, "delta": 0.5},
                             eta=eta)

    @pytest.mark.parametrize("name,value,message", [
        ("trials", 2.0, "trials=2.0 must be an integer"),
        ("trials", True, "trials=True must be an integer"),
        ("trials", 0, "trials must be >= 1"),
        ("panel_size", 0, "panel_size must be >= 1"),
        ("panel_size", "200", "panel_size='200' must be an integer"),
        ("master_seed", 1.5, "master_seed=1.5 must be an integer"),
        ("master_seed", False, "master_seed=False must be an integer"),
        ("master_seed", -1, "master_seed must be >= 0"),
    ])
    def test_integer_fields_checked_at_construction(self, name, value, message):
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            small_config(**{name: value})

    @pytest.mark.parametrize("eta,message", [
        (math.inf, "eta=inf must be finite"),
        (math.nan, "eta=nan must be finite"),
        ("2", "eta='2' must be a number"),
        (True, "eta=True must be a number"),
    ])
    def test_eta_must_be_a_finite_number(self, eta, message):
        with pytest.raises(ParameterError, match=rf"^{re.escape(message)}$"):
            small_config(d=None, eta=eta)

    @pytest.mark.parametrize("threads", [2, 0, True, 1.0])  # only the int 1 loads
    def test_threads_other_than_one_rejected(self, threads):
        with pytest.raises(ValueError, match=rf"^threads={threads} must be 1: "):
            small_config(threads=threads)

    @pytest.mark.parametrize("value", ["false", 1, None])
    def test_record_timings_must_be_a_bool(self, value):
        # a truthy string wrote real scan times into wall_ms
        with pytest.raises(ValueError, match=rf"^record_timings={value!r} must be a bool$"):
            small_config(record_timings=value)

    # one wrong value per field, with the start of its message; d is a
    # string because a bool d is left to _resolve_d's ParameterError
    WRONG_FIELDS = {
        "codec": ("sparse", "codec='sparse' must be a JSON object"),
        "regime": ("medium", "unknown regime 'medium'"),
        "noise": (None, "noise=None must be a JSON object"),
        "d": ("5", "d='5' must be a number"),
        "eta": ("2", "eta='2' must be a number"),
        "trials": (2.0, "trials=2.0 must be an integer"),
        "master_seed": (-1, "master_seed must be >= 0"),
        "theorem_id": ("T99", "theorem T99 incompatible"),
        "bound_params": ({"tau9": 1.0}, "unknown bound_params keys: ['tau9']"),
        "signal_source": ("file", "unknown signal_source 'file'"),
        "panel_size": (0, "panel_size must be >= 1"),
        "axis": ({"name": "n", "values": [1]}, "axis name must be one of"),
        "threads": (True, "threads=True must be 1"),
        "record_timings": ("false", "record_timings='false' must be a bool"),
    }

    def test_every_field_is_checked(self):
        # a new field fails here until it has a check and a row
        assert set(self.WRONG_FIELDS) == {f.name for f in fields(ExperimentConfig)}
        for name, (value, message) in self.WRONG_FIELDS.items():
            with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
                small_config(**{name: value})

    def test_threads_one_still_loads(self):
        # configs written for the threaded scan, the benchmark's too, say threads=1
        cfg = ExperimentConfig.from_dict({
            "codec": {"class": "grid", "n": 2, "rho": 1.0, "delta": 0.5},
            "d": 2, "threads": 1,
        })
        assert cfg.threads == 1

    @pytest.mark.parametrize("axis,message", [
        ({"name": "sigma", "values": [0.1, math.nan]},
         "axis value nan must be a finite number"),
        ({"name": "d", "values": [4, math.inf]}, "axis value inf must be a finite number"),
        ({"name": "d", "values": [True]}, "axis value True must be a finite number"),
        ({"name": "delta", "values": ["0.1"]}, "axis value '0.1' must be a finite number"),
        ({"name": "sigma", "values": [0.1, -0.1]}, "sigma=-0.1 must be finite and >= 0"),
        ({"name": "zeta", "values": [-1]}, "zeta=-1.0 must be finite and >= 0"),
    ])
    def test_axis_values_checked_at_construction(self, axis, message):
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            small_config(axis=axis, theorem_id=None, bound_params={})

    @pytest.mark.parametrize("noise,name,expected", [
        ({"kind": "bounded", "zeta": 0.1, "shape": "worst_aligned"}, "sigma",
         {"kind": "gaussian", "sigma": 0.2}),
        ({"kind": "bounded", "zeta": 0.1, "shape": "worst_aligned"}, "zeta",
         {"kind": "bounded", "zeta": 0.2, "shape": "worst_aligned"}),
        ({"kind": "gaussian", "sigma": 0.1}, "zeta",
         {"kind": "bounded", "zeta": 0.2, "shape": "random_direction"}),
    ])
    def test_noise_point_blocks(self, noise, name, expected):
        cfg = small_config(noise=noise, theorem_id=None, bound_params={},
                           axis={"name": name, "values": [0.2]})
        assert harness._point_config(cfg, 0.2).noise == expected

    def test_bool_d_is_not_a_count(self):
        with pytest.raises(ParameterError, match=r"^d=True must be an integer >= 1$"):
            run_trial(small_config(d=True), 0)

    def test_block_size_is_not_a_config_key(self):
        with pytest.raises(ValueError, match=r"unknown config keys: \['block_size'\]"):
            ExperimentConfig.from_dict({**small_config().to_dict(), "block_size": 64})


class TestTrials:
    def test_reruns_are_byte_identical(self):
        cfg = small_config()
        recs_a, recs_b = run_trials(cfg), run_trials(cfg)
        assert recs_a == recs_b  # field-for-field identical records
        a = records_to_csv(recs_a, cfg.master_seed)
        b = records_to_csv(recs_b, cfg.master_seed)
        assert a == b

    def test_codebook_signals_recover_exactly(self):
        cfg = small_config(signal_source="codebook", trials=5)
        for rec in run_trials(cfg):
            assert rec.error_l2 <= 1e-9
            assert rec.within_bound
            assert rec.signal_desc.startswith("codeword[")

    def test_distinct_trials_get_distinct_streams(self):
        recs = run_trials(small_config())
        assert len({r.ensemble_seed for r in recs}) == len(recs)
        assert len({r.signal_seed for r in recs}) == len(recs)

    def test_worst_aligned_noise_runs(self):
        cfg = small_config(noise={"kind": "bounded", "zeta": 0.05,
                                  "shape": "worst_aligned"},
                           theorem_id="T5")
        recs = run_trials(cfg)
        assert all(r.noise_kind == "bounded" for r in recs)
        # falls back to a random direction when the signal is a codeword
        cfg2 = small_config(noise={"kind": "bounded", "zeta": 0.05,
                                   "shape": "worst_aligned"},
                            theorem_id="T5", signal_source="codebook")
        recs2 = run_trials(cfg2)
        assert all(r.error_l2 is not None for r in recs2)

    @pytest.mark.parametrize("regime,extra", [
        ("weak", dict(trials=3)), ("strong", dict(trials=2, panel_size=30)),
    ])
    def test_worst_aligned_at_zeta_zero_needs_no_context(self, monkeypatch,
                                                         regime, extra):
        # zeta = 0 leaves y unchanged, so no quantization residual is computed
        calls = []
        real = SparseCodec.encode
        monkeypatch.setattr(SparseCodec, "encode",
                            lambda self, x: calls.append(x) or real(self, x))
        csv = {}
        for shape in ("worst_aligned", "random_direction"):
            harness._cached_panel.cache_clear()
            cfg = small_config(regime=regime, theorem_id=None, bound_params={},
                               noise={"kind": "bounded", "zeta": 0.0, "shape": shape},
                               **extra)
            csv[shape] = records_to_csv(run_trials(cfg), cfg.master_seed)
        assert calls == []
        assert csv["worst_aligned"] == csv["random_direction"]

    def test_timings_zero_unless_enabled(self):
        assert all(r.wall_ms == 0.0 for r in run_trials(small_config()))
        timed = run_trials(small_config(record_timings=True))
        assert all(r.wall_ms > 0.0 for r in timed)

    def test_analog_trial(self):
        cfg = ExperimentConfig(
            codec={"class": "ppoly", "n": 256, "N": 0, "Q": 0, "rho": 1.0,
                   "delta": 0.05},
            regime="analog", d=6, trials=2, master_seed=3,
            theorem_id="T3", bound_params={"tau1": 3.0, "tau2": 0.75},
        )
        recs = run_trials(cfg)
        assert all(r.n == 256 for r in recs)
        assert all(r.error_l2 <= r.bound_error for r in recs)
        assert records_to_csv(recs, 3) == records_to_csv(run_trials(cfg), 3)


class TestStrongRegime:
    def test_panel_includes_codewords_and_stress(self):
        codec = SparseCodec(6, 1, 1.0, 0.5)  # 30 codewords
        panel = build_panel(codec, 70, derive_stream(5, 0))
        descs = [d for _, d in panel]
        assert any(d.startswith("codeword[") for d in descs)
        assert any(d.startswith("cell-corner[") for d in descs)
        assert any(d == "class-sample" for d in descs)
        assert len(panel) == 70
        assert all(codec.is_member(x) for x, _ in panel)

    def test_panel_deterministic(self):
        codec = SparseCodec(6, 1, 1.0, 0.5)
        a = build_panel(codec, 20, derive_stream(5, 1))
        b = build_panel(codec, 20, derive_stream(5, 1))
        assert all(np.array_equal(x, y) for (x, _), (y, _) in zip(a, b))

    def test_one_matrix_per_trial_fixed_panel(self):
        cfg = ExperimentConfig(
            codec={"class": "sparse", "n": 8, "k": 1, "rho": 1.0, "delta": 0.4},
            regime="strong", d=6, trials=3, master_seed=9, panel_size=25,
            theorem_id="T8", bound_params={"tau": 0.75, "t": 1.0},
        )
        recs = run_trials(cfg)
        # fresh matrix per draw, shared panel stream across draws
        assert len({r.ensemble_seed for r in recs}) == len(recs)
        assert len({r.signal_seed for r in recs}) == 1
        assert all(r.signal_desc.startswith("panel-max[") for r in recs)

    @pytest.mark.parametrize("regime, p", [("weak", 1), ("strong", 25)])
    @pytest.mark.parametrize("noise, calls", [
        ({"kind": "none"}, 1),
        ({"kind": "gaussian", "sigma": 0.1}, 1),
        ({"kind": "bounded", "zeta": 0.05, "shape": "worst_aligned"}, 2),
    ])
    def test_finite_regimes_measure_in_one_call(self, regime, p, noise, calls,
                                                monkeypatch):
        # one stacked measure of the signals (and one of their residuals
        # for worst_aligned noise), then noise signal by signal
        measured, noised = [], []
        real_measure, real_noise = harness.measure, harness.apply_noise

        def measure(ensemble, x):
            measured.append(np.shape(x))
            return real_measure(ensemble, x)

        def apply_noise(y, *args, **kwargs):
            noised.append(np.shape(y))
            return real_noise(y, *args, **kwargs)

        monkeypatch.setattr(harness, "measure", measure)
        monkeypatch.setattr(harness, "apply_noise", apply_noise)
        harness._cached_panel.cache_clear()
        run_trial(strong_config(regime=regime, noise=noise), 0)
        assert measured == [(p, 8)] * calls
        assert noised == [(6,)] * p

    def test_strong_rejects_function_codecs(self):
        cfg = ExperimentConfig(
            codec={"class": "ppoly", "n": 256, "N": 0, "Q": 0, "rho": 1.0,
                   "delta": 0.1},
            regime="strong", d=6, trials=1, master_seed=0,
        )
        with pytest.raises(ValueError, match="finite-dimensional"):
            run_trial(cfg, 0)


def strong_config(**overrides):
    base = dict(
        codec={"class": "sparse", "n": 8, "k": 1, "rho": 1.0, "delta": 0.4},
        regime="strong", d=6, trials=5, master_seed=21, panel_size=25,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestPanelCache:
    @pytest.mark.parametrize("noise", [
        {"kind": "none"},
        {"kind": "bounded", "zeta": 0.05, "shape": "worst_aligned"},
    ])
    def test_cached_records_equal_fresh_builds(self, noise, monkeypatch):
        cfg = strong_config(noise=noise)
        codec = codec_from_config(cfg.codec)
        fresh = []
        for t in range(5):
            harness._cached_panel.cache_clear()
            fresh.append(run_trial(cfg, t, codec=codec))
        builds = []
        real = harness.build_panel
        monkeypatch.setattr(harness, "build_panel",
                            lambda *a: builds.append(a) or real(*a))
        harness._cached_panel.cache_clear()
        cached = [run_trial(cfg, t, codec=codec) for t in range(5)]
        assert cached == fresh  # field by field
        assert len(builds) == 1

    def test_interleaved_keys_never_return_a_stale_panel(self):
        cfg = strong_config(noise={"kind": "bounded", "zeta": 0.05,
                                   "shape": "worst_aligned"})
        codecs = [SparseCodec(8, 1, 1.0, 0.4), SparseCodec(8, 1, 1.0, 0.5)]
        # Gray-code order: consecutive keys differ in exactly one component;
        # walk it forward, then back, so every key comes up twice
        gray = [(g >> 2, g >> 1 & 1, g & 1) for g in (i ^ i >> 1 for i in range(8))]
        order = gray + gray[::-1][1:] + gray[-1:]
        for trial, (c, s, point) in enumerate(order):
            seed = (21, 22)[s]
            run = replace(cfg, master_seed=seed)
            got = run_trial(run, trial, point=point, codec=codecs[c])
            harness._cached_panel.cache_clear()
            want = run_trial(run, trial, point=point, codec=codecs[c])
            assert got == want

    def test_cached_arrays_are_read_only(self):
        cfg = strong_config(noise={"kind": "bounded", "zeta": 0.05,
                                   "shape": "worst_aligned"})
        codec = codec_from_config(cfg.codec)
        harness._cached_panel.cache_clear()
        run_trial(cfg, 0, codec=codec)
        entry = harness._cached_panel(codec, cfg.master_seed,
                                      stream_id(0, 0, harness.CH_PANEL), cfg.panel_size)
        assert harness._cached_panel.cache_info().hits == 1  # the trial's own entry
        for arr in (entry.members, entry.members[0], entry.residuals, entry.residuals[0]):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0


class TestWienerStreams:
    def analog_config(self, d):
        return ExperimentConfig(
            codec={"class": "ppoly", "n": 64, "N": 0, "Q": 0, "rho": 1.0,
                   "delta": 0.1},
            regime="analog", d=d, trials=1, master_seed=0,
        )

    def test_largest_d_keeps_streams_inside_the_trial(self, monkeypatch):
        seen = []

        def fake_sample(d, m, seed, base):
            seen.append((d, base))
            raise RuntimeError("stop before sampling")

        monkeypatch.setattr(harness, "sample_wiener_ensemble", fake_sample)
        with pytest.raises(RuntimeError, match="stop before sampling"):
            run_trial(self.analog_config(MAX_WIENER_PATHS), 3, point=2)
        (d, base), = seen
        assert d == MAX_WIENER_PATHS == 65_520
        assert base + d - 1 == stream_id(2, 3, 2**16 - 1)

    def test_one_more_path_is_rejected_before_drawing(self, monkeypatch):
        def fail(*args):
            raise AssertionError("sampled despite an invalid d")

        monkeypatch.setattr(harness, "sample_wiener_ensemble", fail)
        monkeypatch.setattr(harness._rng, "derive_stream", fail)
        with pytest.raises(ParameterError, match="exceeds 65520"):
            run_trial(self.analog_config(MAX_WIENER_PATHS + 1), 0)

    def test_too_many_paths_on_an_axis_is_unavailable(self):
        cfg = replace(self.analog_config(4), axis={"name": "d", "values": [4, 65521]})
        sweep = run_sweep(cfg)
        assert not math.isnan(sweep.points[0].mean_error)
        assert math.isnan(sweep.points[1].mean_error)
        assert sweep.points[1].reason.startswith(
            "ParameterError: analog d=65521 exceeds 65520: ")
        assert all(r.axis_value == 4.0 for r in sweep.records)


class TestImports:
    @pytest.mark.parametrize("codec, regime, absent", [
        ({"class": "sparse", "n": 8, "k": 1, "rho": 1.0, "delta": 0.4}, "weak",
         ["numpy.polynomial", "numpy.ma"]),
        ({"class": "ppoly", "N": 0, "Q": 1, "rho": 1.0, "delta": 0.2, "n": 4096},
         "analog", ["numpy.ma"]),
    ], ids=["sparse", "ppoly"])
    def test_a_trial_loads_no_unused_numpy_module(self, codec, regime, absent):
        # a fresh interpreter: numpy.polynomial is loaded on first use by a
        # polynomial, and numpy.ma (which np.unique loads) never
        script = (
            "import sys\n"
            "from csplab.harness import ExperimentConfig, run_trial\n"
            f"run_trial(ExperimentConfig(codec={codec!r}, regime={regime!r}, d=4), 0)\n"
            "print(' '.join(sorted(sys.modules)))\n")
        src = str(Path(harness.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                             capture_output=True, text=True).stdout.split()
        assert "csplab.solver" in out
        assert not [name for name in absent if name in out]


class TestSweep:
    def test_sigma_axis_bound_strictly_increasing(self):
        cfg = small_config(
            noise={"kind": "gaussian", "sigma": 0.0}, theorem_id="T6",
            bound_params={"tau1": 3.0, "tau2": 0.75, "tau3": 1.0},
            axis={"name": "sigma", "values": [0.0, 0.1, 0.2]},
        )
        sweep = run_sweep(cfg)
        bounds = [p.bound_error for p in sweep.points]
        assert all(a < b for a, b in zip(bounds, bounds[1:]))
        assert all(0.0 <= p.exceed_rate <= 1.0 for p in sweep.points)

    def test_d_axis_runs_and_reports(self):
        cfg = small_config(axis={"name": "d", "values": [2, 4, 6]}, trials=2)
        sweep = run_sweep(cfg)
        assert [p.axis_value for p in sweep.points] == [2.0, 4.0, 6.0]
        ds = sorted({r.d for r in sweep.records})
        assert ds == [2, 4, 6]

    def test_single_trial_points_allowed(self):
        cfg = small_config(trials=1, axis={"name": "zeta", "values": [0.1]},
                           noise={"kind": "bounded", "zeta": 0.0},
                           theorem_id="T5")
        sweep = run_sweep(cfg)
        assert len(sweep.records) == 1

    def test_failed_point_marked_and_skipped(self):
        cfg = small_config(
            codec={"class": "sparse", "n": 8, "k": 1, "rho": 1.0, "delta": 0.2,
                   "cap": 2**10},
            axis={"name": "delta", "values": [0.2, 1e-5]},
            theorem_id=None, bound_params={},
        )
        sweep = run_sweep(cfg)
        assert not math.isnan(sweep.points[0].mean_error)
        assert math.isnan(sweep.points[1].mean_error)
        assert all(r.axis_value == 0.2 for r in sweep.records)
        assert sweep.points[0].reason is None
        assert sweep.points[1].reason.startswith("CapacityError: ")

    def test_delta_outside_budget_range_is_unavailable(self):
        # the eta rule needs delta in (0, 1/e); 0.5 is a parameter error
        cfg = small_config(d=None, eta=2.0,
                           axis={"name": "delta", "values": [0.1, 0.5]})
        sweep = run_sweep(cfg)
        assert sweep.points[0].reason is None
        assert not math.isnan(sweep.points[0].mean_error)
        assert math.isnan(sweep.points[1].mean_error)
        assert sweep.points[1].reason == (
            "ParameterError: delta=0.5 must be in (0, 1/e) for the budget denominator")
        assert all(r.axis_value == 0.1 for r in sweep.records)

    def test_invalid_d_points_are_unavailable(self):
        # the axis sends floats: 4.0 is d=4, while 0 and 2.7 are no d at all
        sweep = run_sweep(small_config(axis={"name": "d", "values": [4, 0, 2.7]}))
        assert sweep.points[0].reason is None
        assert {r.d for r in sweep.records} == {4}
        assert [p.reason for p in sweep.points[1:]] == [
            "ParameterError: d=0.0 must be an integer >= 1",
            "ParameterError: d=2.7 must be an integer >= 1"]
        assert all(math.isnan(p.mean_error) for p in sweep.points[1:])

    def test_infinite_bound_parameter_is_refused(self):
        # "> 0" let inf through, so the bound read inf and the chart nan
        cfg = small_config(bound_params={"tau1": math.inf, "tau2": 0.75},
                           axis={"name": "d", "values": [3, 5]}, trials=2)
        with pytest.raises(ParameterError, match=r"^T3: tau1=inf must be finite$"):
            run_trial(cfg, 0)
        sweep = run_sweep(cfg)
        assert not sweep.records
        assert [p.reason for p in sweep.points] == [
            "ParameterError: T3: tau1=inf must be finite"] * 2
        assert all(math.isnan(p.mean_error) for p in sweep.points)

    def test_unexpected_error_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("a bug, not an infeasible point")

        monkeypatch.setattr(harness, "csp_recover", broken)
        cfg = small_config(axis={"name": "d", "values": [2, 4]})
        with pytest.raises(ValueError, match="a bug"):
            run_sweep(cfg)

    @staticmethod
    def count_codec_builds(monkeypatch) -> list:
        built = []

        def counting(cfg):
            built.append(dict(cfg))
            return codec_from_config(cfg)

        monkeypatch.setattr(harness, "codec_from_config", counting)
        return built

    @pytest.mark.parametrize("regime", ["weak", "strong"])
    def test_d_axis_builds_codec_once_with_per_point_bytes(self, monkeypatch,
                                                           regime):
        extra = {"panel_size": 6, "theorem_id": "T8",
                 "bound_params": {"tau": 0.75, "t": 1.0}} \
            if regime == "strong" else {}
        cfg = small_config(regime=regime, axis={"name": "d", "values": [3, 5, 4]},
                           trials=2, **extra)
        per_point = []
        for i, value in enumerate(cfg.axis["values"]):
            harness._cached_panel.cache_clear()
            per_point += run_trials(harness._point_config(cfg, value), point=i,
                                    axis_value=float(value))
        harness._cached_panel.cache_clear()
        built = self.count_codec_builds(monkeypatch)
        sweep = run_sweep(cfg)
        assert built == [cfg.codec]
        assert records_to_csv(sweep.records, cfg.master_seed) == \
            records_to_csv(per_point, cfg.master_seed)

    def test_delta_axis_builds_codec_per_point(self, monkeypatch):
        built = self.count_codec_builds(monkeypatch)
        cfg = small_config(
            codec={"class": "sparse", "n": 8, "k": 1, "rho": 1.0, "delta": 0.2,
                   "cap": 2**10},
            axis={"name": "delta", "values": [0.2, 0.3, 1e-5, 0.2]},
            theorem_id=None, bound_params={},
        )
        sweep = run_sweep(cfg)
        assert [b["delta"] for b in built] == [0.2, 0.3, 1e-5, 0.2]
        assert sweep.points[2].reason.startswith("CapacityError: ")
        assert [p.reason for p in sweep.points[:2] + sweep.points[3:]] == [None] * 3

    def test_within_bound_recomputable_from_csv(self):
        cfg = small_config(axis={"name": "d", "values": [3, 5]}, trials=2)
        text = records_to_csv(run_sweep(cfg).records, cfg.master_seed)
        lines = text.strip().split("\n")
        assert lines[0] == f"# master_seed={cfg.master_seed}"
        header = lines[1].split(",")
        assert header == list(CSV_COLUMNS)
        for row in lines[2:]:
            cells = dict(zip(header, row.split(",")))
            err = float(cells["error_l2"])
            bound = float(cells["bound_error"])
            assert cells["within_bound"] == ("true" if err <= bound else "false")


class TestSvg:
    def make_sweep(self, theorem_id="T3", values=(2, 4, 6)):
        cfg = small_config(
            theorem_id=theorem_id,
            bound_params={"tau1": 3.0, "tau2": 0.75} if theorem_id else {},
            axis={"name": "d", "values": list(values)}, trials=2,
        )
        return run_sweep(cfg)

    def test_byte_deterministic(self):
        assert render_svg(self.make_sweep()) == render_svg(self.make_sweep())

    def test_single_point_chart(self):
        text = render_svg(self.make_sweep(values=(4,)))
        assert text.startswith("<svg")
        assert "<circle" in text

    def test_bound_curve_follows_theorem_config(self):
        with_bound = render_svg(self.make_sweep())
        assert ">bound</text>" in with_bound
        without = render_svg(self.make_sweep(theorem_id=None))
        assert ">bound</text>" not in without

    def test_title_is_escaped(self):
        sweep = replace(self.make_sweep(), axis_name="a<b & c")
        dom = minidom.parseString(render_svg(sweep, title="T<3 & d"))
        texts = [t.firstChild.data for t in dom.getElementsByTagName("text")]
        assert "T<3 & d" in texts
        assert "a<b & c" in texts

    def test_points_are_plotted_in_axis_order(self):
        sweep = self.make_sweep(values=(6, 2, 8, 4))
        ordered = replace(sweep, points=sorted(sweep.points, key=lambda p: p.axis_value))
        assert [p.axis_value for p in ordered.points] == [2, 4, 6, 8]
        for log_y in (False, True):
            assert render_svg(sweep, log_y=log_y) == render_svg(ordered, log_y=log_y)

    @pytest.mark.parametrize("log_y", [False, True])
    def test_non_finite_values_are_dropped(self, log_y):
        # an inf bound point once made every y coordinate and tick label nan
        sweep = self.make_sweep()
        points = list(sweep.points)
        points[1] = replace(points[1], bound_error=math.inf, max_error=-math.inf)
        text = render_svg(replace(sweep, points=points), log_y=log_y)
        dom = minidom.parseString(text)
        values = [a.value for node in dom.getElementsByTagName("*")
                  for a in node.attributes.values()]
        values += [t.firstChild.data for t in dom.getElementsByTagName("text")]
        assert not [v for v in values if "nan" in v or "inf" in v]
        assert ">bound</text>" in text

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_a_range_wider_than_the_largest_float_renders(self, axis):
        # 1e308 - -1e308 overflows to inf, which made every coordinate and
        # tick label of that axis nan or inf; the chart now works in halves
        sweep = self.make_sweep()
        ends = (-1e308, 0.0, 1e308)
        if axis == "x":
            points = [replace(p, axis_value=v) for p, v in zip(sweep.points, ends)]
        else:
            points = [replace(p, mean_error=v, max_error=v, bound_error=v)
                      for p, v in zip(sweep.points, ends)]
        dom = minidom.parseString(render_svg(replace(sweep, points=points)))
        values = [a.value for node in dom.getElementsByTagName("*")
                  for a in node.attributes.values()]
        values += [t.firstChild.data for t in dom.getElementsByTagName("text")]
        assert not [v for v in values if "nan" in v or "inf" in v]
        # the three values sit at both ends and in the middle of their axis
        attr, spots = {"x": ("cx", ["64", "344", "624"]),
                       "y": ("cy", ["36", "204", "372"])}[axis]
        circles = dom.getElementsByTagName("circle")
        assert sorted({c.getAttribute(attr) for c in circles}, key=float) == spots

    @pytest.mark.parametrize("axis,value", [("x", 1e16), ("y", 3e16)])
    def test_a_range_collapsed_by_rounding_renders(self, axis, value):
        # v - 0.5 == v + 0.5 at these magnitudes, so widening the range of
        # equal values by 0.5 each way left it empty, and the chart divided
        # by its width of 0
        sweep = self.make_sweep(values=(2, 4))
        if axis == "x":
            points = [replace(sweep.points[0], axis_value=value)]
        else:
            points = [replace(p, mean_error=value, max_error=value, bound_error=value)
                      for p in sweep.points]
        dom = minidom.parseString(render_svg(replace(sweep, points=points)))
        circles = dom.getElementsByTagName("circle")
        # the equal values sit in the middle of their axis
        mid = {"x": ("cx", "344"), "y": ("cy", "204")}[axis]
        assert circles and {c.getAttribute(mid[0]) for c in circles} == {mid[1]}
        values = [a.value for node in dom.getElementsByTagName("*")
                  for a in node.attributes.values()]
        assert not [v for v in values if "nan" in v or "inf" in v]

    def test_log_scale(self):
        text = render_svg(self.make_sweep(), log_y=True)
        assert text.startswith("<svg")
