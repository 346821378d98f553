"""CLI orchestration: config handling, subcommands, determinism, audits."""

import ast
import hashlib
import importlib
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from shiftcp.cli import (
    DEFAULT_CONFIG,
    ExperimentConfig,
    TrialData,
    _calibrate_method,
    _tune_stream,
    aggregate_records,
    main,
    make_trial_data,
    run_sweep,
    run_tau_experiment,
    run_trial,
    tau_diagnostics,
    train_model,
)
from shiftcp.exceptions import ConfigError
from shiftcp.rng import RngStream
from shiftcp.synthetic import write_logit_table


def small_config(**overrides) -> ExperimentConfig:
    base = {
        "n_train": 500,
        "n_cal": 150,
        "n_test": 200,
        "trials": 3,
        "sigma_grid": [0.0, 0.8],
    }
    base.update(overrides)
    return ExperimentConfig.from_dict(base)


def crisp_config(**overrides) -> ExperimentConfig:
    """Well-separated classes: the classifier is essentially exact on the source."""
    base = {
        "n_train": 1200,
        "n_cal": 400,
        "n_test": 800,
        "trials": 60,
        "sigma_grid": [0.0],
        "source": {
            "class_means": [[2.6, 0.0], [-1.3, 2.2516660498395403], [-1.3, -2.2516660498395403]],
            "class_cov_scale": 0.5,
            "priors": [1 / 3, 1 / 3, 1 / 3],
        },
    }
    base.update(overrides)
    return ExperimentConfig.from_dict(base)


class TestConfig:
    def test_defaults_round_trip(self):
        cfg = ExperimentConfig.from_dict({})
        again = ExperimentConfig.from_dict(cfg.resolved())
        assert again.resolved() == cfg.resolved()

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            ExperimentConfig.from_dict({"sigmas": [1.0]})
        with pytest.raises(ConfigError, match="train.learningrate"):
            ExperimentConfig.from_dict({"train": {"learningrate": 0.1}})

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"alpha": 1.5})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"sigma_grid": []})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"sigma_grid": [0.5, 0.5]})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"methods": ["magic"]})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"tau_policy": {"kind": "sometimes"}})

    def test_rho_mix_certificate_scales_linearly(self):
        cfg = ExperimentConfig.from_dict({})
        assert cfg.rho_mix_certified(0.0) == 0.0
        assert cfg.rho_mix_certified(2.0) == pytest.approx(2 * cfg.rho_mix_certified(1.0))

    def test_default_config_is_valid(self):
        cfg = ExperimentConfig.from_dict(DEFAULT_CONFIG)
        assert cfg.methods == ("source", "hard_pseudo", "source_tuned", "oracle")


class TestTrialMachinery:
    def test_record_count_and_grid(self):
        cfg = small_config()
        records, aggregates = run_sweep(cfg)
        assert len(records) == len(cfg.methods) * len(cfg.sigma_grid) * cfg.trials
        assert len(aggregates) == len(cfg.methods) * len(cfg.sigma_grid)

    def test_single_cell_single_record(self):
        cfg = small_config(methods=["oracle"], sigma_grid=[0.4], trials=1)
        records, _ = run_sweep(cfg)
        assert len(records) == 1
        assert records[0].method == "oracle"

    def test_single_method_matches_run_trial(self):
        cfg = small_config()
        model = train_model(cfg)
        (rec,) = run_trial(replace(cfg, methods=("hard_pseudo",)), model, 1, 2)
        full = {r.method: r for r in run_trial(cfg, model, 1, 2)}
        assert rec == full["hard_pseudo"]

    def test_trial_data_deterministic(self):
        cfg = small_config()
        a = make_trial_data(cfg, 1, 0)
        b = make_trial_data(cfg, 1, 0)
        np.testing.assert_array_equal(a.x_target_test, b.x_target_test)
        np.testing.assert_array_equal(a.y_source, b.y_source)

    def test_no_target_label_leakage_outside_oracle(self):
        """Permuting the oracle labels must not move any non-oracle threshold."""
        cfg = small_config()
        model = train_model(cfg)
        data = make_trial_data(cfg, 1, 0)
        permuted = TrialData(
            x_source=data.x_source,
            y_source=data.y_source,
            x_target_cal=data.x_target_cal,
            y_target_cal_oracle=np.roll(data.y_target_cal_oracle, 1),
            x_target_test=data.x_target_test,
            y_target_test=data.y_target_test,
        )
        for method in ("source", "hard_pseudo", "source_tuned"):
            cal_a, _ = _calibrate_method(cfg, model, method, data, _tune_stream(cfg, 1, 0))
            cal_b, _ = _calibrate_method(cfg, model, method, permuted, _tune_stream(cfg, 1, 0))
            assert cal_a.threshold == cal_b.threshold
        oracle_a, _ = _calibrate_method(cfg, model, "oracle", data, _tune_stream(cfg, 1, 0))
        oracle_b, _ = _calibrate_method(cfg, model, "oracle", permuted, _tune_stream(cfg, 1, 0))
        assert oracle_a.threshold != oracle_b.threshold

    def test_tuned_coverage_at_least_hard_per_trial(self):
        cfg = small_config(trials=6, sigma_grid=[0.0, 1.0, 2.0])
        records, _ = run_sweep(cfg)
        hard = {(r.sigma, r.trial): r.coverage for r in records if r.method == "hard_pseudo"}
        tuned = {(r.sigma, r.trial): r.coverage for r in records if r.method == "source_tuned"}
        assert hard.keys() == tuned.keys()
        assert all(tuned[k] >= hard[k] for k in hard)

    def test_no_shift_methods_agree_with_nominal(self):
        cfg = crisp_config()
        records, aggregates = run_sweep(cfg)
        means = {row["method"]: row["mean_coverage"] for row in aggregates}
        ses = {row["method"]: row["se_coverage"] for row in aggregates}
        for method, mean in means.items():
            assert abs(mean - 0.8) <= 3 * max(ses[method], 1e-9) + 1 / (cfg.n_cal + 1)
        for a in means:
            for b in means:
                band = 3 * math.hypot(ses[a], ses[b]) + 1 / (cfg.n_cal + 1)
                assert abs(means[a] - means[b]) <= band

    def test_oracle_coverage_in_exchangeability_band(self):
        cfg = small_config(trials=80, sigma_grid=[0.0, 1.2], methods=["oracle"])
        _, aggregates = run_sweep(cfg)
        for row in aggregates:
            lo = 0.8 - 3 * row["se_coverage"]
            hi = 0.8 + 1 / (cfg.n_cal + 1) + 3 * row["se_coverage"]
            assert lo <= row["mean_coverage"] <= hi


def tau_config(**overrides) -> ExperimentConfig:
    """A mushier classifier for the slack experiments.

    The slack rule divides by the source hinge loss minus the measured
    undercoverage gap, so these tests use a config whose hinge loss sits well
    above the gap estimator's noise floor.
    """
    base = {
        "n_train": 800,
        "n_cal": 150,
        "n_test": 200,
        "trials": 3,
        "sigma_grid": [0.0, 0.8],
        "source": {
            "class_means": [[2.0, 0.0], [-1.0, 1.7320508075688772], [-1.0, -1.7320508075688772]],
            "class_cov_scale": 0.95,
            "priors": [1 / 3, 1 / 3, 1 / 3],
        },
        "train": {"epochs": 60, "learning_rate": 0.1},
    }
    base.update(overrides)
    return ExperimentConfig.from_dict(base)


class TestTauExperiment:
    def test_adjusted_dominates_unadjusted_per_trial(self):
        cfg = tau_config(trials=5, sigma_grid=[0.5, 1.5])
        records, diagnostics = run_tau_experiment(cfg)
        assert all(d["tau"] >= 0 for d in diagnostics)
        hard = {(r.sigma, r.trial): r for r in records if r.method == "hard_pseudo"}
        adj = {(r.sigma, r.trial): r for r in records if r.method == "tau_adjusted"}
        for key, h in hard.items():
            a = adj[key]
            assert a.coverage >= h.coverage
            assert a.ess >= h.ess
            assert a.threshold == h.threshold

    def test_zero_tau_reproduces_hard_records(self):
        # An outward shift improves the target margins, so the designed slack
        # clips to exactly zero and the adjusted rows coincide with the hard rows.
        outward = {
            "per_class_translation": [[0.6, 0.0], [-0.3, 0.5196152422706632], [-0.3, -0.5196152422706632]],
            "noise_scale": 0.0,
            "clip_radius": 0.0,
            "clip_mode": "resample",
        }
        cfg = tau_config(trials=3, sigma_grid=[1.0], shift=outward)
        records, diagnostics = run_tau_experiment(cfg)
        assert diagnostics[0]["tau"] == 0.0
        hard = {r.trial: r for r in records if r.method == "hard_pseudo"}
        adj = {r.trial: r for r in records if r.method == "tau_adjusted"}
        for t, h in hard.items():
            a = adj[t]
            assert (a.threshold, a.tau, a.coverage, a.ess) == (h.threshold, h.tau, h.coverage, h.ess)

    def test_diagnostics_fields(self):
        cfg = tau_config(trials=2, sigma_grid=[0.3])
        diag = tau_diagnostics(cfg, train_model(cfg), 0)
        assert set(diag) == {"sigma", "undercoverage_gap", "hinge_source", "hinge_target_oracle", "ramp_target_oracle", "tau"}

    def test_degenerate_correction_is_a_clean_data_error(self, tmp_path):
        # A lossless classifier has zero hinge loss, so any nonnegative measured
        # undercoverage gap makes the slack rule's denominator degenerate.
        raw = {
            "seed": 1,
            "n_train": 600,
            "n_cal": 200,
            "n_test": 200,
            "trials": 2,
            "sigma_grid": [0.0],
            "source": {
                "class_means": [[8.0, 0.0], [-8.0, 0.0]],
                "class_cov_scale": 0.4,
                "priors": [0.5, 0.5],
            },
            "shift": {
                "per_class_translation": [[0.0, 0.0], [0.0, 0.0]],
                "noise_scale": 0.0,
                "clip_radius": 0.0,
                "clip_mode": "resample",
            },
        }
        cfg_path = tmp_path / "degenerate.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["tau", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 3


class TestCommandLine:
    def _write_config(self, tmp_path, **overrides):
        raw = {
            "n_train": 500,
            "n_cal": 150,
            "n_test": 200,
            "trials": 3,
            "sigma_grid": [0.0, 0.8],
        }
        raw.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        return path

    def test_sweep_outputs_and_format(self, tmp_path):
        cfg_path = self._write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
        lines = (out / "records.csv").read_text().splitlines()
        assert lines[0] == "method,sigma,trial,threshold,u_star,tau,coverage,ess,thm2_bound,cor1_bound"
        assert len(lines) == 1 + 4 * 2 * 3
        first = lines[1].split(",")
        assert first[0] == "source"
        assert first[4] == "" and first[5] == ""  # u_star and tau not applicable
        assert (out / "aggregate.csv").exists()
        resolved = json.loads((out / "config.json").read_text())
        assert resolved["n_cal"] == 150
        assert len(resolved["u_grid"]) == 33

    def test_sweep_deterministic_across_threads(self, tmp_path):
        cfg_path = self._write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out1), "--threads", "1"]) == 0
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out2), "--threads", "3"]) == 0
        assert (out1 / "records.csv").read_bytes() == (out2 / "records.csv").read_bytes()

    def test_seed_override_changes_records(self, tmp_path):
        cfg_path = self._write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out1)]) == 0
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out2), "--seed", "99"]) == 0
        assert (out1 / "records.csv").read_bytes() != (out2 / "records.csv").read_bytes()

    def test_replay_passes_and_detects_tampering(self, tmp_path, capsys):
        cfg_path = self._write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert main(["replay", "--out", str(out)]) == 0
        assert main(["replay", "--out", str(out), "--threads", "2"]) == 0
        capsys.readouterr()

        # One record of the cell (sigma 0, trial 0) is tampered with; the other
        # three records of that cell stay intact and must still pass.
        records = out / "records.csv"
        lines = records.read_text().splitlines()
        fields = lines[1].split(",")
        cell = [line for line in lines[1:] if line.split(",")[1:3] == fields[1:3]]
        assert len(cell) == 4
        fields[6] = "0.123456789"
        lines[1] = ",".join(fields)
        records.write_text("\n".join(lines) + "\n")
        for threads in ("1", "2"):
            assert main(["replay", "--out", str(out), "--threads", threads]) == 4
            err = capsys.readouterr().err
            assert err.count("replay mismatch:") == 1
            assert "1 of 24 records failed" in err

    def test_tau_subcommand(self, tmp_path):
        cfg_path = self._write_config(
            tmp_path,
            sigma_grid=[0.5],
            trials=2,
            n_train=800,
            source={
                "class_means": [[2.0, 0.0], [-1.0, 1.7320508075688772], [-1.0, -1.7320508075688772]],
                "class_cov_scale": 0.95,
                "priors": [1 / 3, 1 / 3, 1 / 3],
            },
            train={"epochs": 60, "learning_rate": 0.1},
        )
        out = tmp_path / "tau"
        assert main(["tau", "--config", str(cfg_path), "--out", str(out)]) == 0
        lines = (out / "tau_records.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 2
        diag = json.loads((out / "tau_diagnostics.json").read_text())
        assert diag[0]["tau"] >= 0
        assert main(["replay", "--out", str(out)]) == 0

    def test_bounds_subcommand(self, tmp_path):
        cfg_path = self._write_config(tmp_path, sigma_grid=[0.0, 1.0], n_test=400)
        out = tmp_path / "bounds"
        assert main(["bounds", "--config", str(cfg_path), "--out", str(out)]) == 0
        report = json.loads((out / "bounds.json").read_text())
        assert report["lipschitz"] > 0
        rows = report["per_sigma"]
        assert [r["sigma"] for r in rows] == [0.0, 1.0]
        assert rows[0]["pseudo_coverage_lower"] <= 0.8
        for row in rows:
            vals = [v for _, v in row["relaxed_coverage_lower"]]
            assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))
            assert row["coverage_gap_measured"] <= 1.0
            # Measured per-class transport stays below the analytic certificate.
            assert row["rho_mix_measured"] <= row["rho_mix_certified"] + 1e-9

    def test_tune_subcommand(self, tmp_path):
        cfg_path = self._write_config(tmp_path)
        out = tmp_path / "tune"
        assert main(["tune", "--config", str(cfg_path), "--out", str(out)]) == 0
        lines = (out / "tune_trace.csv").read_text().splitlines()
        assert lines[0] == "u,c_hat,source_threshold"
        assert len(lines) == 1 + 33
        result = json.loads((out / "tune_result.json").read_text())
        assert len(result["per_sigma"]) == 2

    def test_gen_and_train_subcommands(self, tmp_path):
        cfg_path = self._write_config(tmp_path, sigma_grid=[0.7])
        out = tmp_path / "artifacts"
        assert main(["gen", "--config", str(cfg_path), "--out", str(out)]) == 0
        data_lines = (out / "dataset_sigma_0.csv").read_text().splitlines()
        assert data_lines[0] == "split,label,x_0,x_1"
        assert len(data_lines) == 1 + 150 + 200 + 150 + 200
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        model = json.loads((out / "classifier.json").read_text())
        assert np.asarray(model["weights"]).shape == (3, 2)
        assert model["train_accuracy"] > 0.9

    def test_selftest_subcommand(self, tmp_path, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") >= 6
        assert "FAIL" not in out

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"alpha": 2.0}')
        assert main(["sweep", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2
        assert main(["sweep", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path / "x")]) == 2

    def test_data_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad_logits.csv"
        bad.write_text("split,label,logit_0,logit_1\nweird,1,0.1,0.2\n")
        assert main(["sweep", "--logits", str(bad), "--out", str(tmp_path / "x")]) == 3


class TestLogitsRoute:
    @pytest.fixture()
    def table_path(self, tmp_path, trained_model, three_class_source):
        from shiftcp.synthetic import apply_shift, generate_source

        g = RngStream(99)
        xs, ys = generate_source(three_class_source, 300, g.substream("src"))
        xc, yc = generate_source(three_class_source, 200, g.substream("tc"))
        xt, yt = generate_source(three_class_source, 300, g.substream("tt"))
        from shiftcp.synthetic import ShiftSpec

        shift = ShiftSpec(-0.4 * three_class_source.class_means, 0.1, 0.15)
        xcs = apply_shift(xc, yc, shift, g.substream("sc"))
        xts = apply_shift(xt, yt, shift, g.substream("st"))

        tags = ["source_cal"] * 300 + ["source_test"] * 300 + ["target_cal"] * 200 + ["target_test"] * 300
        feats = np.vstack([xs, xs, xcs, xts])
        labels = np.concatenate([ys, ys, yc, yt])
        logits = trained_model.logit_matrix(feats)
        path = tmp_path / "table.csv"
        write_logit_table(path, tags, labels, logits)
        return path

    def test_sweep_from_logits(self, tmp_path, table_path):
        out = tmp_path / "run"
        assert main(["sweep", "--logits", str(table_path), "--out", str(out)]) == 0
        lines = (out / "records.csv").read_text().splitlines()
        assert len(lines) == 1 + 4
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[1] == ""  # sigma not applicable
            assert 0.0 <= float(fields[6]) <= 1.0
        assert main(["replay", "--out", str(out)]) == 0

    def test_bounds_from_logits(self, tmp_path, table_path):
        out = tmp_path / "bounds"
        assert main(["bounds", "--logits", str(table_path), "--out", str(out)]) == 0
        report = json.loads((out / "bounds.json").read_text())
        assert report["lipschitz"] is None
        assert report["per_sigma"][0]["w1_scores_measured"] > 0

    def test_missing_oracle_labels_rejected(self, tmp_path, trained_model, three_class_source):
        from shiftcp.synthetic import generate_source

        g = RngStream(98)
        x, y = generate_source(three_class_source, 60, g.substream("d"))
        tags = ["source_cal"] * 20 + ["target_cal"] * 20 + ["target_test"] * 20
        labels = np.concatenate([y[:20], np.zeros(20, dtype=int), y[40:]])
        path = tmp_path / "missing.csv"
        write_logit_table(path, tags, labels, trained_model.logit_matrix(x))
        out = tmp_path / "run"
        assert main(["sweep", "--logits", str(path), "--out", str(out)]) == 3

    def test_records_aggregation_from_mixed_groups(self):
        cfg = small_config(trials=2)
        records, _ = run_sweep(cfg)
        aggregates = aggregate_records(records)
        for row in aggregates:
            assert row["trials"] == 2
            assert 0.0 <= row["mean_coverage"] <= 1.0


def _tiny_config(tmp_path, **overrides) -> str:
    raw = {"n_train": 300, "n_cal": 60, "n_test": 80, "trials": 1, "sigma_grid": [0.0, 0.8]}
    raw.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return str(path)


def _one_source_row_table(tmp_path) -> str:
    rng = np.random.default_rng(5)
    tags = ["source_cal"] + ["target_cal"] * 6 + ["target_test"] * 6
    path = tmp_path / "table.csv"
    write_logit_table(path, tags, rng.integers(1, 4, size=13), rng.normal(size=(13, 3)))
    return str(path)


def _tampered_run(tmp_path) -> str:
    out = tmp_path / "run"
    assert main(["sweep", "--config", _tiny_config(tmp_path), "--out", str(out)]) == 0
    records = out / "records.csv"
    lines = records.read_text().splitlines()
    fields = lines[-1].split(",")
    fields[7] = "2.5"
    lines[-1] = ",".join(fields)
    records.write_text("\n".join(lines) + "\n")
    return str(out)


# Each case builds the argv of one CLI call in a temporary directory.
EXIT_CASES = {
    "sweep-ok": (lambda p: ["sweep", "--config", _tiny_config(p)], 0),
    "seed-not-an-integer": (lambda p: ["sweep", "--config", _tiny_config(p, seed="abc")], 2),
    "trials-fractional": (lambda p: ["sweep", "--config", _tiny_config(p, trials=2.7)], 2),
    "sigma-grid-nan": (lambda p: ["sweep", "--config", _tiny_config(p, sigma_grid=[0.0, math.nan])], 2),
    "section-not-an-object": (lambda p: ["sweep", "--config", _tiny_config(p, train=5)], 2),
    "tau-grid-negative": (lambda p: ["bounds", "--config", _tiny_config(p, tau_grid=[0.0, -1.0])], 2),
    "tau-design-one-cal-point": (
        lambda p: ["sweep", "--config", _tiny_config(p, n_cal=1, tau_policy={"kind": "tau_design"})],
        3,
    ),
    "table-tau-design-one-source-row": (
        lambda p: [
            "sweep",
            "--logits",
            _one_source_row_table(p),
            "--config",
            _tiny_config(p, tau_policy={"kind": "tau_design"}),
        ],
        3,
    ),
    "replay-tampered": (lambda p: ["replay", "--out", _tampered_run(p)], 4),
}


@pytest.mark.parametrize("case", sorted(EXIT_CASES))
def test_exit_code_contract(tmp_path, case):
    build, expected = EXIT_CASES[case]
    argv = build(tmp_path)
    if "--out" not in argv:
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == expected


# sha256 of the outputs at this shape and seed 20250809. records.csv and
# tau_records.csv are the behavioural contract of the CLI: a change that moves
# these digests must say why. The other files pin the aggregates, the tau
# diagnostics and the tuning trace that the same run writes.
SEED_DIGESTS = {
    "sweep": {
        "records.csv": "7f771a8ba5dc844c86284278172e2d79dd7af0f38e43db1a41f66f700f49f0fe",
        "aggregate.csv": "b08901708605ba705565f1d3da5af5a55a4746b68c75ce266762fe01df455cca",
    },
    "tau": {
        "tau_records.csv": "fd389dede42fb7244ed09c73eea126c2a406f05aa5bb3b33e3aa98001000433d",
        "tau_aggregate.csv": "7b7481b60bb3f7dbfdba639c27d3b525910f952d5b452455c5ef5123b44ca508",
        "tau_diagnostics.json": "0db4664ab99c50dc7f151a6db9a43a186644206664d7a97fa70008428cada38f",
    },
    "tune": {
        "tune_trace.csv": "40adbae8bc91b49ce5332f1e7370da3f42c3f87d266aac6ee2d4d2470c122787",
        "tune_result.json": "58d2078024ea5dcc4d39e0231083fad9feea6a334390f8f5fc95823ec6a754dc",
    },
    "bounds": {
        "bounds.json": "8fcb423b0fdeb801b2c10d9331201d27c8b5409a5044f29efc245475c678ea8a",
    },
}
# bounds runs at the benchmark's tiny bounds shape, where every class
# exceeds the assignment limit, so its subsampled solves are pinned too.
DIGEST_CONFIGS = {"bounds": {"n_train": 600, "n_cal": 200, "n_test": 1800, "sigma_grid": [0.0, 0.8]}}


@pytest.mark.filterwarnings("ignore:subsampling:UserWarning")
@pytest.mark.parametrize("command", sorted(SEED_DIGESTS))
def test_outputs_match_recorded_digests(tmp_path, command):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(DIGEST_CONFIGS.get(command, {"n_train": 600, "n_cal": 200, "n_test": 500, "trials": 1})))
    out = tmp_path / "run"
    assert main([command, "--config", str(cfg), "--seed", "20250809", "--out", str(out)]) == 0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in SEED_DIGESTS[command]}
    assert got == SEED_DIGESTS[command]


def _exit_code(argv) -> int:
    """``main``'s return value, or the code of the ``SystemExit`` that argparse raises."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


# --threads acts only on sweep/tau/replay, --logits only on sweep/bounds,
# --config everywhere but replay (which reads its run's config.json) and
# --out everywhere but selftest (which writes nothing); anywhere else the flag
# is a usage error instead of being silently ignored.
@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--logits", "missing.csv"],
        ["train", "--logits", "missing.csv"],
        ["replay", "--logits", "missing.csv"],
        ["selftest", "--logits", "missing.csv"],
        ["tau", "--logits", "missing.csv"],
        ["tune", "--logits", "missing.csv"],
        ["gen", "--threads", "2"],
        ["bounds", "--threads", "2"],
        ["replay", "--config", "missing.json"],
        ["selftest", "--out", "x"],
    ],
    ids=" ".join,
)
def test_flag_outside_its_subcommands_is_a_usage_error(tmp_path, argv):
    out = tmp_path / "out"
    config = _tiny_config(tmp_path)
    declared = {"replay": ["--out", str(out)], "selftest": ["--config", config]}
    with pytest.raises(SystemExit) as exc:
        main(argv + declared.get(argv[0], ["--config", config, "--out", str(out)]))
    assert exc.value.code == 2
    assert not out.exists()


def test_tau_and_tune_reject_logits_with_exit_code_2(tmp_path):
    for command in ("tau", "tune"):
        assert _exit_code([command, "--logits", _one_source_row_table(tmp_path), "--out", str(tmp_path / command)]) == 2


def test_replay_accepts_seed_and_threads(tmp_path):
    out = tmp_path / "run"
    assert main(["sweep", "--config", _tiny_config(tmp_path), "--out", str(out)]) == 0
    assert main(["replay", "--seed", "20250809", "--out", str(out), "--threads", "1"]) == 0


def test_replay_rejects_a_seed_other_than_the_runs(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["sweep", "--config", _tiny_config(tmp_path), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["replay", "--seed", "999", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "seed 999 differs from the seed 20250809" in captured.err
    assert "replay audit passed" not in captured.out


def test_benchmark_traced_names_resolve():
    # The benchmark tracer wraps these names from outside; a name the package
    # no longer has would silently read zero in every per-layer metric.
    source = (Path(__file__).parents[1] / "perfbench" / "tracing.py").read_text(encoding="utf-8")
    (traced,) = [
        ast.literal_eval(node.value)
        for node in ast.parse(source).body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TRACED"]
    ]
    missing = []
    for _, module_name, qualname in traced:
        owner = importlib.import_module(f"shiftcp.{module_name}")
        for part in qualname.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(f"{module_name}.{qualname}")
    assert missing == []


def test_cli_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize is most of the import time; only the assignment solver loads it.
    src = str(Path(__file__).parents[1] / "src")
    code = "import sys, shiftcp.cli; print('scipy.optimize' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
