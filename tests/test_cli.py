"""CLI orchestration: config handling, subcommands, determinism, audits."""

import ast
import csv
import hashlib
import importlib
import json
import math
import os
import re
import signal
import subprocess
import sys
import threading
import time
import warnings
from collections import Counter
from dataclasses import replace
from decimal import Decimal
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import shiftcp.cli as cli_module
import shiftcp.pseudo as pseudo_module
from shiftcp.cli import (
    DEFAULT_CONFIG,
    ExperimentConfig,
    TrialData,
    _calibrate_method,
    _map,
    _sweep_arms,
    _tau_arms,
    _tune_stream,
    _workers,
    aggregate_records,
    main,
    make_trial_data,
    read_records_csv,
    run_sweep,
    run_tau_experiment,
    run_trial,
    tau_diagnostics,
    train_model,
)
from shiftcp.conformal import calibrate, coverage, expected_set_size
from shiftcp.exceptions import ConfigError, DataError
from shiftcp.pseudo import source_tuned_calibrate
from shiftcp.rng import RngStream
from shiftcp.scores import ScoredView, scored_view
from shiftcp.shift_bounds import tau_correction

from oracles import write_logit_table


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


def sweep_arms(cfg: ExperimentConfig, model) -> list:
    """The per-sigma arms :func:`run_sweep` resolves for ``cfg`` before its cells run."""
    return [_sweep_arms(cfg, partial(tau_diagnostics, cfg, model, si)) for si in range(len(cfg.sigma_grid))]


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

    def test_sigmas_that_print_alike_in_records_are_rejected(self):
        with pytest.raises(ConfigError, match=r"values 0\.1 and 0\.10000000001 both print as 0\.1;"):
            ExperimentConfig.from_dict({"sigma_grid": [0.0, 0.1, 0.10000000001]})
        assert ExperimentConfig.from_dict({"sigma_grid": [0.1, 0.100000001]}).sigma_grid == (0.1, 0.100000001)

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
        hard_cfg = replace(cfg, methods=("hard_pseudo",))
        (rec,) = run_trial(hard_cfg, model, 1, 2, sweep_arms(hard_cfg, model))
        full = {r.method: r for r in run_trial(cfg, model, 1, 2, sweep_arms(cfg, model))}
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

        def threshold(method, d):
            d = replace(d, x_source=scored_view(model, d.x_source), x_target_cal=scored_view(model, d.x_target_cal))
            source_scores = d.x_source.label_scores(d.y_source)
            return _calibrate_method(cfg, method, d, source_scores, _tune_stream(cfg, 1, 0))[0].threshold

        for method in ("source", "hard_pseudo", "source_tuned"):
            assert threshold(method, data) == threshold(method, permuted)
        assert threshold("oracle", data) != threshold("oracle", permuted)

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


class TestSweepTauDesign:
    """A ``tau_design`` sweep adds the slack ``tau`` designs at each sigma, designed once per sigma."""

    def test_hard_pseudo_rows_match_the_tau_adjusted_rows(self, tmp_path):
        config = _tiny_config(tmp_path, trials=6, tau_policy={"kind": "tau_design"})
        for command in ("sweep", "tau"):
            assert main([command, "--config", config, "--out", str(tmp_path / command)]) == 0

        def rows(path, method):
            columns = ("threshold", "tau", "coverage", "ess")
            return {(r["sigma"], r["trial"]): [r[c] for c in columns] for r in read_records_csv(path) if r["method"] == method}

        swept = rows(tmp_path / "sweep" / "records.csv", "hard_pseudo")
        assert len(swept) == 12
        assert swept == rows(tmp_path / "tau" / "tau_records.csv", "tau_adjusted")

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize(
        ("policy", "designs"), [({"kind": "none"}, 0), ({"kind": "fixed", "value": 0.5}, 0), ({"kind": "tau_design"}, 2)]
    )
    def test_the_parent_designs_each_sigmas_slack_once(self, tmp_path, monkeypatch, threads, policy, designs):
        # A design run in a worker process would not reach this counter. Replay designs lazily too: the
        # benchmark's replay audits a none sweep, where an eager design would draw six 8192-row batches.
        calls = []
        design = cli_module.tau_diagnostics

        def counted(cfg, model, sigma_idx):
            calls.append(sigma_idx)
            return design(cfg, model, sigma_idx)

        monkeypatch.setattr(cli_module, "tau_diagnostics", counted)
        config = _tiny_config(tmp_path, trials=3, tau_policy=policy)
        assert main(["sweep", "--config", config, "--out", str(tmp_path / "run"), "--threads", threads]) == 0
        assert calls == list(range(designs))
        calls.clear()
        assert main(["replay", "--out", str(tmp_path / "run"), "--threads", threads]) == 0
        assert calls == list(range(designs))

    def test_replay_passes(self, tmp_path):
        out, config = tmp_path / "run", _tiny_config(tmp_path, trials=2, tau_policy={"kind": "tau_design"})
        assert main(["sweep", "--config", config, "--out", str(out)]) == 0
        assert main(["replay", "--out", str(out)]) == 0

    def test_run_trial_designs_no_slack(self, monkeypatch):
        # A cell evaluates at the slack its run resolved; without one it has nothing to evaluate at.
        cfg = tau_config(trials=1)
        model = train_model(cfg)

        def refuse(*args):
            raise AssertionError("run_trial designed a slack")

        for policy in ({"kind": "none"}, {"kind": "fixed", "value": 0.5}, {"kind": "tau_design"}):
            cell_cfg = replace(cfg, tau_policy_kind=policy["kind"], tau_policy_value=policy.get("value", 0.0))
            arms = sweep_arms(cell_cfg, model)
            with monkeypatch.context() as m:
                m.setattr(cli_module, "tau_diagnostics", refuse)
                m.setattr(cli_module, "_sweep_arms", refuse)
                for si in range(len(cfg.sigma_grid)):
                    assert {r.tau for r in run_trial(cell_cfg, model, si, 0, arms)} == {arms[si][0].tau}
                with pytest.raises(TypeError):
                    run_trial(cell_cfg, model, 0, 0)


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

    @pytest.mark.parametrize(("n_test", "designed"), [(80, False), (400, True)])
    def test_bounds_tau_rule_is_the_slack_rule_of_its_entry(self, tmp_path, n_test, designed):
        # At 80 source_test rows the source hinge loss falls below the undercoverage gap: no slack, so null.
        cfg_path = self._write_config(tmp_path, sigma_grid=[0.0, 2.4], n_test=n_test)
        assert main(["bounds", "--config", str(cfg_path), "--out", str(tmp_path / "bounds")]) == 0
        for row in json.loads((tmp_path / "bounds" / "bounds.json").read_text())["per_sigma"]:
            ingredients = (row["hinge_source"], row["hinge_target_oracle"], row["undercoverage_gap"])
            assert row["tau_rule"] == (tau_correction(*ingredients) if designed else None)
            assert (row["hinge_source"] > row["undercoverage_gap"]) is designed

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

    def test_replay_checks_the_tau_a_table_run_designed(self, tmp_path, capsys):
        # One generator cell's splits, scored by the run's classifier: large enough for a non-degenerate design.
        raw = {"n_train": 600, "n_cal": 1000, "n_test": 1000, "sigma_grid": [0.8], "tau_policy": {"kind": "tau_design"}}
        cfg = ExperimentConfig.from_dict(raw)
        data = make_trial_data(cfg, 0, 0)
        tags = ["source_cal"] * cfg.n_cal + ["target_cal"] * cfg.n_cal + ["target_test"] * cfg.n_test
        x = np.vstack([data.x_source, data.x_target_cal, data.x_target_test])
        y = np.concatenate([data.y_source, data.y_target_cal_oracle, data.y_target_test])
        write_logit_table(tmp_path / "table.csv", tags, y, train_model(cfg).logit_matrix(x))
        out = tmp_path / "run"
        argv = ["sweep", "--logits", str(tmp_path / "table.csv"), "--config", _tiny_config(tmp_path, **raw), "--out", str(out)]
        assert main(argv) == 0
        assert main(["replay", "--out", str(out)]) == 0
        header, first, *rest = (out / "records.csv").read_text().splitlines()
        fields = first.split(",")
        faithful, fields[5] = fields[5], _last_digit_raised(fields[5])
        (out / "records.csv").write_text("\n".join([header, ",".join(fields), *rest]) + "\n")
        capsys.readouterr()
        assert main(["replay", "--out", str(out)]) == 4
        assert capsys.readouterr().err.splitlines()[0] == f"replay mismatch: records.csv: source sigma= trial=0: tau {fields[5]} -> {faithful}"

    @pytest.mark.parametrize("overlap", [False, True], ids=["default", "overlap"])
    def test_a_generator_cell_exported_as_a_table_gives_its_records(self, tmp_path, overlap):
        # gen's sigma-1 splits, scored by train's classifier, are the generator sweep's sigma 0.8, trial 0 cell.
        # The table route draws source_tuned's randomized labels from its own stream, so that row matches only
        # where neither route randomizes a label (u* = inf); on configs/overlap.json both pick a finite u*.
        raw = {"n_train": 600, "n_cal": 200, "n_test": 500, "sigma_grid": [0.0, 0.8]}
        config = _tiny_config(tmp_path, **raw, **({"source": {"class_cov_scale": 1.0}} if overlap else {}))
        for command in ("gen", "train", "sweep"):
            assert main([command, "--config", config, "--out", str(tmp_path / command)]) == 0
        model = json.loads((tmp_path / "train" / "classifier.json").read_text())
        rows = list(csv.reader((tmp_path / "gen" / "dataset_sigma_1.csv").read_text().splitlines()))[1:]
        x = np.array([row[2:] for row in rows], float)
        logits = x @ np.array(model["weights"]).T + model["biases"]
        write_logit_table(tmp_path / "table.csv", [row[0] for row in rows], [int(row[1]) for row in rows], logits)
        assert main(["sweep", "--logits", str(tmp_path / "table.csv"), "--config", config, "--out", str(tmp_path / "table")]) == 0

        cell = [r for r in read_records_csv(tmp_path / "sweep" / "records.csv") if (r["sigma"], r["trial"]) == ("0.8", "0")]
        want, got = ({r["method"]: r for r in records} for records in (cell, read_records_csv(tmp_path / "table" / "records.csv")))
        methods = ["source", "hard_pseudo", "oracle"]
        if want["source_tuned"]["u_star"] == got["source_tuned"]["u_star"] == "inf":
            methods.append("source_tuned")
        assert overlap or "source_tuned" in methods
        columns = ("threshold", "u_star", "coverage", "ess", "cor1_bound")
        assert {m: [got[m][c] for c in columns] for m in methods} == {m: [want[m][c] for c in columns] for m in methods}

    def test_the_default_cutoff_grid_needs_the_tables_class_count(self, tmp_path, capsys):
        # The 3-class config's default grid stopped at ln 3, so a 4-class table's cutoffs up to ln 4 went untried.
        rng = np.random.default_rng(7)
        tags = ["source_cal"] * 40 + ["target_cal"] * 40 + ["target_test"] * 40
        table = tmp_path / "four.csv"
        write_logit_table(table, tags, np.tile([1, 2, 3, 4], 30), rng.normal(size=(120, 4)))
        argv = ["sweep", "--logits", str(table), "--out"]
        assert main([*argv, str(tmp_path / "default")]) == 2
        err = capsys.readouterr().err
        assert "the table has 4 classes, the config 3: its default u_grid ends at ln 3; set u_grid" in err
        assert main([*argv, str(tmp_path / "grid"), "--config", _tiny_config(tmp_path, u_grid=[0.0, 0.7, 1.4])]) == 0
        assert main([*argv, str(tmp_path / "untuned"), "--config", _tiny_config(tmp_path, methods=["source", "oracle"])]) == 0

    def test_bounds_from_logits(self, tmp_path, table_path):
        out = tmp_path / "bounds"
        assert main(["bounds", "--logits", str(table_path), "--out", str(out)]) == 0
        report = json.loads((out / "bounds.json").read_text())
        assert report["lipschitz"] is None
        assert report["per_sigma"][0]["w1_scores_measured"] > 0
        assert json.loads((out / "config.json").read_text())["logits"] == str(table_path)

    def test_replay_reads_the_recorded_table_from_another_directory(self, tmp_path, table_path, monkeypatch):
        # config.json holds the table's absolute path, so a replay elsewhere neither misses it nor audits a namesake.
        monkeypatch.chdir(table_path.parent)
        assert main(["sweep", "--logits", table_path.name, "--out", "run"]) == 0
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        rng = np.random.default_rng(9)
        tags = ["source_cal"] * 10 + ["target_cal"] * 10 + ["target_test"] * 10
        write_logit_table(elsewhere / table_path.name, tags, rng.integers(1, 4, size=30), rng.normal(size=(30, 3)))
        monkeypatch.chdir(elsewhere)
        assert main(["replay", "--out", str(table_path.parent / "run")]) == 0

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


def _bounds_table(tmp_path, tied_source_test=False, target_test=True, extreme_logits=False) -> str:
    """A logit table for ``bounds --logits``, on request with tied source_test scores, no target_test
    rows or logits near the float limit."""
    rng = np.random.default_rng(6)
    tags = ["source_cal"] * 20 + ["source_test"] * 20 + ["target_test"] * (20 if target_test else 0)
    labels = rng.integers(1, 4, size=len(tags))
    logits = rng.normal(size=(len(tags), 3))
    if tied_source_test:
        labels[20:40], logits[20:40] = 1, [2.0, 0.5, 0.0]
    if extreme_logits:
        logits[20] = [1e308, 5.0, -1e308]
    path = tmp_path / "bounds_table.csv"
    write_logit_table(path, tags, labels, logits)
    return str(path)


def _one_class_table(tmp_path) -> str:
    path = tmp_path / "one_class.csv"
    write_logit_table(path, ["source_cal", "target_cal", "target_test"], [1, 1, 1], [[0.5], [0.2], [0.1]])
    return str(path)


def _edited_run(tmp_path, name: str, edit) -> str:
    """A tiny sweep's output directory with ``edit`` applied to the bytes of its file ``name``."""
    out = tmp_path / "run"
    assert main(["sweep", "--config", _tiny_config(tmp_path), "--out", str(out)]) == 0
    path = out / name
    path.write_bytes(edit(path.read_bytes()))
    return str(out)


def _tamper_last_ess(records: bytes) -> bytes:
    lines = records.decode().splitlines()
    fields = lines[-1].split(",")
    fields[7] = "2.5"
    lines[-1] = ",".join(fields)
    return ("\n".join(lines) + "\n").encode()


def _written(path, data: bytes) -> str:
    path.write_bytes(data)
    return str(path)


def _with_logits(value):
    """An edit of a run's config.json that sets its ``logits`` entry to ``value``."""
    return lambda config: json.dumps({**json.loads(config), "logits": value}).encode()


def _table_run_without_target_test(tmp_path) -> str:
    """A ``sweep --logits`` run (:func:`_table_run`) whose table has since lost its target_test rows."""
    out, table = tmp_path / "run", tmp_path / "table.csv"
    assert main(_table_run(tmp_path, out)) == 0
    table.write_text("".join(line for line in table.read_text().splitlines(True) if not line.startswith("target_test")))
    return str(out)


def _run_dir_holding_directory(tmp_path, name: str) -> str:
    """An output directory in which the output file ``name`` is already taken by a directory."""
    (tmp_path / "run" / name).mkdir(parents=True)
    return str(tmp_path / "run")


_DEGENERATE_TAU_DESIGN = {"source": {"class_cov_scale": 0.05}, "tau_policy": {"kind": "tau_design"}}

# At the default seed the 300 training rows hold no class 3, which the larger splits then draw.
_TRAINING_DRAW_WITHOUT_CLASS_3 = {"n_cal": 2000, "n_test": 2000, "sigma_grid": [0.0], "source": {"priors": [0.998, 0.001, 0.001]}}

# Finite translations whose certified radius overflows at sigma 0.8.
_OVERFLOWING_SHIFT = {"per_class_translation": [[1e160, 0.0], [0.0, 0.0], [0.0, 0.0]]}

# Each case builds the argv of one CLI call in a temporary directory.
EXIT_CASES = {
    "sweep-ok": (lambda p: ["sweep", "--config", _tiny_config(p)], 0),
    "seed-not-an-integer": (lambda p: ["sweep", "--config", _tiny_config(p, seed="abc")], 2),
    "trials-fractional": (lambda p: ["sweep", "--config", _tiny_config(p, trials=2.7)], 2),
    "sigma-grid-nan": (lambda p: ["sweep", "--config", _tiny_config(p, sigma_grid=[0.0, math.nan])], 2),
    # Records print 9 significant digits, so replay could not tell these two cells apart.
    "sigma-grid-same-text": (lambda p: ["sweep", "--config", _tiny_config(p, sigma_grid=[0.1, 0.10000000001])], 2),
    "section-not-an-object": (lambda p: ["sweep", "--config", _tiny_config(p, train=5)], 2),
    "tau-grid-negative": (lambda p: ["bounds", "--config", _tiny_config(p, tau_grid=[0.0, -1.0])], 2),
    # Classes this tight leave a source hinge loss below the undercoverage gap, so no slack can be designed.
    "tau-design-degenerate": (lambda p: ["sweep", "--config", _tiny_config(p, **_DEGENERATE_TAU_DESIGN)], 3),
    # The slack is designed per sigma in the parent, before the cells go to worker processes.
    "tau-design-degenerate-2-workers": (
        lambda p: ["sweep", "--config", _tiny_config(p, **_DEGENERATE_TAU_DESIGN), "--threads", "2"],
        3,
    ),
    # The default config's slack is designed on tau's per-sigma batches, not on one cell's splits.
    "tau-design-default-config": (
        lambda p: ["sweep", "--config", _written(p / "config.json", b'{"trials": 2, "tau_policy": {"kind": "tau_design"}}')],
        0,
    ),
    "clip-radius-below-noise": (lambda p: ["sweep", "--config", _tiny_config(p, shift={"clip_radius": 0.0001})], 2),
    "clip-radius-below-noise-2-workers": (
        lambda p: ["sweep", "--config", _tiny_config(p, shift={"clip_radius": 0.0001}), "--threads", "2"],
        2,
    ),
    # No row has a one-in-a-million chance of acceptance within the rejection
    # rounds: refused before any draw instead of after 10 000 rounds.
    "clip-radius-infeasible-tau": (lambda p: ["tau", "--config", _tiny_config(p, shift={"clip_radius": 5e-324})], 2),
    "shift-radius-overflow-bounds": (lambda p: ["bounds", "--config", _tiny_config(p, shift=_OVERFLOWING_SHIFT)], 2),
    "shift-radius-overflow-sweep": (lambda p: ["sweep", "--config", _tiny_config(p, shift=_OVERFLOWING_SHIFT)], 2),
    "noise-scale-overflow-resample": (lambda p: ["sweep", "--config", _tiny_config(p, shift={"noise_scale": 1e308})], 2),
    "noise-scale-overflow-project": (
        lambda p: ["sweep", "--config", _tiny_config(p, shift={"noise_scale": 1e200, "clip_mode": "project"})],
        2,
    ),
    "threads-below-one": (lambda p: ["sweep", "--config", _tiny_config(p), "--threads", "-3"], 2),
    "bounds-learning-rate-subnormal": (
        lambda p: ["bounds", "--config", _tiny_config(p, train={"learning_rate": 5e-324})],
        3,
    ),
    "bounds-logits-tied-source-test": (lambda p: ["bounds", "--logits", _bounds_table(p, tied_source_test=True)], 3),
    "bounds-logits-near-float-limit": (lambda p: ["bounds", "--logits", _bounds_table(p, extreme_logits=True)], 3),
    "bounds-logits-no-target-test": (lambda p: ["bounds", "--logits", _bounds_table(p, target_test=False)], 3),
    "table-one-class": (lambda p: ["sweep", "--logits", _one_class_table(p)], 3),
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
    "replay-tampered": (lambda p: ["replay", "--out", _edited_run(p, "records.csv", _tamper_last_ess)], 4),
    # An --out that cannot hold the outputs is a config error, whichever writer meets it.
    "out-is-a-file": (lambda p: ["sweep", "--config", _tiny_config(p), "--out", _written(p / "taken", b"")], 2),
    "out-under-a-file": (lambda p: ["sweep", "--config", _tiny_config(p), "--out", _written(p / "taken", b"") + "/run"], 2),
    "out-records-csv-is-a-directory": (
        lambda p: ["sweep", "--config", _tiny_config(p), "--out", _run_dir_holding_directory(p, "records.csv")],
        2,
    ),
    "out-bounds-json-is-a-directory": (
        lambda p: ["bounds", "--config", _tiny_config(p), "--out", _run_dir_holding_directory(p, "bounds.json")],
        2,
    ),
    "out-dataset-csv-is-a-directory": (
        lambda p: ["gen", "--config", _tiny_config(p), "--out", _run_dir_holding_directory(p, "dataset_sigma_0.csv")],
        2,
    ),
    # Unreadable input files: a config is a config error, a table or a records file a data error.
    "config-not-utf8": (lambda p: ["sweep", "--config", _written(p / "config.json", b'{"seed": 1}\xff')], 2),
    "config-nested-too-deep": (
        lambda p: ["sweep", "--config", _written(p / "config.json", b"[" * 10**5 + b"]" * 10**5)],
        2,
    ),
    "logits-table-missing": (lambda p: ["sweep", "--logits", str(p / "missing.csv")], 3),
    "logits-table-not-utf8": (
        lambda p: ["bounds", "--logits", _written(p / "table.csv", b"split,label,logit_0,logit_1\nsource_cal,1,0.5,\xff\n")],
        3,
    ),
    "replay-config-not-json": (lambda p: ["replay", "--out", _edited_run(p, "config.json", lambda b: b[:-5])], 2),
    "replay-config-not-an-object": (lambda p: ["replay", "--out", _edited_run(p, "config.json", lambda b: b"[1]")], 2),
    "replay-records-short-row": (
        lambda p: ["replay", "--out", _edited_run(p, "records.csv", lambda b: b + b"source,0.0\n")],
        3,
    ),
    "replay-records-not-utf8": (
        lambda p: ["replay", "--out", _edited_run(p, "records.csv", lambda b: b.replace(b"hard_pseudo", b"hard\xff", 1))],
        3,
    ),
    # A non-path entry would be opened as a file descriptor or raise TypeError.
    "replay-logits-not-a-path": (
        lambda p: ["replay", "--out", _edited_run(p, "config.json", _with_logits(["t.csv"]))],
        2,
    ),
    "replay-logits-table-missing": (
        lambda p: ["replay", "--out", _edited_run(p, "config.json", _with_logits(str(p / "gone.csv")))],
        3,
    ),
    "replay-logits-table-no-target-test": (lambda p: ["replay", "--out", _table_run_without_target_test(p)], 3),
    # A learning rate that makes the training loss rise is a config problem.
    "learning-rate-too-large-tune": (lambda p: ["tune", "--config", _tiny_config(p, train={"learning_rate": 1e3})], 2),
    "learning-rate-too-large-sweep": (lambda p: ["sweep", "--config", _tiny_config(p, train={"learning_rate": 1e3})], 2),
    # Beyond 2**53 a float names no single integer; 1e308 epochs would never finish.
    "epochs-float-beyond-2-53": (lambda p: ["sweep", "--config", _tiny_config(p, train={"epochs": 1e308})], 2),
    "seed-float-beyond-2-53": (lambda p: ["sweep", "--config", _tiny_config(p, seed=1e19)], 2),
    "methods-repeated": (lambda p: ["sweep", "--config", _tiny_config(p, methods=["source", "source"])], 2),
    "priors-one-class": (lambda p: ["sweep", "--config", _tiny_config(p, source={"priors": [1, 0, 0]})], 3),
    "class-cov-scale-overflow": (lambda p: ["sweep", "--config", _tiny_config(p, source={"class_cov_scale": 1e308})], 3),
    # gen fits nothing: its shift refuses the overflowing draws, which it used to write out as inf.
    "class-cov-scale-overflow-gen": (lambda p: ["gen", "--config", _tiny_config(p, source={"class_cov_scale": 1e308})], 3),
    **{
        f"training-draw-without-class-3-{command}": (
            lambda p, command=command: [command, "--config", _tiny_config(p, **_TRAINING_DRAW_WITHOUT_CLASS_3)],
            3,
        )
        for command in ("train", "sweep", "tau", "bounds")
    },
    "class-means-overflow": (
        lambda p: [
            "sweep",
            "--config",
            _tiny_config(p, source={"class_means": [[1e200, 0.0], [-1e200, 1e200], [-1e200, -1e200]]}),
        ],
        3,
    ),
}


# A taken output name is refused before any fit or draw: in these cases the named cli function fails the test if reached.
_REFUSED_BEFORE_RUNNING = {
    "out-records-csv-is-a-directory": "train_model",
    "out-bounds-json-is-a-directory": "train_model",
    "out-dataset-csv-is-a-directory": "make_trial_data",
}


def _refuse_to_run(monkeypatch, case: str) -> None:
    if case in _REFUSED_BEFORE_RUNNING:
        name = _REFUSED_BEFORE_RUNNING[case]

        def refuse(*args):
            pytest.fail(f"{name} ran before the taken output name was refused")

        monkeypatch.setattr(cli_module, name, refuse)


def test_main_builds_its_parser_once(tmp_path):
    cli_module.build_parser.cache_clear()
    for _ in range(2):
        assert main(["replay", "--out", str(tmp_path / "no-run")]) == 2
    assert cli_module.build_parser.cache_info().misses == 1


@pytest.mark.parametrize("case", sorted(EXIT_CASES))
def test_exit_code_contract(tmp_path, monkeypatch, case):
    build, expected = EXIT_CASES[case]
    _refuse_to_run(monkeypatch, case)
    argv = build(tmp_path)
    if "--out" not in argv:
        argv += ["--out", str(tmp_path / "out")]
    # A failure is reported by its exit code and message alone, never by numpy
    # warnings on the way there (an overflowing classifier fit, for one).
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == expected
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []


@pytest.mark.parametrize(
    ("case", "message"),
    [
        ("logits-table-missing", "cannot read {p}/missing.csv"),
        ("logits-table-not-utf8", "{p}/table.csv: line 2: not UTF-8 text"),
        ("replay-records-short-row", "{p}/run/records.csv: line 10: expected 10 fields, got 2"),
        ("replay-records-not-utf8", "{p}/run/records.csv: line 4: not UTF-8 text"),
    ],
)
def test_an_unreadable_input_file_is_named_with_its_line(tmp_path, capsys, case, message):
    build, expected = EXIT_CASES[case]
    assert main(build(tmp_path) + ["--out", str(tmp_path / "run")]) == expected
    assert message.format(p=tmp_path) in capsys.readouterr().err


@pytest.mark.parametrize(
    ("case", "message"),
    [
        ("out-is-a-file", "config error: cannot create the output directory {p}/taken: "),
        ("out-under-a-file", "config error: cannot create the output directory {p}/taken/run: "),
        ("out-records-csv-is-a-directory", "config error: cannot write {p}/run/records.csv: "),
        ("out-bounds-json-is-a-directory", "config error: cannot write {p}/run/bounds.json: "),
        ("out-dataset-csv-is-a-directory", "config error: cannot write {p}/run/dataset_sigma_0.csv: "),
    ],
)
def test_an_unusable_output_path_is_named(tmp_path, capsys, monkeypatch, case, message):
    build, expected = EXIT_CASES[case]
    _refuse_to_run(monkeypatch, case)
    assert main(build(tmp_path)) == expected == 2
    assert message.format(p=tmp_path) in capsys.readouterr().err


def test_a_training_draw_without_a_class_names_it(tmp_path, capsys):
    build, expected = EXIT_CASES["training-draw-without-class-3-train"]
    assert main(build(tmp_path) + ["--out", str(tmp_path / "run")]) == expected == 3
    assert "its 300 rows hold no sample of class(es) [3]" in capsys.readouterr().err
    assert not (tmp_path / "run" / "classifier.json").exists()


def test_replay_names_the_table_split_it_lacks(tmp_path, capsys):
    assert main(["replay", "--out", _table_run_without_target_test(tmp_path)]) == 3
    assert "logit table split target_test has no rows" in capsys.readouterr().err


# sha256 of the outputs at this shape and seed 20250809. records.csv and
# tau_records.csv are the behavioural contract of the CLI: a change that moves
# these digests must say why. The other files pin the aggregates, the tau
# diagnostics, the tuning trace and the fitted classifier.
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
    "bounds_overlap": {
        "bounds.json": "78d04568cd047daa839eeceec92c1e188dc02ac79cbb2c54302db2cc926c0070",
    },
    "sweep_overlap": {
        "records.csv": "3c39255a6155ba7f3a461020eaf7fee53912c63abc41fc015945cf970806181c",
        "aggregate.csv": "b48d19cdb1708733fbbb908bcd34a9808e4e64b594694de42bb896817527e424",
    },
    "sweep_project": {
        "records.csv": "86d1dd980c000c12fcdd92d21edb6810eb497261d21c2620a1dcf8cd5893a613",
        "aggregate.csv": "bf5fabc65b15c6a983f8d4ca156c26edc8c967a5f96ca754374c50b5ee10844c",
    },
    "sweep_k5": {
        "records.csv": "2de266a00fee50284f07637fe6f2b05f44afb4b9cdc7f9cf367cf9c5a95c6f52",
        "aggregate.csv": "fcc65954c2628e2d69d97587a6e8846f8333ff57f7d1964ce764cc33ef47b3ce",
    },
    "train": {
        "classifier.json": "38c5a5e9663d1bdfb7f2b2296162f2e501cc064657ae7c100025f5570ad0f340",
    },
    "train_default": {
        "classifier.json": "4d7be021ce8b19c393ec4b861534036c21d3480a6b957c8a4291475420ac7e8a",
    },
}
# bounds runs at the benchmark's tiny bounds shape, where every class
# exceeds the assignment limit, so its subsampled solves are pinned too;
# bounds_overlap runs that shape on the overlap source, a second geometry
# for the solver and the pooled fit.
# sweep_overlap widens the source classes until tuning engages: 4 of its 6
# source_tuned cells pick a finite cutoff, where the default config picks
# u = inf everywhere. sweep_project projects the noise onto the ball instead
# of redrawing it, and sweep_k5 draws five classes under unequal priors, so
# the label search and the view run past three classes. train_default is the
# default config (4000 rows, 150 epochs): the fit every benchmark workload runs.
_TINY = {"n_train": 600, "n_cal": 200, "n_test": 500, "trials": 1}
_TINY_BOUNDS = {"n_train": 600, "n_cal": 200, "n_test": 1800, "sigma_grid": [0.0, 0.8]}
DIGEST_CONFIGS = {
    "bounds": _TINY_BOUNDS,
    "bounds_overlap": {**_TINY_BOUNDS, "source": {"class_cov_scale": 1.0}},
    "sweep_overlap": {**_TINY, "source": {"class_cov_scale": 1.0}},
    "sweep_project": {**_TINY, "shift": {"clip_mode": "project"}},
    "sweep_k5": {
        **_TINY,
        "source": {
            "class_means": [[2.0, 0.0], [0.6, 1.9], [-1.6, 1.2], [-1.6, -1.2], [0.6, -1.9]],
            "priors": [0.1, 0.3, 0.05, 0.3, 0.25],
        },
        "shift": {"per_class_translation": [[-0.6, 0.0], [-0.2, -0.57], [0.48, -0.36], [0.48, 0.36], [-0.2, 0.57]]},
    },
    "train_default": {},
}


@pytest.mark.filterwarnings("ignore:subsampling:UserWarning")
@pytest.mark.parametrize("case", sorted(SEED_DIGESTS))
def test_outputs_match_recorded_digests(tmp_path, case):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(DIGEST_CONFIGS.get(case, _TINY)))
    out = tmp_path / "run"
    command = case.partition("_")[0]
    assert main([command, "--config", str(cfg), "--seed", "20250809", "--out", str(out)]) == 0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in SEED_DIGESTS[case]}
    assert got == SEED_DIGESTS[case]


@pytest.mark.parametrize("command", ["gen", "train", "sweep", "tau", "bounds", "tune"])
def test_every_run_leaves_the_config_it_ran(tmp_path, command):
    config = _tiny_config(tmp_path, trials=2)
    out = tmp_path / "run"
    assert main([command, "--config", config, "--seed", "11", "--out", str(out)]) == 0
    ran = ExperimentConfig.from_dict({**json.loads(Path(config).read_text()), "seed": 11})
    written = json.loads((out / "config.json").read_text())
    assert ExperimentConfig.from_dict(written).resolved() == ran.resolved() == written


def test_replay_finds_a_cell_by_the_text_its_sigma_was_written_as(tmp_path):
    # 0.1234567891 is written as 0.123456789, which float() does not read back as the grid value.
    out = tmp_path / "run"
    assert main(["sweep", "--config", _tiny_config(tmp_path, sigma_grid=[0.0, 0.1234567891]), "--out", str(out)]) == 0
    assert main(["replay", "--out", str(out)]) == 0


def _table_run(tmp_path, out) -> list[str]:
    """The argv of a ``sweep --logits`` over a small random logit table, writing to ``out``."""
    rng = np.random.default_rng(8)
    tags = ["source_cal"] * 30 + ["target_cal"] * 30 + ["target_test"] * 30
    path = tmp_path / "table.csv"
    write_logit_table(path, tags, rng.integers(1, 4, size=90), rng.normal(size=(90, 3)))
    return ["sweep", "--logits", str(path), "--out", str(out)]


# Each case: the run (sigma grid [0, 0.8], 2 trials), its records file, an edit
# of the file's data rows, and the mismatch lines replay must print. Records run
# method by method, then by sigma and trial.
INCOMPLETE_RECORDS = {
    "sweep-missing-cell": (
        "sweep",
        "records.csv",
        lambda rows: [row for row in rows if row.split(",")[1:3] != ["0.8", "1"]],
        [f"records.csv: {method} sigma=0.8 trial=1: missing" for method in ("hard_pseudo", "oracle", "source", "source_tuned")],
    ),
    "sweep-missing-method-row": (
        "sweep",
        "records.csv",
        lambda rows: rows[:2] + rows[3:],
        ["records.csv: source sigma=0.8 trial=0: missing"],
    ),
    "sweep-repeated-row": ("sweep", "records.csv", lambda rows: rows + rows[:1], ["records.csv: source sigma=0 trial=0: repeated 2 times"]),
    "tau-missing-method-row": ("tau", "tau_records.csv", lambda rows: rows[:-1], ["tau_records.csv: tau_adjusted sigma=0.8 trial=1: missing"]),
    "tau-repeated-row": ("tau", "tau_records.csv", lambda rows: rows[:1] + rows, ["tau_records.csv: hard_pseudo sigma=0 trial=0: repeated 2 times"]),
    "table-missing-method-row": ("table", "records.csv", lambda rows: rows[1:], ["records.csv: source sigma= trial=0: missing"]),
    "table-repeated-row": ("table", "records.csv", lambda rows: rows + rows[-1:], ["records.csv: oracle sigma= trial=0: repeated 2 times"]),
    "table-row-outside-its-cell": (
        "table",
        "records.csv",
        lambda rows: rows[:-1] + [rows[-1].replace("oracle,,0,", "oracle,,1,")],
        ["records.csv: oracle sigma= trial=0: missing", "records.csv: oracle sigma= trial=1: not in the config's grid"],
    ),
}


@pytest.mark.parametrize("case", sorted(INCOMPLETE_RECORDS))
def test_replay_rejects_records_that_miss_or_repeat_a_row(tmp_path, capsys, case):
    run, name, edit, expected = INCOMPLETE_RECORDS[case]
    out = tmp_path / "run"
    argv = _table_run(tmp_path, out) if run == "table" else [run, "--config", _tiny_config(tmp_path, trials=2), "--out", str(out)]
    assert main(argv) == 0
    header, *rows = (out / name).read_text().splitlines()
    (out / name).write_text("\n".join([header, *edit(rows)]) + "\n")
    capsys.readouterr()
    for threads in ("1", "2"):
        assert main(["replay", "--out", str(out), "--threads", threads]) == 4
        lines = capsys.readouterr().err.splitlines()
        assert sorted(line.removeprefix("replay mismatch: ") for line in lines[:-1]) == sorted(expected)
        assert lines[-1].startswith(f"invariant violation: {len(expected)} of ")


def _last_digit_raised(text: str) -> str:
    """``text`` with one added in its last written digit: 0.774153004 becomes 0.774153005."""
    value = Decimal(text)
    return str(value + Decimal((0, (1,), value.as_tuple().exponent)))


# Each case: the run and its config overrides, its records file, the row
# (method, sigma, trial) and column edited, and the text written there (or
# the edit of the faithful text). Replay re-derives each file's slack and
# cor1_bound from its run's per-sigma arms, the tau designs included, and
# finds u_star and thm2_bound filled where the writer leaves them empty.
TAMPERED_COLUMNS = {
    "hard-pseudo-cor1-raised": ("sweep", {}, "records.csv", ("hard_pseudo", "0", "0"), "cor1_bound", "0.99"),
    "cor1-on-a-source-row": ("sweep", {}, "records.csv", ("source", "0", "0"), "cor1_bound", "0.78"),
    "tau-zero-under-no-policy": ("sweep", {}, "records.csv", ("source_tuned", "0.8", "1"), "tau", "0"),
    "tau-respelled-under-a-fixed-policy": (
        "sweep",
        {"tau_policy": {"kind": "fixed", "value": 0.5}},
        "records.csv",
        ("oracle", "0.8", "0"),
        "tau",
        "0.50",
    ),
    "tau-design-cor1-raised": (
        "sweep",
        {"tau_policy": {"kind": "tau_design"}},
        "records.csv",
        ("hard_pseudo", "0.8", "1"),
        "cor1_bound",
        "0.99",
    ),
    "tau-design-tau-raised": (
        "sweep",
        {"tau_policy": {"kind": "tau_design"}},
        "records.csv",
        ("hard_pseudo", "0.8", "1"),
        "tau",
        _last_digit_raised,
    ),
    "tau-records-tau-raised": ("tau", {}, "tau_records.csv", ("tau_adjusted", "0.8", "0"), "tau", _last_digit_raised),
    "tau-records-cor1-lowered": ("tau", {}, "tau_records.csv", ("hard_pseudo", "0", "1"), "cor1_bound", "0.5"),
    "u-star-on-a-hard-pseudo-row": ("sweep", {}, "records.csv", ("hard_pseudo", "0.8", "1"), "u_star", "inf"),
    "thm2-on-a-tau-row": ("tau", {}, "tau_records.csv", ("tau_adjusted", "0", "1"), "thm2_bound", "0.8"),
    "thm2-on-a-table-hard-pseudo-row": ("table", {}, "records.csv", ("hard_pseudo", "", "0"), "thm2_bound", "0.8"),
}


@pytest.mark.parametrize("case", sorted(TAMPERED_COLUMNS))
def test_replay_names_a_column_it_can_rederive(tmp_path, capsys, case):
    run, overrides, name, key, column, text = TAMPERED_COLUMNS[case]
    out = tmp_path / "run"
    config = _tiny_config(tmp_path, n_train=600, n_cal=200, n_test=500, trials=2, **overrides)
    assert main(_table_run(tmp_path, out) if run == "table" else [run, "--config", config, "--out", str(out)]) == 0
    header, *rows = (out / name).read_text().splitlines()
    at = header.split(",").index(column)
    for i, row in enumerate(rows):
        if tuple(row.split(",")[:3]) == key:
            fields = row.split(",")
            faithful = fields[at]
            fields[at] = text = text(faithful) if callable(text) else text
            rows[i] = ",".join(fields)
    (out / name).write_text("\n".join([header, *rows]) + "\n")
    capsys.readouterr()
    assert main(["replay", "--out", str(out)]) == 4
    method, sigma, trial = key
    assert capsys.readouterr().err.splitlines()[:-1] == [
        f"replay mismatch: {name}: {method} sigma={sigma} trial={trial}: {column} {text} -> {faithful or '(empty)'}"
    ]


@pytest.mark.parametrize("seed", ["3", "5"])
def test_replay_passes_a_tau_design_sweep_whose_cor1_sits_on_a_rounding_edge(tmp_path, capsys, seed):
    # Rebuilding these cells' cor1_bound from the 9-digit tau text moves its last digit
    # (seed 3: hard_pseudo sigma=2.4 trial=1); the run's own per-sigma design does not.
    overrides = {"n_train": 600, "n_cal": 200, "n_test": 500, "trials": 2, "sigma_grid": [0.8, 1.6, 2.4]}
    config = _tiny_config(tmp_path, **overrides, tau_policy={"kind": "tau_design"})
    out = tmp_path / "run"
    assert main(["sweep", "--config", config, "--seed", seed, "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["replay", "--out", str(out)]) == 0
    assert capsys.readouterr().out == "replay audit passed: 24 records verified\n"


def test_rising_training_loss_names_the_learning_rate(tmp_path, capsys):
    assert main(["tune", "--config", _tiny_config(tmp_path, train={"learning_rate": 1e3}), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "train.learning_rate 1000.0" in err
    assert re.search(r"training loss increased \([0-9.e+-]+ -> [0-9.e+-]+\)", err)


@pytest.mark.parametrize("cores", [{0}, {0, 1}], ids=["one-core", "two-cores"])
@pytest.mark.parametrize("draw_fails", [False, True], ids=["fit-fails", "fit-and-draw-fail"])
def test_a_failing_bounds_fit_is_reported_before_a_failing_draw(monkeypatch, capsys, tmp_path, cores, draw_fails):
    # bounds draws before it fits, and fits as item 0 of its solve pool; a failing draw checks the fit first.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores)
    shift = {"shift": {"clip_radius": 1e-300}} if draw_fails else {}
    config = _tiny_config(tmp_path, train={"learning_rate": 1e160}, **shift)
    assert main(["bounds", "--config", config, "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err.startswith("config error: train.learning_rate 1e+160 is too large for the training data")
    _assert_no_child_left()


def test_integral_float_counts_up_to_2_53_are_accepted():
    cfg = ExperimentConfig.from_dict({"trials": 3.0, "seed": float(2**53)})
    assert (cfg.trials, cfg.seed) == (3, 2**53)
    # A JSON integer is exact at any size: a large count is a large run.
    assert ExperimentConfig.from_dict({"seed": 2**53 + 1}).seed == 2**53 + 1


def test_seed_outside_64_bits_is_a_config_error(tmp_path):
    # RngStream keeps only the low 64 bits, so seed 2**70 would replay seed 0.
    for seed in (2**64, 2**70, -1):
        with pytest.raises(ConfigError, match="seed must lie in"):
            ExperimentConfig.from_dict({"seed": seed})
    assert main(["sweep", "--config", _tiny_config(tmp_path), "--seed", str(2**70), "--out", str(tmp_path / "o")]) == 2
    assert ExperimentConfig.from_dict({"seed": 2**64 - 1}).seed == 2**64 - 1


def _exit_code(argv) -> int:
    """``main``'s return value, or the code of the ``SystemExit`` that argparse raises."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


# --threads acts only on sweep/tau/replay, --logits only on sweep/bounds and
# --config everywhere but replay (which reads its run's config.json); anywhere
# else the flag is a usage error instead of being silently ignored. So is a
# subcommand that does not exist.
@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--logits", "missing.csv"],
        ["train", "--logits", "missing.csv"],
        ["replay", "--logits", "missing.csv"],
        ["tau", "--logits", "missing.csv"],
        ["tune", "--logits", "missing.csv"],
        ["gen", "--threads", "2"],
        ["bounds", "--threads", "2"],
        ["replay", "--config", "missing.json"],
        ["selftest"],
    ],
    ids=" ".join,
)
def test_flag_outside_its_subcommands_is_a_usage_error(tmp_path, argv):
    out = tmp_path / "out"
    config = _tiny_config(tmp_path)
    declared = {"replay": ["--out", str(out)]}
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


def test_cli_import_leaves_process_pool_modules_unloaded():
    # Neither importing the CLI nor a call that forks two workers loads them; their import would cost every call.
    code = (
        "import os, sys, shiftcp.cli as cli\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "loaded = lambda: sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules))\n"
        "before = loaded()\n"
        "out = cli._map(lambda i: (i, os.getpid()), [(i,) for i in range(4)], 2)\n"
        "pids = {pid for _, pid in out}\n"
        "try:\n"
        "    os.waitpid(-1, os.WNOHANG)\n"
        "except ChildProcessError:\n"
        "    pass\n"
        "else:\n"
        "    print('a child is left')\n"
        "print(before, [i for i, _ in out], len(pids) <= 2, os.getpid() in pids, loaded())"
    )
    # Dealt from one queue, one child may take every trivial item.
    assert _run_python(code).strip() == "[] [0, 1, 2, 3] True False []"


def _run_python(code: str) -> str:
    """Standard output of ``code`` run by a fresh interpreter with this checkout's package; a hang fails after 60 s."""
    src = str(Path(__file__).parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# main in a child process whose address space is capped at 4 GiB: on a host
# that always overcommits, an uncapped run this large would start filling the
# memory instead of failing its first allocation.
_CAPPED_MAIN = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))
from shiftcp.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS caps the address space on Linux")
@pytest.mark.parametrize("argv", [["sweep"], ["sweep", "--threads", "2"], ["bounds"], ["replay"]], ids=" ".join)
def test_an_oversized_count_is_a_config_error(tmp_path, argv):
    out = tmp_path / "run"
    if argv == ["replay"]:
        assert main(["sweep", "--config", _tiny_config(tmp_path), "--out", str(out)]) == 0
        config = json.loads((out / "config.json").read_text())
        (out / "config.json").write_text(json.dumps({**config, "n_test": 10**13}))
        counts = f"the counts in {out}/config.json"
    else:
        argv = argv + ["--config", _written(tmp_path / "big.json", b'{"n_test": 10000000000000}')]
        counts = "n_train 4000, n_cal 2000, n_test 10000000000000 and trials 200"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src"), "OPENBLAS_NUM_THREADS": "1"}
    argv = [sys.executable, "-c", _CAPPED_MAIN, *argv, "--out", str(out)]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(f"config error: {counts} need more memory than this process can allocate: "), proc.stderr


def test_worker_count_is_capped_by_cores_and_items(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert [_workers(threads, 30) for threads in (1, 2, 4)] == [1, 1, 1]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert [_workers(threads, 30) for threads in (1, 2, 4)] == [1, 2, 2]
    assert _workers(4, 1) == 1


def _item_and_pid(item: int) -> tuple[int, int]:
    return item, os.getpid()


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="a pool needs two usable cores")
def test_map_runs_items_in_forked_workers_in_order():
    out = _map(_item_and_pid, [(i,) for i in range(7)], 2)
    assert [item for item, _ in out] == list(range(7))
    pids = {pid for _, pid in out}
    assert 1 <= len(pids) <= 2 and os.getpid() not in pids  # dealt from one queue: a child may take every item
    _assert_no_child_left()


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="a pool needs two usable cores")
def test_map_deals_more_items_than_a_pipe_holds_in_order():
    # 20000 4-byte indices overflow a 64 KiB pipe buffer, so the parent must feed the pipe as the children drain it.
    assert _map(int, [(i,) for i in range(20_000)], 2) == list(range(20_000))
    _assert_no_child_left()


def _slow_first(item: int) -> tuple[int, int]:
    if item == 0:
        time.sleep(1.0)
    return item, os.getpid()


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="a pool needs two usable cores")
def test_map_does_not_hold_the_other_items_behind_a_slow_one():
    # Interleaved shares would leave items 2, 4, ... behind item 0; dealt, the other child takes them all.
    out = _map(_slow_first, [(i,) for i in range(9)], 2)
    assert [item for item, _ in out] == list(range(9))
    assert out[0][1] not in {pid for _, pid in out[1:]}
    _assert_no_child_left()


def _log_item(log: Path, item: int) -> int:
    with open(log, "a") as fh:
        fh.write(f"{item}\n")
    return item


def test_map_deals_each_index_once_to_more_workers_than_cores(monkeypatch, tmp_path):
    # Four children race on one index pipe, also past its first write: a lost index fails the ordered
    # results, and an index taken twice shows in the log of the items run.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    log = tmp_path / "run.log"
    assert _map(_log_item, [(log, i) for i in range(3000)], 4) == list(range(3000))
    assert sorted(map(int, log.read_text().split())) == list(range(3000))
    _assert_no_child_left()


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _raise_at_three_and_four(item: int) -> int:
    if item == 3:
        raise DataError("item 3 is malformed")
    if item == 4:
        raise ConfigError("item 4 is misconfigured")
    return item


@pytest.mark.parametrize("threads", [1, 2])
def test_map_raises_the_lowest_failing_items_error(monkeypatch, threads):
    # At 2 workers item 4 fails in the first child's share and item 3 in the second's.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    with pytest.raises(DataError, match="^item 3 is malformed$"):
        _map(_raise_at_three_and_four, [(i,) for i in range(8)], threads)
    _assert_no_child_left()


class _TwoArgumentError(Exception):
    def __init__(self, message, detail):
        super().__init__(message)


def _unsendable(kind: str, item: int):
    if item != 1:
        return item
    if kind == "result":
        return lambda: item
    if kind == "exception":
        raise ValueError(threading.Lock())
    raise _TwoArgumentError("pickles, but cannot be rebuilt from its args", "detail")


@pytest.mark.parametrize(
    "kind, message",
    [
        ("result", r"worker process \d+ cannot send its outcome: "),
        ("exception", r"worker process \d+ cannot send its outcome: TypeError\(\"cannot pickle '_thread.lock'"),
        ("unrebuildable", r"worker process \d+ sent no readable outcome \(wait status 0\)"),
    ],
)
def test_map_names_an_outcome_that_cannot_cross_the_pipe(monkeypatch, kind, message):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    with pytest.raises(RuntimeError, match=message):
        _map(partial(_unsendable, kind), [(i,) for i in range(4)], 2)
    _assert_no_child_left()


def test_map_names_a_killed_worker_and_kills_the_others():
    # The first child kills itself at item 0; the second would sleep at item 1 for 10 minutes unless killed.
    code = (
        "import os, signal, time, shiftcp.cli as cli\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "def item(i):\n"
        "    if i == 0:\n"
        "        print(os.getpid(), flush=True)\n"
        "        os.kill(os.getpid(), signal.SIGKILL)\n"
        "    time.sleep(600)\n"
        "try:\n"
        "    cli._map(item, [(i,) for i in range(4)], 2)\n"
        "except RuntimeError as exc:\n"
        "    print(exc)\n"
        "try:\n"
        "    print(os.waitpid(-1, os.WNOHANG))\n"
        "except ChildProcessError:\n"
        "    print('no child left')\n"
    )
    pid, message, children = _run_python(code).splitlines()
    assert message == f"worker process {pid} sent no readable outcome (wait status {signal.SIGKILL})"
    assert children == "no child left"


def test_map_fails_as_soon_as_a_later_worker_dies():
    # Item 1 kills the second child at once; the first child's share (items 0, 2, 4, 6) would take 2 s.
    code = (
        "import os, signal, time, shiftcp.cli as cli\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "def item(i):\n"
        "    if i == 1:\n"
        "        print(os.getpid(), flush=True)\n"
        "        os.kill(os.getpid(), signal.SIGKILL)\n"
        "    time.sleep(0.5)\n"
        "start = time.perf_counter()\n"
        "try:\n"
        "    cli._map(item, [(i,) for i in range(8)], 2)\n"
        "except RuntimeError as exc:\n"
        "    print(exc)\n"
        "print(time.perf_counter() - start)\n"
    )
    pid, message, elapsed = _run_python(code).splitlines()
    assert message == f"worker process {pid} sent no readable outcome (wait status {signal.SIGKILL})"
    assert float(elapsed) < 1.0


@pytest.mark.parametrize("missing", ["sched_getaffinity", "fork"])
def test_sweep_runs_where_the_platform_lacks(monkeypatch, tmp_path, missing):
    config = _tiny_config(tmp_path)
    assert main(["sweep", "--config", config, "--out", str(tmp_path / "normal")]) == 0
    monkeypatch.delattr(os, missing)
    assert _workers(2, 2) == (1 if missing == "fork" else min(2, os.cpu_count()))
    for threads in ("1", "2"):
        out = tmp_path / threads
        assert main(["sweep", "--config", config, "--out", str(out), "--threads", threads]) == 0
        assert (out / "records.csv").read_bytes() == (tmp_path / "normal" / "records.csv").read_bytes()


def test_map_stays_in_process_while_another_thread_runs():
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(30,))
    other.start()
    try:
        out = _map(_item_and_pid, [(i,) for i in range(4)], 2)
    finally:
        release.set()
        other.join(timeout=30)
    assert not other.is_alive()
    assert out == [(i, os.getpid()) for i in range(4)]


def test_tau_deterministic_across_workers(tmp_path):
    config = _tiny_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["tau", "--config", config, "--out", str(out1), "--threads", "1"]) == 0
    assert main(["tau", "--config", config, "--out", str(out2), "--threads", "2"]) == 0
    for name in ("tau_records.csv", "tau_aggregate.csv", "tau_diagnostics.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_cli_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize is most of the import time; only the assignment solver loads it.
    assert _run_python("import sys, shiftcp.cli; print('scipy.optimize' in sys.modules)").strip() == "False"


def test_bounds_solves_assignments_without_the_scipy_optimize_and_spatial_packages(tmp_path):
    # Every class of 1800 target rows exceeds 512 points, and sigma 0.8 is no identity, so the solver runs.
    config = _tiny_config(tmp_path, n_train=600, n_cal=200, n_test=1800)
    code = (
        "import sys, warnings, shiftcp.cli as cli\n"
        "warnings.simplefilter('ignore')\n"
        f"assert cli.main(['bounds', '--config', {config!r}, '--out', {str(tmp_path / 'out')!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[:2] in (['scipy', 'optimize'], ['scipy', 'spatial'])))"
    )
    assert _run_python(code).strip().splitlines()[-1] == "['scipy.optimize._lsap']"


def _bounds_fan_out(monkeypatch, capsys, tmp_path, name: str, cores: set, thread: bool = False):
    """``bounds`` on 1800 target rows at ``cores`` usable cores: (forks, bounds.json, warnings, exit code and stderr)."""
    # Every class of each sigma exceeds 512 points, so each of the 6 solves draws its subsample and warns.
    config = _tiny_config(tmp_path, n_train=600, n_cal=200, n_test=1800)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores)
    fork, forks = os.fork, []
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(30,))
    if thread:
        other.start()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["bounds", "--config", config, "--out", str(tmp_path / name)])
    finally:
        release.set()
        if thread:
            other.join(timeout=30)
    _assert_no_child_left()
    written = (tmp_path / name / "bounds.json").read_bytes() if code == 0 else b""
    return len(forks), written, [str(w.message) for w in caught], f"exit {code}: {capsys.readouterr().err}"


def test_bounds_solves_are_byte_identical_at_any_worker_count(monkeypatch, capsys, tmp_path):
    one = _bounds_fan_out(monkeypatch, capsys, tmp_path, "one", {0})
    two = _bounds_fan_out(monkeypatch, capsys, tmp_path, "two", {0, 1})
    threaded = _bounds_fan_out(monkeypatch, capsys, tmp_path, "threaded", {0, 1}, thread=True)
    assert [one[0], two[0], threaded[0]] == [0, 2, 0]  # another live thread keeps the solves in-process
    assert one[1:] == two[1:] == threaded[1:]
    assert hashlib.sha256(one[1]).hexdigest() == SEED_DIGESTS["bounds"]["bounds.json"]
    assert [re.sub(r"\d+ points", "N points", m, count=1) for m in one[2]] == [
        "subsampling N points down to 512 for the assignment solver; result is an estimate"
    ] * 6


def test_a_failing_solve_fails_bounds_alike_at_any_worker_count(monkeypatch, capsys, tmp_path):
    # Items 3, 4 and 5 (sigma 0.8) fail; at 2 workers item 4 fails in the first worker's share and 3 in the second's.
    def solve(a, b):
        if not np.array_equal(a, b):
            raise DataError(f"no matching for the sample starting at {a[0, 0]!r}")
        return 0.0

    monkeypatch.setattr(cli_module, "w1_assignment", solve)
    one = _bounds_fan_out(monkeypatch, capsys, tmp_path, "one", {0})
    two = _bounds_fan_out(monkeypatch, capsys, tmp_path, "two", {0, 1})
    assert [one[0], two[0]] == [0, 2]
    assert one[1:] == two[1:]
    assert re.fullmatch(r"exit 3: data error: no matching for the sample starting at \S+\n", one[3])
    assert len(one[2]) == 6  # every subsample is drawn, and warned about, before the first solve


class TestOneCellCore:
    """``sweep`` and ``tau`` cells are one core run with different arms."""

    def test_tau_hard_pseudo_rows_are_the_sweeps(self, tmp_path):
        config = _tiny_config(tmp_path, n_train=800, n_cal=150, n_test=200, trials=2)
        assert main(["sweep", "--config", config, "--out", str(tmp_path / "sweep")]) == 0
        assert main(["tau", "--config", config, "--out", str(tmp_path / "tau")]) == 0
        columns = ("sigma", "trial", "threshold", "coverage", "ess")
        hard = lambda name: [[row[c] for c in columns] for row in read_records_csv(tmp_path / name) if row["method"] == "hard_pseudo"]
        assert hard("sweep/records.csv") == hard("tau/tau_records.csv") != []

    def test_a_tau_cell_draws_no_source_split(self, monkeypatch):
        cfg = tau_config(trials=1)
        model = train_model(cfg)
        tau_arms = [_tau_arms(tau_diagnostics(cfg, model, si)) for si in range(len(cfg.sigma_grid))]
        arms = sweep_arms(cfg, model)
        calls = Counter()

        def counted(name, fn):
            def call(*args):
                calls[name] += 1
                return fn(*args)

            return call

        for name in ("generate_source", "apply_shift"):
            monkeypatch.setattr(cli_module, name, counted(name, getattr(cli_module, name)))
        for cell_arms, expected in ((tau_arms, {"generate_source": 2, "apply_shift": 2}), (arms, {"generate_source": 3, "apply_shift": 2})):
            calls.clear()
            run_trial(cfg, model, 1, 0, cell_arms)
            assert calls == expected


class TestOneGatherPerCell:
    """A cell gathers each labeled split's true-label scores once.

    The test split's feed coverage, ramp and hinge; the source split's feed every arm and bound that reads them.
    """

    def test_one_test_label_gather_per_cell(self, tmp_path, monkeypatch):
        cfg = tau_config(trials=2)  # n_test 200 differs from every other split size
        model = train_model(cfg)
        diagnostics = [tau_diagnostics(cfg, model, si) for si in range(len(cfg.sigma_grid))]
        sizes = []
        gather = ScoredView.label_scores

        def counted(view, y):
            sizes.append(len(view))
            return gather(view, y)

        monkeypatch.setattr(ScoredView, "label_scores", counted)

        def test_gathers(run) -> int:
            sizes.clear()
            run()
            return sizes.count(cfg.n_test)

        for policy in ({"kind": "none"}, {"kind": "fixed", "value": 0.5}, {"kind": "tau_design"}):
            cell_cfg = replace(cfg, tau_policy_kind=policy["kind"], tau_policy_value=policy.get("value", 0.0))
            arms = sweep_arms(cell_cfg, model)
            assert test_gathers(lambda: run_trial(cell_cfg, model, 1, 0, arms)) == 1
        assert test_gathers(lambda: run_trial(cfg, model, 1, 0, [_tau_arms(diag) for diag in diagnostics])) == 1

        raw = {"n_train": 800, "n_cal": 150, "n_test": 200, "trials": 2, "sigma_grid": [0.0, 0.8]}
        (tmp_path / "config.json").write_text(json.dumps(raw))
        out = tmp_path / "run"
        assert main(["sweep", "--config", str(tmp_path / "config.json"), "--out", str(out)]) == 0
        assert test_gathers(lambda: main(["replay", "--out", str(out)])) == 2 * 2

    def test_one_source_label_gather_per_cell(self, monkeypatch):
        # The oracle arm gathers a split of the source's size, so the source view is told apart by identity.
        cfg = tau_config(trials=2)
        model = train_model(cfg)
        cell, source_gathers = {}, []
        draw, build, gather = cli_module.make_trial_data, cli_module.scored_view, ScoredView.label_scores

        def drawn(*args):
            cell["raw"] = draw(*args)
            return cell["raw"]

        def built(m, x):
            view = build(m, x)
            if x is cell["raw"].x_source:
                cell["source"] = view
            return view

        def counted(view, y):
            if view is cell.get("source"):
                source_gathers.append(y is cell["raw"].y_source)  # False: a tuning draw's uniform labels
            return gather(view, y)

        runs = []
        for policy in ({"kind": "none"}, {"kind": "fixed", "value": 0.5}, {"kind": "tau_design"}):
            cell_cfg = replace(cfg, tau_policy_kind=policy["kind"], tau_policy_value=policy.get("value", 0.0))
            runs.append((cell_cfg, sweep_arms(cell_cfg, model)))  # resolved before the counters go in
        monkeypatch.setattr(cli_module, "make_trial_data", drawn)
        monkeypatch.setattr(cli_module, "scored_view", built)
        monkeypatch.setattr(ScoredView, "label_scores", counted)
        for cell_cfg, arms in runs:
            for si in range(len(cfg.sigma_grid)):
                cell.clear()
                source_gathers.clear()
                run_trial(cell_cfg, model, si, 0, arms)
                assert "source" in cell and source_gathers.count(True) == 1

    def test_source_tuned_calibrates_by_its_own_rule_at_u_inf(self, monkeypatch):
        cfg = ExperimentConfig.from_dict(DEFAULT_CONFIG)
        model = train_model(cfg)
        arms = sweep_arms(cfg, model)
        data = make_trial_data(cfg, 0, 0)
        tuning, tuned = source_tuned_calibrate(
            model, data.x_source, data.y_source, data.x_target_cal, cfg.alpha, cfg.uncertainty_grid(), _tune_stream(cfg, 0, 0)
        )
        assert tuning.u_star == math.inf
        calls = []

        def counted(scores, alpha):
            calls.append(alpha)
            return calibrate(scores, alpha)

        monkeypatch.setattr(cli_module, "calibrate", counted)
        monkeypatch.setattr(pseudo_module, "calibrate", counted)
        records = {r.method: r for r in run_trial(cfg, model, 0, 0, arms)}
        # source, hard_pseudo, the tuning probe at u = inf, source_tuned's own target calibration and oracle.
        assert len(calls) == 5
        rec = records["source_tuned"]
        assert (rec.u_star, rec.threshold) == (tuning.u_star, tuned.threshold)
        test = data.x_target_test
        assert rec.coverage == coverage(model, test, data.y_target_test, tuned)
        assert rec.ess == expected_set_size(model, test, tuned)
