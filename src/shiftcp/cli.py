"""Experiment orchestration CLI.

Subcommands reproduce the evaluation protocol end to end on synthetic data
with analytically certified shift sizes: ``sweep`` compares the four
calibration strategies over a shift-strength grid, ``tau`` designs a
threshold slack per shift strength and evaluates it (``sweep``'s
``tau_design`` policy adds that same slack; a logit table designs it on its
own splits), ``bounds`` evaluates every coverage bound from measured and
certified quantities, ``tune`` traces the source sweep of the entropy cutoff,
``gen``/``train`` export datasets and the fitted classifier, and ``replay``
re-derives every emitted figure that needs no new draws (:func:`replay_audit`).

``sweep``, ``tau`` and ``sweep --logits`` build every record through one cell
core, :func:`_evaluate_cell`, given the run's :class:`Arm` list. ``sweep``'s
arms are its methods, ``hard_pseudo`` floored by its own cell; ``tau``'s are
``hard_pseudo`` and ``tau_adjusted``, both the hard rule, floored by the
per-sigma oracle losses of :func:`tau_diagnostics`, so a ``tau`` cell draws
no source split. One builder, :func:`_arm_record`, decides a record's
columns from its arm and calibration, for the cell core and for ``replay``.

All outputs are machine-readable (CSV/JSON), under the names ``_COMMANDS``
declares; :func:`main` refuses a taken name before any fit or draw and, once
a subcommand that takes ``--config`` succeeds, writes the resolved config
(and the absolute ``--logits`` path) to ``<out>/config.json``.
Records have :class:`TrialRecord`'s fields as columns, in method, sigma,
trial order; ``replay`` finds each record's cell by the text :func:`_fmt` wrote.
``--threads`` fans the independent (sigma, trial) cells of ``sweep``, ``tau``
and ``replay`` out to forked worker processes, which take the cells' indices
from one queue while the parent waits; every cell draws from its own stream
address, so runs are byte-identical for a fixed config and seed whatever the
worker count. ``bounds`` deals its fit and its assignment solves to the same
pool.
"""

from __future__ import annotations

import argparse
import copy
import csv
import json
import math
import os
import pickle
import select
import sys
import threading
from collections import Counter
from dataclasses import dataclass, fields, replace
from functools import cache, cached_property, partial
from pathlib import Path

import numpy as np

from .conformal import CalibrationResult, _covered_share, _validate_alpha, calibrate, expected_set_size, integrated_coverage_gap
from .exceptions import ConfigError, DataError, InvariantError
from .pseudo import UncertaintyGrid, _calibrate_at_cutoff, _curve_with_thresholds, _tune_cutoff, pseudo_calibrate, select_u_star
from .rng import RngStream
from .scores import (
    ScoredView,
    _population_loss,
    hinge_loss,
    lipschitz_bound,
    predict,
    ramp_loss,
    scored_view,
)
from .shift_bounds import (
    _linear_sum_assignment,
    _subsampled_pairs,
    _undercoverage_gap,
    coverage_gap_bound,
    pseudo_coverage_lower_bound,
    relaxed_coverage_lower_bound,
    rho_mix,
    score_shift_w1_bound,
    sup_density_estimate,
    tau_correction,
    w1_1d,
    w1_assignment,
)
from .synthetic import (
    _output_file,
    _utf8_lines,
    MISSING_LABEL,
    SPLIT_TAGS,
    LogitTable,
    ShiftSpec,
    SourceSpec,
    apply_shift,
    generate_source,
    load_logit_table,
    train_classifier,
    write_dataset_csv,
)

METHODS = ("source", "hard_pseudo", "source_tuned", "oracle")

#: The methods of a ``tau`` run, in the order of its records.
TAU_METHODS = ("hard_pseudo", "tau_adjusted")

DEFAULT_CONFIG: dict = {
    "seed": 20250809,
    "alpha": 0.2,
    "n_train": 4000,
    "n_cal": 2000,
    "n_test": 5000,
    "trials": 200,
    "sigma_grid": [0.0, 0.15, 0.3, 0.8, 1.6, 2.4],
    "methods": list(METHODS),
    "tau_policy": {"kind": "none", "value": 0.0},
    "u_grid": None,
    "tau_grid": [0.0, 0.5, 1.0, 2.0, 4.0],
    "train": {"epochs": 150, "learning_rate": 0.1},
    "source": {
        "class_means": [[2.0, 0.0], [-1.0, 1.7320508075688772], [-1.0, -1.7320508075688772]],
        "class_cov_scale": 0.65,
        "priors": [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
    },
    "shift": {
        "per_class_translation": [
            [-0.6, 0.0],
            [0.3, -0.5196152422706632],
            [0.3, 0.5196152422706632],
        ],
        "noise_scale": 0.12,
        "clip_radius": 0.15,
        "clip_mode": "resample",
    },
}


# ---------------------------------------------------------------------------
# Configuration


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    alpha: float
    n_train: int
    n_cal: int
    n_test: int
    trials: int
    sigma_grid: tuple[float, ...]
    methods: tuple[str, ...]
    tau_policy_kind: str
    tau_policy_value: float
    u_grid: tuple[float, ...] | None
    tau_grid: tuple[float, ...]
    epochs: int
    learning_rate: float
    source_spec: SourceSpec
    shift_spec: ShiftSpec

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        merged = _merge_config(DEFAULT_CONFIG, raw)
        src, sh = merged["source"], merged["shift"]
        try:
            source = SourceSpec(
                class_means=np.asarray(src["class_means"], dtype=float),
                class_cov_scale=_real("source.class_cov_scale", src["class_cov_scale"]),
                priors=np.asarray(src["priors"], dtype=float),
            )
            shift = ShiftSpec(
                per_class_translation=np.asarray(sh["per_class_translation"], dtype=float),
                noise_scale=_real("shift.noise_scale", sh["noise_scale"]),
                clip_radius=_real("shift.clip_radius", sh["clip_radius"]),
                clip_mode=str(sh["clip_mode"]),
            )
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"invalid source/shift specification: {exc}") from exc
        if shift.per_class_translation.shape != source.class_means.shape:
            raise ConfigError("per_class_translation must match class_means in shape")

        sigma_grid = _reals("sigma_grid", merged["sigma_grid"])
        if not sigma_grid:
            raise ConfigError("sigma_grid must be nonempty")
        if any(s < 0 for s in sigma_grid):
            raise ConfigError("sigma_grid values must be nonnegative")
        if any(b <= a for a, b in zip(sigma_grid, sigma_grid[1:])):
            raise ConfigError("sigma_grid must be strictly ascending")
        # Records name a cell's sigma by its _fmt text; rounding is monotone, so only neighbours can share it.
        for a, b in zip(sigma_grid, sigma_grid[1:]):
            if _fmt(a) == _fmt(b):
                raise ConfigError(f"sigma_grid values {a!r} and {b!r} both print as {_fmt(a)}; replay cannot tell them apart")
        # The certificate grows with sigma; an overflowing one would feed inf into the bounds.
        with np.errstate(over="ignore"):
            rho_max = shift.scaled(sigma_grid[-1]).per_class_rho()
        if not np.isfinite(rho_max).all():
            raise ConfigError(
                f"shift.per_class_translation / shift.clip_radius overflow the certified radius at sigma {sigma_grid[-1]}"
            )

        if not isinstance(merged["methods"], list) or not all(isinstance(m, str) for m in merged["methods"]):
            raise ConfigError("methods must be a list of method names")
        methods = tuple(merged["methods"])
        unknown = [m for m in methods if m not in METHODS]
        if unknown:
            raise ConfigError(f"unknown method(s) {unknown}; choose from {list(METHODS)}")
        if not methods:
            raise ConfigError("methods must be nonempty")
        if len(set(methods)) < len(methods):
            raise ConfigError(f"methods must not repeat, got {list(methods)}")

        policy = merged["tau_policy"]
        kind = policy.get("kind", "none")
        if kind not in ("none", "fixed", "tau_design"):
            raise ConfigError(f"unknown tau policy kind {kind!r}")
        value = _real("tau_policy.value", policy.get("value", 0.0))
        if kind == "fixed" and value < 0:
            raise ConfigError("fixed tau must be nonnegative")

        u_grid = merged["u_grid"]
        if u_grid is not None:
            u_grid = _reals("u_grid", u_grid, finite=False)
            try:
                UncertaintyGrid(np.asarray(u_grid))
            except ValueError as exc:
                raise ConfigError(f"invalid u_grid: {exc}") from exc

        tau_grid = _reals("tau_grid", merged["tau_grid"])
        if any(t < 0 for t in tau_grid):
            raise ConfigError("tau_grid values must be nonnegative")

        alpha = _real("alpha", merged["alpha"])
        try:
            _validate_alpha(alpha)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        counts = {name: _integer(name, merged[name]) for name in ("n_train", "n_cal", "n_test", "trials")}
        for name, val in counts.items():
            if val < 1:
                raise ConfigError(f"{name} must be at least 1")
        epochs = _integer("train.epochs", merged["train"]["epochs"])
        learning_rate = _real("train.learning_rate", merged["train"]["learning_rate"])
        if epochs < 1 or learning_rate <= 0:
            raise ConfigError("train.epochs must be >= 1 and train.learning_rate positive")

        seed = _integer("seed", merged["seed"])
        if not 0 <= seed < 2**64:
            raise ConfigError(f"seed must lie in [0, 2**64), got {seed}")
        return cls(
            seed=seed,
            alpha=alpha,
            n_train=counts["n_train"],
            n_cal=counts["n_cal"],
            n_test=counts["n_test"],
            trials=counts["trials"],
            sigma_grid=sigma_grid,
            methods=methods,
            tau_policy_kind=kind,
            tau_policy_value=value,
            u_grid=u_grid,
            tau_grid=tau_grid,
            epochs=epochs,
            learning_rate=learning_rate,
            source_spec=source,
            shift_spec=shift,
        )

    def resolved(self) -> dict:
        """Fully materialized configuration (all defaults filled) for output headers."""
        return {
            "seed": self.seed,
            "alpha": self.alpha,
            "n_train": self.n_train,
            "n_cal": self.n_cal,
            "n_test": self.n_test,
            "trials": self.trials,
            "sigma_grid": list(self.sigma_grid),
            "methods": list(self.methods),
            "tau_policy": {"kind": self.tau_policy_kind, "value": self.tau_policy_value},
            "u_grid": list(self.uncertainty_grid().values.tolist()),
            "tau_grid": list(self.tau_grid),
            "train": {"epochs": self.epochs, "learning_rate": self.learning_rate},
            "source": {
                "class_means": self.source_spec.class_means.tolist(),
                "class_cov_scale": self.source_spec.class_cov_scale,
                "priors": self.source_spec.priors.tolist(),
            },
            "shift": {
                "per_class_translation": self.shift_spec.per_class_translation.tolist(),
                "noise_scale": self.shift_spec.noise_scale,
                "clip_radius": self.shift_spec.clip_radius,
                "clip_mode": self.shift_spec.clip_mode,
            },
        }

    # Per-run constants, derived on first use and shared by every cell of the run.
    @cached_property
    def _grid(self) -> UncertaintyGrid:
        if self.u_grid is not None:
            return UncertaintyGrid(np.asarray(self.u_grid, dtype=float))
        return UncertaintyGrid.default(self.source_spec.n_classes)

    @cached_property
    def _grid_shifts(self) -> dict[float, ShiftSpec]:
        return {sigma: self.shift_spec.scaled(sigma) for sigma in self.sigma_grid}

    def uncertainty_grid(self) -> UncertaintyGrid:
        return self._grid

    def rho_mix_certified(self, sigma: float) -> float:
        """Generator-certified mixture shift bound at strength sigma."""
        shift = self._grid_shifts.get(sigma) or self.shift_spec.scaled(sigma)
        return rho_mix(self.source_spec.priors, shift.per_class_rho())


def _integer(name: str, value) -> int:
    """A JSON integer; an integral float is accepted, anything else is a config error.

    Above 2**53 a float no longer names one integer, so a float that large is
    a config error too (``1e308`` epochs would otherwise never finish).
    """
    if isinstance(value, bool) or not (isinstance(value, int) or (isinstance(value, float) and value.is_integer())):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if isinstance(value, float) and abs(value) > 2**53:
        raise ConfigError(f"{name} must be an integer, got {value!r}: a float beyond 2**53 names no single integer")
    return int(value)


def _real(name: str, value, finite: bool = True) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    if finite and not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return float(value)


def _reals(name: str, values, finite: bool = True) -> tuple[float, ...]:
    if not isinstance(values, list):
        raise ConfigError(f"{name} must be a list of numbers, got {values!r}")
    return tuple(_real(f"{name}[{i}]", v, finite) for i, v in enumerate(values))


def _merge_config(base: dict, override: dict) -> dict:
    merged = copy.deepcopy(base)
    for key, value in override.items():
        if key not in merged:
            raise ConfigError(f"unknown config key {key!r}")
        if isinstance(merged[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {key!r} must be an object")
            for sub, subval in value.items():
                if sub not in merged[key]:
                    raise ConfigError(f"unknown config key {key}.{sub}")
                merged[key][sub] = subval
        else:
            merged[key] = value
    return merged


def _read_config(path) -> dict:
    """The JSON object in the file at ``path``; any other content, or none, is a config error."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"config {path} is not UTF-8 JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path}: the document must be a JSON object")
    return raw


def load_config(path: str | None, seed_override: int | None = None) -> ExperimentConfig:
    raw = {} if path is None else _read_config(path)
    if seed_override is not None:
        raw = {**raw, "seed": int(seed_override)}
    return ExperimentConfig.from_dict(raw)


# ---------------------------------------------------------------------------
# Trial machinery


@dataclass(frozen=True)
class TrialData:
    """Per-trial splits with the labeled/unlabeled separation made explicit.

    Calibration methods receive ``x_target_cal`` only; ``y_target_cal_oracle``
    is revealed solely to the oracle arm and ``y_target_test`` solely to final
    evaluation and oracle-flagged loss measurements. The ``x_*`` fields hold
    raw inputs or each split's scored view; the source split is None where
    the cell's arms do not read it.
    """

    x_source: np.ndarray | ScoredView | None
    y_source: np.ndarray | None
    x_target_cal: np.ndarray | ScoredView
    y_target_cal_oracle: np.ndarray
    x_target_test: np.ndarray | ScoredView
    y_target_test: np.ndarray


@dataclass(frozen=True)
class TrialRecord:
    method: str
    sigma: float | None
    trial: int
    threshold: float
    u_star: float | None
    tau: float | None
    coverage: float
    ess: float
    thm2_bound: float | None
    cor1_bound: float | None


RECORD_COLUMNS = tuple(f.name for f in fields(TrialRecord))


def _shifted_sample(cfg: ExperimentConfig, sigma: float, n: int, base: RngStream, shift: RngStream):
    """``n`` source draws from ``base`` shifted at strength ``sigma`` by ``shift``: (shifted x, y, base x)."""
    xb, yb = generate_source(cfg.source_spec, n, base)
    return apply_shift(xb, yb, cfg._grid_shifts[sigma], shift), yb, xb


def _cell_stream(cfg: ExperimentConfig, sigma_idx: int, trial: int) -> RngStream:
    """The stream of one (sigma, trial) cell, whose substreams draw each of its splits."""
    return RngStream(cfg.seed).substream("trial", sigma_idx, trial)


def _target_split(cfg: ExperimentConfig, cell: RngStream, sigma_idx: int, name: str, n: int):
    """Shifted target split ``name`` of a cell and its labels, drawn from the cell stream's own substreams."""
    base, shift = cell.substream(f"{name}-base"), cell.substream(f"{name}-shift")
    x, y, _ = _shifted_sample(cfg, cfg.sigma_grid[sigma_idx], n, base, shift)
    return x, y


def make_trial_data(cfg: ExperimentConfig, sigma_idx: int, trial: int, source: bool = True) -> TrialData:
    """Regenerate the splits of one (sigma, trial) cell from its derived streams; the source split only with ``source``."""
    cell = _cell_stream(cfg, sigma_idx, trial)
    x_src = y_src = None
    if source:
        x_src, y_src = generate_source(cfg.source_spec, cfg.n_cal, cell.substream("source-cal"))
    x_tc, y_tc = _target_split(cfg, cell, sigma_idx, "target-cal", cfg.n_cal)
    x_tt, y_tt = _target_split(cfg, cell, sigma_idx, "target-test", cfg.n_test)
    return TrialData(x_src, y_src, x_tc, y_tc, x_tt, y_tt)


def _tune_stream(cfg: ExperimentConfig, sigma_idx: int, trial: int) -> RngStream:
    return RngStream(cfg.seed).substream("trial", sigma_idx, trial, "tune")


def _train(cfg: ExperimentConfig):
    """The run's training split and the classifier fitted on it: (model, x, y).

    A failed fit is a data error, and a rising training loss a config error:
    the learning rate is too large for the data. An overflowing draw or fit
    raises no numpy warning: the fit refuses non-finite features, and the
    model's own check refuses non-finite weights.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            x, y = generate_source(cfg.source_spec, cfg.n_train, RngStream(cfg.seed).substream("train-data"))
            k = cfg.source_spec.n_classes
            model = train_classifier(x, y, k, epochs=cfg.epochs, learning_rate=cfg.learning_rate)
    except ValueError as exc:
        raise DataError(f"cannot train the classifier: {exc}") from exc
    except InvariantError as exc:
        raise ConfigError(f"train.learning_rate {cfg.learning_rate!r} is too large for the training data: {exc}") from exc
    return model, x, y


def train_model(cfg: ExperimentConfig):
    """Train the fixed classifier used by every trial of a run; a failed fit is a data error."""
    return _train(cfg)[0]


def _calibrate_method(cfg: ExperimentConfig, rule: str, data: TrialData, source_scores, tune: RngStream):
    """The threshold and cutoff u* (None but for source_tuned) of one calibration rule; target labels reach only the oracle rule."""
    if rule == "source":
        return calibrate(source_scores, cfg.alpha), None
    if rule == "hard_pseudo":
        return pseudo_calibrate(None, data.x_target_cal, cfg.alpha), None
    if rule == "source_tuned":  # at u* = inf this is the hard pseudo-calibration, and nothing is drawn
        u_star = _tune_cutoff(data.x_source, source_scores, cfg.alpha, cfg.uncertainty_grid(), tune).u_star
        return _calibrate_at_cutoff(data.x_target_cal, cfg.alpha, u_star, tune), u_star
    return calibrate(data.x_target_cal.label_scores(data.y_target_cal_oracle), cfg.alpha), None  # oracle


def _losses(true_scores) -> tuple[float, float]:
    """The (ramp, hinge) population losses of a split's true-label scores."""
    return _population_loss(ramp_loss, true_scores), _population_loss(hinge_loss, true_scores)


def _slack_rule(alpha: float, source: ScoredView, source_scores, target_scores: list) -> list[dict]:
    """The slack rule's measured ingredients against each target split, and the slack it designs.

    Each entry holds both splits' (ramp, hinge) losses, the source
    undercoverage gap (absent where the source is too small to measure it)
    and ``tau``: :func:`tau_correction`'s slack, or the ``ValueError`` of a
    degenerate rule. The source side is measured once; the target losses
    (of its true-label scores) are oracle inputs.
    """
    side = dict(zip(("ramp_source", "hinge_source"), _losses(source_scores)))
    try:
        side["undercoverage_gap"] = _undercoverage_gap(source, source_scores, alpha)
    except ValueError as exc:
        side["tau"] = exc
    rules = []
    for scores in target_scores:
        rule = {**side, **dict(zip(("ramp_target_oracle", "hinge_target_oracle"), _losses(scores)))}
        if "tau" not in rule:
            try:
                rule["tau"] = tau_correction(rule["hinge_source"], rule["hinge_target_oracle"], rule["undercoverage_gap"])
            except ValueError as exc:
                rule["tau"] = exc
        rules.append(rule)
    return rules


def _design(alpha: float, source: ScoredView, source_scores, target_scores, where: str) -> dict:
    """:func:`_slack_rule` against one target; a degenerate rule is a :class:`DataError` whose message starts with ``where``."""
    (rule,) = _slack_rule(alpha, source, source_scores, [target_scores])
    if isinstance(rule["tau"], ValueError):
        names = ("hinge_source", "hinge_target_oracle", "undercoverage_gap")
        measured = ", ".join(f"{name}={rule[name]:.4g}" for name in names if name in rule)
        hint = "a larger calibration sample or a larger alpha stabilizes the undercoverage estimate"
        raise DataError(f"{where}: {rule['tau']} ({measured}); {hint}") from rule["tau"]
    return rule


#: An arm floored by its own cell: ``cor1_bound`` from the test split, ``thm2_bound`` wherever the source split is drawn.
CELL_FLOOR = "cell"


@dataclass(frozen=True)
class Arm:
    """One record of each cell: its method, :func:`_calibrate_method` rule, slack and floor.

    The floor is None, :data:`CELL_FLOOR`, or the (ramp, hinge) oracle target losses of ``cor1_bound``.
    """

    method: str
    rule: str
    tau: float | None
    floor: tuple[float, float] | str | None


def _sweep_arms(cfg: ExperimentConfig, design) -> list[Arm]:
    """A sweep's arms: each configured method by its own rule, ``hard_pseudo`` floored by its cell.

    Their slack is the tau policy's: none, the fixed value, or ``design()["tau"]`` under ``tau_design``.
    """
    kind = cfg.tau_policy_kind
    tau = None if kind == "none" else cfg.tau_policy_value if kind == "fixed" else design()["tau"]
    return [Arm(method, method, tau, CELL_FLOOR if method == "hard_pseudo" else None) for method in cfg.methods]


def _arm_record(alpha: float, arm: Arm, test: ScoredView, test_scores, sigma, trial, cal, u_star, thm2) -> TrialRecord:
    """An arm's record of ``cal`` on the scored test split: the one place a record's columns are decided.

    Coverage and set size at the arm's slack; ``u_star`` only for the source_tuned rule; ``thm2`` only for a
    :data:`CELL_FLOOR` arm; ``cor1_bound`` from the cell's oracle-flagged test-split losses, the arm's own, or none.
    """
    tau = 0.0 if arm.tau is None else arm.tau
    cor1 = None
    if arm.floor is not None:
        losses = _losses(test_scores) if arm.floor == CELL_FLOOR else arm.floor
        cor1 = relaxed_coverage_lower_bound(alpha, *losses, tau)
    return TrialRecord(
        method=arm.method,
        sigma=sigma,
        trial=trial,
        threshold=cal.threshold,
        u_star=u_star if arm.rule == "source_tuned" else None,
        tau=arm.tau,
        coverage=_covered_share(test_scores, cal, tau),
        ess=expected_set_size(None, test, cal, tau),
        thm2_bound=thm2 if arm.floor == CELL_FLOOR else None,
        cor1_bound=cor1,
    )


def _evaluate_cell(cfg: ExperimentConfig, data: TrialData, source_scores, test_scores, arms, sigma, trial: int, tune, thm2):
    """Each arm's record for one cell of scored splits (generator cell or logit table); each rule calibrates once."""
    calibrated, records = {}, []
    for arm in arms:
        if arm.rule not in calibrated:
            calibrated[arm.rule] = _calibrate_method(cfg, arm.rule, data, source_scores, tune)
        cal, u_star = calibrated[arm.rule]
        records.append(_arm_record(cfg.alpha, arm, data.x_target_test, test_scores, sigma, trial, cal, u_star, thm2))
    return records


def run_trial(cfg: ExperimentConfig, model, sigma_idx: int, trial: int, arms) -> list[TrialRecord]:
    """The records of one (sigma, trial) cell's arms ``arms[sigma_idx]``; only an arm's rule or floor draws the source split."""
    sigma, cell_arms = cfg.sigma_grid[sigma_idx], arms[sigma_idx]
    with_source = any(arm.rule in ("source", "source_tuned") or arm.floor == CELL_FLOOR for arm in cell_arms)
    raw = make_trial_data(cfg, sigma_idx, trial, with_source)
    data = replace(raw, x_target_cal=scored_view(model, raw.x_target_cal), x_target_test=scored_view(model, raw.x_target_test))
    source_scores = thm2 = None
    if with_source:
        data = replace(data, x_source=scored_view(model, raw.x_source))
        source_scores = data.x_source.label_scores(data.y_source)
        ramp_src, _ = _losses(source_scores)
        thm2 = pseudo_coverage_lower_bound(cfg.alpha, ramp_src, lipschitz_bound(model), cfg.rho_mix_certified(sigma))
    test_scores = data.x_target_test.label_scores(data.y_target_test)
    tune = _tune_stream(cfg, sigma_idx, trial)
    return _evaluate_cell(cfg, data, source_scores, test_scores, cell_arms, sigma, trial, tune, thm2)


def _workers(threads: int, n_items: int) -> int:
    """Worker processes for ``n_items`` CPU-bound items: at most ``threads``, items and usable cores; 1 without ``os.fork``."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(threads, n_items, cores) if hasattr(os, "fork") else 1


#: Item indices per write to :func:`_map`'s index pipe: one PIPE_BUF of 4-byte indices, which a pipe takes whole or not at all.
_DEAL = select.PIPE_BUF // 4


def _run_worker(fn, items: list, tasks: int, feed: int, pipe) -> None:
    """Child of :func:`_map`: run the items whose indices it takes from ``tasks``, pickle the outcome to ``pipe``, exit.

    The child takes one index at a time until the pipe ends or an item fails; it first closes its copy of the
    ``feed`` end, so the pipe ends once the parent has dealt every index.
    """
    done, failure, status = [], None, 1
    try:
        os.close(feed)
        while failure is None and (index := os.read(tasks, 4)):
            i = int.from_bytes(index, "little")
            try:
                done.append((i, fn(*items[i])))
            except Exception as exc:
                failure = (i, exc)
        try:
            data = pickle.dumps((done, failure))
        except Exception as exc:  # an unpicklable result or exception must still reach the parent
            unsent = RuntimeError(f"worker process {os.getpid()} cannot send its outcome: {exc!r}")
            data = pickle.dumps(([], (len(items) if failure is None else failure[0], unsent)))
        pipe.write(data)
        pipe.close()  # the parent sees the end of the outcome before this process is torn down
        status = 0
    finally:
        os._exit(status)


def _deal(feed: int, dealt: int, n_items: int) -> int:
    """Write the next :data:`_DEAL` item indices after ``dealt`` to ``feed``; return how many are dealt then."""
    chunk = np.arange(dealt, min(dealt + _DEAL, n_items), dtype="<u4")
    try:
        os.write(feed, chunk.tobytes())
    except BlockingIOError:  # the pipe has no room for a whole write yet
        return dealt
    return dealt + chunk.size


def _map(fn, items: list, threads: int) -> list:
    """``[fn(*args) for args in items]``, fanned out to forked worker processes.

    The parent deals item indices, in order, into one pipe shared by the
    :func:`_workers` children, and feeds it as they drain it, so any number
    of items is dealt and uneven items balance across the children. Each
    child (:func:`_run_worker`) runs the items it takes while the parent waits
    on every pipe at once; the results come back in item order, or the
    lowest failing item's exception is re-raised, as at one worker: every
    lower index was taken, and so run, before it. A child whose pipe ends
    without a readable outcome fails the call as soon as the parent sees it:
    the other children are killed and the dead one is named with its wait
    status. Fork is safe only in a single-threaded process, so the loop runs
    in-process at one worker and whenever another thread is alive.
    """
    workers = _workers(threads, len(items))
    if workers <= 1 or threading.active_count() > 1:
        return [fn(*args) for args in items]
    pids, fds, outcomes, statuses = [], [], {}, []
    dead = cause = None
    tasks, feed = os.pipe()  # the parent keeps the read end open, so a write never fails on a pipe all children left
    try:
        dealt = _deal(feed, 0, len(items))  # the first indices wait in the empty pipe before any child starts
        for w in range(workers):
            read_end, write_end = os.pipe()
            fds.append(read_end)
            with open(write_end, "wb") as pipe:
                pids.append(os.fork())
                if pids[-1] == 0:
                    _run_worker(fn, items, tasks, feed, pipe)
        os.set_blocking(feed, False)
        chunks = [[] for _ in fds]
        while dead is None and len(outcomes) < workers:
            if dealt == len(items) and feed is not None:
                os.close(feed)  # the pipe ends for the children once they have taken every index
                feed = None
            waiting = [fd for w, fd in enumerate(fds) if w not in outcomes]
            readable, writable, _ = select.select(waiting, [] if feed is None else [feed], [])
            if writable:
                dealt = _deal(feed, dealt, len(items))
            for fd in readable:
                w = fds.index(fd)
                data = os.read(fd, 1 << 16)
                if data:
                    chunks[w].append(data)
                    continue
                try:
                    outcomes[w] = pickle.loads(b"".join(chunks[w]))
                except Exception as exc:  # empty or truncated if the child died, or an exception that cannot be rebuilt
                    dead, cause = w, exc
                    break
    finally:
        for fd in [*fds, tasks] + ([] if feed is None else [feed]):
            os.close(fd)
        for w, pid in enumerate(pids):
            if w not in outcomes and w != dead:
                os.kill(pid, 9)  # SIGKILL; importing signal would cost every CLI start about 1 ms
            statuses.append(os.waitpid(pid, 0)[1])
    if dead is not None:
        raise RuntimeError(f"worker process {pids[dead]} sent no readable outcome (wait status {statuses[dead]})") from cause
    failed = [failure for _, failure in outcomes.values() if failure is not None]
    if failed:
        raise min(failed, key=lambda failure: failure[0])[1]
    results = dict(pair for done, _ in outcomes.values() for pair in done)
    return [results[i] for i in range(len(items))]


def _parallel_trials(cfg: ExperimentConfig, model, arms, threads: int) -> list[TrialRecord]:
    """Every cell's records of the run's per-sigma ``arms`` (:func:`run_trial`), ordered by arm, sigma and trial."""
    cells = [(si, t) for si in range(len(cfg.sigma_grid)) for t in range(cfg.trials)]
    chunks = _map(partial(run_trial, cfg, model, arms=arms), cells, threads)  # in grid order, each in arm order
    return [rec for arm_records in zip(*chunks) for rec in arm_records]


def run_sweep(cfg: ExperimentConfig, threads: int = 1) -> tuple[list[TrialRecord], list[dict]]:
    """Full method x sigma x trial grid plus per-(method, sigma) aggregates."""
    model = train_model(cfg)
    arms = [_sweep_arms(cfg, partial(tau_diagnostics, cfg, model, si)) for si in range(len(cfg.sigma_grid))]
    records = _parallel_trials(cfg, model, arms, threads)
    return records, aggregate_records(records)


def aggregate_records(records: list[TrialRecord]) -> list[dict]:
    """Mean and standard error of coverage/ESS per (method, sigma) group."""
    groups: dict[tuple[str, float | None], list[TrialRecord]] = {}
    for rec in records:
        groups.setdefault((rec.method, rec.sigma), []).append(rec)

    out = []
    for (method, sigma), rows in groups.items():
        cov = np.array([r.coverage for r in rows])
        ess = np.array([r.ess for r in rows])
        n = cov.size
        se = lambda v: float(v.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        bounds2 = [r.thm2_bound for r in rows if r.thm2_bound is not None]
        bounds1 = [r.cor1_bound for r in rows if r.cor1_bound is not None]
        out.append(
            {
                "method": method,
                "sigma": sigma,
                "trials": n,
                "mean_coverage": float(cov.mean()),
                "se_coverage": se(cov),
                "mean_ess": float(ess.mean()),
                "se_ess": se(ess),
                "mean_threshold": float(np.mean([r.threshold for r in rows])),
                "mean_thm2_bound": float(np.mean(bounds2)) if bounds2 else None,
                "mean_cor1_bound": float(np.mean(bounds1)) if bounds1 else None,
            }
        )
    return out


# ---------------------------------------------------------------------------
# Tau experiment


def tau_diagnostics(cfg: ExperimentConfig, model, sigma_idx: int) -> dict:
    """Per-sigma ingredients of the slack rule, measured on dedicated batches.

    The target hinge/ramp losses come from a held-out labeled target batch and
    are oracle inputs; everything else is source-measurable.
    """
    sigma = cfg.sigma_grid[sigma_idx]
    diag = RngStream(cfg.seed).substream("tau-diag", sigma_idx)
    # The slack rule divides by (source hinge loss - undercoverage gap), so the
    # gap estimate must be accurate relative to the hinge loss. These are
    # one-off per-sigma scalars; a generous batch keeps the denominator's sign
    # stable (the gap estimator halves its sample internally).
    n_diag = max(2 * cfg.n_cal, 8192)
    x_src, y_src = generate_source(cfg.source_spec, n_diag, diag.substream("source"))
    n_tgt = max(cfg.n_cal, n_diag // 2)
    x_tgt, y_tgt, _ = _shifted_sample(cfg, sigma, n_tgt, diag.substream("target-base"), diag.substream("target-shift"))
    target_scores = scored_view(model, x_tgt).label_scores(y_tgt)
    source = scored_view(model, x_src)
    design = _design(cfg.alpha, source, source.label_scores(y_src), target_scores, f"sigma={sigma}")
    return {"sigma": sigma, **{k: v for k, v in design.items() if k != "ramp_source"}}


def _tau_arms(diag: dict) -> list[Arm]:
    """A tau run's arms at one sigma: the hard threshold at slack 0 and at the designed slack, floored by the oracle losses."""
    losses = (diag["ramp_target_oracle"], diag["hinge_target_oracle"])
    return [Arm(method, "hard_pseudo", tau, losses) for method, tau in zip(TAU_METHODS, (0.0, diag["tau"]))]


def run_tau_experiment(cfg: ExperimentConfig, threads: int = 1) -> tuple[list[TrialRecord], list[dict]]:
    """Hard pseudo-calibration with and without the designed threshold slack.

    Emits paired records per trial: the unadjusted threshold (tau = 0) and the
    same threshold with the per-sigma slack added at evaluation time.
    """
    model = train_model(cfg)
    diagnostics = [tau_diagnostics(cfg, model, si) for si in range(len(cfg.sigma_grid))]
    return _parallel_trials(cfg, model, [_tau_arms(diag) for diag in diagnostics], threads), diagnostics


# ---------------------------------------------------------------------------
# Bounds report


def _bounds_report(alpha: float, tau_grid, lipschitz: float | None, cal, source, target_scores: list, per_sigma: list) -> dict:
    """A bounds report: each ``per_sigma`` entry completed by its target split's measured fields.

    ``cal`` and ``source`` are the source splits' scored views and labels. ``tau_rule`` is the slack ``tau``
    would design from the entry's splits, null where the rule is degenerate; the target losses are oracle
    inputs. Without a certified ``w1_score_bound``, the coverage gap is bounded at the measured score W1.
    """
    (view, y_src), (cal_view, y_cal) = source, cal
    src_scores, cal_scores = view.label_scores(y_src), cal_view.label_scores(y_cal)
    try:
        sup_density = sup_density_estimate(src_scores)
    except ValueError as exc:
        raise DataError(f"source_test scores: {exc}") from exc
    for entry, rule, scores in zip(per_sigma, _slack_rule(alpha, view, src_scores, target_scores), target_scores):
        tau, losses, w1 = rule.pop("tau"), (rule["ramp_target_oracle"], rule["hinge_target_oracle"]), w1_1d(src_scores, scores)
        certified_w1 = entry["w1_score_bound"]
        entry.update(
            rule,
            tau_rule=None if isinstance(tau, ValueError) else tau,
            w1_scores_measured=w1,
            coverage_gap_measured=integrated_coverage_gap(cal_scores, src_scores, scores).integrated,
            coverage_gap_bound=coverage_gap_bound(sup_density, w1 if certified_w1 is None else certified_w1),
            relaxed_coverage_lower=[[t, relaxed_coverage_lower_bound(alpha, *losses, t)] for t in tau_grid],
        )
    return {
        "alpha": alpha,
        "lipschitz": lipschitz,
        "sup_density_source": sup_density,
        "oracle_inputs": ["ramp_target_oracle", "hinge_target_oracle"],
        "per_sigma": per_sigma,
    }


def run_bounds_report(cfg: ExperimentConfig) -> dict:
    """Evaluate every bound from measured and generator-certified quantities.

    Every split is drawn, and every class pair subsampled, before the fit: those draws need no model. The fit
    and the independent assignment solves then share one worker pool, the fit as item 0. A draw that fails
    first checks the fit in-process, so a config whose fit fails still reports the fit's error.
    """
    root = RngStream(cfg.seed).substream("bounds")
    try:
        with np.errstate(over="ignore"):  # an overflowing draw fails its shift, without a numpy warning
            x_cal, y_cal = generate_source(cfg.source_spec, cfg.n_cal, root.substream("source-cal"))
            x_src, y_src = generate_source(cfg.source_spec, cfg.n_test, root.substream("source-test"))
            targets, pairs = [], []
            for si, sigma in enumerate(cfg.sigma_grid):
                stream = root.substream("target", si)
                x_tgt, yb, xb = _shifted_sample(cfg, sigma, cfg.n_test, stream.substream("base"), stream.substream("shift"))
                targets.append((x_tgt, yb))
                class_rows = [np.nonzero(yb == c)[0] for c in range(1, cfg.source_spec.n_classes + 1)]
                measured = all(rows.size >= 2 for rows in class_rows)  # else the sigma's measured fields stay null
                pairs.append([_subsampled_pairs(xb[rows], x_tgt[rows], seed=cfg.seed) for rows in class_rows] if measured else [])
    except Exception:
        train_model(cfg)  # a failing fit is reported first, as if it had run before the draws
        raise
    # The solver is loaded before the fork: each worker would otherwise load it again on every call.
    items = [(train_model, cfg)] + [(w1_assignment, *pair) for sigma_pairs in pairs for pair in sigma_pairs]
    if len(items) > 1:
        _linear_sum_assignment()
    model, *solved = _map(lambda fn, *args: fn(*args), items, len(items))
    lip = lipschitz_bound(model)
    solved = iter(solved)
    per_sigma = []
    for sigma, sigma_pairs in zip(cfg.sigma_grid, pairs):
        rho_certified = cfg._grid_shifts[sigma].rho_true
        per_sigma.append(
            {
                "sigma": sigma,
                "rho_certified": rho_certified,
                "rho_mix_certified": cfg.rho_mix_certified(sigma),
                "per_class_w1_paired": None,
                "rho_mix_measured": None,
                "w1_score_bound": score_shift_w1_bound(lip, rho_certified),
            }
        )
        if sigma_pairs:
            per_class_w1 = [next(solved) for _ in sigma_pairs]
            per_sigma[-1].update(per_class_w1_paired=per_class_w1, rho_mix_measured=rho_mix(cfg.source_spec.priors, per_class_w1))
    target_scores = [scored_view(model, x).label_scores(y) for x, y in targets]
    cal, source = (scored_view(model, x_cal), y_cal), (scored_view(model, x_src), y_src)
    report = _bounds_report(cfg.alpha, cfg.tau_grid, lip, cal, source, target_scores, per_sigma)
    for entry in per_sigma:  # the certified floor, at the measured source ramp loss
        ramp, rho = entry["ramp_source"], entry["rho_mix_certified"]
        entry["pseudo_coverage_lower"] = pseudo_coverage_lower_bound(cfg.alpha, ramp, lip, rho)
    return report


def run_bounds_report_from_table(table: LogitTable, alpha: float, tau_grid) -> dict:
    """Bounds computable from ingested logits alone; shift-certificate terms are null."""
    tags = ("source_cal", "source_test", "target_test")
    cal, source, (target, y_tgt) = _table_splits(table, tags, labeled=tags)
    certified = ("sigma", "rho_certified", "rho_mix_certified", "per_class_w1_paired", "rho_mix_measured", "w1_score_bound")
    entry = dict.fromkeys((*certified, "pseudo_coverage_lower"))
    return _bounds_report(alpha, tau_grid, None, cal, source, [target.label_scores(y_tgt)], [entry])


# ---------------------------------------------------------------------------
# Tuning trace


def run_tune(cfg: ExperimentConfig) -> tuple[list[dict], dict]:
    """Source sweep trace of the entropy cutoff plus per-sigma target thresholds."""
    model = train_model(cfg)
    grid = cfg.uncertainty_grid()
    root = RngStream(cfg.seed).substream("tune-run")
    x_src, y_src = generate_source(cfg.source_spec, cfg.n_cal, root.substream("source"))
    trace = _curve_with_thresholds(model, x_src, y_src, cfg.alpha, grid, root.substream("source-labels"))
    u_star = select_u_star([(u, c) for u, c, _ in trace], cfg.alpha)

    per_sigma = []
    for si, sigma in enumerate(cfg.sigma_grid):
        stream = root.substream("target", si)
        x_tgt, _, _ = _shifted_sample(cfg, sigma, cfg.n_cal, stream.substream("base"), stream.substream("shift"))
        cal = pseudo_calibrate(model, x_tgt, cfg.alpha, u=u_star, rng=stream.substream("labels"))
        per_sigma.append({"sigma": sigma, "target_threshold": cal.threshold, "n": cfg.n_cal})

    rows = [{"u": u, "c_hat": c, "source_threshold": thr} for u, c, thr in trace]
    return rows, {"u_star": u_star, "per_sigma": per_sigma}


# ---------------------------------------------------------------------------
# Logit-table-backed runs


def _table_splits(table: LogitTable, tags, labeled) -> list[tuple[ScoredView, np.ndarray]]:
    """Each split's scored view and labels; no rows, or a MISSING label in a ``labeled`` split, is a :class:`DataError`."""
    splits = []
    for tag in tags:
        rows = table.rows(tag)
        y = table.labels[rows]
        if y.size == 0:
            raise DataError(f"logit table split {tag} has no rows; this run needs {', '.join(tags)}")
        if tag in labeled and (y == MISSING_LABEL).any():
            raise DataError(f"logit table split {tag} has MISSING labels; this run needs them in {', '.join(labeled)}")
        splits.append((ScoredView(table.logits[rows]), y))
    return splits


def _table_cell(table: LogitTable, cfg: ExperimentConfig):
    """A logit-table run's one cell: its scored splits as :class:`TrialData`, their true-label scores and its arms.

    ``tau_design`` designs the slack on the source_cal and target_test splits. The default cutoff grid spans
    [0, ln K] for the config's K, so ``source_tuned`` on a table of another class count needs ``u_grid``.
    """
    k, k_cfg = table.n_classes, cfg.source_spec.n_classes
    if cfg.u_grid is None and "source_tuned" in cfg.methods and k != k_cfg:
        raise ConfigError(f"the table has {k} classes, the config {k_cfg}: its default u_grid ends at ln {k_cfg}; set u_grid")
    labeled = ("source_cal", "target_test", *(("target_cal",) if "oracle" in cfg.methods else ()))
    (source, y_src), (cal, y_tc), (test, y_tt) = _table_splits(table, ("source_cal", "target_cal", "target_test"), labeled)
    source_scores, test_scores = source.label_scores(y_src), test.label_scores(y_tt)
    arms = _sweep_arms(cfg, partial(_design, cfg.alpha, source, source_scores, test_scores, "tau_design policy failed"))
    return TrialData(source, y_src, cal, y_tc, test, y_tt), source_scores, test_scores, arms


def run_sweep_from_table(table: LogitTable, cfg: ExperimentConfig) -> tuple[list[TrialRecord], list[dict]]:
    """One-shot sweep over an ingested logit table, its only batch (:func:`_table_cell`)."""
    data, source_scores, test_scores, arms = _table_cell(table, cfg)
    tune = RngStream(cfg.seed).substream("table-tune")
    records = _evaluate_cell(cfg, data, source_scores, test_scores, arms, None, 0, tune, None)
    return records, aggregate_records(records)


# ---------------------------------------------------------------------------
# Output formatting


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(int(value))
    return f"{float(value):.9g}"


def _write_csv(path, rows: list[dict]) -> None:
    """A header line of the first row's keys, then each row's values under them formatted by :func:`_fmt`."""
    columns = list(rows[0])
    with _output_file(path, newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_fmt(row[c]) for c in columns] for row in rows)


def write_records_csv(path, records: list[TrialRecord]) -> None:
    _write_csv(path, [vars(r) for r in records])


def write_aggregate_csv(path, aggregates: list[dict]) -> None:
    _write_csv(path, aggregates)


def _write_json(path, payload) -> None:
    with _output_file(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Replay audit


def read_records_csv(path) -> list[dict]:
    reader = csv.reader(_utf8_lines(path))
    header = next(reader, None)
    if header != list(RECORD_COLUMNS):
        raise DataError(f"{path}: unexpected records header {header}")
    rows = []
    for row in reader:
        if len(row) != len(RECORD_COLUMNS):
            raise DataError(f"{path}: line {reader.line_num}: expected {len(RECORD_COLUMNS)} fields, got {len(row)}")
        rows.append(dict(zip(RECORD_COLUMNS, row)))
    return rows


def _where(name: str, method: str, sigma: str, trial: str) -> str:
    """A record as a mismatch line names it: its file, method and cell, in the records' own text."""
    return f"{name}: {method} sigma={sigma} trial={trial}"


def _audit_cell(cfg: ExperimentConfig, model, table_split, arms: dict, cell: tuple[int, int], group) -> list[str]:
    """Mismatch messages of one (sigma index, trial) cell's records against the run's ``arms`` of each records file.

    ``table_split`` is the logit table's scored test split and labels, if
    any. Each row is rebuilt by :func:`_arm_record` from its threshold text;
    ``u_star`` and ``thm2_bound`` need the source and tuning draws, so the
    builder gets the row's own text and keeps it where the arm fills them.
    """
    si, trial = cell
    if table_split is None:
        x_tt, y = _target_split(cfg, _cell_stream(cfg, si, trial), si, "target-test", cfg.n_test)
        view = scored_view(model, x_tt)
    else:
        view, y = table_split
    test_scores = view.label_scores(y)
    mismatches = []
    for name, row in group:
        arm = next(arm for arm in arms[name][si] if arm.method == row["method"])
        where = _where(name, arm.method, row["sigma"], row["trial"])
        try:
            cal = CalibrationResult(threshold=float(row["threshold"]), alpha=cfg.alpha, n=cfg.n_cal, level=float("nan"))
            thm2 = row["thm2_bound"] if table_split is None else None
            rec = _arm_record(cfg.alpha, arm, view, test_scores, row["sigma"], row["trial"], cal, row["u_star"], thm2)
        except ValueError as exc:
            mismatches.append(f"{where}: {exc}")
            continue
        texts = zip(RECORD_COLUMNS, map(_fmt, vars(rec).values()))
        wrong = [f"{col} {row[col] or '(empty)'} -> {text or '(empty)'}" for col, text in texts if text != row[col]]
        if wrong:
            mismatches.append(f"{where}: {', '.join(wrong)}")
    return mismatches


def replay_audit(out_dir, threads: int = 1, seed: int | None = None) -> int:
    """Rebuild each record from its threshold, its run's arms and its cell's regenerated test split.

    The arms are the run's own: ``records.csv`` gets the sweep's methods at
    the slack its tau policy resolves once per sigma, and ``tau_records.csv``
    the ``tau`` run's two arms from each sigma's :func:`tau_diagnostics`; the
    slack designs run only when a present file needs them. A records file must
    hold one row per arm of the file and cell of the config's grid (the one
    cell of a logit-table run, which writes no ``tau_records.csv``), named by
    the text the writer printed; a missing, extra or repeated row is a
    mismatch. Each row, rebuilt by :func:`_arm_record` and formatted as written,
    must match byte for byte (see :func:`_audit_cell`). Up to ``threads``
    worker processes audit cells in parallel; a ``seed`` other than the run's
    recorded one is a :class:`ConfigError`.
    Returns the number of audited rows; raises :class:`InvariantError` on any mismatch.
    """
    out = Path(out_dir)
    config_path = out / "config.json"
    if not config_path.exists():
        raise ConfigError(f"{config_path} not found; replay needs the resolved config of the run")
    resolved = _read_config(config_path)
    logits_path = resolved.pop("logits", None)
    if not isinstance(logits_path, (str, type(None))):
        raise ConfigError(f"{config_path}: logits must be the path of a logit table, got {logits_path!r}")
    cfg = ExperimentConfig.from_dict(resolved)
    if seed is not None and seed != cfg.seed:
        raise ConfigError(f"seed {seed} differs from the seed {cfg.seed} recorded in {config_path}")

    files = [name for name in ("records.csv", "tau_records.csv") if (out / name).exists()]
    if not files:
        raise DataError(f"no records.csv or tau_records.csv under {out}")

    model = table_split = None
    if logits_path is not None:  # the arms of the one cell the run built; tau takes no --logits, so it has no tau arms
        data, _, _, table_arms = _table_cell(load_logit_table(logits_path), cfg)
        table_split, sigmas, trials = (data.x_target_test, data.y_target_test), [_fmt(None)], 1
        arms = {"records.csv": [table_arms], "tau_records.csv": [[]]}
    else:  # each present file's per-sigma arms, as its run resolved them; a design runs only where an arm needs it
        model = train_model(cfg)
        diagnostics = cache(partial(tau_diagnostics, cfg, model))  # shared by both files' arms
        sigmas, trials = list(map(_fmt, cfg.sigma_grid)), cfg.trials
        arms = {}
        if "records.csv" in files:
            arms["records.csv"] = [_sweep_arms(cfg, partial(diagnostics, si)) for si in range(len(sigmas))]
        if "tau_records.csv" in files:
            arms["tau_records.csv"] = [_tau_arms(diagnostics(si)) for si in range(len(sigmas))]
    grid = {(sigma, _fmt(t)): (si, t) for si, sigma in enumerate(sigmas) for t in range(trials)}

    rows = [(name, row) for name in files for row in read_records_csv(out / name)]
    counts = Counter((name, row["method"], row["sigma"], row["trial"]) for name, row in rows)
    expected = {(name, arm.method, *key) for name in files for key, (si, _) in grid.items() for arm in arms[name][si]}
    mismatches = [f"{_where(*key)}: missing" for key in sorted(expected - counts.keys())]
    mismatches += [f"{_where(*key)}: not in the config's grid" for key in sorted(counts.keys() - expected)]
    mismatches += [f"{_where(*key)}: repeated {n} times" for key, n in counts.items() if n > 1]

    cells: dict[tuple, list[tuple[str, dict]]] = {}
    for name, row in rows:
        if (name, row["method"], row["sigma"], row["trial"]) in expected:
            cells.setdefault(grid[row["sigma"], row["trial"]], []).append((name, row))
    audit = partial(_audit_cell, cfg, model, table_split, arms)
    mismatches += [msg for msgs in _map(audit, list(cells.items()), threads) for msg in msgs]
    for msg in mismatches:
        print(f"replay mismatch: {msg}", file=sys.stderr)
    if mismatches:
        raise InvariantError(f"{len(mismatches)} of {len(rows)} records failed the replay audit")
    return len(rows)


# ---------------------------------------------------------------------------
# Subcommand drivers


def _cmd_gen(cfg: ExperimentConfig, args, *paths: Path) -> None:
    for si, path in enumerate(paths):
        with np.errstate(over="ignore"):  # an overflowing draw fails its shift, without a numpy warning
            data = make_trial_data(cfg, si, 0)
        x_st, y_st = generate_source(cfg.source_spec, cfg.n_test, RngStream(cfg.seed).substream("gen-source-test", si))
        xs = (data.x_source, x_st, data.x_target_cal, data.x_target_test)  # one split per tag of SPLIT_TAGS
        ys = (data.y_source, y_st, data.y_target_cal_oracle, data.y_target_test)
        tags = [tag for tag, y in zip(SPLIT_TAGS, ys) for _ in range(y.size)]
        write_dataset_csv(path, tags, np.concatenate(ys), np.vstack(xs))
        print(f"wrote {path}")


def _cmd_train(cfg: ExperimentConfig, args, classifier_json: Path) -> None:
    model, x, y = _train(cfg)
    acc = float(np.mean(predict(model, x) == y))
    payload = {
        "weights": model.weights.tolist(),
        "biases": model.biases.tolist(),
        "n_train": cfg.n_train,
        "epochs": cfg.epochs,
        "learning_rate": cfg.learning_rate,
        "train_accuracy": acc,
        "lipschitz": lipschitz_bound(model),
    }
    _write_json(classifier_json, payload)
    print(f"wrote {classifier_json} (train accuracy {acc:.4f})")


def _cmd_sweep(cfg: ExperimentConfig, args, records_csv: Path, aggregate_csv: Path) -> None:
    if args.logits:
        records, aggregates = run_sweep_from_table(load_logit_table(args.logits), cfg)
    else:
        records, aggregates = run_sweep(cfg, threads=args.threads)
    write_records_csv(records_csv, records)
    write_aggregate_csv(aggregate_csv, aggregates)
    print(f"wrote {records_csv} ({len(records)} records)")


def _cmd_tau(cfg: ExperimentConfig, args, records_csv: Path, diagnostics_json: Path, aggregate_csv: Path) -> None:
    records, diagnostics = run_tau_experiment(cfg, threads=args.threads)
    write_records_csv(records_csv, records)
    _write_json(diagnostics_json, diagnostics)
    write_aggregate_csv(aggregate_csv, aggregate_records(records))
    print(f"wrote {records_csv} ({len(records)} records)")


def _cmd_bounds(cfg: ExperimentConfig, args, bounds_json: Path) -> None:
    if args.logits:
        report = run_bounds_report_from_table(load_logit_table(args.logits), cfg.alpha, cfg.tau_grid)
    else:
        report = run_bounds_report(cfg)
    _write_json(bounds_json, report)
    print(f"wrote {bounds_json}")


def _cmd_tune(cfg: ExperimentConfig, args, trace_csv: Path, result_json: Path) -> None:
    rows, result = run_tune(cfg)
    _write_csv(trace_csv, rows)
    _write_json(result_json, result)
    print(f"wrote {trace_csv} (u_star = {_fmt(result['u_star'])})")


def _cmd_replay(cfg: None, args) -> None:
    audited = replay_audit(args.out, threads=args.threads, seed=args.seed)
    print(f"replay audit passed: {audited} records verified")


_FLAGS = {
    "--config": {"default": None, "help": "JSON config file (defaults are used when omitted)"},
    "--seed": {"type": int, "default": None, "help": "override the config seed (replay: must equal the run's)"},
    "--out": {"default": "shiftcp-out", "help": "output directory (replay: the run to audit)"},
    "--threads": {"type": int, "default": 1, "help": "worker processes for the trial cells (at least 1)"},
    "--logits": {"default": None, "help": "ingest externally computed logits from this CSV table"},
}

_RUN_FLAGS = ("--config", "--seed", "--out")

#: Each subcommand's driver, help line, flags and output names, in the order ``--help`` lists them. The
#: driver takes the names' paths under ``--out`` in order; a ``{sigma_idx}`` name is one file per sigma.
_COMMANDS = {
    "gen": (_cmd_gen, "emit the synthetic dataset splits as CSV", _RUN_FLAGS, ("dataset_sigma_{sigma_idx}.csv",)),
    "train": (_cmd_train, "fit the classifier and dump it as JSON", _RUN_FLAGS, ("classifier.json",)),
    "sweep": (
        _cmd_sweep,
        "run the full method x shift x trial experiment",
        (*_RUN_FLAGS, "--threads", "--logits"),
        ("records.csv", "aggregate.csv"),
    ),
    "tau": (
        _cmd_tau,
        "run the threshold-slack correction experiment",
        (*_RUN_FLAGS, "--threads"),
        ("tau_records.csv", "tau_diagnostics.json", "tau_aggregate.csv"),
    ),
    "bounds": (_cmd_bounds, "evaluate the coverage bounds into a JSON report", (*_RUN_FLAGS, "--logits"), ("bounds.json",)),
    "tune": (_cmd_tune, "trace the source sweep of the entropy cutoff", _RUN_FLAGS, ("tune_trace.csv", "tune_result.json")),
    # replay reads the audited run's own config.json, so it takes no --config, and it writes nothing.
    "replay": (_cmd_replay, "audit an output directory by recomputing coverage/ESS", ("--seed", "--out", "--threads"), ()),
}


@cache  # built once per process: main's every call parses with the same tree
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shiftcp",
        description="Conformal prediction under bounded covariate shift: experiments, bounds and audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    """Run one subcommand; its outputs, and the ``config.json`` of a run that took ``--config``, go to ``--out``."""
    args = build_parser().parse_args(argv)
    (run, _, _, names), out = _COMMANDS[args.command], Path(args.out)
    cfg, paths = None, []  # replay takes no --config: --out is the run it audits, and it writes nothing there
    try:
        if getattr(args, "threads", 1) < 1:
            raise ConfigError(f"--threads must be at least 1, got {args.threads}")
        if "config" in args:
            cfg = load_config(args.config, seed_override=args.seed)
            try:
                out.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise ConfigError(f"cannot create the output directory {out}: {exc}") from exc
            paths = [out / n.format(sigma_idx=si) for n in names for si in range(len(cfg.sigma_grid) if "{" in n else 1)]
            for path in (*paths, out / "config.json"):  # a taken name fails the run before any fit or draw
                if path.is_dir() or (path.exists() and not os.access(path, os.W_OK)):
                    raise ConfigError(f"cannot write {path}: a directory, or a file this process cannot write, holds the name")
        run(cfg, args, *paths)
        if cfg is not None:
            logits = vars(args).get("logits")
            _write_json(out / "config.json", {**cfg.resolved(), **({"logits": str(Path(logits).resolve())} if logits else {})})
        return 0
    except MemoryError as exc:
        counts = f"the counts in {out / 'config.json'}"
        if cfg is not None:
            counts = f"n_train {cfg.n_train}, n_cal {cfg.n_cal}, n_test {cfg.n_test} and trials {cfg.trials}"
        print(f"config error: {counts} need more memory than this process can allocate: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except InvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
