"""Experiment orchestration CLI.

Subcommands reproduce the evaluation protocol end to end on synthetic data
with analytically certified shift sizes: ``sweep`` compares the four
calibration strategies over a shift-strength grid, ``tau`` runs the
threshold-slack correction experiment, ``bounds`` evaluates every coverage
bound from measured and certified quantities, ``tune`` traces the source
sweep of the entropy cutoff, ``gen``/``train`` export datasets and the fitted
classifier, ``replay`` re-derives every emitted coverage/ESS figure from the
emitted thresholds, and ``selftest`` runs the built-in oracle equivalence
suite.

All outputs are machine-readable (CSV/JSON); a resolved copy of the
configuration is written next to them so each run is self-describing. Runs
are deterministic for a fixed config and seed regardless of ``--threads``.
"""

from __future__ import annotations

import argparse
import copy
import csv
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .conformal import CalibrationResult, calibrate, coverage, expected_set_size, integrated_coverage_gap
from .exceptions import ConfigError, DataError, InvariantError
from .pseudo import UncertaintyGrid, pseudo_calibrate, select_u_star, source_tuned_calibrate
from .pseudo import _curve_with_thresholds
from .rng import RngStream
from .scores import (
    ScoredView,
    lipschitz_bound,
    population_hinge_loss,
    population_ramp_loss,
    predict,
    score,
    scored_view,
)
from .shift_bounds import (
    coverage_gap_bound,
    kantorovich_rubinstein_holds,
    pseudo_coverage_lower_bound,
    relaxed_coverage_lower_bound,
    rho_mix,
    score_shift_w1_bound,
    sup_density_estimate,
    tau_correction,
    undercoverage_gap_estimate,
    w1_1d,
    w1_assignment,
    w1_assignment_subsampled,
)
from .synthetic import (
    LogitTable,
    ShiftSpec,
    SourceSpec,
    apply_shift,
    generate_source,
    load_logit_table,
    logit_table_as_map,
    train_classifier,
    write_dataset_csv,
)

METHODS = ("source", "hard_pseudo", "source_tuned", "oracle")

RECORD_COLUMNS = ("method", "sigma", "trial", "threshold", "u_star", "tau", "coverage", "ess", "thm2_bound", "cor1_bound")

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

        if not isinstance(merged["methods"], list) or not all(isinstance(m, str) for m in merged["methods"]):
            raise ConfigError("methods must be a list of method names")
        methods = tuple(merged["methods"])
        unknown = [m for m in methods if m not in METHODS]
        if unknown:
            raise ConfigError(f"unknown method(s) {unknown}; choose from {list(METHODS)}")
        if not methods:
            raise ConfigError("methods must be nonempty")

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
        if not (0.0 < alpha < 1.0):
            raise ConfigError(f"alpha must lie in (0, 1), got {alpha}")
        counts = {name: _integer(name, merged[name]) for name in ("n_train", "n_cal", "n_test", "trials")}
        for name, val in counts.items():
            if val < 1:
                raise ConfigError(f"{name} must be at least 1")
        epochs = _integer("train.epochs", merged["train"]["epochs"])
        learning_rate = _real("train.learning_rate", merged["train"]["learning_rate"])
        if epochs < 1 or learning_rate <= 0:
            raise ConfigError("train.epochs must be >= 1 and train.learning_rate positive")

        return cls(
            seed=_integer("seed", merged["seed"]),
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

    def uncertainty_grid(self) -> UncertaintyGrid:
        if self.u_grid is not None:
            return UncertaintyGrid(np.asarray(self.u_grid, dtype=float))
        return UncertaintyGrid.default(self.source_spec.n_classes)

    def rho_mix_certified(self, sigma: float) -> float:
        """Generator-certified mixture shift bound at strength sigma."""
        per_class = self.shift_spec.scaled(sigma).per_class_rho()
        return float(self.source_spec.priors @ per_class)


def _integer(name: str, value) -> int:
    """A JSON integer; an integral float is accepted, anything else is a config error."""
    if isinstance(value, bool) or not (isinstance(value, int) or (isinstance(value, float) and value.is_integer())):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
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


def load_config(path: str | None, seed_override: int | None = None) -> ExperimentConfig:
    raw: dict = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config document must be a JSON object")
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
    raw inputs or each split's scored view.
    """

    x_source: np.ndarray | ScoredView
    y_source: np.ndarray
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


def _shifted_sample(cfg: ExperimentConfig, sigma: float, n: int, base: RngStream, shift: RngStream):
    """``n`` source draws from ``base`` shifted at strength ``sigma`` by ``shift``: (shifted x, y, base x)."""
    xb, yb = generate_source(cfg.source_spec, n, base)
    return apply_shift(xb, yb, cfg.shift_spec.scaled(sigma), shift), yb, xb


def _target_split(cfg: ExperimentConfig, sigma_idx: int, trial: int, name: str, n: int):
    """Shifted target split ``name`` of a cell and its labels, drawn from the cell's own substreams."""
    cell = RngStream(cfg.seed).substream("trial", sigma_idx, trial)
    sigma = cfg.sigma_grid[sigma_idx]
    x, y, _ = _shifted_sample(cfg, sigma, n, cell.substream(f"{name}-base"), cell.substream(f"{name}-shift"))
    return x, y


def make_trial_data(cfg: ExperimentConfig, sigma_idx: int, trial: int) -> TrialData:
    """Regenerate the splits of one (sigma, trial) cell from its derived streams."""
    cell = RngStream(cfg.seed).substream("trial", sigma_idx, trial)
    x_src, y_src = generate_source(cfg.source_spec, cfg.n_cal, cell.substream("source-cal"))
    x_tc, y_tc = _target_split(cfg, sigma_idx, trial, "target-cal", cfg.n_cal)
    x_tt, y_tt = _target_split(cfg, sigma_idx, trial, "target-test", cfg.n_test)
    return TrialData(
        x_source=x_src,
        y_source=y_src,
        x_target_cal=x_tc,
        y_target_cal_oracle=y_tc,
        x_target_test=x_tt,
        y_target_test=y_tt,
    )


def _tune_stream(cfg: ExperimentConfig, sigma_idx: int, trial: int) -> RngStream:
    return RngStream(cfg.seed).substream("trial", sigma_idx, trial, "tune")


def _assert_score_invariants(model, x, y) -> None:
    """Pointwise relations between true-label and pseudo-label scores.

    On every synthetic trial: the pseudo score never exceeds the true score,
    they coincide on correctly classified points, and the excess on
    misclassified points is at most twice the (positive) true score.
    """
    view = scored_view(model, x)
    s_true = score(model, view, y)
    s_pseudo = score(model, view, predict(model, view))
    if not (s_true >= s_pseudo - 1e-9).all():
        raise InvariantError("pseudo score exceeded the true-label score")
    correct = np.asarray(y) == predict(model, view)
    if correct.any() and not np.allclose(s_true[correct], s_pseudo[correct], rtol=0.0, atol=1e-12):
        raise InvariantError("scores differ on correctly classified points")
    wrong = ~correct
    if wrong.any():
        excess = s_true[wrong] - s_pseudo[wrong]
        if not (excess <= 2.0 * s_true[wrong] + 1e-9).all():
            raise InvariantError("score excess exceeded twice the negated margin on a misclassified point")


def train_model(cfg: ExperimentConfig):
    """Train the fixed classifier used by every trial of a run."""
    x, y = generate_source(cfg.source_spec, cfg.n_train, RngStream(cfg.seed).substream("train-data"))
    return train_classifier(x, y, epochs=cfg.epochs, learning_rate=cfg.learning_rate)


def _calibrate_method(cfg: ExperimentConfig, model, method: str, data: TrialData, tune: RngStream):
    """Threshold for one calibration strategy; target labels reach only the oracle arm."""
    if method == "source":
        return calibrate(score(model, data.x_source, data.y_source), cfg.alpha), None
    if method == "hard_pseudo":
        return pseudo_calibrate(model, data.x_target_cal, cfg.alpha), None
    if method == "source_tuned":
        tuning, cal = source_tuned_calibrate(
            model,
            data.x_source,
            data.y_source,
            data.x_target_cal,
            cfg.alpha,
            grid=cfg.uncertainty_grid(),
            rng=tune,
        )
        return cal, tuning
    if method == "oracle":
        return calibrate(score(model, data.x_target_cal, data.y_target_cal_oracle), cfg.alpha), None
    raise ConfigError(f"unknown method {method!r}")


def _tau_design(model, alpha: float, source, y_source, target, y_target, where: str) -> dict:
    """The slack rule's measured ingredients and the slack it designs.

    The target hinge loss is an oracle input. A degenerate rule is a
    :class:`DataError` whose message starts with ``where``.
    """
    design = {
        "hinge_source": population_hinge_loss(model, source, y_source),
        "hinge_target_oracle": population_hinge_loss(model, target, y_target),
    }
    try:
        design["undercoverage_gap"] = undercoverage_gap_estimate(model, source, y_source, alpha)
        design["tau"] = tau_correction(design["hinge_source"], design["hinge_target_oracle"], design["undercoverage_gap"])
    except ValueError as exc:
        measured = ", ".join(f"{name}={value:.4g}" for name, value in design.items())
        raise DataError(
            f"{where}: {exc} ({measured}); "
            "a larger calibration sample or a larger alpha stabilizes the undercoverage estimate"
        ) from exc
    return design


def _trial_tau(cfg: ExperimentConfig, model, data: TrialData) -> float | None:
    """Slack applied to prediction sets under the configured tau policy."""
    if cfg.tau_policy_kind == "none":
        return None
    if cfg.tau_policy_kind == "fixed":
        return cfg.tau_policy_value
    # tau_design measures the target hinge loss on the evaluation split.
    design = _tau_design(
        model, cfg.alpha, data.x_source, data.y_source, data.x_target_test, data.y_target_test, "tau_design policy failed"
    )
    return design["tau"]


def _record(model, test: ScoredView, y_test, method: str, sigma, trial: int, cal, tau, u_star=None, thm2=None, cor1=None):
    """One method's record: coverage and set size of ``cal`` plus slack ``tau`` on the scored test split."""
    tau_eff = 0.0 if tau is None else tau
    return TrialRecord(
        method=method,
        sigma=sigma,
        trial=trial,
        threshold=cal.threshold,
        u_star=u_star,
        tau=tau,
        coverage=coverage(model, test, y_test, cal, tau_eff),
        ess=expected_set_size(model, test, cal, tau_eff),
        thm2_bound=thm2,
        cor1_bound=cor1,
    )


def _evaluate_cell(cfg: ExperimentConfig, model, data: TrialData, sigma, trial: int, tune: RngStream, thm2):
    """Every method's record for one cell of scored splits (generator cell or logit table)."""
    test, y_test = data.x_target_test, data.y_target_test
    _assert_score_invariants(model, test, y_test)
    tau = _trial_tau(cfg, model, data)
    # Oracle-flagged target losses back the relaxed bound column.
    ramp_tgt = population_ramp_loss(model, test, y_test)
    hinge_tgt = population_hinge_loss(model, test, y_test)
    cor1 = relaxed_coverage_lower_bound(cfg.alpha, ramp_tgt, hinge_tgt, 0.0 if tau is None else tau)

    records = []
    for method in cfg.methods:
        cal, tuning = _calibrate_method(cfg, model, method, data, tune)
        bounds = (thm2, cor1) if method == "hard_pseudo" else (None, None)
        u_star = tuning.u_star if tuning is not None else None
        records.append(_record(model, test, y_test, method, sigma, trial, cal, tau, u_star, *bounds))
    return records


def run_trial(cfg: ExperimentConfig, model, sigma_idx: int, trial: int) -> list[TrialRecord]:
    """All method records of one (sigma, trial) cell, sharing the same scored data."""
    sigma = cfg.sigma_grid[sigma_idx]
    raw = make_trial_data(cfg, sigma_idx, trial)
    data = replace(
        raw,
        x_source=scored_view(model, raw.x_source),
        x_target_cal=scored_view(model, raw.x_target_cal),
        x_target_test=scored_view(model, raw.x_target_test),
    )
    ramp_src = population_ramp_loss(model, data.x_source, data.y_source)
    thm2 = pseudo_coverage_lower_bound(cfg.alpha, ramp_src, lipschitz_bound(model), cfg.rho_mix_certified(sigma))
    return _evaluate_cell(cfg, model, data, sigma, trial, _tune_stream(cfg, sigma_idx, trial), thm2)


def _map(fn, items: list, threads: int) -> list:
    """``[fn(item) for item in items]``, on ``threads`` worker threads when above 1."""
    if threads <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _parallel_trials(cfg: ExperimentConfig, worker, threads: int) -> list[TrialRecord]:
    """The records ``worker(sigma_idx, trial)`` returns for every cell, in grid order."""
    cells = [(si, t) for si in range(len(cfg.sigma_grid)) for t in range(cfg.trials)]
    return [rec for chunk in _map(lambda cell: worker(*cell), cells, threads) for rec in chunk]


def run_sweep(cfg: ExperimentConfig, threads: int = 1) -> tuple[list[TrialRecord], list[dict]]:
    """Full method x sigma x trial grid plus per-(method, sigma) aggregates."""
    model = train_model(cfg)
    records = _parallel_trials(cfg, lambda si, t: run_trial(cfg, model, si, t), threads)
    records.sort(key=lambda r: (cfg.methods.index(r.method), r.sigma, r.trial))
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
    source, target = scored_view(model, x_src), scored_view(model, x_tgt)
    design = _tau_design(model, cfg.alpha, source, y_src, target, y_tgt, f"sigma={sigma}")
    return {"sigma": sigma, "ramp_target_oracle": population_ramp_loss(model, target, y_tgt), **design}


def run_tau_experiment(cfg: ExperimentConfig, threads: int = 1) -> tuple[list[TrialRecord], list[dict]]:
    """Hard pseudo-calibration with and without the designed threshold slack.

    Emits paired records per trial: the unadjusted threshold (tau = 0) and the
    same threshold with the per-sigma slack added at evaluation time.
    """
    model = train_model(cfg)
    diagnostics = [tau_diagnostics(cfg, model, si) for si in range(len(cfg.sigma_grid))]

    def worker(si: int, t: int) -> list[TrialRecord]:
        diag = diagnostics[si]
        x_cal, _ = _target_split(cfg, si, t, "target-cal", cfg.n_cal)
        x_test, y_test = _target_split(cfg, si, t, "target-test", cfg.n_test)
        test = scored_view(model, x_test)
        _assert_score_invariants(model, test, y_test)
        cal = pseudo_calibrate(model, x_cal, cfg.alpha)
        out = []
        for method, tau in (("hard_pseudo", 0.0), ("tau_adjusted", diag["tau"])):
            cor1 = relaxed_coverage_lower_bound(cfg.alpha, diag["ramp_target_oracle"], diag["hinge_target_oracle"], tau)
            out.append(_record(model, test, y_test, method, cfg.sigma_grid[si], t, cal, tau, cor1=cor1))
        return out

    records = _parallel_trials(cfg, worker, threads)
    method_order = {"hard_pseudo": 0, "tau_adjusted": 1}
    records.sort(key=lambda r: (method_order[r.method], r.sigma, r.trial))
    return records, diagnostics


# ---------------------------------------------------------------------------
# Bounds report


def _source_measures(model, alpha: float, x_cal, y_cal, x_src, y_src) -> dict:
    """Source-side quantities shared by every entry of a bounds report."""
    source = scored_view(model, x_src)
    src_scores = score(model, source, y_src)
    return {
        "cal_scores": score(model, x_cal, y_cal),
        "src_scores": src_scores,
        "sup_density": sup_density_estimate(src_scores),
        "ramp_source": population_ramp_loss(model, source, y_src),
        "hinge_source": population_hinge_loss(model, source, y_src),
        "undercoverage_gap": undercoverage_gap_estimate(model, source, y_src, alpha),
    }


def _measured_entry(model, alpha: float, tau_grid, src: dict, x_tgt, y_tgt) -> dict:
    """Measured fields of one bounds-report entry; the target losses are oracle inputs."""
    target = scored_view(model, x_tgt)
    tgt_scores = score(model, target, y_tgt)
    ramp_tgt = population_ramp_loss(model, target, y_tgt)
    hinge_tgt = population_hinge_loss(model, target, y_tgt)
    try:
        tau_rule = tau_correction(src["hinge_source"], hinge_tgt, src["undercoverage_gap"])
    except ValueError:
        tau_rule = None
    return {
        "ramp_source": src["ramp_source"],
        "hinge_source": src["hinge_source"],
        "ramp_target_oracle": ramp_tgt,
        "hinge_target_oracle": hinge_tgt,
        "w1_scores_measured": w1_1d(src["src_scores"], tgt_scores),
        "coverage_gap_measured": integrated_coverage_gap(src["cal_scores"], src["src_scores"], tgt_scores).integrated,
        "relaxed_coverage_lower": [[t, relaxed_coverage_lower_bound(alpha, ramp_tgt, hinge_tgt, t)] for t in tau_grid],
        "undercoverage_gap": src["undercoverage_gap"],
        "tau_rule": tau_rule,
    }


def _bounds_report(alpha: float, lipschitz: float | None, src: dict, per_sigma: list[dict]) -> dict:
    return {
        "alpha": alpha,
        "lipschitz": lipschitz,
        "sup_density_source": src["sup_density"],
        "oracle_inputs": ["ramp_target_oracle", "hinge_target_oracle"],
        "per_sigma": per_sigma,
    }


def run_bounds_report(cfg: ExperimentConfig) -> dict:
    """Evaluate every bound from measured and generator-certified quantities."""
    model = train_model(cfg)
    lip = lipschitz_bound(model)
    root = RngStream(cfg.seed).substream("bounds")

    x_cal, y_cal = generate_source(cfg.source_spec, cfg.n_cal, root.substream("source-cal"))
    x_src, y_src = generate_source(cfg.source_spec, cfg.n_test, root.substream("source-test"))
    src = _source_measures(model, cfg.alpha, x_cal, y_cal, x_src, y_src)

    per_sigma = []
    for si, sigma in enumerate(cfg.sigma_grid):
        stream = root.substream("target", si)
        x_tgt, yb, xb = _shifted_sample(cfg, sigma, cfg.n_test, stream.substream("base"), stream.substream("shift"))

        rho_certified = cfg.shift_spec.scaled(sigma).rho_true
        rho_mix_cert = cfg.rho_mix_certified(sigma)
        w1_bound = score_shift_w1_bound(lip, rho_certified)
        k = cfg.source_spec.n_classes
        class_rows = [np.nonzero(yb == c)[0] for c in range(1, k + 1)]
        per_class_w1 = None
        rho_mix_measured = None
        if all(rows.size >= 2 for rows in class_rows):
            per_class_w1 = [
                w1_assignment_subsampled(xb[rows], x_tgt[rows], seed=cfg.seed) for rows in class_rows
            ]
            rho_mix_measured = rho_mix(cfg.source_spec.priors, per_class_w1)

        entry = _measured_entry(model, cfg.alpha, cfg.tau_grid, src, x_tgt, yb)
        entry.update(
            {
                "sigma": sigma,
                "rho_certified": rho_certified,
                "rho_mix_certified": rho_mix_cert,
                "per_class_w1_paired": per_class_w1,
                "rho_mix_measured": rho_mix_measured,
                "w1_score_bound": w1_bound,
                "coverage_gap_bound": coverage_gap_bound(src["sup_density"], w1_bound),
                "pseudo_coverage_lower": pseudo_coverage_lower_bound(cfg.alpha, src["ramp_source"], lip, rho_mix_cert),
            }
        )
        per_sigma.append(entry)
    return _bounds_report(cfg.alpha, lip, src, per_sigma)


def run_bounds_report_from_table(table: LogitTable, alpha: float, tau_grid) -> dict:
    """Bounds computable from ingested logits alone; shift-certificate terms are null."""
    model = logit_table_as_map(table)
    splits = {tag: (table.features(tag), table.labels_for(tag)) for tag in ("source_cal", "source_test", "target_test")}
    for name, (_, y) in splits.items():
        if (np.asarray(y) == 0).any():
            raise DataError(f"split {name} contains MISSING labels; cannot measure losses")

    src = _source_measures(model, alpha, *splits["source_cal"], *splits["source_test"])
    entry = _measured_entry(model, alpha, tau_grid, src, *splits["target_test"])
    entry.update(
        dict.fromkeys(("sigma", "rho_certified", "rho_mix_certified", "per_class_w1_paired", "rho_mix_measured")),
        w1_score_bound=None,
        coverage_gap_bound=coverage_gap_bound(src["sup_density"], entry["w1_scores_measured"]),
        pseudo_coverage_lower=None,
    )
    return _bounds_report(alpha, None, src, [entry])


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


def run_sweep_from_table(table: LogitTable, cfg: ExperimentConfig) -> tuple[list[TrialRecord], list[dict]]:
    """One-shot sweep over an ingested logit table (no generator, single trial)."""
    model = logit_table_as_map(table)
    y_src, y_tc, y_tt = (table.labels_for(tag) for tag in ("source_cal", "target_cal", "target_test"))
    if y_src.size == 0 or y_tc.size == 0 or y_tt.size == 0:
        raise DataError("logit table must populate source_cal, target_cal and target_test")
    if (y_src == 0).any() or (y_tt == 0).any():
        raise DataError("source_cal and target_test splits must be fully labeled")
    if "oracle" in cfg.methods and (y_tc == 0).any():
        raise DataError("oracle method requested but target_cal contains MISSING labels")

    data = TrialData(
        x_source=scored_view(model, table.features("source_cal")),
        y_source=y_src,
        x_target_cal=scored_view(model, table.features("target_cal")),
        y_target_cal_oracle=y_tc,
        x_target_test=scored_view(model, table.features("target_test")),
        y_target_test=y_tt,
    )
    records = _evaluate_cell(cfg, model, data, None, 0, RngStream(cfg.seed).substream("table-tune"), None)
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


def _write_csv(path, columns, rows) -> None:
    """One header line, then each row's ``columns`` formatted by :func:`_fmt`."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_fmt(row[c]) for c in columns] for row in rows)


def write_records_csv(path, records: list[TrialRecord]) -> None:
    _write_csv(path, RECORD_COLUMNS, (vars(r) for r in records))


def write_aggregate_csv(path, aggregates: list[dict]) -> None:
    columns = (
        "method",
        "sigma",
        "trials",
        "mean_coverage",
        "se_coverage",
        "mean_ess",
        "se_ess",
        "mean_threshold",
        "mean_thm2_bound",
        "mean_cor1_bound",
    )
    _write_csv(path, columns, aggregates)


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Replay audit


def read_records_csv(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != list(RECORD_COLUMNS):
            raise DataError(f"{path}: unexpected records header {header}")
        return [dict(zip(RECORD_COLUMNS, row)) for row in reader]


def _replay_records(cfg: ExperimentConfig, model, view: ScoredView, y, group) -> list[str]:
    """Mismatch messages of one cell's records against its scored evaluation split."""
    mismatches = []
    for name, row in group:
        where = f"{name}: {row['method']} sigma={row['sigma']} trial={row['trial']}"
        try:
            tau = float(row["tau"]) if row["tau"] else 0.0
            cal = CalibrationResult(threshold=float(row["threshold"]), alpha=cfg.alpha, n=cfg.n_cal, level=float("nan"))
            cov = _fmt(coverage(model, view, y, cal, tau))
            ess = _fmt(expected_set_size(model, view, cal, tau))
        except ValueError as exc:
            mismatches.append(f"{where}: {exc}")
            continue
        if cov != row["coverage"] or ess != row["ess"]:
            mismatches.append(f"{where}: coverage {row['coverage']} -> {cov}, ess {row['ess']} -> {ess}")
    return mismatches


def replay_audit(out_dir, threads: int = 1, seed: int | None = None) -> int:
    """Recompute every emitted coverage/ESS from the emitted thresholds.

    Groups the records by (sigma, trial) cell, regenerates only each cell's
    evaluation split from its derived streams and scores it once, then checks
    that coverage and ESS, formatted identically, match the cell's records
    byte for byte. A cell's view is dropped once its records are checked;
    ``threads`` workers audit cells in parallel. A ``seed`` other than the
    run's recorded seed is a :class:`ConfigError`. Returns the number of
    audited rows; raises :class:`InvariantError` on any mismatch.
    """
    out = Path(out_dir)
    config_path = out / "config.json"
    if not config_path.exists():
        raise ConfigError(f"{config_path} not found; replay needs the resolved config of the run")
    with open(config_path, encoding="utf-8") as fh:
        resolved = json.load(fh)
    logits_path = resolved.pop("logits", None)
    cfg = ExperimentConfig.from_dict(resolved)
    if seed is not None and seed != cfg.seed:
        raise ConfigError(f"seed {seed} differs from the seed {cfg.seed} recorded in {config_path}")

    candidates = [p for p in (out / "records.csv", out / "tau_records.csv") if p.exists()]
    if not candidates:
        raise DataError(f"no records.csv or tau_records.csv under {out}")

    if logits_path is not None:
        table = load_logit_table(logits_path)
        model = logit_table_as_map(table)
        table_split = (scored_view(model, table.features("target_test")), table.labels_for("target_test"))
    else:
        model = train_model(cfg)

    cells: dict[tuple[str, str], list[tuple[str, dict]]] = {}
    for path in candidates:
        for row in read_records_csv(path):
            cells.setdefault((row["sigma"], row["trial"]), []).append((path.name, row))

    def audit(cell) -> list[str]:
        (sigma_text, trial_text), group = cell
        if logits_path is not None:
            return _replay_records(cfg, model, *table_split, group)
        try:
            sigma_idx, trial = cfg.sigma_grid.index(float(sigma_text)), int(trial_text)
        except ValueError:
            sigma_idx, trial = None, -1
        if not 0 <= trial < cfg.trials:
            return [f"{name}: sigma {sigma_text} trial {trial_text} is not a cell of the config grid" for name, _ in group]
        x_tt, y_tt = _target_split(cfg, sigma_idx, trial, "target-test", cfg.n_test)
        return _replay_records(cfg, model, scored_view(model, x_tt), y_tt, group)

    mismatches = [msg for msgs in _map(audit, list(cells.items()), threads) for msg in msgs]
    audited = sum(len(group) for group in cells.values())
    for msg in mismatches:
        print(f"replay mismatch: {msg}", file=sys.stderr)
    if mismatches:
        raise InvariantError(f"{len(mismatches)} of {audited} records failed the replay audit")
    return audited


# ---------------------------------------------------------------------------
# Selftest


def run_selftest(seed: int = 7) -> list[tuple[str, bool]]:
    """Oracle-equivalence suite: independent brute-force routes against the library."""
    from fractions import Fraction
    from itertools import combinations_with_replacement, permutations

    results: list[tuple[str, bool]] = []
    g = RngStream(seed).generator()

    # Quantile definition vs direct scan over the empirical CDF (exact rationals).
    ok = True
    from .conformal import calibrate as _calibrate, conformal_level, empirical_quantile, FULL_SET

    for size in range(1, 5):
        for values in combinations_with_replacement(range(1, 5), size):
            scores = np.array(values, dtype=float)
            for alpha in (0.1, 0.25, 0.5, 0.75, 0.9):
                level = conformal_level(size, alpha)
                got = empirical_quantile(scores, level)
                if level > 1:
                    expected = FULL_SET
                else:
                    frac = Fraction(level)
                    expected = min(t for t in sorted(values) if Fraction(sum(v <= t for v in values), size) >= frac)
                ok &= got == expected and _calibrate(scores, alpha).threshold == expected
    results.append(("quantile-vs-cdf-scan", ok))

    # Assignment distance vs exhaustive matching and the 1-D reduction.
    ok_perm, ok_1d = True, True
    for _ in range(60):
        n = int(g.integers(2, 6))
        d = int(g.integers(1, 4))
        a = g.normal(size=(n, d))
        b = g.normal(size=(n, d))
        got = w1_assignment(a, b)
        best = min(
            float(np.mean([np.linalg.norm(a[i] - b[j]) for i, j in enumerate(perm)]))
            for perm in permutations(range(n))
        )
        ok_perm &= abs(got - best) <= 1e-9
        if d == 1:
            ok_1d &= abs(got - w1_1d(a[:, 0], b[:, 0])) <= 1e-9
    a = g.normal(size=(8, 1))
    b = g.normal(size=(8, 1))
    ok_1d &= abs(w1_assignment(a, b) - w1_1d(a[:, 0], b[:, 0])) <= 1e-9
    results.append(("assignment-vs-exhaustive", ok_perm))
    results.append(("assignment-1d-reduction", ok_1d))

    # Lipschitz mean deviation bound on random 1-Lipschitz test functions.
    ok = True
    for _ in range(1000):
        xa = g.normal(size=40)
        xb = g.normal(size=40) + g.normal() * 0.5
        anchor = g.normal()
        ok &= kantorovich_rubinstein_holds(np.abs(xa - anchor), np.abs(xb - anchor), 1.0, w1_1d(xa, xb))
    results.append(("lipschitz-mean-bound", ok))

    # Score dominance and coupled threshold monotonicity on one synthetic trial.
    cfg = ExperimentConfig.from_dict({"n_train": 600, "n_cal": 300, "n_test": 300, "trials": 1})
    model = train_model(cfg)
    data = make_trial_data(cfg, min(2, len(cfg.sigma_grid) - 1), 0)
    try:
        _assert_score_invariants(model, data.x_target_test, data.y_target_test)
        ok = True
    except InvariantError:
        ok = False
    results.append(("score-dominance-invariants", ok))

    hard = pseudo_calibrate(model, data.x_target_cal, cfg.alpha)
    stream = RngStream(seed).substream("selftest-labels")
    grid = UncertaintyGrid.default(model.n_classes, size=8)
    monotone = True
    prev = None
    for u in grid.values[::-1]:
        cal = pseudo_calibrate(model, data.x_target_cal, cfg.alpha, u=float(u), rng=stream)
        monotone &= cal.threshold >= hard.threshold
        if prev is not None:
            monotone &= cal.threshold >= prev  # thresholds grow as u shrinks
        prev = cal.threshold
    results.append(("threshold-monotone-in-randomization", monotone))
    return results


# ---------------------------------------------------------------------------
# Subcommand drivers


def _cmd_gen(cfg: ExperimentConfig, out: Path, args) -> int:
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "config.json", cfg.resolved())
    for si, sigma in enumerate(cfg.sigma_grid):
        data = make_trial_data(cfg, si, 0)
        stream = RngStream(cfg.seed).substream("gen-source-test", si)
        x_st, y_st = generate_source(cfg.source_spec, cfg.n_test, stream)
        split = (
            ["source_cal"] * cfg.n_cal
            + ["source_test"] * cfg.n_test
            + ["target_cal"] * cfg.n_cal
            + ["target_test"] * cfg.n_test
        )
        labels = np.concatenate([data.y_source, y_st, data.y_target_cal_oracle, data.y_target_test])
        feats = np.vstack([data.x_source, x_st, data.x_target_cal, data.x_target_test])
        path = out / f"dataset_sigma_{si}.csv"
        write_dataset_csv(path, split, labels, feats)
        print(f"wrote {path}")
    return 0


def _cmd_train(cfg: ExperimentConfig, out: Path, args) -> int:
    out.mkdir(parents=True, exist_ok=True)
    model = train_model(cfg)
    x, y = generate_source(cfg.source_spec, cfg.n_train, RngStream(cfg.seed).substream("train-data"))
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
    _write_json(out / "classifier.json", payload)
    print(f"wrote {out / 'classifier.json'} (train accuracy {acc:.4f})")
    return 0


def _cmd_sweep(cfg: ExperimentConfig, out: Path, args) -> int:
    out.mkdir(parents=True, exist_ok=True)
    resolved = cfg.resolved()
    if args.logits:
        table = load_logit_table(args.logits)
        records, aggregates = run_sweep_from_table(table, cfg)
        resolved["logits"] = str(args.logits)
    else:
        records, aggregates = run_sweep(cfg, threads=args.threads)
    _write_json(out / "config.json", resolved)
    write_records_csv(out / "records.csv", records)
    write_aggregate_csv(out / "aggregate.csv", aggregates)
    print(f"wrote {out / 'records.csv'} ({len(records)} records)")
    return 0


def _cmd_tau(cfg: ExperimentConfig, out: Path, args) -> int:
    out.mkdir(parents=True, exist_ok=True)
    records, diagnostics = run_tau_experiment(cfg, threads=args.threads)
    _write_json(out / "config.json", cfg.resolved())
    write_records_csv(out / "tau_records.csv", records)
    _write_json(out / "tau_diagnostics.json", diagnostics)
    write_aggregate_csv(out / "tau_aggregate.csv", aggregate_records(records))
    print(f"wrote {out / 'tau_records.csv'} ({len(records)} records)")
    return 0


def _cmd_bounds(cfg: ExperimentConfig, out: Path, args) -> int:
    out.mkdir(parents=True, exist_ok=True)
    if args.logits:
        table = load_logit_table(args.logits)
        report = run_bounds_report_from_table(table, cfg.alpha, cfg.tau_grid)
    else:
        report = run_bounds_report(cfg)
    _write_json(out / "config.json", cfg.resolved())
    _write_json(out / "bounds.json", report)
    print(f"wrote {out / 'bounds.json'}")
    return 0


def _cmd_tune(cfg: ExperimentConfig, out: Path, args) -> int:
    out.mkdir(parents=True, exist_ok=True)
    rows, result = run_tune(cfg)
    _write_json(out / "config.json", cfg.resolved())
    _write_csv(out / "tune_trace.csv", ("u", "c_hat", "source_threshold"), rows)
    _write_json(out / "tune_result.json", result)
    print(f"wrote {out / 'tune_trace.csv'} (u_star = {_fmt(result['u_star'])})")
    return 0


def _cmd_replay(cfg: ExperimentConfig, out: Path, args) -> int:
    audited = replay_audit(out, threads=args.threads, seed=args.seed)
    print(f"replay audit passed: {audited} records verified")
    return 0


def _cmd_selftest(cfg: ExperimentConfig, out: Path, args) -> int:
    results = run_selftest(seed=cfg.seed)
    failed = [name for name, ok in results if not ok]
    for name, ok in results:
        print(f"selftest {name}: {'PASS' if ok else 'FAIL'}")
    if failed:
        raise InvariantError(f"selftest failures: {', '.join(failed)}")
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "train": _cmd_train,
    "sweep": _cmd_sweep,
    "tau": _cmd_tau,
    "bounds": _cmd_bounds,
    "tune": _cmd_tune,
    "replay": _cmd_replay,
    "selftest": _cmd_selftest,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shiftcp",
        description="Conformal prediction under bounded covariate shift: experiments, bounds and audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "gen": "emit the synthetic dataset splits as CSV",
        "train": "fit the classifier and dump it as JSON",
        "sweep": "run the full method x shift x trial experiment",
        "tau": "run the threshold-slack correction experiment",
        "bounds": "evaluate the coverage bounds into a JSON report",
        "tune": "trace the source sweep of the entropy cutoff",
        "replay": "audit an output directory by recomputing coverage/ESS",
        "selftest": "run the built-in oracle equivalence suite",
    }
    for name, help_text in helps.items():
        p = sub.add_parser(name, help=help_text)
        if name != "replay":  # replay reads the audited run's own config.json
            p.add_argument("--config", default=None, help="JSON config file (defaults are used when omitted)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed (replay: must equal the run's)")
        if name != "selftest":
            p.add_argument("--out", default="shiftcp-out", help="output directory (replay: the run to audit)")
        if name in ("sweep", "tau", "replay"):
            p.add_argument("--threads", type=int, default=1, help="worker threads for trial evaluation")
        if name in ("sweep", "bounds"):
            p.add_argument("--logits", default=None, help="ingest externally computed logits from this CSV table")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # A flag the subcommand does not declare is passed on as None.
        cfg = load_config(args.config, seed_override=args.seed) if "config" in args else None
        out = Path(args.out) if "out" in args else None
        return _COMMANDS[args.command](cfg, out, args)
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
