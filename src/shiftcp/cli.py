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

All outputs are machine-readable (CSV/JSON). Once a subcommand that takes
``--config`` succeeds, :func:`main` writes the resolved config (and the absolute
``--logits`` path) to ``<out>/config.json``, so each run is self-describing.
Records have :class:`TrialRecord`'s fields as columns, in method, sigma,
trial order; ``replay`` finds each record's cell by the text :func:`_fmt` wrote.
``--threads`` fans the independent (sigma, trial) cells of ``sweep``, ``tau``
and ``replay`` out to forked worker processes in interleaved shares while the
parent waits; every cell draws from its own stream address, so runs are
byte-identical for a fixed config and seed whatever the worker count.
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
from functools import cached_property, partial
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
    _undercoverage_gap,
    coverage_gap_bound,
    pseudo_coverage_lower_bound,
    relaxed_coverage_lower_bound,
    rho_mix,
    score_shift_w1_bound,
    sup_density_estimate,
    tau_correction,
    w1_1d,
    w1_assignment_subsampled,
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


RECORD_COLUMNS = tuple(f.name for f in fields(TrialRecord))


def _shifted_sample(cfg: ExperimentConfig, sigma: float, n: int, base: RngStream, shift: RngStream):
    """``n`` source draws from ``base`` shifted at strength ``sigma`` by ``shift``: (shifted x, y, base x)."""
    xb, yb = generate_source(cfg.source_spec, n, base)
    return apply_shift(xb, yb, cfg._grid_shifts[sigma], shift), yb, xb


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
    return TrialData(x_src, y_src, x_tc, y_tc, x_tt, y_tt)


def _tune_stream(cfg: ExperimentConfig, sigma_idx: int, trial: int) -> RngStream:
    return RngStream(cfg.seed).substream("trial", sigma_idx, trial, "tune")


def _train(cfg: ExperimentConfig):
    """The run's training split and the classifier fitted on it: (model, x, y).

    A failed fit is a data error, and a rising training loss a config error:
    the learning rate is too large for the data. An overflowing draw or fit
    raises no numpy warning: its non-finite weights fail the model's own
    check instead.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            x, y = generate_source(cfg.source_spec, cfg.n_train, RngStream(cfg.seed).substream("train-data"))
            model = train_classifier(x, y, epochs=cfg.epochs, learning_rate=cfg.learning_rate)
    except ValueError as exc:
        raise DataError(f"cannot train the classifier: {exc}") from exc
    except InvariantError as exc:
        raise ConfigError(f"train.learning_rate {cfg.learning_rate!r} is too large for the training data: {exc}") from exc
    return model, x, y


def train_model(cfg: ExperimentConfig):
    """Train the fixed classifier used by every trial of a run; a failed fit is a data error."""
    return _train(cfg)[0]


def _calibrate_method(cfg: ExperimentConfig, method: str, data: TrialData, source_scores, tune: RngStream):
    """One arm's threshold and cutoff u* (None but for source_tuned); target labels reach only the oracle arm."""
    if method == "source":
        return calibrate(source_scores, cfg.alpha), None
    if method == "hard_pseudo":
        return pseudo_calibrate(None, data.x_target_cal, cfg.alpha), None
    if method == "source_tuned":  # at u* = inf this is the hard pseudo-calibration, and nothing is drawn
        u_star = _tune_cutoff(data.x_source, source_scores, cfg.alpha, cfg.uncertainty_grid(), tune).u_star
        return _calibrate_at_cutoff(data.x_target_cal, cfg.alpha, u_star, tune), u_star
    return calibrate(data.x_target_cal.label_scores(data.y_target_cal_oracle), cfg.alpha), None  # oracle


def _tau_design(alpha: float, source: ScoredView, source_scores, target_scores, where: str) -> dict:
    """The slack rule's measured ingredients and the slack it designs.

    The target hinge loss (of the target's true-label scores) is an oracle
    input. A degenerate rule is a :class:`DataError` whose message starts with ``where``.
    """
    design = {
        "hinge_source": _population_loss(hinge_loss, source_scores),
        "hinge_target_oracle": _population_loss(hinge_loss, target_scores),
    }
    try:
        design["undercoverage_gap"] = _undercoverage_gap(source, source_scores, alpha)
        design["tau"] = tau_correction(design["hinge_source"], design["hinge_target_oracle"], design["undercoverage_gap"])
    except ValueError as exc:
        measured = ", ".join(f"{name}={value:.4g}" for name, value in design.items())
        raise DataError(
            f"{where}: {exc} ({measured}); "
            "a larger calibration sample or a larger alpha stabilizes the undercoverage estimate"
        ) from exc
    return design


def _policy_tau(cfg: ExperimentConfig, design) -> float | None:
    """Slack the tau policy adds to prediction sets: none, the fixed value, or ``design()["tau"]`` under ``tau_design``."""
    if cfg.tau_policy_kind == "none":
        return None
    return cfg.tau_policy_value if cfg.tau_policy_kind == "fixed" else design()["tau"]


def _record(test: ScoredView, test_scores, method: str, sigma, trial: int, cal, tau, u_star=None, thm2=None, cor1=None):
    """One method's record: coverage and set size of ``cal`` plus slack ``tau`` on the scored test split."""
    tau_eff = 0.0 if tau is None else tau
    return TrialRecord(
        method=method,
        sigma=sigma,
        trial=trial,
        threshold=cal.threshold,
        u_star=u_star,
        tau=tau,
        coverage=_covered_share(test_scores, cal, tau_eff),
        ess=expected_set_size(None, test, cal, tau_eff),
        thm2_bound=thm2,
        cor1_bound=cor1,
    )


def _cell_cor1(alpha: float, test_scores, tau) -> float:
    """A cell's ``cor1_bound`` at slack ``tau``, from its oracle-flagged target losses on the test split."""
    ramp_tgt = _population_loss(ramp_loss, test_scores)
    hinge_tgt = _population_loss(hinge_loss, test_scores)
    return relaxed_coverage_lower_bound(alpha, ramp_tgt, hinge_tgt, 0.0 if tau is None else tau)


def _evaluate_cell(cfg: ExperimentConfig, data: TrialData, source_scores, test_scores, tau, sigma, trial: int, tune, thm2):
    """Every method's record, with slack ``tau``, for one cell of scored splits (generator cell or logit table)."""
    test = data.x_target_test
    cor1 = _cell_cor1(cfg.alpha, test_scores, tau)
    records = []
    for method in cfg.methods:
        cal, u_star = _calibrate_method(cfg, method, data, source_scores, tune)
        bounds = (thm2, cor1) if method == "hard_pseudo" else (None, None)
        records.append(_record(test, test_scores, method, sigma, trial, cal, tau, u_star, *bounds))
    return records


def run_trial(cfg: ExperimentConfig, model, sigma_idx: int, trial: int, taus) -> list[TrialRecord]:
    """All method records of one (sigma, trial) cell with its run's slack ``taus[sigma_idx]``."""
    sigma = cfg.sigma_grid[sigma_idx]
    raw = make_trial_data(cfg, sigma_idx, trial)
    data = replace(
        raw,
        x_source=scored_view(model, raw.x_source),
        x_target_cal=scored_view(model, raw.x_target_cal),
        x_target_test=scored_view(model, raw.x_target_test),
    )
    source_scores = data.x_source.label_scores(data.y_source)
    ramp_src = _population_loss(ramp_loss, source_scores)
    thm2 = pseudo_coverage_lower_bound(cfg.alpha, ramp_src, lipschitz_bound(model), cfg.rho_mix_certified(sigma))
    test_scores = data.x_target_test.label_scores(data.y_target_test)
    tune = _tune_stream(cfg, sigma_idx, trial)
    return _evaluate_cell(cfg, data, source_scores, test_scores, taus[sigma_idx], sigma, trial, tune, thm2)


def _workers(threads: int, n_items: int) -> int:
    """Worker processes for ``n_items`` CPU-bound items: at most ``threads``, items and usable cores; 1 without ``os.fork``."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(threads, n_items, cores) if hasattr(os, "fork") else 1


def _run_share(fn, items: list, w: int, workers: int, pipe) -> None:
    """Child ``w`` of :func:`_map`: run items ``w, w + workers, ...`` in order, pickle the outcome to ``pipe``, exit."""
    outcome, status = (None, []), 1
    try:
        for i in range(w, len(items), workers):
            try:
                outcome[1].append(fn(*items[i]))
            except Exception as exc:
                outcome = (i, exc)
                break
        try:
            data = pickle.dumps(outcome)
        except Exception as exc:  # an unpicklable result or exception must still reach the parent
            unsent = RuntimeError(f"worker process {os.getpid()} cannot send its outcome: {exc!r}")
            data = pickle.dumps((len(items) if outcome[0] is None else outcome[0], unsent))
        pipe.write(data)
        pipe.close()  # the parent sees the end of the outcome before this process is torn down
        status = 0
    finally:
        os._exit(status)


def _map(fn, items: list, threads: int) -> list:
    """``[fn(*args) for args in items]``, fanned out to forked worker processes.

    Each of the :func:`_workers` children runs an interleaved share
    (:func:`_run_share`) while the parent waits on every pipe at once; the
    results come back in item order, or the lowest failing item's exception
    is re-raised, as at one worker. A child whose pipe ends without a
    readable outcome fails the call as soon as the parent sees it: the other
    children are killed and the dead one is named with its wait status. Fork
    is safe only in a single-threaded process, so the loop runs in-process at
    one worker and whenever another thread is alive.
    """
    workers = _workers(threads, len(items))
    if workers <= 1 or threading.active_count() > 1:
        return [fn(*args) for args in items]
    pids, fds, outcomes, statuses = [], [], {}, []
    dead = cause = None
    try:
        for w in range(workers):
            read_end, write_end = os.pipe()
            fds.append(read_end)
            with open(write_end, "wb") as pipe:
                pids.append(os.fork())
                if pids[-1] == 0:
                    _run_share(fn, items, w, workers, pipe)
        chunks = [[] for _ in fds]
        while dead is None and len(outcomes) < workers:
            for fd in select.select([fd for w, fd in enumerate(fds) if w not in outcomes], [], [])[0]:
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
        for fd in fds:
            os.close(fd)
        for w, pid in enumerate(pids):
            if w not in outcomes and w != dead:
                os.kill(pid, 9)  # SIGKILL; importing signal would cost every CLI start about 1 ms
            statuses.append(os.waitpid(pid, 0)[1])
    if dead is not None:
        raise RuntimeError(f"worker process {pids[dead]} sent no readable outcome (wait status {statuses[dead]})") from cause
    failed = [outcome for outcome in outcomes.values() if outcome[0] is not None]
    if failed:
        raise min(failed, key=lambda outcome: outcome[0])[1]
    return [outcomes[i % workers][1][i // workers] for i in range(len(items))]


def _parallel_trials(cfg: ExperimentConfig, worker, threads: int, methods: tuple[str, ...]) -> list[TrialRecord]:
    """The records ``worker(sigma_idx, trial)`` returns for every cell, ordered by method, sigma and trial."""
    cells = [(si, t) for si in range(len(cfg.sigma_grid)) for t in range(cfg.trials)]
    records = [rec for chunk in _map(worker, cells, threads) for rec in chunk]
    return sorted(records, key=lambda r: (methods.index(r.method), r.sigma, r.trial))


def run_sweep(cfg: ExperimentConfig, threads: int = 1) -> tuple[list[TrialRecord], list[dict]]:
    """Full method x sigma x trial grid plus per-(method, sigma) aggregates."""
    model = train_model(cfg)
    taus = [_policy_tau(cfg, partial(tau_diagnostics, cfg, model, si)) for si in range(len(cfg.sigma_grid))]
    records = _parallel_trials(cfg, partial(run_trial, cfg, model, taus=taus), threads, cfg.methods)
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
    design = _tau_design(cfg.alpha, source, source.label_scores(y_src), target_scores, f"sigma={sigma}")
    return {"sigma": sigma, "ramp_target_oracle": _population_loss(ramp_loss, target_scores), **design}


def _tau_trial(cfg: ExperimentConfig, model, diagnostics: list[dict], si: int, t: int) -> list[TrialRecord]:
    """The unadjusted and the slack-adjusted record of one (sigma, trial) cell."""
    diag = diagnostics[si]
    x_cal, _ = _target_split(cfg, si, t, "target-cal", cfg.n_cal)
    x_test, y_test = _target_split(cfg, si, t, "target-test", cfg.n_test)
    test = scored_view(model, x_test)
    test_scores = test.label_scores(y_test)
    cal = pseudo_calibrate(model, x_cal, cfg.alpha)
    out = []
    for method, tau in zip(TAU_METHODS, (0.0, diag["tau"])):
        cor1 = relaxed_coverage_lower_bound(cfg.alpha, diag["ramp_target_oracle"], diag["hinge_target_oracle"], tau)
        out.append(_record(test, test_scores, method, cfg.sigma_grid[si], t, cal, tau, cor1=cor1))
    return out


def run_tau_experiment(cfg: ExperimentConfig, threads: int = 1) -> tuple[list[TrialRecord], list[dict]]:
    """Hard pseudo-calibration with and without the designed threshold slack.

    Emits paired records per trial: the unadjusted threshold (tau = 0) and the
    same threshold with the per-sigma slack added at evaluation time.
    """
    model = train_model(cfg)
    diagnostics = [tau_diagnostics(cfg, model, si) for si in range(len(cfg.sigma_grid))]
    return _parallel_trials(cfg, partial(_tau_trial, cfg, model, diagnostics), threads, TAU_METHODS), diagnostics


# ---------------------------------------------------------------------------
# Bounds report


def _source_measures(alpha: float, cal: ScoredView, y_cal, source: ScoredView, y_src) -> dict:
    """Source-side quantities shared by every entry of a bounds report."""
    src_scores = source.label_scores(y_src)
    try:
        sup_density = sup_density_estimate(src_scores)
    except ValueError as exc:
        raise DataError(f"source_test scores: {exc}") from exc
    return {
        "cal_scores": cal.label_scores(y_cal),
        "src_scores": src_scores,
        "sup_density": sup_density,
        "ramp_source": _population_loss(ramp_loss, src_scores),
        "hinge_source": _population_loss(hinge_loss, src_scores),
        "undercoverage_gap": _undercoverage_gap(source, src_scores, alpha),
    }


def _measured_entry(alpha: float, tau_grid, src: dict, target: ScoredView, y_tgt) -> dict:
    """Measured fields of one bounds-report entry; the target losses are oracle inputs."""
    tgt_scores = target.label_scores(y_tgt)
    ramp_tgt = _population_loss(ramp_loss, tgt_scores)
    hinge_tgt = _population_loss(hinge_loss, tgt_scores)
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
    src = _source_measures(cfg.alpha, scored_view(model, x_cal), y_cal, scored_view(model, x_src), y_src)

    per_sigma = []
    for si, sigma in enumerate(cfg.sigma_grid):
        stream = root.substream("target", si)
        x_tgt, yb, xb = _shifted_sample(cfg, sigma, cfg.n_test, stream.substream("base"), stream.substream("shift"))

        rho_certified = cfg._grid_shifts[sigma].rho_true
        rho_mix_cert = cfg.rho_mix_certified(sigma)
        w1_bound = score_shift_w1_bound(lip, rho_certified)
        class_rows = [np.nonzero(yb == c)[0] for c in range(1, cfg.source_spec.n_classes + 1)]
        per_class_w1 = rho_mix_measured = None
        if all(rows.size >= 2 for rows in class_rows):
            per_class_w1 = [w1_assignment_subsampled(xb[rows], x_tgt[rows], seed=cfg.seed) for rows in class_rows]
            rho_mix_measured = rho_mix(cfg.source_spec.priors, per_class_w1)

        entry = _measured_entry(cfg.alpha, cfg.tau_grid, src, scored_view(model, x_tgt), yb)
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
    tags = ("source_cal", "source_test", "target_test")
    cal, source, target = _table_splits(table, tags, labeled=tags)
    src = _source_measures(alpha, *cal, *source)
    entry = _measured_entry(alpha, tau_grid, src, *target)
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


def run_sweep_from_table(table: LogitTable, cfg: ExperimentConfig) -> tuple[list[TrialRecord], list[dict]]:
    """One-shot sweep over an ingested logit table, its only batch: ``tau_design`` designs the slack on its splits."""
    labeled = ("source_cal", "target_test", *(("target_cal",) if "oracle" in cfg.methods else ()))
    (source, y_src), (cal, y_tc), (test, y_tt) = _table_splits(table, ("source_cal", "target_cal", "target_test"), labeled)
    source_scores, test_scores = source.label_scores(y_src), test.label_scores(y_tt)
    tau = _policy_tau(cfg, partial(_tau_design, cfg.alpha, source, source_scores, test_scores, "tau_design policy failed"))
    data, tune = TrialData(source, y_src, cal, y_tc, test, y_tt), RngStream(cfg.seed).substream("table-tune")
    records = _evaluate_cell(cfg, data, source_scores, test_scores, tau, None, 0, tune, None)
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


def _audit_cell(cfg: ExperimentConfig, model, table_split, cell: tuple[int, int], group) -> list[str]:
    """Mismatch messages of one (sigma index, trial) cell's records; ``table_split`` is the logit-table split, if any."""
    if table_split is None:
        x_tt, y = _target_split(cfg, *cell, "target-test", cfg.n_test)
        view = scored_view(model, x_tt)
    else:
        view, y = table_split
    test_scores = view.label_scores(y)
    mismatches = []
    for name, row in group:
        method, sweep = row["method"], name == "records.csv"
        where = _where(name, method, row["sigma"], row["trial"])
        try:
            derived_tau = sweep and cfg.tau_policy_kind != "tau_design"  # none or fixed: the config sets the slack
            tau = _policy_tau(cfg, None) if derived_tau else float(row["tau"]) if row["tau"] else None
            cal = CalibrationResult(threshold=float(row["threshold"]), alpha=cfg.alpha, n=cfg.n_cal, level=float("nan"))
            # u*, thm2 and tau_records.csv's cor1 need other draws or the slack designs: where written, they keep their text.
            u_star = row["u_star"] if sweep and method == "source_tuned" else None
            thm2 = row["thm2_bound"] if sweep and method == "hard_pseudo" and table_split is None else None
            cor1 = (_cell_cor1(cfg.alpha, test_scores, tau) if method == "hard_pseudo" else None) if sweep else row["cor1_bound"]
            rec = _record(view, test_scores, method, row["sigma"], row["trial"], cal, tau, u_star, thm2, cor1)
        except ValueError as exc:
            mismatches.append(f"{where}: {exc}")
            continue
        texts = zip(RECORD_COLUMNS, map(_fmt, vars(rec).values()))
        wrong = [f"{col} {row[col] or '(empty)'} -> {text or '(empty)'}" for col, text in texts if text != row[col]]
        if wrong:
            mismatches.append(f"{where}: {', '.join(wrong)}")
    return mismatches


def replay_audit(out_dir, threads: int = 1, seed: int | None = None) -> int:
    """Rebuild each record from its threshold, its run's config and its cell's regenerated test split.

    A records file must hold one row per method of the file and cell of the
    config's grid (the one cell of a logit-table run), named by the text the
    writer printed; a missing, extra or repeated row is a mismatch. Each row,
    rebuilt by :func:`_record` and formatted as written, must match byte for
    byte; a column that needs new draws or slack designs keeps its own text.
    Up to ``threads`` worker processes audit cells in parallel; a ``seed``
    other than the run's recorded one is a :class:`ConfigError`.
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

    layout = (("records.csv", cfg.methods), ("tau_records.csv", TAU_METHODS))  # each records file, its rows' methods
    files = {name: methods for name, methods in layout if (out / name).exists()}
    if not files:
        raise DataError(f"no records.csv or tau_records.csv under {out}")

    model = table_split = None
    if logits_path is not None:
        (table_split,) = _table_splits(load_logit_table(logits_path), ("target_test",), labeled=("target_test",))
        grid = {(_fmt(None), _fmt(0)): (None, 0)}
    else:
        model = train_model(cfg)
        grid = {(sigma, _fmt(t)): (si, t) for si, sigma in enumerate(map(_fmt, cfg.sigma_grid)) for t in range(cfg.trials)}

    rows = [(name, row) for name in files for row in read_records_csv(out / name)]
    counts = Counter((name, row["method"], row["sigma"], row["trial"]) for name, row in rows)
    expected = {(name, method, *cell) for name, methods in files.items() for method in methods for cell in grid}
    mismatches = [f"{_where(*key)}: missing" for key in sorted(expected - counts.keys())]
    mismatches += [f"{_where(*key)}: not in the config's grid" for key in sorted(counts.keys() - expected)]
    mismatches += [f"{_where(*key)}: repeated {n} times" for key, n in counts.items() if n > 1]

    cells: dict[tuple, list[tuple[str, dict]]] = {}
    for name, row in rows:
        if (cell := grid.get((row["sigma"], row["trial"]))) is not None:
            cells.setdefault(cell, []).append((name, row))
    audit = partial(_audit_cell, cfg, model, table_split)
    mismatches += [msg for msgs in _map(audit, list(cells.items()), threads) for msg in msgs]
    for msg in mismatches:
        print(f"replay mismatch: {msg}", file=sys.stderr)
    if mismatches:
        raise InvariantError(f"{len(mismatches)} of {len(rows)} records failed the replay audit")
    return len(rows)


# ---------------------------------------------------------------------------
# Subcommand drivers


def _cmd_gen(cfg: ExperimentConfig, out: Path, args) -> None:
    for si in range(len(cfg.sigma_grid)):
        data = make_trial_data(cfg, si, 0)
        x_st, y_st = generate_source(cfg.source_spec, cfg.n_test, RngStream(cfg.seed).substream("gen-source-test", si))
        xs = (data.x_source, x_st, data.x_target_cal, data.x_target_test)  # one split per tag of SPLIT_TAGS
        ys = (data.y_source, y_st, data.y_target_cal_oracle, data.y_target_test)
        tags = [tag for tag, y in zip(SPLIT_TAGS, ys) for _ in range(y.size)]
        path = out / f"dataset_sigma_{si}.csv"
        write_dataset_csv(path, tags, np.concatenate(ys), np.vstack(xs))
        print(f"wrote {path}")


def _cmd_train(cfg: ExperimentConfig, out: Path, args) -> None:
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
    _write_json(out / "classifier.json", payload)
    print(f"wrote {out / 'classifier.json'} (train accuracy {acc:.4f})")


def _cmd_sweep(cfg: ExperimentConfig, out: Path, args) -> None:
    if args.logits:
        records, aggregates = run_sweep_from_table(load_logit_table(args.logits), cfg)
    else:
        records, aggregates = run_sweep(cfg, threads=args.threads)
    write_records_csv(out / "records.csv", records)
    write_aggregate_csv(out / "aggregate.csv", aggregates)
    print(f"wrote {out / 'records.csv'} ({len(records)} records)")


def _cmd_tau(cfg: ExperimentConfig, out: Path, args) -> None:
    records, diagnostics = run_tau_experiment(cfg, threads=args.threads)
    write_records_csv(out / "tau_records.csv", records)
    _write_json(out / "tau_diagnostics.json", diagnostics)
    write_aggregate_csv(out / "tau_aggregate.csv", aggregate_records(records))
    print(f"wrote {out / 'tau_records.csv'} ({len(records)} records)")


def _cmd_bounds(cfg: ExperimentConfig, out: Path, args) -> None:
    if args.logits:
        report = run_bounds_report_from_table(load_logit_table(args.logits), cfg.alpha, cfg.tau_grid)
    else:
        report = run_bounds_report(cfg)
    _write_json(out / "bounds.json", report)
    print(f"wrote {out / 'bounds.json'}")


def _cmd_tune(cfg: ExperimentConfig, out: Path, args) -> None:
    rows, result = run_tune(cfg)
    _write_csv(out / "tune_trace.csv", rows)
    _write_json(out / "tune_result.json", result)
    print(f"wrote {out / 'tune_trace.csv'} (u_star = {_fmt(result['u_star'])})")


def _cmd_replay(cfg: None, out: Path, args) -> None:
    audited = replay_audit(out, threads=args.threads, seed=args.seed)
    print(f"replay audit passed: {audited} records verified")


_FLAGS = {
    "--config": {"default": None, "help": "JSON config file (defaults are used when omitted)"},
    "--seed": {"type": int, "default": None, "help": "override the config seed (replay: must equal the run's)"},
    "--out": {"default": "shiftcp-out", "help": "output directory (replay: the run to audit)"},
    "--threads": {"type": int, "default": 1, "help": "worker processes for the trial cells (at least 1)"},
    "--logits": {"default": None, "help": "ingest externally computed logits from this CSV table"},
}

_RUN_FLAGS = ("--config", "--seed", "--out")

#: Each subcommand's driver, help line and flags, in the order ``--help`` lists them.
_COMMANDS = {
    "gen": (_cmd_gen, "emit the synthetic dataset splits as CSV", _RUN_FLAGS),
    "train": (_cmd_train, "fit the classifier and dump it as JSON", _RUN_FLAGS),
    "sweep": (_cmd_sweep, "run the full method x shift x trial experiment", (*_RUN_FLAGS, "--threads", "--logits")),
    "tau": (_cmd_tau, "run the threshold-slack correction experiment", (*_RUN_FLAGS, "--threads")),
    "bounds": (_cmd_bounds, "evaluate the coverage bounds into a JSON report", (*_RUN_FLAGS, "--logits")),
    "tune": (_cmd_tune, "trace the source sweep of the entropy cutoff", _RUN_FLAGS),
    # replay reads the audited run's own config.json, so it takes no --config.
    "replay": (_cmd_replay, "audit an output directory by recomputing coverage/ESS", ("--seed", "--out", "--threads")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shiftcp",
        description="Conformal prediction under bounded covariate shift: experiments, bounds and audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    """Run one subcommand; its outputs, and the ``config.json`` of a run that took ``--config``, go to ``--out``."""
    args = build_parser().parse_args(argv)
    run, out = _COMMANDS[args.command][0], Path(args.out)
    cfg = None  # replay takes no --config: --out is the run it audits, and it writes nothing there
    try:
        if getattr(args, "threads", 1) < 1:
            raise ConfigError(f"--threads must be at least 1, got {args.threads}")
        if "config" in args:
            cfg = load_config(args.config, seed_override=args.seed)
            try:
                out.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise ConfigError(f"cannot create the output directory {out}: {exc}") from exc
        run(cfg, out, args)
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
