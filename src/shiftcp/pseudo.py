"""Pseudo-labels and source-tuned pseudo-calibration.

Hard pseudo-labels are the classifier's own predictions. Randomized
pseudo-labels keep the prediction where the predictive entropy is at most a
cutoff ``u`` and substitute a uniformly random class above it. The
source-tuned procedure measures on labeled source data how much coverage a
cutoff retains, picks the largest grid cutoff that keeps source coverage at
the nominal level, and calibrates on the unlabeled target inputs with that
cutoff.

Search
------
The source coverage ``c_hat(u)`` is non-increasing in ``u`` for every draw:
the hard-label score is the row minimum of the score matrix, so each point's
pseudo-score can only fall as ``u`` grows, and with it the threshold and the
count of true-label scores at or below it. The qualifying cutoffs are
therefore a prefix of the grid, and :func:`source_tuned_calibrate` finds its
end by probing the last grid point, then the first, then bisecting between
them: one calibration when the unbounded cutoff qualifies and at most 7 on
the default 33-point grid. It picks exactly the cutoff a full sweep would
pick. :func:`source_coverage_curve` (and the ``tune`` subcommand)
still evaluate every grid point.

Coupling
--------
:class:`~shiftcp.rng.RngStream` generators restart at the stream head on
every call, so calibrating the same inputs at two cutoffs with the same
stream reuses the identical uniform draw per point. That per-point coupling
is what makes thresholds and coverage monotone in ``u`` realization by
realization, and it is relied on by the tests; pass distinct substreams when
you want independent randomization instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .conformal import CalibrationResult, _validate_alpha, calibrate
from .rng import RngStream
from .scores import ScoredView, scored_view

__all__ = [
    "UncertaintyGrid",
    "TuningResult",
    "pseudo_calibrate",
    "source_coverage_curve",
    "select_u_star",
    "source_tuned_calibrate",
]


@dataclass(frozen=True)
class UncertaintyGrid:
    """Strictly increasing grid of nonnegative entropy cutoffs (may end at +inf)."""

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("uncertainty grid must be a nonempty 1-D array")
        if np.isnan(v).any() or (v < 0).any():
            raise ValueError("uncertainty grid values must be nonnegative reals")
        if v.size > 1 and not (np.diff(v) > 0).all():
            raise ValueError("uncertainty grid must be strictly increasing")
        object.__setattr__(self, "values", v)

    @classmethod
    def default(cls, n_classes: int, size: int = 32) -> "UncertaintyGrid":
        """Uniform grid of ``size`` points on [0, ln K] plus an unbounded cutoff.

        Predictive entropy is bounded by ln K, so this grid spans the whole
        attainable range; the +inf point recovers hard pseudo-labeling.
        """
        if n_classes < 2:
            raise ValueError("need at least two classes")
        pts = np.linspace(0.0, math.log(n_classes), size)
        return cls(np.append(pts, np.inf))

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class TuningResult:
    """The chosen cutoff and the source coverage at the cutoffs the search probed.

    ``coverage_curve`` holds ``(u, c_hat)`` for the probed grid points only,
    in ascending ``u``; :func:`source_coverage_curve` gives the full curve.
    """

    u_star: float
    coverage_curve: tuple[tuple[float, float], ...]
    source_threshold_at_u_star: float


def _uniform_scores(view: ScoredView, rng: RngStream | None) -> np.ndarray:
    """Scores of one coupled uniform-label draw per point."""
    if rng is None:
        raise ValueError("randomized pseudo-labels with a finite cutoff require an rng stream")
    return view.label_scores(rng.generator().integers(1, view.n_classes + 1, size=len(view)))


def _pseudo_scores(view: ScoredView, u: float, uniform_scores) -> np.ndarray:
    """Randomized pseudo-label scores at cutoff ``u``.

    The hard-label score where the predictive entropy is at most ``u``, the
    uniform-label score elsewhere. ``uniform_scores`` is called only for a
    finite cutoff, so ``u = inf`` draws nothing.
    """
    if math.isinf(u) and u > 0:
        return view.hard_scores
    return np.where(view.entropy <= u, view.hard_scores, uniform_scores())


def pseudo_calibrate(
    model,
    inputs,
    alpha: float,
    u: float = math.inf,
    rng: RngStream | None = None,
) -> CalibrationResult:
    """Calibrate on the scores of pseudo-labeled inputs.

    The default ``u = inf`` keeps every hard pseudo-label (no randomness
    consumed); a finite ``u`` randomizes the labels of points whose predictive
    entropy exceeds it. ``inputs`` may be a :class:`~shiftcp.scores.ScoredView`.
    """
    if math.isnan(u):
        raise ValueError("cutoff u must be a number, got nan")
    view = scored_view(model, inputs)
    if len(view) == 0:
        raise ValueError("cannot calibrate on an empty input sample")
    return calibrate(_pseudo_scores(view, u, lambda: _uniform_scores(view, rng)), alpha)


def source_coverage_curve(
    model,
    x_source,
    y_source,
    alpha: float,
    grid: UncertaintyGrid,
    rng: RngStream,
) -> list[tuple[float, float]]:
    """Empirical source coverage retained by each cutoff in the grid.

    For each ``u``: pseudo-score the source inputs at cutoff ``u``, compute
    the conformal threshold from those pseudo-scores, and report the fraction
    of *true-label* source scores at or below it. The same per-point uniform
    draw is shared across the grid, so the curve is non-increasing in ``u``
    realization by realization.
    """
    curve = _curve_with_thresholds(model, x_source, y_source, alpha, grid, rng)
    return [(u, c) for u, c, _ in curve]


def _source_probe(view: ScoredView, true_scores, alpha, rng):
    """``probe(u) -> (u, c_hat, threshold)``: pseudo-calibrate the scored source at one cutoff.

    ``true_scores`` is the caller's one gather of the source labels. The
    coupled uniform draw is made at the first finite cutoff probed, and the
    entropy is computed only then, so probing ``u = inf`` alone draws nothing.
    """
    if len(view) == 0:
        raise ValueError("source sample must be nonempty")
    uniform_scores = cache(lambda: _uniform_scores(view, rng))

    def probe(u):
        cal = calibrate(_pseudo_scores(view, u, uniform_scores), alpha)
        return float(u), float(np.mean(true_scores <= cal.threshold)), cal.threshold

    return probe


def _curve_with_thresholds(model, x_source, y_source, alpha, grid, rng):
    view = scored_view(model, x_source)
    probe = _source_probe(view, view.label_scores(y_source), alpha, rng)
    return [probe(u) for u in grid.values]


def _search_curve(probe, values, alpha):
    """The probed points, ascending in ``u``, from which :func:`select_u_star` decides.

    ``c_hat`` is non-increasing in ``u``, so the qualifying cutoffs form a
    prefix of the grid: probe the last point, then the first, then bisect
    while ``values[lo]`` qualifies and ``values[hi]`` does not.
    """
    last = probe(values[-1])
    if last[1] >= 1.0 - alpha or len(values) == 1:
        return [last]
    lo, hi = 0, len(values) - 1
    probed = {lo: probe(values[lo]), hi: last}
    if probed[lo][1] >= 1.0 - alpha:
        while hi - lo > 1:
            mid = (lo + hi) // 2
            probed[mid] = probe(values[mid])
            if probed[mid][1] >= 1.0 - alpha:
                lo = mid
            else:
                hi = mid
    return [probed[i] for i in sorted(probed)]


def select_u_star(curve, alpha: float) -> float:
    """Largest cutoff whose retained source coverage is at least ``1 - alpha``.

    Falls back to the smallest grid value (maximal randomization, most
    conservative) when no cutoff qualifies.
    """
    _validate_alpha(alpha)
    if not curve:
        raise ValueError("coverage curve must be nonempty")
    for point in curve:
        if math.isnan(point[0]) or math.isnan(point[1]):
            raise ValueError(f"coverage curve points must be numbers, got (u, c_hat) = {point}")
        if not (point[0] >= 0 and 0 <= point[1] <= 1):
            raise ValueError(f"coverage curve points need a cutoff u >= 0 and a coverage in [0, 1], got (u, c_hat) = {point}")
    qualifying = [u for u, c in curve if c >= 1.0 - alpha]
    if qualifying:
        return max(qualifying)
    return min(u for u, _ in curve)


def source_tuned_calibrate(
    model,
    x_source,
    y_source,
    x_target,
    alpha: float,
    grid: UncertaintyGrid | None = None,
    rng: RngStream | None = None,
) -> tuple[TuningResult, CalibrationResult]:
    """Tune the entropy cutoff on labeled source data, then calibrate the target.

    Runs the full pipeline: search of the source coverage curve -> cutoff
    selection -> randomized pseudo-calibration of the unlabeled target inputs
    at the chosen cutoff. Source and target randomization use independent
    substreams of ``rng``. Either sample may be a
    :class:`~shiftcp.scores.ScoredView`.
    """
    source = scored_view(model, x_source)
    tuning = _tune_cutoff(source, source.label_scores(y_source), alpha, grid, rng)
    return tuning, _calibrate_at_cutoff(scored_view(model, x_target), alpha, tuning.u_star, rng)


def _tune_cutoff(source: ScoredView, true_scores, alpha, grid, rng) -> TuningResult:
    """The source half of :func:`source_tuned_calibrate`: search, then select the cutoff."""
    if rng is None:
        raise ValueError("source_tuned_calibrate requires an rng stream")
    if grid is None:
        grid = UncertaintyGrid.default(source.n_classes)
    probe = _source_probe(source, true_scores, alpha, rng.substream("tune-source"))
    trace = _search_curve(probe, grid.values, alpha)
    curve = [(u, c) for u, c, _ in trace]
    u_star = select_u_star(curve, alpha)
    source_threshold = next(thr for u, _, thr in trace if u == u_star)
    return TuningResult(u_star=u_star, coverage_curve=tuple(curve), source_threshold_at_u_star=source_threshold)


def _calibrate_at_cutoff(target: ScoredView, alpha, u_star, rng) -> CalibrationResult:
    """The target half: pseudo-calibrate the scored target at ``u_star``; only a finite cutoff draws."""
    return pseudo_calibrate(None, target, alpha, u=u_star, rng=rng.substream("tune-target"))
