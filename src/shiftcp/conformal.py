"""Split-conformal calibration, prediction sets, and coverage-gap diagnostics.

Quantile convention
-------------------
The calibration threshold is the empirical quantile of the calibration scores
at level ``ceil((1 - alpha) * (n + 1)) / n``, where the quantile at level p is
the smallest order statistic t with empirical CDF ``F(t) >= p`` and the CDF is
the right-continuous ``F(t) = #{s_i <= t} / n``: the
``ceil((1 - alpha)(n + 1))``-th smallest score, which :func:`calibrate` and
:func:`empirical_quantile` both take through one helper. When the level
exceeds 1 (too few calibration points) the threshold is the :data:`FULL_SET`
sentinel and the prediction set is all of ``1..K``, which preserves the
coverage guarantee trivially. Level arithmetic goes through exact rationals so
that ceil never flips on float rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .scores import score_matrix, scored_view

#: Sentinel threshold meaning "include every label". Infinity keeps the
#: downstream set arithmetic (s <= threshold + tau) working unchanged.
FULL_SET = float("inf")

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


@dataclass(frozen=True)
class CalibrationResult:
    """Conformal threshold with its level arithmetic.

    ``threshold`` is one of the calibration scores when ``level <= 1`` and
    :data:`FULL_SET` otherwise; ``level`` is the exact :func:`conformal_level`.
    """

    threshold: float
    alpha: float
    n: int
    level: Fraction


@dataclass(frozen=True)
class GapEstimate:
    """Pointwise coverage gaps over an alpha grid and their integral."""

    per_alpha: tuple[tuple[float, float], ...]
    integrated: float


def _validate_alpha(alpha: float) -> None:
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")


@lru_cache(maxsize=1024)
def _quantile_count(n: int, alpha: float) -> int:
    # Exact ceil of (1-alpha)(n+1); Fraction avoids e.g. 0.8*5 -> 4.0000000000000002.
    return math.ceil(Fraction(n + 1) * (1 - Fraction(alpha)))


def conformal_level(n: int, alpha: float) -> Fraction:
    """Exact quantile level ``ceil((1 - alpha)(n + 1)) / n``; may exceed 1 for small n.

    ``empirical_quantile(s, conformal_level(len(s), alpha))`` is ``calibrate(s, alpha).threshold``.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"calibration count must be a positive integer, got {n}")
    _validate_alpha(alpha)
    return Fraction(_quantile_count(int(n), alpha), n)


def _score_sample(scores) -> np.ndarray:
    s = np.asarray(scores, dtype=float)
    if s.ndim != 1 or s.size == 0:
        raise ValueError("scores must be a nonempty 1-D sample")
    if not np.isfinite(s).all():
        raise ValueError("scores must be finite, without NaN or +-inf")
    return s


def _order_statistic(s: np.ndarray, k: int) -> float:
    """The ``k``-th smallest score, or :data:`FULL_SET` when ``k`` exceeds the sample size."""
    return FULL_SET if k > s.size else float(np.partition(s, k - 1)[k - 1])


def empirical_quantile(scores, level) -> float:
    """Smallest order statistic with empirical CDF at least ``level``.

    Returns :data:`FULL_SET` when ``level`` exceeds 1. For ``level <= 1`` the
    result is the ``ceil(level * n)``-th smallest score (exact rational
    arithmetic), hence always an element of ``scores``.
    """
    s = _score_sample(scores)
    if level > 1:
        return FULL_SET
    if not level > 0:
        raise ValueError(f"quantile level must be positive, got {level}")
    return _order_statistic(s, math.ceil(Fraction(level) * s.size))


def _validate_nonnegative(**values: float) -> None:
    """Raise unless every named value is at least 0; NaN fails the comparison and raises too."""
    for name, value in values.items():
        if not value >= 0:
            raise ValueError(f"{name} must be nonnegative, got {value}")


def _validate_finite(**values: float) -> None:
    """Raise unless every named value is a finite real: NaN and +-inf raise."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def _finite_sample(values, name: str, ndim: int = 1) -> np.ndarray:
    """A nonempty, finite 1-D sample of values, or with ``ndim`` 2 an (n, d) sample of points."""
    v = np.asarray(values, dtype=float)
    if v.ndim != ndim or v.shape[0] == 0:
        raise ValueError(f"{name} must be a nonempty {'1-D sample' if ndim == 1 else '(n, d) array'}")
    if not np.isfinite(v).all():
        raise ValueError(f"{name} must be finite")
    return v


def calibrate(scores, alpha: float) -> CalibrationResult:
    """Split-conformal threshold of a calibration score sample at level alpha."""
    s = _score_sample(scores)
    _validate_alpha(alpha)
    n = s.size
    k = _quantile_count(n, alpha)
    return CalibrationResult(threshold=_order_statistic(s, k), alpha=float(alpha), n=n, level=Fraction(k, n))


def prediction_set(model, x, cal: CalibrationResult, tau: float = 0.0) -> frozenset[int]:
    """Labels whose score at ``x`` is at most ``threshold + tau`` (non-strict).

    ``tau = 0`` gives the plain conformal set; ``tau > 0`` relaxes it.
    """
    _validate_nonnegative(tau=tau)
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("prediction_set expects a single input vector")
    row = score_matrix(model, x)
    members = np.nonzero(row <= cal.threshold + tau)[0] + 1
    return frozenset(int(m) for m in members)


def coverage(model, x, y, cal: CalibrationResult, tau: float = 0.0) -> float:
    """Fraction of labeled test points whose true label lands in the prediction set.

    ``x`` may be a :class:`~shiftcp.scores.ScoredView` of the test inputs.
    """
    return _covered_share(scored_view(model, x).label_scores(y), cal, tau)


def _covered_share(true_scores: np.ndarray, cal: CalibrationResult, tau: float) -> float:
    """Share of the true-label scores at or below ``threshold + tau``: the coverage reduction."""
    _validate_nonnegative(tau=tau)
    if true_scores.size == 0:
        raise ValueError("coverage of an empty sample is undefined")
    return np.count_nonzero(true_scores <= cal.threshold + tau) / true_scores.size


def expected_set_size(model, x, cal: CalibrationResult, tau: float = 0.0) -> float:
    """Mean prediction-set cardinality over a batch of inputs (or a scored view)."""
    _validate_nonnegative(tau=tau)
    view = scored_view(model, x)
    if len(view) == 0:
        raise ValueError("expected set size of an empty sample is undefined")
    return np.count_nonzero(view.scores <= cal.threshold + tau) / len(view)


def integrated_coverage_gap(cal_scores_p, test_scores_p, test_scores_q, alpha_grid=None) -> GapEstimate:
    """Trapezoidal aggregate of the pointwise gaps over an alpha grid.

    The default grid is ``0.01, 0.02, ..., 0.99``; the open endpoints avoid
    the degenerate empirical quantiles at alpha near 0 or 1.
    """
    if alpha_grid is None:
        alpha_grid = np.arange(1, 100) / 100.0
    grid = np.asarray(alpha_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("alpha grid must contain at least two points")
    if not ((grid > 0).all() and (grid < 1).all()):
        raise ValueError("alpha grid must lie inside (0, 1)")
    if not (np.diff(grid) > 0).all():
        raise ValueError("alpha grid must be strictly increasing")

    cal_p = np.sort(_finite_sample(cal_scores_p, "cal_scores_p"))
    tp = np.sort(_finite_sample(test_scores_p, "test_scores_p"))
    tq = np.sort(_finite_sample(test_scores_q, "test_scores_q"))

    n = cal_p.size
    counts = np.array([_quantile_count(n, a) for a in grid.tolist()])
    thresholds = np.where(counts > n, FULL_SET, cal_p[np.minimum(counts, n) - 1])
    fp = np.searchsorted(tp, thresholds, side="right") / tp.size
    fq = np.searchsorted(tq, thresholds, side="right") / tq.size
    gaps = np.abs(fp - fq)
    integrated = float(_trapezoid(gaps, grid))
    return GapEstimate(per_alpha=tuple(zip(grid.tolist(), gaps.tolist())), integrated=integrated)
