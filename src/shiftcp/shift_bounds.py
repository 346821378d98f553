"""Wasserstein shift metrics and coverage lower bounds.

Exact 1-D and assignment-based W1 between empirical measures, the coupled
sup-displacement bound on W-infinity, the class-prior mixture of per-class
shifts, a histogram plug-in for the score density sup, and the coverage
lower bounds they feed: the Lipschitz bound on score-distribution shift, the
density-times-W1 coverage-gap bound, the pseudo-calibration coverage floor,
its tau-relaxed refinement, and the tau design rule that targets a desired
coverage level from source-measurable quantities.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .conformal import coverage
from .pseudo import pseudo_calibrate
from .rng import RngStream
from .scores import ScoredView

#: Largest exact assignment instance; larger samples must be subsampled.
MAX_ASSIGNMENT_SIZE = 512


def _as_sample_1d(values, name: str) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-D sample")
    if not np.isfinite(v).all():
        raise ValueError(f"{name} must be finite")
    return v


def _as_points(values, name: str) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    if v.ndim != 2 or v.shape[0] == 0:
        raise ValueError(f"{name} must be a nonempty (n, d) array")
    if not np.isfinite(v).all():
        raise ValueError(f"{name} must be finite")
    return v


def w1_1d(a, b) -> float:
    """Exact 1-Wasserstein distance between two 1-D empirical measures.

    Equal sizes reduce to the mean absolute difference of the sorted samples;
    unequal sizes integrate the piecewise-constant quantile functions over the
    merged probability breakpoints.
    """
    sa = np.sort(_as_sample_1d(a, "a"))
    sb = np.sort(_as_sample_1d(b, "b"))
    n, m = sa.size, sb.size
    if n == m:
        return float(np.abs(sa - sb).mean())
    edges = np.union1d(np.arange(1, n) / n, np.arange(1, m) / m)
    edges = np.concatenate([[0.0], edges, [1.0]])
    widths = np.diff(edges)
    mids = (edges[:-1] + edges[1:]) / 2.0
    ia = np.minimum(np.ceil(mids * n).astype(int) - 1, n - 1)
    ib = np.minimum(np.ceil(mids * m).astype(int) - 1, m - 1)
    return float(np.sum(widths * np.abs(sa[ia] - sb[ib])))


def w1_assignment(a, b) -> float:
    """Exact W1 between equal-size empirical measures via min-cost matching.

    Solves the assignment problem on the Euclidean cost matrix, which is
    exact for uniform empirical measures. Limited to
    :data:`MAX_ASSIGNMENT_SIZE` points per side.

    The solver sees Kantorovich-Rubinstein-reduced costs
    ``|x_i - y_j| + <x_i, theta> - <y_j, theta>``, with ``theta`` the unit
    vector along ``mean(b) - mean(a)``. The map ``x -> <x, theta>`` is
    1-Lipschitz, so the potentials are a feasible dual and every reduced cost
    is nonnegative; every matching's total moves by the same constant, so the
    optimal matchings are unchanged. The reduction removes the near-constant
    ``|t|`` that a common translation ``t`` adds to every entry, which makes
    translated samples near-degenerate for the shortest-augmenting-path
    solver. The result is the mean Euclidean length of the matched pairs.
    """
    # scipy.optimize takes most of the package's import time; only this solver needs it.
    from scipy.optimize import linear_sum_assignment
    from scipy.spatial.distance import cdist

    pa = _as_points(a, "a")
    pb = _as_points(b, "b")
    if pa.shape != pb.shape:
        raise ValueError(f"samples must have identical shape, got {pa.shape} vs {pb.shape}")
    n = pa.shape[0]
    if n > MAX_ASSIGNMENT_SIZE:
        raise ValueError(f"assignment solver limited to {MAX_ASSIGNMENT_SIZE} points, got {n}")
    cost = cdist(pa, pb)
    shift = pb.mean(axis=0) - pa.mean(axis=0)
    length = np.linalg.norm(shift)
    if length > 0:
        theta = shift / length
        cost += (pa @ theta)[:, None] - (pb @ theta)[None, :]
    rows, cols = linear_sum_assignment(cost)
    # Matched lengths come from numpy's row-wise norm, not from the cdist
    # entries: cdist sums the coordinates in another order, which changes the
    # last bit at d >= 8.
    return float(np.linalg.norm(pa[rows] - pb[cols], axis=1).mean())


def w1_assignment_subsampled(a, b, max_points: int = MAX_ASSIGNMENT_SIZE, seed: int = 0) -> float:
    """Assignment W1 after deterministic subsampling of oversized samples.

    Samples beyond ``max_points`` are thinned with a fixed-seed draw (paired
    rows keep their pairing) and a warning is emitted: the result is then an
    estimate, not the exact distance.
    """
    pa = _as_points(a, "a")
    pb = _as_points(b, "b")
    if pa.shape != pb.shape:
        raise ValueError(f"samples must have identical shape, got {pa.shape} vs {pb.shape}")
    n = pa.shape[0]
    if n > max_points:
        warnings.warn(
            f"subsampling {n} points down to {max_points} for the assignment solver; result is an estimate",
            stacklevel=2,
        )
        idx = RngStream(seed).substream("w1-subsample").generator().choice(n, size=max_points, replace=False)
        idx.sort()
        pa, pb = pa[idx], pb[idx]
    return w1_assignment(pa, pb)


def winf_coupled(a, b) -> float:
    """Sup displacement of an explicit pairing; upper-bounds W-infinity.

    The rows of ``a`` and ``b`` are matched positionally (a known coupling,
    e.g. pre/post-shift pairs), and any explicit coupling is feasible for the
    infimum defining W-infinity.
    """
    pa = _as_points(a, "a")
    pb = _as_points(b, "b")
    if pa.shape != pb.shape:
        raise ValueError(f"paired samples must have identical shape, got {pa.shape} vs {pb.shape}")
    return float(np.linalg.norm(pa - pb, axis=1).max())


def rho_mix(class_priors, per_class_w1) -> float:
    """Class-prior-weighted mean of per-class W1 shifts."""
    priors = np.asarray(class_priors, dtype=float)
    dists = np.asarray(per_class_w1, dtype=float)
    if priors.shape != dists.shape or priors.ndim != 1 or priors.size == 0:
        raise ValueError("priors and per-class distances must be matching nonempty vectors")
    if (priors < 0).any() or (dists < 0).any():
        raise ValueError("priors and distances must be nonnegative")
    if abs(priors.sum() - 1.0) > 1e-9:
        raise ValueError(f"priors must sum to 1, got {priors.sum()}")
    return float(priors @ dists)


def score_shift_w1_bound(lipschitz: float, rho: float) -> float:
    """W1 bound on the score-distribution shift: margin Lipschitz constant times shift radius."""
    if lipschitz < 0 or rho < 0:
        raise ValueError("lipschitz constant and shift radius must be nonnegative")
    return float(lipschitz * rho)


def sup_density_estimate(scores) -> float:
    """Histogram plug-in for the sup of the score density.

    Uses ``ceil(sqrt(n))`` equal-width bins over the sample range and returns
    the largest ``count / (n * width)``. Undefined (raises) when all scores
    coincide, since an atom has no density.
    """
    s = _as_sample_1d(scores, "scores")
    lo, hi = float(s.min()), float(s.max())
    if lo == hi:
        raise ValueError("sup density undefined for a point-mass score sample")
    n = s.size
    bins = math.ceil(math.sqrt(n))
    counts, _ = np.histogram(s, bins=bins, range=(lo, hi))
    width = (hi - lo) / bins
    return float(counts.max() / (n * width))


def coverage_gap_bound(sup_density: float, w1: float) -> float:
    """Integrated coverage-gap bound: score-density sup times score W1 shift."""
    if sup_density < 0 or w1 < 0:
        raise ValueError("density sup and W1 must be nonnegative")
    return float(sup_density * w1)


def pseudo_coverage_lower_bound(alpha: float, ramp_source: float, lipschitz: float, rho_mix_value: float) -> float:
    """Coverage floor for hard pseudo-calibration under bounded shift.

    ``max(0, 1 - alpha - ramp_source - lipschitz * rho_mix)``: nominal level
    minus the source ramp loss minus the shift penalty, clipped at zero.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if ramp_source < 0 or lipschitz < 0 or rho_mix_value < 0:
        raise ValueError("loss, Lipschitz constant and shift must be nonnegative")
    return max(0.0, 1.0 - alpha - ramp_source - lipschitz * rho_mix_value)


def relaxed_coverage_lower_bound(alpha: float, ramp_target: float, hinge_target: float, tau: float) -> float:
    """Coverage floor for the tau-relaxed pseudo-calibrated set.

    ``max(0, 1 - alpha - min(ramp_target, hinge_target / (1 + tau/2)))``;
    non-decreasing in tau, with the hinge term taking over from the ramp term
    once ``tau > 2 * (hinge/ramp - 1)``.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if ramp_target < 0 or hinge_target < 0:
        raise ValueError("losses must be nonnegative")
    if tau < 0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    return max(0.0, 1.0 - alpha - min(ramp_target, hinge_target / (1.0 + tau / 2.0)))


def undercoverage_gap_estimate(model, x_source, y_source, alpha: float) -> float:
    """Undercoverage of hard pseudo-calibration measured on labeled source data.

    Splits the sample in half: the first half calibrates on hard pseudo-labels,
    the second half evaluates coverage against the true labels. Returns
    ``(1 - alpha) - coverage``, unclipped (negative means overcoverage).
    ``x_source`` may be a :class:`~shiftcp.scores.ScoredView`, whose halves
    are sliced without rescoring.
    """
    x = x_source if isinstance(x_source, ScoredView) else np.asarray(x_source, dtype=float)
    y = np.asarray(y_source)
    if (isinstance(x, np.ndarray) and x.ndim != 2) or len(x) < 2:
        raise ValueError("need at least two labeled source points")
    half = len(x) // 2
    cal = pseudo_calibrate(model, x[:half], alpha)
    cov = coverage(model, x[half:], y[half:], cal)
    return (1.0 - alpha) - cov


def tau_correction(hinge_source: float, hinge_target: float, undercoverage_gap: float) -> float:
    """Threshold slack that restores the source coverage floor on the target.

    ``2 * (hinge_target / (hinge_source - undercoverage_gap) - 1)``, clipped
    below at zero: a negative slack would shrink sets below the hard-pseudo
    baseline, defeating the correction.
    """
    if hinge_target < 0:
        raise ValueError("target hinge loss must be nonnegative")
    denom = hinge_source - undercoverage_gap
    if denom <= 0:
        raise ValueError("degenerate source hinge correction: source hinge loss must exceed the undercoverage gap")
    return max(0.0, 2.0 * (hinge_target / denom - 1.0))


def kantorovich_rubinstein_holds(f_values_p, f_values_q, lipschitz: float, w1: float, slack: float = 1e-9) -> bool:
    """Whether ``|mean_P f - mean_Q f| <= lipschitz * w1`` holds (with rounding slack).

    Test oracle for Lipschitz test functions; not intended as a user-facing
    estimate.
    """
    fp = _as_sample_1d(f_values_p, "f_values_p")
    fq = _as_sample_1d(f_values_q, "f_values_q")
    return abs(fp.mean() - fq.mean()) <= lipschitz * w1 + slack


@dataclass(frozen=True)
class BoundInputs:
    """Measured and certified quantities feeding the coverage bounds."""

    alpha: float
    ramp_source: float
    hinge_source: float
    lipschitz: float
    rho: float
    rho_mix: float
    sup_density: float
    ramp_target: float | None = None
    hinge_target: float | None = None

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        for name in ("ramp_source", "hinge_source", "lipschitz", "rho", "rho_mix", "sup_density"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        for name in ("ramp_target", "hinge_target"):
            val = getattr(self, name)
            if val is not None and val < 0:
                raise ValueError(f"{name} must be nonnegative")


@dataclass(frozen=True)
class BoundReport:
    """Every bound evaluated from one set of inputs.

    ``relaxed_coverage_lower`` tabulates the tau-relaxed floor over a tau
    grid (monotone non-decreasing); target-loss entries are None when the
    oracle target losses were not supplied.
    """

    w1_score_bound: float
    coverage_gap_bound: float
    pseudo_coverage_lower: float
    relaxed_coverage_lower: tuple[tuple[float, float], ...] | None
    tau_rule: float | None = None
    undercoverage_gap: float | None = None


def evaluate_bounds(
    inputs: BoundInputs,
    tau_grid=(0.0, 0.5, 1.0, 2.0, 4.0),
    undercoverage_gap: float | None = None,
) -> BoundReport:
    """Evaluate the full bound family from one :class:`BoundInputs` bundle."""
    w1_bound = score_shift_w1_bound(inputs.lipschitz, inputs.rho)
    gap_bound = coverage_gap_bound(inputs.sup_density, w1_bound)
    floor = pseudo_coverage_lower_bound(inputs.alpha, inputs.ramp_source, inputs.lipschitz, inputs.rho_mix)

    relaxed = None
    if inputs.ramp_target is not None and inputs.hinge_target is not None:
        relaxed = tuple(
            (float(t), relaxed_coverage_lower_bound(inputs.alpha, inputs.ramp_target, inputs.hinge_target, float(t)))
            for t in tau_grid
        )

    tau_rule = None
    if undercoverage_gap is not None and inputs.hinge_target is not None:
        tau_rule = tau_correction(inputs.hinge_source, inputs.hinge_target, undercoverage_gap)

    return BoundReport(
        w1_score_bound=w1_bound,
        coverage_gap_bound=gap_bound,
        pseudo_coverage_lower=floor,
        relaxed_coverage_lower=relaxed,
        tau_rule=tau_rule,
        undercoverage_gap=undercoverage_gap,
    )
