"""Wasserstein shift metrics and coverage lower bounds.

Exact 1-D and assignment-based W1 between empirical measures, the
class-prior mixture of per-class shifts, a histogram plug-in for the score
density sup, and the coverage lower bounds they feed: the Lipschitz bound on
score-distribution shift, the density-times-W1 coverage-gap bound, the
pseudo-calibration coverage floor, its tau-relaxed refinement, and the tau
design rule that targets a desired coverage level from source-measurable
quantities. Each function checks its own inputs; the ``bounds`` subcommand
assembles the family into bounds.json.
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from functools import cache

import numpy as np

from .conformal import _covered_share, _finite_sample, _validate_alpha, _validate_finite, _validate_nonnegative, calibrate
from .rng import RngStream
from .scores import ScoredView, scored_view

#: Largest exact assignment instance; larger samples must be subsampled.
MAX_ASSIGNMENT_SIZE = 512


def _paired_points(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Two finite, nonempty (n, d) point samples of identical shape."""
    pa, pb = _finite_sample(a, "a", 2), _finite_sample(b, "b", 2)
    if pa.shape != pb.shape:
        raise ValueError(f"samples must have identical shape, got {pa.shape} vs {pb.shape}")
    return pa, pb


def w1_1d(a, b) -> float:
    """Exact 1-Wasserstein distance between two 1-D empirical measures.

    Equal sizes reduce to the mean absolute difference of the sorted samples;
    unequal sizes integrate the piecewise-constant quantile functions over the
    merged probability breakpoints.
    """
    sa = np.sort(_finite_sample(a, "a"))
    sb = np.sort(_finite_sample(b, "b"))
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


#: Rows of the cost matrix built per pass: 64 x 512 float64 entries are 256 KB, which stays in cache.
_COST_BLOCK = 64


@cache
def _linear_sum_assignment():
    """scipy's compiled shortest-augmenting-path assignment solver.

    The ``scipy.optimize._lsap`` extension is loaded alone: importing the
    ``scipy.optimize`` package would cost every ``bounds`` process about 0.5 s
    and 40 MB. A module already imported is reused, and a scipy laid out
    differently falls back to the public import; both name the same function.
    """
    name = "scipy.optimize._lsap"
    module = sys.modules.get(name)
    if module is None:
        import importlib.machinery
        import importlib.util

        import scipy

        spec = importlib.machinery.PathFinder.find_spec(name, [os.path.join(p, "optimize") for p in scipy.__path__])
        if spec is None:
            from scipy.optimize import linear_sum_assignment

            return linear_sum_assignment
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return module.linear_sum_assignment


def _reduced_costs(pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """Euclidean costs ``|x_i - y_j|`` plus the Kantorovich-Rubinstein tilt of :func:`w1_assignment`.

    Built :data:`_COST_BLOCK` rows at a time. Each entry sums its squared
    coordinate differences in sequence before the square root, the order
    ``scipy.spatial.distance.cdist`` uses, so the matrix has cdist's bits.
    """
    n, d = pa.shape
    cost = np.empty((n, pb.shape[0]))
    scratch = np.empty((min(n, _COST_BLOCK), pb.shape[0]))
    pb_coords = np.ascontiguousarray(pb.T)
    shift = pb.mean(axis=0) - pa.mean(axis=0)
    length = np.linalg.norm(shift)
    if length > 0:
        theta = shift / length
        ta, tb = pa @ theta, pb @ theta
    for start in range(0, n, _COST_BLOCK):
        rows = slice(start, start + _COST_BLOCK)
        block = cost[rows]
        tmp = scratch[: block.shape[0]]
        np.subtract(pa[rows, 0, None], pb_coords[0], out=block)
        np.multiply(block, block, out=block)
        for k in range(1, d):
            np.subtract(pa[rows, k, None], pb_coords[k], out=tmp)
            np.multiply(tmp, tmp, out=tmp)
            block += tmp
        np.sqrt(block, out=block)
        if length > 0:
            np.subtract(ta[rows, None], tb, out=tmp)
            block += tmp
    return cost


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
    Identical samples return 0 without a solve.

    The solver gets the transposed matrix, one row per point of ``b``, built
    directly as ``_reduced_costs(pb, pa)``: every coordinate difference and
    the tilt direction flip sign exactly, so it is ``_reduced_costs(pa,
    pb).T`` bit for bit. Its row minima, then its column minima, are
    subtracted in place, the standard dual warm start of the assignment LP
    (Peyré and Cuturi, arXiv:1803.00567, section 3). Each subtraction moves
    every matching's total by the same constant, like the tilt, so the
    optimal matchings are unchanged and the solver needs fewer augmenting
    steps. Where the optimum is unique, as for samples in general position
    in two or more dimensions, it is the matching an untransposed solve
    returns. In one dimension each tilted cost is 0 or ``2 |x - y|``, so
    optimal matchings tie, and a tie may average its lengths to a different
    last bit. The matched pairs are put back in ``a``'s row order before
    their lengths are averaged, so the mean sums in the same order as an
    untransposed solve.
    """
    pa, pb = _paired_points(a, b)
    n = pa.shape[0]
    if n > MAX_ASSIGNMENT_SIZE:
        raise ValueError(f"assignment solver limited to {MAX_ASSIGNMENT_SIZE} points, got {n}")
    if np.array_equal(pa, pb):
        # The identity matching costs 0, so every optimal matching pairs equal points: the solve would give +0.0.
        return 0.0
    cost = _reduced_costs(pb, pa)
    cost -= cost.min(axis=1, keepdims=True)
    cost -= cost.min(axis=0)
    b_rows, a_rows = _linear_sum_assignment()(cost)
    matched = np.empty(n, dtype=b_rows.dtype)
    matched[a_rows] = b_rows  # the point of b matched to each point of a
    # Matched lengths come from numpy's row-wise norm, not from the cost
    # matrix: the cost matrix sums the coordinates in sequence, while
    # np.linalg.norm sums them pairwise from d = 8, which changes the last bit.
    return float(np.linalg.norm(pa - pb[matched], axis=1).mean())


def w1_assignment_subsampled(a, b, max_points: int = MAX_ASSIGNMENT_SIZE, seed: int = 0) -> float:
    """Assignment W1 after deterministic subsampling of oversized samples.

    Samples beyond ``max_points`` are thinned with a fixed-seed draw (paired
    rows keep their pairing) and a warning is emitted: the result is then an
    estimate, not the exact distance. ``max_points`` must be an integer in
    ``1..MAX_ASSIGNMENT_SIZE``.
    """
    return w1_assignment(*_subsampled_pairs(a, b, max_points, seed))


def _subsampled_pairs(a, b, max_points: int = MAX_ASSIGNMENT_SIZE, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """The paired samples :func:`w1_assignment_subsampled` solves: checked, and thinned with a warning when oversized.

    The warning names the caller of this function's caller.
    """
    integral = isinstance(max_points, (int, np.integer)) and not isinstance(max_points, bool)
    if not (integral and 1 <= max_points <= MAX_ASSIGNMENT_SIZE):
        raise ValueError(f"max_points must be an integer in 1..{MAX_ASSIGNMENT_SIZE}, got {max_points!r}")
    pa, pb = _paired_points(a, b)
    n = pa.shape[0]
    if n > max_points:
        warnings.warn(
            f"subsampling {n} points down to {max_points} for the assignment solver; result is an estimate",
            stacklevel=3,
        )
        idx = RngStream(seed).substream("w1-subsample").generator().choice(n, size=max_points, replace=False)
        idx.sort()
        pa, pb = pa[idx], pb[idx]
    return pa, pb


def rho_mix(class_priors, per_class_w1) -> float:
    """Class-prior-weighted mean of per-class W1 shifts."""
    priors = np.asarray(class_priors, dtype=float)
    dists = np.asarray(per_class_w1, dtype=float)
    if priors.shape != dists.shape or priors.ndim != 1 or priors.size == 0:
        raise ValueError("priors and per-class distances must be matching nonempty vectors")
    if not ((priors >= 0).all() and (dists >= 0).all()):
        raise ValueError("priors and distances must be nonnegative")
    if not np.isfinite(dists).all():
        raise ValueError(f"per_class_w1 must be finite, got {dists.tolist()}")
    if abs(priors.sum() - 1.0) > 1e-9:
        raise ValueError(f"priors must sum to 1, got {priors.sum()}")
    return float(priors @ dists)


def score_shift_w1_bound(lipschitz: float, rho: float) -> float:
    """W1 bound on the score-distribution shift: margin Lipschitz constant times shift radius."""
    _validate_nonnegative(lipschitz=lipschitz, rho=rho)
    _validate_finite(lipschitz=lipschitz, rho=rho)
    return float(lipschitz * rho)


def sup_density_estimate(scores) -> float:
    """Histogram plug-in for the sup of the score density.

    Uses ``ceil(sqrt(n))`` equal-width bins over the sample range and returns
    the largest ``count / (n * width)``. Undefined (raises) when all scores
    coincide, since an atom has no density, or span too little to resolve.
    """
    s = _finite_sample(scores, "scores")
    lo, hi = float(s.min()), float(s.max())
    if lo == hi:
        raise ValueError("sup density undefined for a point-mass score sample")
    n = s.size
    bins = math.ceil(math.sqrt(n))
    counts, _ = np.histogram(s, bins=bins, range=(lo, hi))
    width = (hi - lo) / bins
    density = float(counts.max()) / (n * width) if width > 0 else math.inf
    if not math.isfinite(density):
        raise ValueError(f"sup density overflows: the score sample spans only {hi - lo:.3g}")
    return density


def coverage_gap_bound(sup_density: float, w1: float) -> float:
    """Integrated coverage-gap bound: score-density sup times score W1 shift."""
    _validate_nonnegative(sup_density=sup_density, w1=w1)
    _validate_finite(sup_density=sup_density, w1=w1)
    return float(sup_density * w1)


def pseudo_coverage_lower_bound(alpha: float, ramp_source: float, lipschitz: float, rho_mix_value: float) -> float:
    """Coverage floor for hard pseudo-calibration under bounded shift.

    ``max(0, 1 - alpha - ramp_source - lipschitz * rho_mix)``: nominal level
    minus the source ramp loss minus the shift penalty, clipped at zero.
    """
    _validate_alpha(alpha)
    _validate_nonnegative(ramp_source=ramp_source, lipschitz=lipschitz, rho_mix_value=rho_mix_value)
    _validate_finite(ramp_source=ramp_source, lipschitz=lipschitz, rho_mix_value=rho_mix_value)
    return max(0.0, 1.0 - alpha - ramp_source - lipschitz * rho_mix_value)


def relaxed_coverage_lower_bound(alpha: float, ramp_target: float, hinge_target: float, tau: float) -> float:
    """Coverage floor for the tau-relaxed pseudo-calibrated set.

    ``max(0, 1 - alpha - min(ramp_target, hinge_target / (1 + tau/2)))``;
    non-decreasing in tau, with the hinge term taking over from the ramp term
    once ``tau > 2 * (hinge/ramp - 1)``.
    """
    _validate_alpha(alpha)
    _validate_nonnegative(ramp_target=ramp_target, hinge_target=hinge_target, tau=tau)
    _validate_finite(ramp_target=ramp_target, hinge_target=hinge_target, tau=tau)
    return max(0.0, 1.0 - alpha - min(ramp_target, hinge_target / (1.0 + tau / 2.0)))


def undercoverage_gap_estimate(model, x_source, y_source, alpha: float) -> float:
    """Undercoverage of hard pseudo-calibration measured on labeled source data.

    Splits the sample in half: the first half calibrates on hard pseudo-labels,
    the second half evaluates coverage against the true labels. Returns
    ``(1 - alpha) - coverage``, unclipped (negative means overcoverage).
    The sample is scored and its labels gathered once; both halves are slices
    of those arrays. ``x_source`` may be a :class:`~shiftcp.scores.ScoredView`.
    """
    view = scored_view(model, x_source)
    return _undercoverage_gap(view, view.label_scores(y_source), alpha)


def _undercoverage_gap(view: ScoredView, true_scores: np.ndarray, alpha: float) -> float:
    """:func:`undercoverage_gap_estimate` of a scored sample and its true-label scores."""
    if len(view) < 2:
        raise ValueError("need at least two labeled source points")
    half = len(view) // 2
    cal = calibrate(view.hard_scores[:half], alpha)
    return (1.0 - alpha) - _covered_share(true_scores[half:], cal, 0.0)


def tau_correction(hinge_source: float, hinge_target: float, undercoverage_gap: float) -> float:
    """Threshold slack that restores the source coverage floor on the target.

    ``2 * (hinge_target / (hinge_source - undercoverage_gap) - 1)``, clipped
    below at zero: a negative slack would shrink sets below the hard-pseudo
    baseline, defeating the correction.
    """
    _validate_finite(hinge_source=hinge_source, hinge_target=hinge_target, undercoverage_gap=undercoverage_gap)
    _validate_nonnegative(hinge_target=hinge_target)
    denom = hinge_source - undercoverage_gap
    if not denom > 0:
        raise ValueError("degenerate source hinge correction: source hinge loss must exceed the undercoverage gap")
    return max(0.0, 2.0 * (hinge_target / denom - 1.0))
