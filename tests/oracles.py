"""Reference helpers the tests check the package against; none is part of its API.

``kantorovich_rubinstein_holds`` checks ``w1_1d``'s duality, ``winf_coupled``
the generator's displacement certificate, ``randomized_pseudo_label`` is the
per-point labelling rule the vectorized pseudo-scores implement,
``w1_assignment_untransposed`` is ``w1_assignment`` on its untransposed,
unreduced costs, and ``write_logit_table`` builds the tests' logit tables.
"""

import numpy as np
from scipy.optimize import linear_sum_assignment

from shiftcp.rng import RngStream
from shiftcp.scores import predict
from shiftcp.shift_bounds import _finite_sample, _paired_points, _reduced_costs
from shiftcp.synthetic import _write_split_table


def winf_coupled(a, b) -> float:
    """Sup displacement of an explicit pairing; upper-bounds W-infinity.

    The rows of ``a`` and ``b`` are matched positionally (a known coupling,
    e.g. pre/post-shift pairs), and any explicit coupling is feasible for the
    infimum defining W-infinity.
    """
    pa, pb = _paired_points(a, b)
    return float(np.linalg.norm(pa - pb, axis=1).max())


def kantorovich_rubinstein_holds(f_values_p, f_values_q, lipschitz: float, w1: float, slack: float = 1e-9) -> bool:
    """Whether ``|mean_P f - mean_Q f| <= lipschitz * w1`` holds (with rounding slack).

    Test oracle for Lipschitz test functions; not intended as a user-facing
    estimate.
    """
    fp = _finite_sample(f_values_p, "f_values_p")
    fq = _finite_sample(f_values_q, "f_values_q")
    return abs(fp.mean() - fq.mean()) <= lipschitz * w1 + slack


def randomized_pseudo_label(model, h_value: float, u: float, x, rng: RngStream) -> int:
    """Prediction when ``h_value <= u``, otherwise a uniform class from ``rng``.

    Repeated calls with the same stream replay the same uniform draw; give
    each data point its own substream for independent draws.
    """
    if h_value <= u:
        return int(predict(model, x))
    return int(rng.generator().integers(1, model.n_classes + 1))


def w1_assignment_untransposed(a, b) -> float:
    """``w1_assignment`` solved on the tilted costs with one row per point of ``a``, without row or column reductions.

    The matched lengths are averaged in ``a``'s row order, the order the solver returns its rows in.
    """
    pa, pb = _paired_points(a, b)
    if np.array_equal(pa, pb):
        return 0.0
    rows, cols = linear_sum_assignment(_reduced_costs(pa, pb))
    return float(np.linalg.norm(pa[rows] - pb[cols], axis=1).mean())


def write_logit_table(path, split, labels, logits) -> None:
    """Write a logit-table CSV; floats use repr so a round-trip is bit-identical.

    ``labels`` entries equal to :data:`MISSING_LABEL` are written as MISSING.
    """
    _write_split_table(path, split, labels, logits, "logit_")
