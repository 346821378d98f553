"""Conformal prediction under bounded label-conditional covariate shift.

Margin-based nonconformity scores, split-conformal calibration with
tau-relaxed prediction sets, pseudo-calibration on unlabeled targets with
source-tuned randomized labels, Wasserstein shift metrics with coverage lower
bounds, and a synthetic benchmark with analytically certified shift sizes.
"""

from .conformal import (
    FULL_SET,
    CalibrationResult,
    GapEstimate,
    calibrate,
    conformal_level,
    coverage,
    empirical_cdf,
    empirical_quantile,
    expected_set_size,
    integrated_coverage_gap,
    prediction_set,
)
from .exceptions import ConfigError, DataError, InvariantError
from .pseudo import (
    TuningResult,
    UncertaintyGrid,
    hard_pseudo_label,
    pseudo_calibrate,
    select_u_star,
    source_coverage_curve,
    source_tuned_calibrate,
)
from .rng import RngStream
from .scores import (
    LinearLogitMap,
    ScoredView,
    hinge_loss,
    lipschitz_bound,
    logits,
    margin,
    population_hinge_loss,
    population_ramp_loss,
    predict,
    predictive_entropy,
    ramp_loss,
    score,
    score_matrix,
    scored_view,
)
from .shift_bounds import (
    coverage_gap_bound,
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
    LogitTableMap,
    ShiftSpec,
    SourceSpec,
    apply_shift,
    generate_source,
    load_logit_table,
    train_classifier,
    write_dataset_csv,
)

__version__ = "0.1.0"
