"""Wasserstein metrics, density estimation, and the coverage bound family."""

import importlib.machinery
import itertools
import math
import sys
import warnings

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist
from scipy.stats import wasserstein_distance

from shiftcp import shift_bounds
from shiftcp.pseudo import select_u_star
from shiftcp.rng import RngStream
from shiftcp.scores import predict, score
from shiftcp.shift_bounds import (
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
from shiftcp.synthetic import generate_source

from oracles import kantorovich_rubinstein_holds, w1_assignment_untransposed, winf_coupled

samples_1d = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=25,
)


def exhaustive_matching_w1(a: np.ndarray, b: np.ndarray) -> float:
    n = a.shape[0]
    return min(
        float(np.mean([np.linalg.norm(a[i] - b[j]) for i, j in enumerate(perm)]))
        for perm in itertools.permutations(range(n))
    )


class TestW1OneDimensional:
    def test_identical_measures(self):
        assert w1_1d([0.0, 1.0], [0.0, 1.0]) == 0.0

    def test_point_masses(self):
        assert w1_1d([0.0], [3.5]) == 3.5
        assert w1_1d([0.0], [-2.0]) == 2.0

    def test_sorted_pairing(self):
        assert w1_1d([0.0, 2.0], [1.0, 3.0]) == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            w1_1d([], [1.0])

    @given(a=samples_1d)
    def test_self_distance_zero(self, a):
        assert w1_1d(a, a) == 0.0

    @given(a=samples_1d, b=samples_1d)
    def test_symmetry(self, a, b):
        assert w1_1d(a, b) == pytest.approx(w1_1d(b, a), abs=1e-9)

    @given(a=samples_1d, b=samples_1d, c=samples_1d)
    def test_triangle_inequality(self, a, b, c):
        assert w1_1d(a, c) <= w1_1d(a, b) + w1_1d(b, c) + 1e-9

    @given(a=samples_1d, b=samples_1d)
    def test_matches_scipy_on_unequal_sizes(self, a, b):
        assert w1_1d(a, b) == pytest.approx(wasserstein_distance(a, b), abs=1e-9)


class TestW1Assignment:
    def test_permutation_is_free(self):
        rng = RngStream(1).generator()
        a = rng.normal(size=(12, 3))
        b = a[rng.permutation(12)]
        assert w1_assignment(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_translation_cost(self):
        rng = RngStream(2).generator()
        a = rng.normal(size=(6, 2))
        t = np.array([1.5, -2.0])
        got = w1_assignment(a, a + t)
        assert got == pytest.approx(np.linalg.norm(t), abs=1e-9)
        assert got == pytest.approx(exhaustive_matching_w1(a, a + t), abs=1e-9)

    def test_matches_exhaustive_enumeration(self):
        rng = RngStream(3).generator()
        for _ in range(40):
            n = int(rng.integers(2, 7))
            d = int(rng.integers(1, 4))
            a = rng.normal(size=(n, d))
            b = rng.normal(size=(n, d))
            assert w1_assignment(a, b) == pytest.approx(exhaustive_matching_w1(a, b), abs=1e-9)

    def test_one_dimensional_reduction(self):
        rng = RngStream(4).generator()
        for _ in range(30):
            n = int(rng.integers(2, 30))
            a = rng.normal(size=(n, 1))
            b = rng.normal(size=(n, 1))
            assert w1_assignment(a, b) == pytest.approx(w1_1d(a[:, 0], b[:, 0]), abs=1e-9)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 40),
        d=st.sampled_from([1, 2, 3]),
        translation=st.sampled_from([0.0, 0.5, 5.0, 50.0]),
        noise=st.sampled_from([0.0, 1e-3, 0.3, 1.0]),
    )
    def test_reduced_costs_keep_the_plain_assignment_value(self, seed, n, d, translation, noise):
        # Translated copies (noise 0) and translations large next to the noise
        # are the near-degenerate instances the reduced costs are for.
        g = np.random.default_rng(seed)
        a = g.normal(size=(n, d))
        b = a[g.permutation(n)] + translation * g.normal(size=d) + noise * g.normal(size=(n, d))
        cost = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
        rows, cols = linear_sum_assignment(cost)
        got = w1_assignment(a, b)
        assert got == pytest.approx(cost[rows, cols].mean(), abs=1e-12)
        # Kantorovich-Rubinstein: the 1-Lipschitz potential x -> <x, theta>
        # certifies W1 >= |mean(b) - mean(a)|.
        assert got >= np.linalg.norm(b.mean(axis=0) - a.mean(axis=0)) - 1e-12

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 60),
        d=st.integers(1, 9),
        translation=st.sampled_from([0.0, 0.5, 5.0, 50.0]),
        noise=st.sampled_from([0.0, 1e-3, 0.3, 1.0]),
    )
    def test_transposed_reduced_costs_keep_the_untransposed_value(self, seed, n, d, translation, noise):
        g = np.random.default_rng(seed)
        a = g.normal(size=(n, d))
        b = a[g.permutation(n)] + translation * g.normal(size=d) + noise * g.normal(size=(n, d))
        forward = shift_bounds._reduced_costs(a, b)
        assert np.array_equal(shift_bounds._reduced_costs(b, a).view(np.int64), forward.T.view(np.int64))
        got, want = w1_assignment(a, b), w1_assignment_untransposed(a, b)
        if d == 1:  # tilted 1-D costs are 0 or 2|x - y|: optimal matchings tie, and a tie may round differently
            assert got == pytest.approx(want, rel=1e-12)
        else:
            assert got.hex() == want.hex()

    def test_size_mismatch_and_oversize_rejected(self):
        with pytest.raises(ValueError):
            w1_assignment(np.zeros((3, 2)), np.zeros((4, 2)))
        with pytest.raises(ValueError):
            w1_assignment(np.zeros((513, 2)), np.zeros((513, 2)))

    def test_identical_samples_skip_the_solver(self, monkeypatch):
        def refuse(cost):
            raise AssertionError("solver called")

        monkeypatch.setattr(shift_bounds, "_linear_sum_assignment", lambda: refuse)
        a = RngStream(6).generator().normal(size=(40, 3))
        a[7] = a[3]  # a repeated point: the identity is still one optimal matching of cost 0
        got = w1_assignment(a, a.copy())
        assert got == 0.0 and math.copysign(1.0, got) == 1.0
        with pytest.raises(AssertionError, match="solver called"):
            w1_assignment(a, a[::-1])

    @pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 9, 17])
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 200, 512])
    @pytest.mark.parametrize("tilted", [False, True])
    def test_blocked_costs_have_the_bits_of_cdist_plus_the_tilt(self, d, n, tilted):
        g = np.random.default_rng(1000 * d + n)
        # Dyadic coordinates sum exactly in any order, so a permuted copy has exactly the same mean.
        a = np.round(g.normal(size=(n, d)) * 64) / 64
        b = a[g.permutation(n)] + (g.normal(size=d) if tilted else 0.0) + (0.3 * g.normal(size=(n, d)) if tilted else 0.0)
        shift = b.mean(axis=0) - a.mean(axis=0)
        assert (np.linalg.norm(shift) > 0) == tilted
        expected = cdist(a, b)
        if tilted:
            theta = shift / np.linalg.norm(shift)
            expected += (a @ theta)[:, None] - (b @ theta)[None, :]
        assert np.array_equal(shift_bounds._reduced_costs(a, b).view(np.int64), expected.view(np.int64))

    def test_solver_is_scipys_public_function(self):
        # This module imported scipy.optimize first; the helper reuses its compiled module.
        assert shift_bounds._linear_sum_assignment() is linear_sum_assignment

    def test_another_scipy_layout_falls_back_to_the_public_import(self, monkeypatch):
        g = np.random.default_rng(8)
        a, b = g.normal(size=(300, 2)), g.normal(size=(300, 2)) + 0.5
        expected = w1_assignment(a, b)
        calls = []

        def public(cost):
            calls.append(cost.shape)
            return linear_sum_assignment(cost)

        monkeypatch.setattr(scipy.optimize, "linear_sum_assignment", public)
        monkeypatch.delitem(sys.modules, "scipy.optimize._lsap")
        monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec", classmethod(lambda cls, *args, **kwargs: None))
        shift_bounds._linear_sum_assignment.cache_clear()
        try:
            assert w1_assignment(a, b).hex() == expected.hex()
        finally:
            shift_bounds._linear_sum_assignment.cache_clear()
        assert calls == [(300, 300)]

    @pytest.mark.parametrize("max_points", [600, 513, 0, -3, 2.5, 64.0, True, "64", None])
    def test_subsampled_variant_rejects_max_points_outside_the_solver_range_before_any_draw(self, max_points):
        a = RngStream(7).generator().normal(size=(700, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^max_points must be an integer in 1..512, got "):
                w1_assignment_subsampled(a, a + 1.0, max_points=max_points)

    def test_subsampled_variant_warns_and_estimates(self):
        rng = RngStream(5).generator()
        a = rng.normal(size=(700, 2))
        t = np.array([0.8, -0.6])
        with pytest.warns(UserWarning, match="subsampling"):
            got = w1_assignment_subsampled(a, a + t, max_points=128)
        # Translation cost survives subsampling exactly (paired rows kept).
        assert got == pytest.approx(1.0, abs=1e-9)
        # Under the cap it defers to the exact solver, silently.
        small = rng.normal(size=(20, 2))
        assert w1_assignment_subsampled(small, small + t) == pytest.approx(w1_assignment(small, small + t))


class TestWinfCoupled:
    def test_identical_pairs(self):
        a = np.arange(10.0).reshape(5, 2)
        assert winf_coupled(a, a) == 0.0

    def test_constant_displacement(self):
        a = np.arange(10.0).reshape(5, 2)
        t = np.array([3.0, 4.0])
        assert winf_coupled(a, a + t) == pytest.approx(5.0)

    def test_triangle_bound_for_translation_plus_clipped_noise(self, inward_shift, three_class_source):
        from shiftcp.synthetic import apply_shift

        x, y = generate_source(three_class_source, 100_000, RngStream(61).substream("base"))
        shifted = apply_shift(x, y, inward_shift, RngStream(61).substream("shift"))
        disp = np.linalg.norm(shifted - x, axis=1)
        per_class_bound = inward_shift.per_class_rho()[y - 1]
        assert (disp <= per_class_bound + 1e-12).all()
        assert winf_coupled(x, shifted) <= inward_shift.rho_true + 1e-12


class TestRhoMix:
    def test_equal_distances_collapse(self):
        assert rho_mix([0.25, 0.25, 0.5], [2.0, 2.0, 2.0]) == pytest.approx(2.0)

    def test_one_hot_prior(self):
        assert rho_mix([0.0, 1.0], [5.0, 1.5]) == 1.5

    def test_weighted_mean(self):
        assert rho_mix([0.5, 0.5], [1.0, 3.0]) == 2.0

    def test_bounded_by_max(self):
        rng = RngStream(7).generator()
        for _ in range(50):
            k = int(rng.integers(2, 6))
            p = rng.dirichlet(np.ones(k))
            d = rng.uniform(0, 5, size=k)
            assert rho_mix(p, d) <= d.max() + 1e-12

    def test_invalid_priors(self):
        with pytest.raises(ValueError):
            rho_mix([0.5, 0.6], [1.0, 1.0])
        with pytest.raises(ValueError):
            rho_mix([-0.1, 1.1], [1.0, 1.0])

    @pytest.mark.parametrize("priors,dists", [([math.nan, 1.0], [1.0, 1.0]), ([0.5, 0.5], [1.0, math.nan])])
    def test_nan_rejected(self, priors, dists):
        with pytest.raises(ValueError, match="nonnegative"):
            rho_mix(priors, dists)

    def test_an_infinite_distance_is_named(self):
        # Unchecked, an infinite per-class distance gives an infinite mixture shift.
        with pytest.raises(ValueError, match=r"^per_class_w1 must be finite, got \[inf, 1\.0\]$"):
            rho_mix([0.5, 0.5], [math.inf, 1.0])


class TestScoreShiftBound:
    @pytest.mark.parametrize("lip,rho,expected", [(0.0, 3.0, 0.0), (2.0, 0.0, 0.0), (math.sqrt(2), 0.5, math.sqrt(2) / 2)])
    def test_product(self, lip, rho, expected):
        assert score_shift_w1_bound(lip, rho) == pytest.approx(expected)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            score_shift_w1_bound(-1.0, 1.0)

    @pytest.mark.parametrize("lip,rho", [(math.nan, 1.0), (1.0, math.nan)])
    def test_nan_rejected(self, lip, rho):
        with pytest.raises(ValueError, match="nonnegative"):
            score_shift_w1_bound(lip, rho)

    @pytest.mark.parametrize("lip,rho,name", [(math.inf, 0.0, "lipschitz"), (0.0, math.inf, "rho")])
    def test_an_infinite_input_is_named(self, lip, rho, name):
        # Unchecked, inf * 0 gives a NaN bound.
        with pytest.raises(ValueError, match=f"^{name} must be finite, got inf$"):
            score_shift_w1_bound(lip, rho)


class TestSupDensity:
    def test_uniform_sample(self):
        s = RngStream(8).generator().uniform(0, 1, size=10_000)
        assert sup_density_estimate(s) == pytest.approx(1.0, abs=0.3)

    def test_scaling_by_power_of_two_is_exact(self):
        s = RngStream(9).generator().normal(size=500)
        assert sup_density_estimate(4.0 * s) == sup_density_estimate(s) / 4.0

    def test_hand_histogram(self):
        # n=4 -> 2 bins of width 1.5 over [0, 3]; both bins hold 2 points.
        assert sup_density_estimate([0.0, 1.0, 2.0, 3.0]) == pytest.approx(1 / 3)

    def test_point_mass_rejected(self):
        with pytest.raises(ValueError):
            sup_density_estimate([2.0, 2.0, 2.0])

    def test_range_below_float_resolution_rejected(self):
        with pytest.raises(ValueError, match="overflows"):
            sup_density_estimate([0.0, 5e-324, 1e-323, 1e-323])


class TestCoverageGapBound:
    @pytest.mark.parametrize("sup,w1,expected", [(2.0, 0.0, 0.0), (2.0, 0.1, 0.2)])
    def test_product(self, sup, w1, expected):
        assert coverage_gap_bound(sup, w1) == pytest.approx(expected)

    def test_composition_with_shift_bound(self):
        assert coverage_gap_bound(2.0, score_shift_w1_bound(1.0, 0.3)) == pytest.approx(0.6)

    @pytest.mark.parametrize("sup,w1", [(-1.0, 0.1), (2.0, -0.1), (math.nan, 0.1), (2.0, math.nan)])
    def test_negative_rejected(self, sup, w1):
        with pytest.raises(ValueError, match="nonnegative"):
            coverage_gap_bound(sup, w1)

    @pytest.mark.parametrize("sup,w1,name", [(math.inf, 0.0, "sup_density"), (0.0, math.inf, "w1")])
    def test_an_infinite_input_is_named(self, sup, w1, name):
        # Unchecked, inf * 0 gives a NaN bound.
        with pytest.raises(ValueError, match=f"^{name} must be finite, got inf$"):
            coverage_gap_bound(sup, w1)


class TestPseudoCoverageLowerBound:
    def test_arithmetic(self):
        assert pseudo_coverage_lower_bound(0.2, 0.05, 1.0, 0.1) == pytest.approx(0.65)

    def test_clipped_at_zero(self):
        assert pseudo_coverage_lower_bound(0.2, 0.9, 1.0, 0.5) == 0.0

    def test_lossless_no_shift(self):
        assert pseudo_coverage_lower_bound(0.2, 0.0, 2.0, 0.0) == pytest.approx(0.8)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.2, math.nan])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            pseudo_coverage_lower_bound(alpha, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize(
        "ramp,lip,rho",
        [(-1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.0, 0.0, -1.0), (math.nan, 1.0, 0.1), (0.0, math.nan, 0.1), (0.0, 1.0, math.nan)],
    )
    def test_negative_input_rejected(self, ramp, lip, rho):
        with pytest.raises(ValueError, match="nonnegative"):
            pseudo_coverage_lower_bound(0.2, ramp, lip, rho)

    @pytest.mark.parametrize(
        "ramp,lip,rho,name",
        [(math.inf, 0.1, 0.0, "ramp_source"), (0.1, math.inf, 0.0, "lipschitz"), (0.1, 0.1, math.inf, "rho_mix_value")],
    )
    def test_an_infinite_input_is_named(self, ramp, lip, rho, name):
        # Unchecked, each gives a floor of 0: -inf, or the NaN of inf * 0, clipped by max(0, .).
        with pytest.raises(ValueError, match=f"^{name} must be finite, got inf$"):
            pseudo_coverage_lower_bound(0.2, ramp, lip, rho)


class TestRelaxedCoverageLowerBound:
    def test_zero_slack_uses_ramp(self):
        # Ramp loss never exceeds hinge loss, so the min starts at the ramp term.
        assert relaxed_coverage_lower_bound(0.2, 0.2, 0.5, 0.0) == pytest.approx(0.6)

    def test_min_switches_at_crossover(self):
        ramp, hinge = 0.2, 0.5
        crossover = 2 * (hinge / ramp - 1)  # tau = 3
        just_below = relaxed_coverage_lower_bound(0.2, ramp, hinge, crossover - 1e-9)
        just_above = relaxed_coverage_lower_bound(0.2, ramp, hinge, crossover + 0.5)
        assert just_below == pytest.approx(0.8 - ramp, abs=1e-9)
        assert just_above == pytest.approx(0.8 - hinge / (1 + (crossover + 0.5) / 2))
        assert just_above > just_below

    def test_lossless_classifier(self):
        assert relaxed_coverage_lower_bound(0.2, 0.0, 0.0, 1.0) == pytest.approx(0.8)

    def test_non_decreasing_and_floor_at_ramp_value(self):
        taus = np.linspace(0, 50, 200)
        vals = [relaxed_coverage_lower_bound(0.2, 0.3, 0.9, t) for t in taus]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))
        assert all(v >= 0.8 - 0.3 - 1e-12 for v in vals)
        # The hinge term vanishes for huge tau, leaving the nominal level.
        assert relaxed_coverage_lower_bound(0.2, 0.3, 0.9, 1e9) == pytest.approx(0.8)

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            relaxed_coverage_lower_bound(0.2, 0.1, 0.2, -0.5)

    @pytest.mark.parametrize(
        "alpha,ramp,hinge,tau", [(math.nan, 0.1, 0.3, 0.0), (0.2, math.nan, 0.3, 0.0), (0.2, 0.1, math.nan, 0.0), (0.2, 0.1, 0.3, math.nan)]
    )
    def test_nan_input_rejected(self, alpha, ramp, hinge, tau):
        with pytest.raises(ValueError, match="alpha|nonnegative"):
            relaxed_coverage_lower_bound(alpha, ramp, hinge, tau)

    @pytest.mark.parametrize(
        "ramp,hinge,tau,name", [(math.inf, 0.1, 0.0, "ramp_target"), (0.1, math.inf, 0.0, "hinge_target"), (0.1, 0.3, math.inf, "tau")]
    )
    def test_an_infinite_input_is_named(self, ramp, hinge, tau, name):
        # Unchecked, the min drops the infinite loss (0.7 from a ramp loss above 1) and tau=inf gives the nominal 0.8.
        with pytest.raises(ValueError, match=f"^{name} must be finite, got inf$"):
            relaxed_coverage_lower_bound(0.2, ramp, hinge, tau)


class TestUndercoverageGap:
    def test_near_zero_for_accurate_classifier(self, trained_model, three_class_source):
        x, y = generate_source(three_class_source, 4000, RngStream(71).substream("d"))
        gap = undercoverage_gap_estimate(trained_model, x, y, 0.2)
        assert abs(gap) <= 0.05

    def test_positive_for_corrupted_classifier(self, trained_model, three_class_source):
        from shiftcp.scores import LinearLogitMap

        # Permuting the weight rows mislabels almost everything.
        corrupted = LinearLogitMap(np.roll(trained_model.weights, 1, axis=0), np.roll(trained_model.biases, 1))
        x, y = generate_source(three_class_source, 4000, RngStream(72).substream("d"))
        assert undercoverage_gap_estimate(corrupted, x, y, 0.2) > 0.1

    def test_definition_arithmetic(self, trained_model, three_class_source):
        from shiftcp.conformal import coverage
        from shiftcp.pseudo import pseudo_calibrate

        x, y = generate_source(three_class_source, 500, RngStream(73).substream("d"))
        gap = undercoverage_gap_estimate(trained_model, x, y, 0.2)
        cal = pseudo_calibrate(trained_model, x[:250], 0.2)
        cov = coverage(trained_model, x[250:], y[250:], cal)
        assert gap == pytest.approx((1 - 0.2) - cov, abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_equals_the_two_half_view_formula(self, seed):
        """Slicing one view and one label gather gives the bits of rescoring each half on its own."""
        from shiftcp.conformal import coverage
        from shiftcp.pseudo import pseudo_calibrate
        from shiftcp.scores import LinearLogitMap, ScoredView, scored_view

        g = np.random.default_rng(seed)
        n, k = int(g.integers(2, 300)), int(g.integers(2, 6))
        model = LinearLogitMap(g.normal(size=(k, 3)), g.normal(size=k))
        x, y = g.normal(size=(n, 3)), g.integers(1, k + 1, size=n)
        # A tie-heavy sample: rounded logits make equal scores common.
        for view in (scored_view(model, x), ScoredView(np.round(model.logit_matrix(x)))):
            for alpha in (0.05, 0.2, 0.5):
                half = n // 2
                cal = pseudo_calibrate(None, ScoredView(view.logits[:half]), alpha)
                want = (1.0 - alpha) - coverage(None, ScoredView(view.logits[half:]), y[half:], cal)
                assert undercoverage_gap_estimate(None, view, y, alpha) == want

    def test_first_half_labels_are_checked(self, trained_model, three_class_source):
        x, y = generate_source(three_class_source, 40, RngStream(74).substream("d"))
        for bad in (0, 4):
            labels = y.copy()
            labels[3] = bad  # in the calibration half, which reads no labels
            with pytest.raises(ValueError, match="labels must lie in 1"):
                undercoverage_gap_estimate(trained_model, x, labels, 0.2)


class TestTauCorrection:
    def test_identity_case(self):
        assert tau_correction(0.5, 0.4, 0.1) == 0.0

    def test_doubling_case(self):
        assert tau_correction(0.5, 0.8, 0.1) == pytest.approx(2.0)

    def test_degenerate_denominator(self):
        with pytest.raises(ValueError):
            tau_correction(0.3, 0.5, 0.3)
        with pytest.raises(ValueError):
            tau_correction(0.2, 0.5, 0.3)

    def test_negative_result_clipped(self):
        assert tau_correction(1.0, 0.2, 0.0) == 0.0

    @pytest.mark.parametrize("hinge_source,hinge_target,gap", [(math.nan, 0.5, 0.1), (0.5, math.nan, 0.1), (0.5, 0.5, math.nan)])
    def test_nan_input_rejected(self, hinge_source, hinge_target, gap):
        with pytest.raises(ValueError):
            tau_correction(hinge_source, hinge_target, gap)

    @pytest.mark.parametrize("hinge_source", [math.inf, math.nan])
    def test_a_non_finite_source_loss_is_named(self, hinge_source):
        # Unchecked, inf gives a slack of 0, and NaN reaches the denominator check, which blames the gap.
        with pytest.raises(ValueError, match=f"^hinge_source must be finite, got {hinge_source}$"):
            tau_correction(hinge_source, 0.1, 0.0)


_NONNEGATIVE, _ALPHA, _COVERAGE = st.floats(0.0, 10.0), st.floats(0.01, 0.99), st.floats(0.0, 1.0)

#: The certificate family: strategies for each float argument of a valid call, and the call. select_u_star's
#: alpha and its two points' coverages are varied, not their cutoffs, as u = inf is a valid cutoff; rho_mix's
#: floats are a prior and the distances.
CERTIFICATE_CALLS = {
    "score_shift_w1_bound": ((_NONNEGATIVE, _NONNEGATIVE), score_shift_w1_bound),
    "coverage_gap_bound": ((_NONNEGATIVE, _NONNEGATIVE), coverage_gap_bound),
    "pseudo_coverage_lower_bound": ((_ALPHA, _NONNEGATIVE, _NONNEGATIVE, _NONNEGATIVE), pseudo_coverage_lower_bound),
    "relaxed_coverage_lower_bound": ((_ALPHA, _NONNEGATIVE, _NONNEGATIVE, _NONNEGATIVE), relaxed_coverage_lower_bound),
    "tau_correction": ((st.floats(1.0, 2.0), _NONNEGATIVE, st.floats(-0.5, 0.5)), tau_correction),
    "rho_mix": ((st.just(0.5), _NONNEGATIVE, _NONNEGATIVE), lambda prior, d1, d2: rho_mix([prior, 0.5], [d1, d2])),
    "select_u_star": ((_ALPHA, _COVERAGE, _COVERAGE), lambda alpha, c0, c1: select_u_star([(0.0, c0), (0.5, c1)], alpha)),
}


@pytest.mark.parametrize("name", sorted(CERTIFICATE_CALLS))
@given(data=st.data(), bad=st.sampled_from([math.nan, math.inf, -math.inf]))
def test_a_non_finite_argument_is_refused(name, data, bad):
    strategies, call = CERTIFICATE_CALLS[name]
    args = [data.draw(strategy) for strategy in strategies]
    assert math.isfinite(call(*args))
    args[data.draw(st.integers(0, len(args) - 1))] = bad
    with pytest.raises(ValueError):
        call(*args)


class TestKantorovichRubinstein:
    def test_constant_function(self):
        assert kantorovich_rubinstein_holds([2.0, 2.0], [2.0, 2.0, 2.0], 5.0, 0.0)

    def test_identity_in_one_dimension(self):
        rng = RngStream(81).generator()
        a = rng.normal(size=50)
        b = rng.normal(loc=0.4, size=50)
        # For f = identity the mean gap is at most W1 exactly.
        assert abs(a.mean() - b.mean()) <= w1_1d(a, b) + 1e-12
        assert kantorovich_rubinstein_holds(a, b, 1.0, w1_1d(a, b))

    def test_random_lipschitz_functions_monte_carlo(self):
        rng = RngStream(82).generator()
        for _ in range(10_000):
            n = int(rng.integers(2, 12))
            a = rng.normal(size=n)
            b = rng.normal(loc=rng.normal() * 0.5, size=n)
            lip = float(rng.uniform(0.1, 3.0))
            anchor = float(rng.normal())
            # f(x) = lip * |x - anchor| is lip-Lipschitz.
            assert kantorovich_rubinstein_holds(lip * np.abs(a - anchor), lip * np.abs(b - anchor), lip, w1_1d(a, b))


class TestProofStepScoreRelations:
    def test_pointwise_relations_on_synthetic_trial(self, trained_model, three_class_source, inward_shift):
        from shiftcp.synthetic import apply_shift

        x, y = generate_source(three_class_source, 5000, RngStream(91).substream("base"))
        xs = apply_shift(x, y, inward_shift.scaled(1.5), RngStream(91).substream("shift"))
        s_true = score(trained_model, xs, y)
        s_pseudo = score(trained_model, xs, predict(trained_model, xs))
        assert (s_true >= s_pseudo - 1e-12).all()
        correct = predict(trained_model, xs) == y
        assert np.allclose(s_true[correct], s_pseudo[correct], atol=1e-12)
        wrong = ~correct
        assert (s_true[wrong] - s_pseudo[wrong] <= 2 * s_true[wrong] + 1e-9).all()

