"""Split-conformal calibration, prediction sets, and gap diagnostics."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from shiftcp.conformal import (
    FULL_SET,
    GapEstimate,
    _quantile_count,
    _trapezoid,
    calibrate,
    conformal_level,
    coverage,
    empirical_quantile,
    expected_set_size,
    integrated_coverage_gap,
    prediction_set,
)
from shiftcp.rng import RngStream
from shiftcp.scores import LinearLogitMap


def brute_force_quantile(values, level):
    """Independent oracle: scan the empirical CDF with exact rational arithmetic."""
    if level > 1:
        return FULL_SET
    n = len(values)
    frac = Fraction(level)
    return min(t for t in sorted(values) if Fraction(sum(v <= t for v in values), n) >= frac)


class TestConformalLevel:
    def test_exact_boundary_does_not_overflow(self):
        # (1 - 0.2) * 5 sits on the integer boundary; float ceil would give 5/4.
        assert conformal_level(4, 0.2) == 1.0

    def test_interior_value(self):
        assert conformal_level(3, 0.5) == pytest.approx(2 / 3)

    def test_small_n_exceeds_one(self):
        assert conformal_level(1, 0.4) == 2.0

    @pytest.mark.parametrize("n,alpha", [(0, 0.2), (-1, 0.2), (3, 0.0), (3, 1.0), (3, 1.5), (3, math.nan)])
    def test_invalid_arguments(self, n, alpha):
        with pytest.raises(ValueError):
            conformal_level(n, alpha)

    def test_quantile_at_the_level_is_the_calibrated_threshold(self):
        # Scores 1..10 at the paper's alpha: the ceil(0.8 * 11) = 9th smallest.
        assert empirical_quantile(np.arange(1.0, 11.0), conformal_level(10, 0.2)) == 9.0
        for n in range(1, 200):
            scores = np.arange(n, 0, -1, dtype=float)
            for alpha in np.arange(1, 100) / 100.0:
                cal = calibrate(scores, alpha)
                assert cal.level == conformal_level(n, alpha), (n, alpha)
                assert empirical_quantile(scores, conformal_level(n, alpha)) == cal.threshold, (n, alpha)


class TestEmpiricalQuantile:
    def test_second_order_statistic(self):
        assert empirical_quantile([0.1, 0.5, 0.9], 2 / 3) == 0.5

    def test_level_one_is_max(self):
        assert empirical_quantile([0.1, 0.5, 0.9], 1.0) == 0.9

    def test_constant_scores(self):
        for level in (0.1, 0.5, 1.0):
            assert empirical_quantile([4.0, 4.0, 4.0], level) == 4.0

    def test_overflow_level_gives_full_set(self):
        assert empirical_quantile([1.0], 1.5) == FULL_SET

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_quantile([], 0.5)

    @pytest.mark.parametrize("scores,level", [([1.0, math.nan], 0.5), ([1.0, 2.0], math.nan)])
    def test_nan_rejected(self, scores, level):
        with pytest.raises(ValueError, match="NaN|positive"):
            empirical_quantile(scores, level)

    def test_an_infinite_score_is_refused(self):
        # Unchecked, the 0.9 quantile of [1, inf, 3] is inf.
        with pytest.raises(ValueError, match="^scores must be finite"):
            empirical_quantile([1.0, math.inf, 3.0], 0.9)

    @given(
        scores=st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=5),
        alpha=st.sampled_from([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]),
    )
    def test_matches_cdf_scan(self, scores, alpha):
        level = conformal_level(len(scores), alpha)
        got = empirical_quantile(np.array(scores, dtype=float), level)
        assert got == brute_force_quantile(scores, level)

    @given(
        scores=st.lists(st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=1, max_size=20),
        alpha=st.floats(min_value=0.01, max_value=0.99),
    )
    def test_quantile_is_an_order_statistic(self, scores, alpha):
        level = conformal_level(len(scores), alpha)
        got = empirical_quantile(np.array(scores), level)
        if level <= 1:
            assert got in scores
        else:
            assert got == FULL_SET

    def test_threshold_non_decreasing_in_level(self):
        rng = RngStream(2).generator()
        scores = rng.normal(size=40)
        levels = np.linspace(0.05, 1.0, 25)
        quantiles = [empirical_quantile(scores, lv) for lv in levels]
        assert all(a <= b for a, b in zip(quantiles, quantiles[1:]))


class TestCalibrate:
    def test_nan_scores_rejected(self):
        # A NaN score must raise, not give a NaN threshold.
        with pytest.raises(ValueError, match="NaN"):
            calibrate([0.1, math.nan, 0.3, 0.4, 0.5], 0.2)

    @pytest.mark.parametrize(
        "scores, alpha",
        [([1.0, 2.0, math.inf], 0.4), ([-math.inf] * 10, 0.5)],
        ids=["inf-at-level-one", "minus-inf"],
    )
    def test_an_infinite_score_is_refused(self, scores, alpha):
        # Unchecked, the first returns threshold inf at level 1, which reads as FULL_SET, and the second -inf.
        with pytest.raises(ValueError, match="^scores must be finite"):
            calibrate(scores, alpha)

    def test_level_one_takes_max(self):
        res = calibrate([1.0, 2.0, 3.0, 4.0], 0.2)
        assert res.threshold == 4.0
        assert res.level == 1.0
        assert res.n == 4

    def test_single_score_full_set(self):
        res = calibrate([7.0], 0.4)
        assert res.threshold == FULL_SET
        assert res.level == 2.0

    def test_nine_scores(self):
        res = calibrate(np.arange(1.0, 10.0), 0.2)
        assert res.threshold == 8.0
        assert res.level == pytest.approx(8 / 9)


class TestPredictionSet:
    def test_empty_set_when_threshold_below_all_scores(self, identity_map):
        cal = calibrate([-100.0, -100.0, -100.0, -100.0], 0.2)
        assert prediction_set(identity_map, np.array([3.0, 1.0]), cal) == frozenset()

    def test_full_set_sentinel_includes_all_labels(self, identity_map):
        cal = calibrate([0.0], 0.2)
        assert cal.threshold == FULL_SET
        assert prediction_set(identity_map, np.array([3.0, 1.0]), cal) == {1, 2}

    def test_direct_score_comparison(self, identity_map):
        cal = calibrate([-1.5, -1.5], 0.4)  # threshold -1.5
        x = np.array([3.0, 1.0])  # label scores: -2 and 2
        assert prediction_set(identity_map, x, cal, tau=0.0) == {1}
        assert prediction_set(identity_map, x, cal, tau=4.0) == {1, 2}

    def test_negative_tau_rejected(self, identity_map):
        cal = calibrate([0.0, 0.0], 0.4)
        with pytest.raises(ValueError):
            prediction_set(identity_map, np.zeros(2), cal, tau=-0.1)

    def test_set_non_shrinking_in_tau(self, identity_map):
        rng = RngStream(3).generator()
        cal = calibrate(rng.normal(size=20), 0.2)
        for _ in range(20):
            x = rng.normal(size=2)
            previous = frozenset()
            for tau in (0.0, 0.5, 1.0, 3.0):
                current = prediction_set(identity_map, x, cal, tau)
                assert previous <= current
                previous = current


class TestCoverageAndSetSize:
    def test_nan_input_row_rejected(self, identity_map):
        # A NaN row must raise, not count as a miss.
        cal = calibrate([0.5] * 9, 0.2)
        x = np.array([[3.0, 1.0], [np.nan, 0.0], [0.0, 5.0]])
        with pytest.raises(ValueError, match="finite"):
            coverage(identity_map, x, np.array([1, 1, 2]), cal)
        with pytest.raises(ValueError, match="finite"):
            expected_set_size(identity_map, x, cal)

    def test_nan_tau_rejected(self, identity_map):
        # NaN slack must raise, not give empty sets.
        cal = calibrate([0.5] * 9, 0.2)
        x = np.array([[3.0, 1.0], [0.0, 5.0]])
        with pytest.raises(ValueError, match="tau"):
            coverage(identity_map, x, np.array([1, 2]), cal, tau=math.nan)
        with pytest.raises(ValueError, match="tau"):
            expected_set_size(identity_map, x, cal, tau=math.nan)
        with pytest.raises(ValueError, match="tau"):
            prediction_set(identity_map, x[0], cal, tau=math.nan)

    def test_full_set_covers_everything(self, identity_map):
        cal = calibrate([0.0], 0.2)
        x = np.array([[3.0, 1.0], [0.0, 5.0]])
        assert coverage(identity_map, x, np.array([2, 1]), cal) == 1.0
        assert expected_set_size(identity_map, x, cal) == 2.0

    def test_threshold_below_everything(self, identity_map):
        cal = calibrate([-100.0] * 5, 0.2)
        x = np.array([[3.0, 1.0], [0.0, 5.0]])
        assert coverage(identity_map, x, np.array([1, 2]), cal) == 0.0
        assert expected_set_size(identity_map, x, cal) == 0.0

    def test_half_covered(self, identity_map):
        cal = calibrate([-1.5, -1.5], 0.4)
        x = np.array([[3.0, 1.0], [3.0, 1.0]])
        assert coverage(identity_map, x, np.array([1, 2]), cal) == 0.5

    def test_mixed_set_sizes(self, identity_map):
        cal = calibrate([0.5, 0.5], 0.4)  # threshold 0.5
        # scores per point: (-2, 2) -> set {1}; (0, 0) -> set {1, 2}
        x = np.array([[3.0, 1.0], [1.0, 1.0]])
        assert expected_set_size(identity_map, x, cal) == pytest.approx(1.5)

    def test_coverage_and_ess_monotone_in_tau(self, trained_model, three_class_source):
        from shiftcp.synthetic import generate_source

        x, y = generate_source(three_class_source, 300, RngStream(9).substream("cov"))
        xc, yc = generate_source(three_class_source, 100, RngStream(9).substream("cal"))
        from shiftcp.scores import score

        cal = calibrate(score(trained_model, xc, yc), 0.2)
        taus = [0.0, 0.3, 1.0, 2.5]
        covs = [coverage(trained_model, x, y, cal, t) for t in taus]
        sizes = [expected_set_size(trained_model, x, cal, t) for t in taus]
        assert all(a <= b for a, b in zip(covs, covs[1:]))
        assert all(a <= b for a, b in zip(sizes, sizes[1:]))

    def test_exchangeable_validity_monte_carlo(self, trained_model, three_class_source):
        """Mean coverage over many no-shift trials stays in the exchangeability band."""
        from shiftcp.scores import score
        from shiftcp.synthetic import generate_source

        alpha, n_cal, trials = 0.2, 50, 600
        covs = []
        for t in range(trials):
            stream = RngStream(77).substream("exch", t)
            xc, yc = generate_source(three_class_source, n_cal, stream.substream("cal"))
            xt, yt = generate_source(three_class_source, 80, stream.substream("test"))
            cal = calibrate(score(trained_model, xc, yc), alpha)
            covs.append(coverage(trained_model, xt, yt, cal))
        mean = float(np.mean(covs))
        se = float(np.std(covs, ddof=1) / math.sqrt(trials))
        assert 1 - alpha - 3 * se <= mean <= 1 - alpha + 1 / (n_cal + 1) + 3 * se


def _per_alpha_loop(cal_scores_p, test_scores_p, test_scores_q, grid) -> GapEstimate:
    """Reference for ``integrated_coverage_gap``: one threshold and two CDF searches per alpha."""
    cal_p, tp, tq = (np.sort(np.asarray(v, dtype=float)) for v in (cal_scores_p, test_scores_p, test_scores_q))
    n = cal_p.size
    gaps = np.empty(grid.size)
    for i, a in enumerate(grid):
        k = _quantile_count(n, float(a))
        q = FULL_SET if k > n else cal_p[k - 1]
        fp = np.searchsorted(tp, q, side="right") / tp.size
        fq = np.searchsorted(tq, q, side="right") / tq.size
        gaps[i] = abs(fp - fq)
    integrated = float(_trapezoid(gaps, grid))
    return GapEstimate(per_alpha=tuple(zip(grid.tolist(), gaps.tolist())), integrated=integrated)


class TestCoverageGaps:
    def test_identical_samples_have_zero_gap(self):
        s = np.linspace(-1, 1, 50)
        assert dict(integrated_coverage_gap(s, s, s).per_alpha)[0.2] == 0.0

    def test_fully_separated_samples(self):
        cal = np.linspace(0, 1, 20)
        below = np.full(30, -5.0)
        above = np.full(30, 5.0)
        assert dict(integrated_coverage_gap(cal, below, above).per_alpha)[0.2] == 1.0

    def test_hand_counted_gap(self):
        # Threshold 1 from constant calibration scores; F_P(1) = 1, F_Q(1) = 0.
        assert dict(integrated_coverage_gap([1.0, 1.0, 1.0, 1.0], [0.0, 1.0], [2.0, 3.0]).per_alpha)[0.2] == 1.0

    def test_empirical_cdf_convention(self):
        s = [1.0, 2.0, 3.0]
        cdf = lambda t: sum(v <= t for v in s) / len(s)  # right-continuous: #{s_i <= t} / n
        assert cdf(2.0) == pytest.approx(2 / 3)
        assert empirical_quantile(s, cdf(2.0)) == 2.0  # the smallest order statistic whose CDF reaches the level

    def test_integrated_gap_zero_when_equal(self):
        s = np.linspace(-2, 2, 40)
        est = integrated_coverage_gap(s, s, s)
        assert est.integrated == 0.0
        assert all(g == 0.0 for _, g in est.per_alpha)

    def test_constant_gap_times_span(self):
        # All thresholds land at 50 (n large enough that no grid alpha overflows);
        # the CDF gap there is 0.6 - 0.4 = 0.2 at every alpha.
        cal = np.full(200, 50.0)
        test_p = np.concatenate([np.zeros(60), np.full(40, 100.0)])
        test_q = np.concatenate([np.zeros(40), np.full(60, 100.0)])
        est = integrated_coverage_gap(cal, test_p, test_q)
        assert est.integrated == pytest.approx(0.2 * (0.99 - 0.01), abs=1e-12)

    def test_small_n_alphas_degenerate_to_zero_gap(self):
        # Below alpha = 1/(n+1) the threshold overflows to FULL_SET and the gap vanishes.
        cal = np.full(40, 50.0)
        test_p = np.concatenate([np.zeros(60), np.full(40, 100.0)])
        test_q = np.concatenate([np.zeros(40), np.full(60, 100.0)])
        est = integrated_coverage_gap(cal, test_p, test_q)
        gaps = dict(est.per_alpha)
        assert gaps[0.01] == 0.0 and gaps[0.02] == 0.0
        assert gaps[0.5] == pytest.approx(0.2)

    def test_matches_direct_summation_oracle(self):
        rng = RngStream(5).generator()
        cal = rng.normal(size=37)
        tp = rng.normal(size=53)
        tq = rng.normal(loc=0.7, size=41)
        grid = np.arange(1, 100) / 100.0
        est = integrated_coverage_gap(cal, tp, tq, grid)

        # Independent route: exact-rational quantile count, CDF gap by direct
        # counting, explicit trapezoid accumulation.
        gaps = []
        n = len(cal)
        for a in grid:
            k = math.ceil((1 - Fraction(float(a))) * (n + 1))
            if k > n:
                gaps.append(0.0)
                continue
            q = sorted(cal)[k - 1]
            fp = sum(v <= q for v in tp) / len(tp)
            fq = sum(v <= q for v in tq) / len(tq)
            gaps.append(abs(fp - fq))
        oracle = sum(
            (grid[i + 1] - grid[i]) * (gaps[i] + gaps[i + 1]) / 2 for i in range(len(grid) - 1)
        )
        assert est.integrated == pytest.approx(oracle, abs=1e-12)

    @pytest.mark.parametrize(
        "case",
        ["random", "ties", "n_cal_3", "custom_grid"],
    )
    def test_matches_the_per_alpha_loop_bit_for_bit(self, case):
        rng = RngStream(6).generator()
        cal, tp, tq = rng.normal(size=201), rng.normal(size=307), rng.normal(loc=0.4, size=389)
        grid = None
        if case == "ties":
            cal, tp, tq = (np.round(v * 2) / 2 for v in (cal, tp, tq))
        elif case == "n_cal_3":
            cal = cal[:3]  # every alpha below 1/4 overflows the quantile count: FULL_SET
        elif case == "custom_grid":
            grid = np.sort(rng.uniform(0.001, 0.999, size=17))
        est = integrated_coverage_gap(cal, tp, tq, grid)
        oracle = _per_alpha_loop(cal, tp, tq, np.arange(1, 100) / 100.0 if grid is None else grid)
        assert [(a, g.hex()) for a, g in est.per_alpha] == [(a, g.hex()) for a, g in oracle.per_alpha]
        assert est.integrated.hex() == oracle.integrated.hex()
        if case == "n_cal_3":
            assert dict(est.per_alpha)[0.01] == 0.0

    @pytest.mark.parametrize(
        "cal, test_p, test_q, name",
        [
            ([0.1, 0.2, 0.3], [0.1, 0.25], [0.3, 0.4, math.nan], "test_scores_q"),
            ([0.1, 0.2, 0.3], [0.1, 0.25, math.inf], [0.3, 0.4], "test_scores_p"),
            ([0.1, 0.2, -math.inf], [0.1, 0.25], [0.3, 0.4], "cal_scores_p"),
        ],
        ids=["nan-in-q", "inf-in-p", "minus-inf-in-cal"],
    )
    def test_a_non_finite_score_is_refused(self, cal, test_p, test_q, name):
        # Unchecked, NaN in q gives 0.4925 and inf in p 0.2067, against the finite samples' 0.3725.
        assert integrated_coverage_gap([0.1, 0.2, 0.3], [0.1, 0.25], [0.3, 0.4]).integrated == pytest.approx(0.3725)
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            integrated_coverage_gap(cal, test_p, test_q)

    def test_gap_grid_validation(self):
        s = np.linspace(0, 1, 10)
        with pytest.raises(ValueError):
            integrated_coverage_gap(s, s, s, alpha_grid=[0.5])
        with pytest.raises(ValueError):
            integrated_coverage_gap(s, s, s, alpha_grid=[0.0, 0.5])
        with pytest.raises(ValueError):
            integrated_coverage_gap(s, s, s, alpha_grid=[0.5, 0.4])


class TestQuantileOracleExhaustive:
    def test_all_small_multisets(self):
        """Every multiset of size <= 4 over {1..4} at a 9-point alpha grid."""
        alphas = [round(0.1 * i, 1) for i in range(1, 10)]
        checked = 0
        for size in range(1, 5):
            for values in itertools.combinations_with_replacement(range(1, 5), size):
                scores = np.array(values, dtype=float)
                for alpha in alphas:
                    level = conformal_level(size, alpha)
                    assert empirical_quantile(scores, level) == brute_force_quantile(values, level)
                    checked += 1
        assert checked == 9 * (4 + 10 + 20 + 35)
