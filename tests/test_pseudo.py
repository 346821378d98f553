"""Pseudo-labels, randomized labels, and the source-tuned calibration pipeline."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftcp.conformal import calibrate, coverage
from shiftcp.pseudo import (
    UncertaintyGrid,
    _curve_with_thresholds,
    pseudo_calibrate,
    select_u_star,
    source_coverage_curve,
    source_tuned_calibrate,
)
from shiftcp.rng import RngStream
from shiftcp.scores import LinearLogitMap, ScoredView, predict, predictive_entropy, score
from shiftcp.synthetic import generate_source

from oracles import randomized_pseudo_label


class TestRngStream:
    def test_same_address_replays_draws(self):
        a = RngStream(42, 7).generator().normal(size=5)
        b = RngStream(42, 7).generator().normal(size=5)
        np.testing.assert_array_equal(a, b)

    def test_substreams_differ(self):
        root = RngStream(42)
        a = root.substream("x").generator().normal(size=5)
        b = root.substream("y").generator().normal(size=5)
        c = root.substream("x", 1).generator().normal(size=5)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_substream_is_stable(self):
        assert RngStream(1).substream("trial", 3) == RngStream(1).substream("trial", 3)

    def test_bad_key_type(self):
        with pytest.raises(TypeError):
            RngStream(1).substream(1.5)

    @pytest.mark.parametrize("field, address", [("seed", (-1,)), ("seed", (2**64,)), ("stream", (1, -1)), ("stream", (1, 2**64))])
    def test_address_outside_64_bits_is_refused(self, field, address):
        # -1 would alias 2**64 - 1 and 2**64 would alias 0.
        with pytest.raises(ValueError, match=f"^{field} must lie in"):
            RngStream(*address)

    @pytest.mark.parametrize("field, address", [("seed", (True,)), ("seed", (1.5,)), ("stream", (1, True)), ("stream", (1, 2.0))])
    def test_address_that_is_not_an_int_is_refused(self, field, address):
        # True would replay seed 1; a float failed only at the first draw.
        with pytest.raises(TypeError, match=f"^{field} must be an int"):
            RngStream(*address)

    @pytest.mark.parametrize("key", [2**63, -(2**63) - 1])
    def test_int_key_outside_signed_64_bits_is_refused(self, key):
        with pytest.raises(ValueError, match=f"key {key} lies outside"):
            RngStream(1).substream(key)
        RngStream(1).substream(2**63 - 1, -(2**63))


class TestUncertaintyGrid:
    def test_default_spans_entropy_range(self):
        grid = UncertaintyGrid.default(3)
        assert len(grid) == 33
        assert grid.values[0] == 0.0
        assert grid.values[-2] == pytest.approx(math.log(3))
        assert math.isinf(grid.values[-1])

    @pytest.mark.parametrize("args, kwargs", [((2.5,), {}), ((True,), {}), ((3,), {"size": 2.5}), ((3,), {"size": True})])
    def test_default_refuses_a_size_that_is_not_an_integer(self, args, kwargs):
        with pytest.raises(ValueError, match="must be an integer"):
            UncertaintyGrid.default(*args, **kwargs)

    def test_rejects_unsorted_or_negative(self):
        with pytest.raises(ValueError):
            UncertaintyGrid(np.array([0.2, 0.1]))
        with pytest.raises(ValueError):
            UncertaintyGrid(np.array([-0.1, 0.5]))
        with pytest.raises(ValueError):
            UncertaintyGrid(np.array([]))


class TestPseudoLabels:
    def test_hard_label_is_argmax(self, identity_map):
        assert predict(identity_map, np.array([3.0, 1.0])) == 1
        assert predict(identity_map, np.array([3.0, 3.0])) == 1

    def test_hard_label_three_classes(self):
        m = LinearLogitMap(np.eye(3), np.zeros(3))
        assert predict(m, np.array([-1.0, 0.5, -2.0])) == 2

    def test_unbounded_cutoff_always_predicts(self, identity_map):
        x = np.array([0.1, 0.1])
        h = predictive_entropy(identity_map, x)
        rng = RngStream(0)
        for _ in range(10):
            assert randomized_pseudo_label(identity_map, h, math.inf, x, rng) == predict(identity_map, x)

    def test_cutoff_below_entropy_draws_uniformly(self):
        m = LinearLogitMap(np.eye(4), np.zeros(4))
        x = np.zeros(4)
        h = predictive_entropy(m, x)
        n = 100_000
        root = RngStream(123)
        draws = np.array([randomized_pseudo_label(m, h, -1.0, x, root.substream(i)) for i in range(n)])
        freq = np.bincount(draws, minlength=5)[1:] / n
        sigma = math.sqrt(0.25 * 0.75 / n)
        assert np.abs(freq - 0.25).max() <= 3 * sigma

    def test_partition_between_hard_and_uniform(self, trained_model, three_class_source):
        x, _ = generate_source(three_class_source, 400, RngStream(21).substream("data"))
        h = predictive_entropy(trained_model, x)
        u = float(np.median(h))
        hard = predict(trained_model, x)
        got = np.array(
            [randomized_pseudo_label(trained_model, h[i], u, x[i], RngStream(21).substream("pt", i)) for i in range(400)]
        )
        # Points at or below the cutoff must match the prediction exactly.
        np.testing.assert_array_equal(got[h <= u], hard[h <= u])
        # Points above the cutoff follow the per-point uniform draw by definition.
        expected_above = np.array(
            [RngStream(21).substream("pt", i).generator().integers(1, 4) for i in range(400)]
        )
        np.testing.assert_array_equal(got[h > u], expected_above[h > u])


class TestPseudoCalibrate:
    def test_hard_threshold_nonpositive(self, trained_model, three_class_source):
        # Hard pseudo-scores are negated predicted-class margins, never positive.
        x, _ = generate_source(three_class_source, 300, RngStream(31).substream("t"))
        cal = pseudo_calibrate(trained_model, x, 0.2)
        assert cal.threshold <= 0.0

    def test_unbounded_cutoff_reproduces_hard_rule(self, trained_model, three_class_source):
        x, _ = generate_source(three_class_source, 200, RngStream(32).substream("t"))
        hard = pseudo_calibrate(trained_model, x, 0.2)
        randomized = pseudo_calibrate(trained_model, x, 0.2, u=math.inf, rng=RngStream(1))
        assert hard == randomized

    def test_seeded_replay_of_fully_randomized_labels(self, trained_model, three_class_source):
        x, _ = generate_source(three_class_source, 150, RngStream(33).substream("t"))
        rng = RngStream(33).substream("labels")
        cal = pseudo_calibrate(trained_model, x, 0.2, u=0.0, rng=rng)  # every entropy here is positive
        # Independent re-simulation from the same stream address.
        labels = RngStream(33).substream("labels").generator().integers(1, 4, size=150)
        expected = calibrate(score(trained_model, x, labels), 0.2)
        assert cal == expected

    def test_finite_cutoff_requires_rng(self, trained_model, three_class_source):
        x, _ = generate_source(three_class_source, 50, RngStream(34).substream("t"))
        with pytest.raises(ValueError):
            pseudo_calibrate(trained_model, x, 0.2, u=0.5)

    def test_empty_inputs_rejected(self, trained_model):
        with pytest.raises(ValueError):
            pseudo_calibrate(trained_model, np.empty((0, 2)), 0.2)

    def test_a_nan_cutoff_is_refused(self, trained_model, three_class_source):
        # NaN compares false with every entropy, so unchecked it randomizes every label.
        x, _ = generate_source(three_class_source, 50, RngStream(34).substream("t"))
        with pytest.raises(ValueError, match="^cutoff u must be a number, got nan$"):
            pseudo_calibrate(trained_model, x, 0.2, u=math.nan, rng=RngStream(1))

    @pytest.mark.parametrize("u", [-1.0, -math.inf])
    def test_a_negative_cutoff_is_refused(self, trained_model, three_class_source, u):
        # Every entropy exceeds a negative cutoff, so it used to randomize every label without a word.
        x, _ = generate_source(three_class_source, 50, RngStream(34).substream("t"))
        with pytest.raises(ValueError, match=f"^cutoff u must be nonnegative, got {u}$"):
            pseudo_calibrate(trained_model, x, 0.2, u=u, rng=RngStream(1))

    def test_score_dominance_per_draw(self, trained_model, three_class_source):
        """Randomized pseudo-labels never score below the hard pseudo-label."""
        x, _ = generate_source(three_class_source, 500, RngStream(35).substream("t"))
        hard_scores = score(trained_model, x, predict(trained_model, x))
        h = predictive_entropy(trained_model, x)
        for i, u in enumerate([0.0, 0.2, 0.5, 1.0]):
            rng = RngStream(35).substream("labels", i)
            labels = np.where(h <= u, predict(trained_model, x), rng.generator().integers(1, 4, size=500))
            assert (score(trained_model, x, labels) >= hard_scores - 1e-12).all()

    def test_threshold_monotone_in_cutoff_under_coupling(self, trained_model, three_class_source):
        x, _ = generate_source(three_class_source, 400, RngStream(36).substream("t"))
        rng = RngStream(36).substream("coupled")
        hard = pseudo_calibrate(trained_model, x, 0.2)
        grid = np.linspace(0.0, math.log(3), 12)
        thresholds = [pseudo_calibrate(trained_model, x, 0.2, u=float(u), rng=rng).threshold for u in grid]
        assert all(t >= hard.threshold for t in thresholds)
        # Less randomization (larger u) can only lower the threshold.
        assert all(a >= b for a, b in zip(thresholds, thresholds[1:]))


class TestSourceCoverageCurve:
    def test_separable_source_retains_coverage_at_unbounded_cutoff(self):
        # A high-margin map classifies these points perfectly, so the pseudo
        # scores equal the true scores and in-sample coverage >= 1 - alpha.
        m = LinearLogitMap(np.array([[5.0, 0.0], [-5.0, 0.0]]), np.zeros(2))
        x = np.vstack([np.tile([1.0, 0.0], (30, 1)), np.tile([-1.0, 0.0], (30, 1))])
        y = np.array([1] * 30 + [2] * 30)
        curve = source_coverage_curve(m, x, y, 0.2, UncertaintyGrid(np.array([np.inf])), RngStream(4))
        assert curve[-1][1] >= 0.8

    def test_single_point_curve_is_binary(self, trained_model, three_class_source):
        x, y = generate_source(three_class_source, 1, RngStream(41).substream("t"))
        curve = source_coverage_curve(trained_model, x, y, 0.2, UncertaintyGrid.default(3, size=4), RngStream(41))
        assert all(c in (0.0, 1.0) for _, c in curve)

    def test_curve_non_increasing_in_cutoff_per_trial(self, trained_model, three_class_source):
        """Coupled uniform draws make the curve monotone realization by realization."""
        for t in range(500):
            stream = RngStream(42).substream("curve", t)
            x, y = generate_source(three_class_source, 60, stream.substream("data"))
            curve = source_coverage_curve(
                trained_model, x, y, 0.2, UncertaintyGrid.default(3, size=6), stream.substream("labels")
            )
            values = [c for _, c in curve]
            assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_empty_source_rejected(self, trained_model):
        with pytest.raises(ValueError):
            source_coverage_curve(
                trained_model, np.empty((0, 2)), np.empty(0, dtype=int), 0.2, UncertaintyGrid.default(3), RngStream(0)
            )


class TestSelectUStar:
    def test_max_qualifying_cutoff(self):
        curve = [(0.1, 0.9), (0.5, 0.85), (1.0, 0.7)]
        assert select_u_star(curve, 0.2) == 0.5

    def test_all_qualify_takes_max(self):
        curve = [(0.1, 0.95), (0.5, 0.9), (1.0, 0.85)]
        assert select_u_star(curve, 0.2) == 1.0

    def test_none_qualify_falls_back_to_min(self):
        curve = [(0.1, 0.5), (0.5, 0.4), (1.0, 0.3)]
        assert select_u_star(curve, 0.2) == 0.1

    def test_empty_curve_rejected(self):
        with pytest.raises(ValueError):
            select_u_star([], 0.2)

    @pytest.mark.parametrize("curve", [[(math.nan, 0.9), (0.5, 0.9)], [(0.0, math.nan), (0.5, 0.9)]], ids=["nan-u", "nan-coverage"])
    def test_a_nan_point_is_refused(self, curve):
        # Unchecked, a NaN cutoff comes out as u* and a NaN coverage is skipped.
        with pytest.raises(ValueError, match=r"^coverage curve points must be numbers, got \(u, c_hat\) = \("):
            select_u_star(curve, 0.2)

    @pytest.mark.parametrize(
        "curve, bad",
        [
            ([(0.0, 0.5), (0.5, math.inf)], r"\(0\.5, inf\)"),
            ([(0.0, 0.9), (0.5, 1.7)], r"\(0\.5, 1\.7\)"),
            ([(0.0, -0.5), (0.5, 0.1)], r"\(0\.0, -0\.5\)"),
            ([(-1.0, 0.9), (0.5, 0.1)], r"\(-1\.0, 0\.9\)"),
        ],
        ids=["inf-coverage", "coverage-above-one", "negative-coverage", "negative-cutoff"],
    )
    def test_a_point_no_coverage_curve_can_hold_is_refused(self, curve, bad):
        # Unchecked, these return 0.5, 0.5, 0.0 and the cutoff -1.0, which randomizes every label.
        with pytest.raises(ValueError, match=rf"^coverage curve points need .* got \(u, c_hat\) = {bad}$"):
            select_u_star(curve, 0.2)

    def test_an_infinite_cutoff_is_a_valid_point(self):
        assert select_u_star([(0.0, 0.9), (math.inf, 0.85)], 0.2) == math.inf

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_alpha_is_refused(self, alpha):
        # Unchecked, NaN and -inf qualify no cutoff and fall back to 0.0, and inf qualifies every one.
        with pytest.raises(ValueError, match=rf"^alpha must lie in \(0, 1\), got {alpha}$"):
            select_u_star([(0.0, 0.9), (0.5, 0.8)], alpha)


def skewed_model() -> LinearLogitMap:
    """A deliberately miscalibrated map: confident errors on class-2 points.

    The class-2 weight row points away from the class-2 cluster, so a slice of
    class-2 source points is confidently assigned to class 1 and the in-sample
    pseudo coverage dips below the nominal level, forcing the cutoff sweep to
    randomize.
    """
    return LinearLogitMap(np.array([[3.0, 0.0], [1.5, 0.0], [0.0, 3.0]]), np.array([0.0, 0.0, -2.0]))


def skewed_data(n: int, stream: RngStream):
    g = stream.generator()
    y = g.integers(1, 4, size=n)
    means = np.array([[1.5, 0.0], [2.5, 0.0], [0.0, 1.5]])
    x = means[y - 1] + 0.4 * g.standard_normal((n, 2))
    return x, y


class TestSourceTunedCalibrate:
    def test_degenerate_grid_equals_hard_rule(self, trained_model, three_class_source):
        x_src, y_src = generate_source(three_class_source, 200, RngStream(51).substream("s"))
        x_tgt, _ = generate_source(three_class_source, 200, RngStream(51).substream("t"))
        tuning, cal = source_tuned_calibrate(
            trained_model, x_src, y_src, x_tgt, 0.2, grid=UncertaintyGrid(np.array([np.inf])), rng=RngStream(51)
        )
        assert math.isinf(tuning.u_star)
        assert cal == pseudo_calibrate(trained_model, x_tgt, 0.2)

    def test_target_threshold_at_least_hard_threshold(self, trained_model, three_class_source):
        for t in range(50):
            stream = RngStream(52).substream("rep", t)
            x_src, y_src = generate_source(three_class_source, 150, stream.substream("s"))
            x_tgt, _ = generate_source(three_class_source, 150, stream.substream("t"))
            _, cal = source_tuned_calibrate(
                trained_model, x_src, y_src, x_tgt, 0.2, rng=stream.substream("labels")
            )
            assert cal.threshold >= pseudo_calibrate(trained_model, x_tgt, 0.2).threshold

    def test_source_label_zero_rejected(self, trained_model, three_class_source):
        # Label 0 must raise, not wrap to class K through the index y - 1 = -1.
        x_src, y_src = generate_source(three_class_source, 100, RngStream(57).substream("s"))
        x_tgt, _ = generate_source(three_class_source, 100, RngStream(57).substream("t"))
        y_src[3] = 0
        with pytest.raises(ValueError, match="labels must lie in"):
            source_tuned_calibrate(trained_model, x_src, y_src, x_tgt, 0.2, rng=RngStream(57).substream("l"))

    def test_seeded_replay_is_deterministic(self, trained_model, three_class_source):
        x_src, y_src = generate_source(three_class_source, 150, RngStream(53).substream("s"))
        x_tgt, _ = generate_source(three_class_source, 150, RngStream(53).substream("t"))
        first = source_tuned_calibrate(trained_model, x_src, y_src, x_tgt, 0.2, rng=RngStream(53).substream("l"))
        second = source_tuned_calibrate(trained_model, x_src, y_src, x_tgt, 0.2, rng=RngStream(53).substream("l"))
        assert first == second

    def test_guardrail_when_any_cutoff_qualifies(self, trained_model, three_class_source):
        x_src, y_src = generate_source(three_class_source, 300, RngStream(54).substream("s"))
        x_tgt, _ = generate_source(three_class_source, 300, RngStream(54).substream("t"))
        tuning, _ = source_tuned_calibrate(trained_model, x_src, y_src, x_tgt, 0.2, rng=RngStream(54).substream("l"))
        curve = dict(tuning.coverage_curve)
        if any(c >= 0.8 for c in curve.values()):
            assert curve[tuning.u_star] >= 0.8

    def test_miscalibrated_source_forces_randomization(self):
        """With confident source errors the sweep must back off from hard labels."""
        model = skewed_model()
        x_src, y_src = skewed_data(1200, RngStream(55).substream("s"))
        x_tgt, y_tgt = skewed_data(1200, RngStream(55).substream("t"))
        hard = pseudo_calibrate(model, x_tgt, 0.2)
        tuning, cal = source_tuned_calibrate(model, x_src, y_src, x_tgt, 0.2, rng=RngStream(55).substream("l"))
        assert not math.isinf(tuning.u_star)
        assert cal.threshold > hard.threshold
        x_test, y_test = skewed_data(2000, RngStream(55).substream("e"))
        assert coverage(model, x_test, y_test, cal) > coverage(model, x_test, y_test, hard)

    def test_coupled_coverage_monotone_in_cutoff(self, trained_model, three_class_source):
        """Per trial, more randomization never reduces target coverage."""
        for t in range(40):
            stream = RngStream(56).substream("cov", t)
            x_tgt, _ = generate_source(three_class_source, 200, stream.substream("t"))
            x_test, y_test = generate_source(three_class_source, 200, stream.substream("e"))
            hard_cov = coverage(trained_model, x_test, y_test, pseudo_calibrate(trained_model, x_tgt, 0.2))
            for u in (0.0, 0.3, 0.7):
                cal = pseudo_calibrate(trained_model, x_tgt, 0.2, u=u, rng=stream.substream("labels"))
                assert coverage(trained_model, x_test, y_test, cal) >= hard_cov

    @settings(max_examples=150)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 60),
        n_classes=st.integers(2, 4),
        ties=st.booleans(),
        accuracy=st.sampled_from([0.0, 0.5, 0.8, 0.95, 1.0]),
        grid_size=st.integers(1, 9),
        unbounded=st.booleans(),
        alpha=st.floats(0.02, 0.6),
        skewed=st.booleans(),
    )
    def test_search_matches_the_full_curve(
        self, seed, n, n_classes, ties, accuracy, grid_size, unbounded, alpha, skewed
    ):
        """The searched cutoff, its source threshold and the target threshold equal the full sweep's."""
        g = np.random.default_rng(seed)
        if skewed:
            model = skewed_model()
            x_src, y_src = skewed_data(n, RngStream(seed).substream("s"))
            x_tgt, _ = skewed_data(n, RngStream(seed).substream("t"))
            n_classes = 3
        else:
            def draw(size):
                # Small integer logits make ties (and zero margins) common.
                return g.integers(-2, 3, size=size).astype(float) if ties else g.normal(size=size)

            model = None
            x_src = ScoredView(draw((n, n_classes)))
            x_tgt = ScoredView(draw((int(g.integers(1, 40)), n_classes)))
            y_src = np.where(g.random(n) < accuracy, x_src.hard, g.integers(1, n_classes + 1, size=n))
        finite = np.sort(g.choice(np.linspace(0.0, 1.2 * math.log(n_classes), 40), grid_size, replace=False))
        grid = UncertaintyGrid(np.append(finite[: grid_size - 1], np.inf) if unbounded else finite)
        rng = RngStream(seed).substream("labels")

        tuning, cal = source_tuned_calibrate(model, x_src, y_src, x_tgt, alpha, grid=grid, rng=rng)

        full = _curve_with_thresholds(model, x_src, y_src, alpha, grid, rng.substream("tune-source"))
        u_star = select_u_star([(u, c) for u, c, _ in full], alpha)
        assert tuning.u_star == u_star
        assert tuning.source_threshold_at_u_star == next(thr for u, _, thr in full if u == u_star)
        assert cal == pseudo_calibrate(model, x_tgt, alpha, u=u_star, rng=rng.substream("tune-target"))
        probed = [u for u, _ in tuning.coverage_curve]
        assert probed == sorted(set(probed))
        full_c = {u: c for u, c, _ in full}
        assert all(full_c[u] == c for u, c in tuning.coverage_curve)

    @pytest.mark.parametrize("reversed_map", [False, True], ids=["interior", "fallback"])
    def test_search_reaches_an_interior_cutoff_and_the_fallback(self, reversed_map):
        """Confident class-2 errors make the search bisect to an interior cutoff of the default
        grid; the reversed map qualifies nowhere, so the search falls back to the first cutoff."""
        model = skewed_model()
        if reversed_map:
            model = LinearLogitMap(-model.weights, -model.biases)
        x_src, y_src = skewed_data(300, RngStream(55).substream("s"))
        x_tgt, _ = skewed_data(300, RngStream(55).substream("t"))
        rng = RngStream(55).substream("l")
        grid = UncertaintyGrid.default(3)

        tuning, cal = source_tuned_calibrate(model, x_src, y_src, x_tgt, 0.2, rng=rng)

        full = _curve_with_thresholds(model, x_src, y_src, 0.2, grid, rng.substream("tune-source"))
        assert tuning.u_star == select_u_star([(u, c) for u, c, _ in full], 0.2)
        assert cal == pseudo_calibrate(model, x_tgt, 0.2, u=tuning.u_star, rng=rng.substream("tune-target"))
        if reversed_map:
            assert all(c < 0.8 for _, c, _ in full)
            assert tuning.u_star == grid.values[0]
        else:
            assert grid.values[0] < tuning.u_star < grid.values[-1]

    def test_search_probes_once_when_the_unbounded_cutoff_qualifies(self, trained_model, three_class_source):
        x_src, y_src = generate_source(three_class_source, 300, RngStream(58).substream("s"))
        x_tgt, _ = generate_source(three_class_source, 300, RngStream(58).substream("t"))
        tuning, _ = source_tuned_calibrate(trained_model, x_src, y_src, x_tgt, 0.2, rng=RngStream(58).substream("l"))
        assert math.isinf(tuning.u_star)
        assert len(tuning.coverage_curve) == 1
