"""Scoring primitives: logits, margins, losses, entropy, Lipschitz bound, scored views."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from shiftcp.cli import DEFAULT_CONFIG, ExperimentConfig, make_trial_data, train_model
from shiftcp.rng import RngStream
from shiftcp.scores import (
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
from shiftcp.synthetic import _MAX_ABS_LOGIT, ShiftSpec, apply_shift, train_classifier

finite_floats = st.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False)


def random_map(rng: np.random.Generator, k: int, d: int) -> LinearLogitMap:
    return LinearLogitMap(rng.normal(size=(k, d)), rng.normal(size=k))


class TestLogits:
    def test_identity_map(self, identity_map):
        np.testing.assert_array_equal(logits(identity_map, np.array([3.0, 1.0])), [3.0, 1.0])

    def test_bias_only(self):
        m = LinearLogitMap(np.eye(2), np.array([1.0, -1.0]))
        np.testing.assert_array_equal(logits(m, np.zeros(2)), [1.0, -1.0])

    def test_hand_matrix_vector_product(self):
        m = LinearLogitMap(np.array([[2.0, 1.0], [0.0, 3.0]]), np.zeros(2))
        np.testing.assert_allclose(logits(m, np.array([1.0, 1.0])), [3.0, 3.0])

    def test_batch_shape(self, identity_map):
        out = logits(identity_map, np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert out.shape == (2, 2)

    def test_dimension_mismatch(self, identity_map):
        with pytest.raises(ValueError):
            logits(identity_map, np.array([1.0, 2.0, 3.0]))

    def test_map_validation(self):
        with pytest.raises(ValueError):
            LinearLogitMap(np.ones((1, 2)), np.ones(1))
        with pytest.raises(ValueError):
            LinearLogitMap(np.array([[np.inf, 0.0], [0.0, 1.0]]), np.zeros(2))


class TestPredict:
    def test_unique_max(self, identity_map):
        assert predict(identity_map, np.array([3.0, 1.0])) == 1

    def test_tie_breaks_to_smallest_index(self, identity_map):
        assert predict(identity_map, np.array([3.0, 3.0])) == 1

    def test_direct_argmax(self):
        m = LinearLogitMap(np.eye(3), np.zeros(3))
        assert predict(m, np.array([-1.0, 0.5, -2.0])) == 2

    @given(
        x=arrays(np.float64, 3, elements=st.integers(min_value=-50, max_value=50).map(float)),
        const=st.integers(min_value=-1000, max_value=1000).map(float),
    )
    def test_invariant_to_common_constant(self, x, const):
        # Integer-valued logits keep exact ties exact under the added constant;
        # argmax invariance is a statement about exact arithmetic.
        m = LinearLogitMap(np.eye(3), np.zeros(3))
        shifted = LinearLogitMap(np.eye(3), np.full(3, const))
        assert predict(m, x) == predict(shifted, x)


class TestMargin:
    def test_winning_label(self, identity_map):
        assert margin(identity_map, np.array([3.0, 1.0]), 1) == 2.0

    def test_losing_label(self, identity_map):
        assert margin(identity_map, np.array([3.0, 1.0]), 2) == -2.0

    def test_tie_is_zero(self, identity_map):
        assert margin(identity_map, np.array([4.0, 4.0]), 1) == 0.0

    def test_invalid_label(self, identity_map):
        with pytest.raises(ValueError):
            margin(identity_map, np.array([3.0, 1.0]), 3)
        with pytest.raises(ValueError):
            margin(identity_map, np.array([3.0, 1.0]), 0)

    def test_score_negates_margin(self, identity_map):
        x = np.array([3.0, 1.0])
        assert score(identity_map, x, 1) == -2.0
        assert score(identity_map, x, 2) == 2.0
        assert score(identity_map, np.array([1.0, 1.0]), 1) == 0.0

    def test_predicted_label_minimizes_score(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            m = random_map(rng, int(rng.integers(2, 6)), 3)
            x = rng.normal(size=3)
            best = score(m, x, predict(m, x))
            for y in range(1, m.n_classes + 1):
                assert best <= score(m, x, y) + 1e-12

    def test_margin_lipschitz_in_x(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            m = random_map(rng, int(rng.integers(2, 5)), 4)
            lip = lipschitz_bound(m)
            x1, x2 = rng.normal(size=4), rng.normal(size=4)
            y = int(rng.integers(1, m.n_classes + 1))
            gap = abs(margin(m, x1, y) - margin(m, x2, y))
            assert gap <= lip * np.linalg.norm(x1 - x2) + 1e-9

    def test_score_matrix_matches_per_label_scores(self):
        rng = np.random.default_rng(5)
        m = random_map(rng, 4, 3)
        x = rng.normal(size=(6, 3))
        mat = score_matrix(m, x)
        for k in range(1, 5):
            np.testing.assert_allclose(mat[:, k - 1], score(m, x, np.full(6, k)), atol=1e-12)


class TestSurrogateLosses:
    @pytest.mark.parametrize("gamma,expected", [(2.0, 0.0), (-0.5, 1.0), (0.3, 0.7)])
    def test_ramp_values(self, gamma, expected):
        assert ramp_loss(gamma) == pytest.approx(expected)

    @pytest.mark.parametrize("gamma,expected", [(2.0, 0.0), (-2.0, 3.0), (1.0, 0.0)])
    def test_hinge_values(self, gamma, expected):
        assert hinge_loss(gamma) == pytest.approx(expected)

    @given(gamma=finite_floats)
    def test_ramp_below_hinge_and_one(self, gamma):
        assert ramp_loss(gamma) <= min(hinge_loss(gamma), 1.0) + 1e-12

    @given(g1=finite_floats, g2=finite_floats)
    def test_losses_non_increasing(self, g1, g2):
        lo, hi = min(g1, g2), max(g1, g2)
        assert ramp_loss(lo) >= ramp_loss(hi)
        assert hinge_loss(lo) >= hinge_loss(hi)


class TestPopulationLosses:
    def test_all_margins_above_one(self):
        m = LinearLogitMap(np.array([[10.0, 0.0], [-10.0, 0.0]]), np.zeros(2))
        x = np.array([[1.0, 0.0], [2.0, 0.0]])
        y = np.array([1, 1])
        assert population_ramp_loss(m, x, y) == 0.0
        assert population_hinge_loss(m, x, y) == 0.0

    def test_all_margins_nonpositive(self):
        m = LinearLogitMap(np.array([[10.0, 0.0], [-10.0, 0.0]]), np.zeros(2))
        x = np.array([[1.0, 0.0], [2.0, 0.0]])
        y = np.array([2, 2])
        assert population_ramp_loss(m, x, y) == 1.0

    def test_mixed_margins(self, identity_map):
        # margins 2 and -2: ramp mean of {0, 1}, hinge mean of {0, 3}
        x = np.array([[3.0, 1.0], [1.0, 3.0]])
        y = np.array([1, 1])
        assert population_ramp_loss(identity_map, x, y) == pytest.approx(0.5)
        assert population_hinge_loss(identity_map, x, y) == pytest.approx(1.5)

    def test_empty_sample_rejected(self, identity_map):
        with pytest.raises(ValueError):
            population_ramp_loss(identity_map, np.empty((0, 2)), np.empty(0, dtype=int))


class TestPredictiveEntropy:
    def test_uniform_logits(self, identity_map):
        assert predictive_entropy(identity_map, np.zeros(2)) == pytest.approx(math.log(2))

    def test_degenerate_softmax(self, identity_map):
        assert predictive_entropy(identity_map, np.array([50.0, -50.0])) == pytest.approx(0.0, abs=1e-10)

    def test_against_direct_formula(self):
        # Independent evaluation of softmax entropy for logits (1, 0, 0).
        z = np.array([1.0, 0.0, 0.0])
        p = np.exp(z) / np.exp(z).sum()
        expected = -sum(pi * math.log(pi) for pi in p)
        m = LinearLogitMap(np.eye(3), np.zeros(3))
        assert predictive_entropy(m, z) == pytest.approx(expected, abs=1e-12)

    def test_bounded_by_log_k(self):
        rng = np.random.default_rng(6)
        m = random_map(rng, 5, 2)
        h = predictive_entropy(m, rng.normal(size=(100, 2)))
        assert (h >= 0).all() and (h <= math.log(5) + 1e-12).all()


class TestLipschitzBound:
    def test_two_orthogonal_rows(self):
        m = LinearLogitMap(np.array([[1.0, 0.0], [0.0, 1.0]]), np.zeros(2))
        assert lipschitz_bound(m) == pytest.approx(math.sqrt(2))

    def test_equal_rows(self):
        m = LinearLogitMap(np.ones((3, 2)), np.zeros(3))
        assert lipschitz_bound(m) == 0.0

    def test_max_pairwise_difference(self):
        m = LinearLogitMap(np.array([[3.0, 0.0], [0.0, 0.0], [0.0, 4.0]]), np.zeros(3))
        assert lipschitz_bound(m) == pytest.approx(5.0)


class TestScoredView:
    def test_matches_the_public_functions(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            m = random_map(rng, int(rng.integers(2, 6)), 3)
            x = rng.normal(size=(40, 3))
            y = rng.integers(1, m.n_classes + 1, size=40)
            view = scored_view(m, x)
            np.testing.assert_array_equal(view.scores, score_matrix(m, x))
            np.testing.assert_array_equal(view.hard, predict(m, x))
            np.testing.assert_array_equal(view.entropy, predictive_entropy(m, x))
            np.testing.assert_array_equal(view.label_scores(y), score(m, x, y))
            rows = m.logit_matrix(x)
            for label in range(1, m.n_classes + 1):
                # Negated margin straight from its definition.
                others = np.delete(rows, label - 1, axis=1).max(axis=1)
                np.testing.assert_array_equal(view.scores[:, label - 1], -(rows[:, label - 1] - others))

    def test_view_stands_in_for_inputs(self, identity_map):
        x = np.array([[3.0, 1.0], [0.0, 5.0], [2.0, 2.5]])
        y = np.array([1, 1, 2])
        view = scored_view(identity_map, x)
        assert scored_view(None, view) is view
        np.testing.assert_array_equal(score(None, view, y), score(identity_map, x, y))
        assert population_hinge_loss(None, view, y) == population_hinge_loss(identity_map, x, y)
        np.testing.assert_array_equal(predict(None, view), predict(identity_map, x))

    def test_row_subset_equals_rescoring(self):
        """Every derived array is row by row: a slice equals the rescored rows, bit for bit."""
        rng = np.random.default_rng(9)
        m = random_map(rng, 3, 2)
        x = rng.normal(size=(30, 2))
        y = rng.integers(1, 4, size=30)
        view, sub = scored_view(m, x), scored_view(m, x[10:])
        for name in ("scores", "hard", "hard_scores", "entropy"):
            assert getattr(view, name)[10:].tobytes() == getattr(sub, name).tobytes(), name
        assert view.label_scores(y)[10:].tobytes() == sub.label_scores(y[10:]).tobytes()

    def test_arrays_are_read_only(self, identity_map):
        view = scored_view(identity_map, np.array([[3.0, 1.0]]))
        with pytest.raises(ValueError):
            view.hard[0] = 2
        with pytest.raises(ValueError):
            view.hard_scores[0] = 1.0

    def test_non_finite_logits_rejected(self, identity_map):
        with pytest.raises(ValueError, match="finite"):
            scored_view(identity_map, np.array([[3.0, 1.0], [np.nan, 0.0]]))
        with pytest.raises(ValueError, match="finite"):
            ScoredView(np.array([[np.inf, 0.0]]))

    def test_labels_checked_at_the_gather(self, identity_map):
        view = scored_view(identity_map, np.array([[3.0, 1.0], [0.0, 5.0]]))
        for bad in ([0, 1], [1, 3], [1.5, 1]):
            with pytest.raises(ValueError, match="labels"):
                view.label_scores(np.array(bad))
        with pytest.raises(ValueError, match="one label per scored row"):
            view.label_scores(np.array([1, 2, 1]))


@st.composite
def logits_and_labels(draw):
    """Finite logits within the table limit, one label per row.

    Entries come from a small pool as often as not, and rows repeat, so ties
    (signed zeros included) and equal rows are common.
    """
    k = draw(st.integers(2, 5))
    value = st.floats(-_MAX_ABS_LOGIT, _MAX_ABS_LOGIT, allow_nan=False, allow_infinity=False)
    pool = draw(st.lists(value, min_size=1, max_size=3))
    distinct = draw(arrays(np.float64, (draw(st.integers(1, 4)), k), elements=st.sampled_from(pool) | value))
    rows = draw(st.lists(st.integers(0, distinct.shape[0] - 1), max_size=8))
    labels = draw(arrays(np.int64, len(rows), elements=st.integers(1, k)))
    return distinct[rows], labels


def _negated_margin(row: np.ndarray, label: int) -> float:
    """``-(logit_y - max over k != y of logit_k)``, straight from the definition."""
    return -(row[label - 1] - np.delete(row, label - 1).max())


def _bits(a) -> bytes:
    return np.asarray(a, dtype=np.float64).tobytes()


class TestScoredViewRelations:
    """Score relations that hold by construction of the view, for any finite logits.

    The experiment loop relies on them without checking them: pseudo-scores
    never exceed true-label scores, which bounds the excess of a misclassified
    point and makes the source-tuned cutoff search monotone.
    """

    @settings(max_examples=400)
    @given(logits_and_labels())
    @example((np.array([[1.0, 1.0, 0.0], [0.0, 2.0, 2.0], [0.0, 2.0, 2.0]]), np.array([2, 2, 1])))
    @example((np.array([[-0.0, 0.0], [0.0, -0.0]]), np.array([2, 1])))
    def test_hard_scores_are_the_row_minimum_and_bound_every_label(self, case):
        rows, y = case
        view = ScoredView(rows)
        s_hard, s_true = view.hard_scores, view.label_scores(y)
        # Derived, not gathered, yet bit for bit the gather, sign of zero included.
        assert _bits(s_hard) == _bits(view.label_scores(view.hard))
        assert _bits(s_hard) == _bits([_negated_margin(r, h) for r, h in zip(rows, view.hard)])
        assert _bits(s_true) == _bits([_negated_margin(r, label) for r, label in zip(rows, y)])
        assert (view.hard == np.argmax(rows, axis=1) + 1).all()
        assert (s_hard == view.scores.min(axis=1)).all()
        assert (s_hard <= 0).all()
        assert (s_true >= s_hard).all()
        correct = y == view.hard
        assert (s_true[correct] == s_hard[correct]).all()
        assert (s_true[~correct] - s_hard[~correct] <= 2.0 * s_true[~correct]).all()


def _reference_view(logits):
    """The row-major ``ScoredView`` kernels the class-major view must reproduce bit for bit.

    Kept verbatim: ``__post_init__`` returns ``(rows, scores, hard, hard_scores)``;
    the entropy is the former ``entropy`` property with its ``row_max`` inlined.
    """
    rows = np.array(logits, dtype=float)
    cols = np.ascontiguousarray(rows.T)
    best = np.argmax(rows, axis=1)
    is_best = np.arange(rows.shape[1])[:, None] == best
    top1 = cols.max(axis=0)
    top2 = np.where(is_best, -np.inf, cols).max(axis=0)
    scores = -(cols - np.where(is_best, top2, top1)).T
    expz = np.exp(rows - np.ascontiguousarray(rows.T).max(axis=0)[:, None])
    p = expz / expz.sum(axis=1, keepdims=True)
    terms = np.where(p > 0.0, p * np.log(np.where(p > 0.0, p, 1.0)), 0.0)
    return scores, best + 1, -(top1 - top2), -terms.sum(axis=1)


def _awkward_logits(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """Row-major logits with exact ties, rounded values, signed zeros and repeated rows."""
    rows = rng.normal(scale=3.0, size=(n, k))
    rows[: n // 3] = np.round(rows[: n // 3])  # ties, often at the maximum
    rows[n // 3 : n // 2] = rng.choice([-0.0, 0.0, 1.0, -1.0], size=(n // 2 - n // 3, k))
    rows[n // 2 : n // 2 + 5] = rows[n // 2 - 1]  # equal rows
    rows[-1] = 0.0
    return rows


class TestClassMajorKernels:
    """The class-major view and logits against the row-major kernels they replace."""

    @pytest.mark.parametrize("k", [2, 3, 5, 8, 9, 130])
    @pytest.mark.parametrize("n", [1, 7, 301])
    def test_view_matches_the_row_major_kernels(self, k, n):
        rng = np.random.default_rng(1000 * k + n)
        rows = _awkward_logits(rng, n, k)
        want_scores, want_hard, want_hard_scores, want_entropy = _reference_view(rows)
        # Row-major (a logit table) and class-major (a linear map) input layouts.
        for logits in (rows, np.asfortranarray(rows)):
            view = ScoredView(logits)
            assert view.scores.shape == (n, k)
            assert _bits(view.scores) == _bits(want_scores)
            assert np.array_equal(view.hard, want_hard)
            assert np.array_equal(view.hard_scores, want_hard_scores)
            # Bit for bit the score of the argmax label, sign of zero included.
            assert _bits(view.hard_scores) == _bits(want_scores[np.arange(n), want_hard - 1])
            assert _bits(view.entropy) == _bits(want_entropy)
            y = rng.integers(1, k + 1, size=n)
            assert _bits(view.label_scores(y)) == _bits(want_scores[np.arange(n), y - 1])

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 17, 33])
    @pytest.mark.parametrize("k", [2, 3, 9])
    def test_class_major_logits_equal_the_row_major_product(self, k, d):
        rng = np.random.default_rng(10 * k + d)
        m = random_map(rng, k, d)
        x = rng.normal(scale=4.0, size=(2000, d))
        assert _bits(m.logit_matrix(x)) == _bits(x @ m.weights.T + m.biases)

    def test_class_major_logits_of_the_trained_default_model(self):
        cfg = ExperimentConfig.from_dict(DEFAULT_CONFIG)
        m = train_model(cfg)
        x = make_trial_data(cfg, 5, 0).x_target_test
        assert _bits(m.logit_matrix(x)) == _bits(x @ m.weights.T + m.biases)


class TestNonFiniteLabels:
    """A NaN or infinite label is a ValueError, with no numpy cast warning first."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e300])
    def test_rejected_without_a_warning(self, identity_map, bad):
        labels = np.array([1.0, bad, 2.0])
        x = np.array([[3.0, 1.0], [0.0, 5.0], [2.0, 2.5]])
        calls = [
            lambda: ScoredView(x).label_scores(labels),
            lambda: score(identity_map, x, labels),
            lambda: train_classifier(x, labels, 2),
            lambda: apply_shift(x, labels, ShiftSpec(np.zeros((2, 2)), 0.1, 0.2), RngStream(1)),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in calls:
                with pytest.raises(ValueError, match="labels must be integers"):
                    call()
