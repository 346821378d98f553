"""Generator, shift transform, classifier training, and logit-table ingestion."""

import math
import warnings

import numpy as np
import pytest

from shiftcp.exceptions import ConfigError, DataError, InvariantError
from shiftcp.rng import RngStream
from shiftcp.scores import LinearLogitMap, _check_labels, predict, predictive_entropy, score
from shiftcp.synthetic import (
    _MAX_REJECTION_ROUNDS,
    LogitTableMap,
    ShiftSpec,
    SourceSpec,
    _clipped_noise,
    _pairwise_class_sum,
    _rejection_failure,
    _row_norms,
    _square_cutoff,
    apply_shift,
    generate_source,
    load_logit_table,
    train_classifier,
)

from oracles import winf_coupled, write_logit_table


def two_class_spec(scale: float = 0.5) -> SourceSpec:
    return SourceSpec(
        class_means=np.array([[2.0, 0.0], [-2.0, 0.0]]),
        class_cov_scale=scale,
        priors=np.array([0.5, 0.5]),
    )


class TestGenerateSource:
    def test_empty_sample(self):
        x, y = generate_source(two_class_spec(), 0, RngStream(1))
        assert x.shape == (0, 2) and y.shape == (0,)

    def test_zero_scale_collapses_to_means(self):
        spec = two_class_spec(scale=0.0)
        x, y = generate_source(spec, 50, RngStream(2))
        np.testing.assert_array_equal(x, spec.class_means[y - 1])

    def test_one_hot_prior(self):
        spec = SourceSpec(
            class_means=np.array([[1.0, 0.0], [0.0, 1.0]]),
            class_cov_scale=0.3,
            priors=np.array([0.0, 1.0]),
        )
        _, y = generate_source(spec, 40, RngStream(3))
        assert (y == 2).all()

    def test_determinism(self):
        spec = two_class_spec()
        x1, y1 = generate_source(spec, 30, RngStream(4, 9))
        x2, y2 = generate_source(spec, 30, RngStream(4, 9))
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(y1, y2)

    def test_prior_frequencies(self):
        spec = SourceSpec(
            class_means=np.array([[1.0, 0.0], [0.0, 1.0]]),
            class_cov_scale=0.3,
            priors=np.array([0.8, 0.2]),
        )
        _, y = generate_source(spec, 20_000, RngStream(5))
        assert np.mean(y == 1) == pytest.approx(0.8, abs=0.02)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SourceSpec(np.array([[1.0, 0.0]]), 0.5, np.array([1.0]))
        with pytest.raises(ValueError):
            SourceSpec(np.eye(2), 0.5, np.array([0.7, 0.7]))
        with pytest.raises(ValueError):
            SourceSpec(np.eye(2), -0.1, np.array([0.5, 0.5]))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: SourceSpec(np.eye(2), math.nan, np.array([0.5, 0.5])),
            lambda: ShiftSpec(np.zeros((2, 2)), math.nan, 0.1),
            lambda: ShiftSpec(np.zeros((2, 2)), 0.1, math.nan),
        ],
    )
    def test_nan_scale_rejected(self, build):
        with pytest.raises(ValueError, match="must be nonnegative, got nan"):
            build()

    def test_an_infinite_scale_is_refused(self):
        # Unchecked, generate_source then drew all-infinite features.
        with pytest.raises(ValueError, match="^class_cov_scale must be finite, got inf$"):
            SourceSpec(np.eye(2), math.inf, np.array([0.5, 0.5]))


class TestApplyShift:
    def test_identity_shift(self):
        shift = ShiftSpec(np.zeros((2, 2)), 0.0, 0.0)
        x = np.arange(8.0).reshape(4, 2)
        y = np.array([1, 2, 1, 2])
        np.testing.assert_array_equal(apply_shift(x, y, shift, RngStream(6)), x)

    def test_pure_translation(self):
        shift = ShiftSpec(np.array([[1.0, 0.0], [1.0, 0.0]]), 0.0, 0.0)
        x = np.zeros((5, 2))
        y = np.array([1, 2, 1, 2, 1])
        shifted = apply_shift(x, y, shift, RngStream(7))
        assert winf_coupled(x, shifted) == 1.0

    def test_displacement_bounded_by_certificate(self):
        shift = ShiftSpec(np.array([[0.5, 0.0], [-0.2, 0.4]]), noise_scale=0.3, clip_radius=0.35)
        g = RngStream(8)
        x = g.substream("x").generator().normal(size=(100_000, 2))
        y = g.substream("y").generator().integers(1, 3, size=100_000)
        shifted = apply_shift(x, y, shift, g.substream("noise"))
        disp = np.linalg.norm(shifted - x, axis=1)
        bound = shift.per_class_rho()[y - 1]
        assert (disp <= bound + 1e-12).all()
        assert disp.max() <= shift.rho_true + 1e-12

    def test_zero_radius_suppresses_noise(self):
        shift = ShiftSpec(np.zeros((2, 2)), noise_scale=0.5, clip_radius=0.0)
        x = np.ones((10, 2))
        shifted = apply_shift(x, np.ones(10, dtype=int), shift, RngStream(9))
        np.testing.assert_array_equal(shifted, x)

    def test_projection_mode(self):
        shift = ShiftSpec(np.zeros((2, 2)), noise_scale=1.0, clip_radius=0.2, clip_mode="project")
        x = np.zeros((500, 2))
        shifted = apply_shift(x, np.ones(500, dtype=int), shift, RngStream(10))
        assert np.linalg.norm(shifted, axis=1).max() <= 0.2 + 1e-12

    def test_label_frequencies_preserved_by_construction(self):
        spec = two_class_spec()
        x, y = generate_source(spec, 500, RngStream(11).substream("base"))
        shift = ShiftSpec(np.array([[4.0, 0.0], [0.0, 4.0]]), 0.2, 0.3)
        apply_shift(x, y, shift, RngStream(11).substream("shift"))
        # The transform returns features only; labels are shared between the
        # source and target views, so the class marginals coincide exactly.
        assert np.array_equal(y, y)

    def test_sigma_scaling(self):
        shift = ShiftSpec(np.array([[0.6, 0.0], [0.0, 0.8]]), noise_scale=0.1, clip_radius=0.2)
        scaled = shift.scaled(2.5)
        np.testing.assert_allclose(scaled.per_class_translation, shift.per_class_translation * 2.5)
        assert scaled.noise_scale == pytest.approx(0.25)
        assert scaled.clip_radius == pytest.approx(0.5)
        assert scaled.rho_true == pytest.approx(2.5 * shift.rho_true)
        assert shift.scaled(0.0).rho_true == 0.0

    def test_label_out_of_range(self):
        shift = ShiftSpec(np.zeros((2, 2)), 0.0, 0.0)
        with pytest.raises(ValueError):
            apply_shift(np.zeros((1, 2)), np.array([3]), shift, RngStream(12))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_are_refused_before_any_draw(self, bad, monkeypatch):
        # A NaN feature used to come back shifted as NaN.
        def no_draws(self):
            raise AssertionError("drew noise for non-finite features")

        monkeypatch.setattr(RngStream, "generator", no_draws)
        shift = ShiftSpec(np.array([[0.1, 0.0], [0.0, 0.1]]), 0.1, 0.15)
        with pytest.raises(ValueError, match="features to shift must be finite"):
            apply_shift(np.array([[bad, 0.0], [1.0, 2.0]]), np.array([1, 2]), shift, RngStream(1))
        with pytest.raises(ValueError, match="features to shift must be finite"):
            apply_shift(np.array([0.0, bad]), 2, shift, RngStream(1))

    @pytest.mark.parametrize(("rows", "labels"), [(3, [2]), (1, [1, 2, 2]), (2, [[1, 2]])])
    def test_one_label_per_row_is_checked_before_any_draw(self, rows, labels, monkeypatch):
        # One label used to be broadcast over three rows, and one row over three labels.
        def no_draws(self):
            raise AssertionError("drew noise for mismatched labels")

        monkeypatch.setattr(RngStream, "generator", no_draws)
        shift = ShiftSpec(np.eye(2), 0.0, 0.0)
        with pytest.raises(ValueError, match=f"{np.size(labels)} labels for {rows} feature rows"):
            apply_shift(np.zeros((rows, 2)), labels, shift, RngStream(1))

    @pytest.mark.parametrize("x", [np.float64(1.0), np.zeros((2, 2, 2))])
    def test_features_must_be_a_point_or_a_batch(self, x):
        # A scalar used to fail with an IndexError, and a 3-D batch was shifted by broadcasting.
        with pytest.raises(ValueError, match="one point"):
            apply_shift(x, [1, 2], ShiftSpec(np.eye(2), 0.0, 0.0), RngStream(1))

    def test_a_single_point_takes_a_scalar_label(self):
        shift = ShiftSpec(np.array([[0.5, 0.0], [0.0, 0.5]]), 0.0, 0.0)
        np.testing.assert_array_equal(apply_shift(np.zeros(2), 2, shift, RngStream(1)), [0.0, 0.5])

    def test_infeasible_clip_radius_is_refused_before_any_draw(self):
        class NoDraws:
            def standard_normal(self, size):
                raise AssertionError("drew noise for an infeasible clip radius")

        with pytest.raises(ConfigError, match="clip_radius is too small"):
            _clipped_noise(100, 2, 0.12, 5e-324, "resample", NoDraws())
        # An overflowing noise scale is just as hopeless for a finite radius.
        with pytest.raises(ConfigError, match="clip_radius is too small"):
            _clipped_noise(100, 2, math.inf, 0.1, "resample", NoDraws())

    def test_unlikely_but_feasible_clip_radius_keeps_its_rejection_loop(self):
        class CountingDraws:
            def __init__(self):
                self.calls, self.g = 0, RngStream(12).generator()

            def standard_normal(self, size):
                self.calls += 1
                return self.g.standard_normal(size)

        # The acceptance bound within the rounds is about 3.5e-3: every round is drawn.
        g = CountingDraws()
        with pytest.raises(ConfigError, match="clip_radius is too small"):
            _clipped_noise(80, 2, 0.096, 8e-5, "resample", g)
        assert g.calls == 1 + _MAX_REJECTION_ROUNDS


# A draw or norm that overflows lies beyond any radius: resampling rejects it,
# and projection cannot rescale it.
@np.errstate(over="ignore")
def _reference_clipped_noise(n: int, d: int, scale: float, radius: float, mode: str, g: np.random.Generator) -> np.ndarray:
    """The row-wise noise clipping ``_clipped_noise`` must reproduce draw for draw and bit for bit."""
    if scale == 0.0 or radius == 0.0:
        # radius 0 clips the noise entirely; no rejection loop.
        return np.zeros((n, d))
    # A draw lands in the ball with chance at most its volume times the density's
    # peak, (r^2 / 2s^2)^(d/2) / Gamma(d/2 + 1) (in logs: r may be subnormal, s
    # huge). Below a 1e-6 chance within the rounds, none is tried.
    log_chance = d * (math.log(radius) - math.log(scale) - math.log(2.0) / 2) - math.lgamma(d / 2 + 1)
    if mode == "resample" and n and log_chance + math.log(_MAX_REJECTION_ROUNDS) < math.log(1e-6):
        raise ConfigError(_rejection_failure(radius, scale))
    eps = scale * g.standard_normal((n, d))
    if mode == "project":
        norms = np.linalg.norm(eps, axis=1, keepdims=True)
        if not np.isfinite(norms).all():
            raise ConfigError(f"shift.noise_scale {scale:.4g} at this shift strength overflows the noise norms")
        factor = np.where(norms > radius, radius / np.where(norms > 0, norms, 1.0), 1.0)
        return eps * factor
    # An accepted row never changes, so each round re-checks only the rows it redrew.
    bad = np.flatnonzero(np.linalg.norm(eps, axis=1) > radius)
    for _ in range(_MAX_REJECTION_ROUNDS):
        if bad.size == 0:
            return eps
        eps[bad] = scale * g.standard_normal((bad.size, d))
        bad = bad[np.linalg.norm(eps[bad], axis=1) > radius]
    raise ConfigError(_rejection_failure(radius, scale))


def _noise_outcome(fn, n, d, mode, seed):
    """(noise or error message, generator state after): equal outcomes drew the same values in the same order."""
    g = RngStream(seed).generator()
    try:
        out = fn(n, d, 0.12, 0.15, mode, g)  # the default radius / scale of 1.25
    except ConfigError as exc:
        out = str(exc)
    return out, g.bit_generator.state


class _SizedDraws:
    """A stream's generator that logs the size of each ``standard_normal`` draw."""

    def __init__(self, seed):
        self.g, self.sizes = RngStream(seed).generator(), []

    def standard_normal(self, size):
        self.sizes.append(size)
        return self.g.standard_normal(size)


class TestClippedNoiseMatchesReference:
    @pytest.mark.parametrize("mode", ["resample", "project"])
    @pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 9, 17, 130])
    def test_same_draws_and_bits(self, d, mode):
        for n, seed in ((1, d), (120, 100 + d), (0, 3)):
            want, want_state = _noise_outcome(_reference_clipped_noise, n, d, mode, seed)
            got, state = _noise_outcome(_clipped_noise, n, d, mode, seed)
            assert state == want_state
            if isinstance(want, str):
                assert got == want
            else:
                assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 20250809])
    def test_default_shape_split_draws_every_round_alike(self, seed):
        # A 5000-row target split at the default radius / scale: 10 to 12 rounds deep at these seeds.
        outcomes = []
        for fn in (_reference_clipped_noise, _clipped_noise):
            g = _SizedDraws(seed)
            outcomes.append((fn(5000, 2, 0.12, 0.15, "resample", g), g.sizes, g.g.bit_generator.state))
        (got, got_sizes, got_state), (want, want_sizes, want_state) = outcomes[1], outcomes[0]
        assert got_sizes == want_sizes and len(want_sizes) >= 10
        assert got_state == want_state
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    # Subnormal, underflowing and overflowing squares, and the default radius at sigma 0.8.
    @pytest.mark.parametrize("radius", [5e-324, 1e-200, 1.5e-154, 0.15, 0.15 * 0.8, 1.0, 1.4e154, 1e300, np.finfo(float).max])
    def test_square_cutoff_is_where_the_root_passes_the_radius(self, radius):
        cut = _square_cutoff(radius)
        assert math.sqrt(cut) <= radius < math.sqrt(math.nextafter(cut, math.inf))
        # The same decisions as the root on square sums around the cutoff, inf included.
        sums = np.array([0.0, cut, math.inf, *(cut * (1 + k * 2.0**-52) for k in range(-8, 9))])
        assert np.array_equal(sums > cut, np.sqrt(sums) > radius)

    def test_square_cutoff_of_an_infinite_radius_passes_everything(self):
        assert _square_cutoff(math.inf) == math.inf
        assert not (np.array([0.0, 1e308, math.inf]) > _square_cutoff(math.inf)).any()

    @pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 9, 17, 130, 300])
    def test_row_norms_match_numpy(self, d):
        rng = np.random.default_rng(d)
        e = rng.normal(size=(50, d)) * rng.choice([0.0, 1e-170, 1.0, 1e160], size=(50, 1))
        e[0] = -0.0
        with np.errstate(over="ignore", under="ignore"):
            want = np.linalg.norm(e, axis=1)
            assert _row_norms(e).tobytes() == want.tobytes()


def _reference_generate_source(spec: SourceSpec, n: int, rng: RngStream) -> tuple[np.ndarray, np.ndarray]:
    """The ``Generator.choice`` source draw ``generate_source`` must reproduce draw for draw and bit for bit."""
    if n < 0:
        raise ValueError("sample size must be nonnegative")
    g = rng.generator()
    y = g.choice(spec.n_classes, size=n, p=spec.priors) + 1
    x = spec.class_means[y - 1] + spec.class_cov_scale * g.standard_normal((n, spec.dim))
    return x, y


def _reference_apply_shift(x, y, shift: ShiftSpec, rng: RngStream) -> np.ndarray:
    """The fancy-index shift ``apply_shift`` must reproduce, on the row-wise reference noise."""
    xa = np.asarray(x, dtype=float)
    single = xa.ndim == 1
    if single:
        xa = xa[None, :]
    ya = _check_labels(np.atleast_1d(y), shift.per_class_translation.shape[0])
    if xa.shape[1] != shift.per_class_translation.shape[1]:
        raise ValueError("feature dimension does not match the shift specification")
    g = rng.generator()
    eps = _reference_clipped_noise(xa.shape[0], xa.shape[1], shift.noise_scale, shift.clip_radius, shift.clip_mode, g)
    out = xa + shift.per_class_translation[ya - 1] + eps
    return out[0] if single else out


def _priors(k: int, g: np.random.Generator) -> list[np.ndarray]:
    """Uniform and random priors, and priors with zero (leading, inner, trailing) and 1e-300 entries."""
    rand = g.dirichlet(np.ones(k))
    out = [np.full(k, 1.0 / k), rand]
    for value in (0.0, 1e-300):
        p = rand.copy()
        p[[0, k - 1]] = value
        p[k // 2] = 0.0
        p[k // 2] = 1.0 - p.sum()
        out.append(p)
    return out


def _draw_outcome(monkeypatch, fn, *args):
    """(what ``fn`` returns or raises, end state of each generator it made): equal outcomes drew alike."""
    made = []
    generator = RngStream.generator

    def recorded(self):
        made.append(generator(self))
        return made[-1]

    with monkeypatch.context() as m:
        m.setattr(RngStream, "generator", recorded)
        try:
            out = fn(*args)
        except (ConfigError, ValueError) as exc:
            out = f"{type(exc).__name__}: {exc}"
    return out, [g.bit_generator.state for g in made]


def _assert_same_arrays(got, want):
    assert type(got) is type(want)
    if isinstance(want, str):
        assert got == want
        return
    for a, b in zip(got if isinstance(got, tuple) else (got,), want if isinstance(want, tuple) else (want,)):
        assert (a.dtype, a.shape, a.flags.c_contiguous) == (b.dtype, b.shape, b.flags.c_contiguous)
        assert a.tobytes() == b.tobytes()


class TestDrawsMatchReference:
    """``generate_source`` and ``apply_shift`` against the textbook bodies: same draws, order, bits and end state."""

    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    @pytest.mark.parametrize("k", [2, 3, 5, 9])
    def test_source_and_shift(self, k, d, monkeypatch):
        g = np.random.default_rng(10 * k + d)
        means = g.normal(size=(k, d))
        means[0] = 0.0
        means[-1] = -0.0  # with a zero scale, the signs of zero sums show
        translation = g.normal(size=(k, d))
        translation[k // 2] = -0.0
        for pi, priors in enumerate(_priors(k, g)):
            for n in (0, 1, 7, 5000):
                for scale in (0.0, 0.7):
                    spec = SourceSpec(means, scale, priors)
                    stream = RngStream(k * d, 1000 * pi + n)
                    got, got_states = _draw_outcome(monkeypatch, generate_source, spec, n, stream)
                    want, want_states = _draw_outcome(monkeypatch, _reference_generate_source, spec, n, stream)
                    _assert_same_arrays(got, want)
                    assert got_states == want_states
                    x, y = want
                    for shift in (
                        ShiftSpec(translation, 0.12 * scale, 0.15, "resample"),
                        ShiftSpec(translation, 0.12, 0.15 * scale, "project"),
                        ShiftSpec(translation, 0.3, 0.2, "project"),
                    ):
                        shifted = [_draw_outcome(monkeypatch, f, x, y, shift, stream.substream("shift"))
                                   for f in (apply_shift, _reference_apply_shift)]
                        _assert_same_arrays(shifted[0][0], shifted[1][0])
                        assert shifted[0][1] == shifted[1][1]

    def test_single_point_shift(self, monkeypatch):
        shift = ShiftSpec(np.array([[0.5, -0.0], [-0.2, 0.4]]), noise_scale=0.3, clip_radius=0.35)
        for label in (1, 2):
            got = _draw_outcome(monkeypatch, apply_shift, np.array([1.0, -0.0]), label, shift, RngStream(5))
            want = _draw_outcome(monkeypatch, _reference_apply_shift, np.array([1.0, -0.0]), label, shift, RngStream(5))
            _assert_same_arrays(got[0], want[0])
            assert got[1] == want[1]

    @pytest.mark.parametrize("k", [2, 3, 5, 9, 40])
    def test_label_search_is_choice(self, k, monkeypatch):
        """On zero-width features the source draw is the label draw alone: ``Generator.choice``'s, to the state."""
        g = np.random.default_rng(k)
        for pi, priors in enumerate(_priors(k, g)):
            spec = SourceSpec(np.zeros((k, 0)), 1.0, priors)
            for n in (0, 1, 7, 5000):
                stream = RngStream(k, 1000 * pi + n)
                (_, y), (state,) = _draw_outcome(monkeypatch, generate_source, spec, n, stream)
                chooser = stream.generator()
                want = chooser.choice(k, size=n, p=priors)
                assert y.dtype == want.dtype and (y - 1).tobytes() == want.tobytes()
                assert state == chooser.bit_generator.state


class TestTrainClassifier:
    def test_separable_two_class_accuracy(self):
        x, y = generate_source(two_class_spec(scale=0.6), 800, RngStream(13))
        model = train_classifier(x, y, 2)
        assert np.mean(predict(model, x) == y) >= 0.95

    def test_random_labels_give_chance_accuracy(self):
        g = RngStream(14)
        x = g.substream("x").generator().normal(size=(3000, 2))
        y = g.substream("y").generator().integers(1, 3, size=3000)
        model = train_classifier(x, y, 2)
        assert np.mean(predict(model, x) == y) == pytest.approx(0.5, abs=0.05)

    def test_single_point_per_class(self):
        x = np.array([[10.0, 0.0], [-10.0, 0.0], [0.0, 10.0]])
        y = np.array([1, 2, 3])
        model = train_classifier(x, y, 3)
        assert np.mean(predict(model, x) == y) == 1.0

    def test_missing_class_rejected(self):
        x = np.zeros((4, 2))
        with pytest.raises(ValueError, match="class"):
            train_classifier(x, np.array([1, 1, 3, 3]), 3)

    def test_labels_without_the_top_class_are_refused(self):
        # The fit used to take K from the largest label and return a 2-class model.
        x = np.array([[10.0, 0.0], [-10.0, 0.0], [0.0, 10.0]])
        with pytest.raises(ValueError, match=r"its 3 rows hold no sample of class\(es\) \[3\]"):
            train_classifier(x, [1, 2, 2], 3)
        assert train_classifier(x, [1, 2, 2], 2).n_classes == 2

    @pytest.mark.parametrize(
        ("n_classes", "error"), [(0, ValueError), (1, ValueError), (True, ValueError), (2.0, TypeError), (None, TypeError)]
    )
    def test_class_count_must_be_an_integer_of_at_least_two(self, n_classes, error):
        with pytest.raises(error):
            train_classifier(np.zeros((2, 2)), [1, 1], n_classes)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_features_are_refused_before_the_first_epoch(self, bad, monkeypatch):
        # NaN features used to run every epoch and then fail the model's weight check.
        def no_epochs(*args, **kwargs):
            raise AssertionError("ran an epoch on non-finite features")

        monkeypatch.setattr(np, "matmul", no_epochs)
        x = np.array([[10.0, 0.0], [-10.0, bad], [0.0, 10.0]])
        with pytest.raises(ValueError, match="training features must be finite"):
            train_classifier(x, [1, 2, 3], 3)

    @pytest.mark.parametrize("learning_rate", [math.nan, math.inf])
    def test_a_non_finite_learning_rate_is_refused_before_the_first_epoch(self, learning_rate, monkeypatch):
        # NaN used to run every epoch and then fail the model's weight check; inf first warned from numpy.
        def no_epochs(*args, **kwargs):
            raise AssertionError("ran an epoch at a non-finite learning rate")

        monkeypatch.setattr(np, "matmul", no_epochs)
        x = np.array([[10.0, 0.0], [-10.0, 0.0], [0.0, 10.0]])
        with pytest.raises(ValueError, match=f"^learning_rate must be finite, got {learning_rate}$"):
            train_classifier(x, [1, 2, 2], 2, epochs=3, learning_rate=learning_rate)

    @pytest.mark.parametrize(("rows", "labels"), [(3, [1, 2]), (2, [1, 2, 1]), (2, [[1, 2]])])
    def test_one_label_per_row_is_checked_before_the_first_epoch(self, rows, labels, monkeypatch):
        # Three rows with two labels used to fail inside the first epoch with numpy's broadcast error.
        def no_epochs(*args, **kwargs):
            raise AssertionError("ran an epoch on mismatched labels")

        monkeypatch.setattr(np, "matmul", no_epochs)
        with pytest.raises(ValueError, match=f"{np.size(labels)} labels for {rows} training rows"):
            train_classifier(np.zeros((rows, 2)), labels, 2)

    def test_label_zero_rejected(self):
        # Label 0 used to wrap onto the last class of a 2-class fit.
        x = np.array([[10.0, 0.0], [-10.0, 0.0], [0.0, 10.0]])
        with pytest.raises(ValueError, match="labels must lie in 1"):
            train_classifier(x, [0, 1, 2], 2)

    def test_fractional_float_labels_rejected(self):
        # A float label array used to fail with numpy's IndexError.
        x = np.array([[10.0, 0.0], [-10.0, 0.0], [0.0, 10.0]])
        with pytest.raises(ValueError, match="labels must be integers"):
            train_classifier(x, np.array([1.0, 2.5, 3.0]), 3)

    def test_integral_float_labels_fit_like_integers(self):
        x, y = generate_source(two_class_spec(), 300, RngStream(15))
        m_int = train_classifier(x, y, 2, epochs=20)
        # Narrow integer labels too: their flat indices must not wrap or overflow.
        for dtype in (float, np.uint8, np.int16):
            m_other = train_classifier(x, y.astype(dtype), 2, epochs=20)
            np.testing.assert_array_equal(m_int.weights, m_other.weights)
            np.testing.assert_array_equal(m_int.biases, m_other.biases)

    def test_deterministic_fit(self):
        x, y = generate_source(two_class_spec(), 200, RngStream(15))
        m1 = train_classifier(x, y, 2, epochs=50)
        m2 = train_classifier(x, y, 2, epochs=50)
        np.testing.assert_array_equal(m1.weights, m2.weights)
        np.testing.assert_array_equal(m1.biases, m2.biases)


def _reference_fit(x, y, epochs, learning_rate):
    """The row-major training loop ``train_classifier`` must reproduce bit for bit: (w, b)."""
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y)
    n, d = xa.shape
    k = int(ya.max())
    w = np.zeros((k, d))
    b = np.zeros(k)
    onehot = np.zeros((n, k))
    onehot[np.arange(n), ya - 1] = 1.0

    prev_loss = np.inf
    for _ in range(epochs):
        z = xa @ w.T + b
        zmax = np.ascontiguousarray(z.T).max(axis=0)[:, None]
        p = np.exp(z - zmax)
        total = p.sum(axis=1, keepdims=True)
        logsumexp = zmax[:, 0] + np.log(total[:, 0])
        loss = float(np.mean(logsumexp - z[np.arange(n), ya - 1]))
        if loss > prev_loss + 1e-9:
            raise InvariantError(f"training loss increased ({prev_loss:.6g} -> {loss:.6g}); lower the learning rate")
        prev_loss = loss
        p /= total
        grad = (p - onehot) / n
        w -= learning_rate * (grad.T @ xa)
        b -= learning_rate * grad.sum(axis=0)
    return w, b


def _clustered(n, k, d, seed):
    """n rows in k Gaussian clusters, every class present (one row each when n == k)."""
    g = np.random.default_rng(seed)
    y = np.concatenate([np.arange(1, k + 1), g.integers(1, k + 1, size=n - k)])
    x = 2.0 * g.normal(size=(k, d))[y - 1] + g.normal(size=(n, d))
    return x, y


def _fit_outcome(fit, x, y, epochs, learning_rate):
    """(weights, biases) of a fit, or the message of its loss-increase error."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return fit(x, y, epochs, learning_rate)
    except InvariantError as exc:
        return str(exc)


def _class_major_fit(x, y, epochs, learning_rate):
    model = train_classifier(x, y, int(np.max(y)), epochs=epochs, learning_rate=learning_rate)
    return model.weights, model.biases


@pytest.mark.parametrize("k", [2, 3, 8, 9, 16, 17, 129, 300])
@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 128, 129, 4000])
def test_einsum_column_sum_adds_rows_in_sequence(n, k):
    # train_classifier's bias gradient relies on this order, which numpy does not document.
    g = np.random.default_rng(1000 * k + n)
    grad = g.choice([-1.0, 1.0], size=(n, k)) * 10.0 ** g.uniform(-9, 9, size=(n, k))
    total = np.einsum("ij->j", grad)
    assert np.array_equal(total, np.cumsum(grad, axis=0)[-1])
    assert np.array_equal(total, grad.sum(axis=0))


class TestTrainClassifierMatchesReference:
    # K = 8 and 9 take the 8-accumulator branch of the pairwise softmax sum, 16 and 33 run it for more than one block.
    @pytest.mark.parametrize("k", [2, 3, 5, 8, 9, 16, 33])
    @pytest.mark.parametrize("d", [1, 2, 5, 17])
    def test_bit_identical_weights_or_the_same_error(self, k, d):
        # lr 30 trips the loss check in most of these cases; 0.1 never does.
        for n in (k, 50, 4000):
            for learning_rate in (0.1, 30.0):
                x, y = _clustered(n, k, d, seed=100 * k + d)
                want = _fit_outcome(_reference_fit, x, y, 60, learning_rate)
                got = _fit_outcome(_class_major_fit, x, y, 60, learning_rate)
                if isinstance(want, str):
                    assert got == want
                else:
                    assert not isinstance(got, str), got
                    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]), (n, learning_rate)

    def test_default_shape_bit_identical(self, three_class_source):
        x, y = generate_source(three_class_source, 4000, RngStream(16))
        want = _reference_fit(x, y, 150, 0.1)
        model = train_classifier(x, y, 3, epochs=150, learning_rate=0.1)
        assert np.array_equal(model.weights, want[0]) and np.array_equal(model.biases, want[1])

    def test_loss_increase_raises_the_same_message(self):
        x, y = _clustered(50, 3, 1, seed=301)
        with pytest.raises(InvariantError, match="training loss increased") as want:
            _reference_fit(x, y, 60, 30.0)
        with pytest.raises(InvariantError) as got:
            train_classifier(x, y, 3, epochs=60, learning_rate=30.0)
        assert str(got.value) == str(want.value)

    def test_overflowing_fit_ends_in_non_finite_weights_without_warnings(self):
        spec = SourceSpec(
            class_means=np.array([[1e200, 0.0], [-1e200, 1e200], [-1e200, -1e200]]),
            class_cov_scale=0.65,
            priors=np.full(3, 1 / 3),
        )
        x, y = generate_source(spec, 300, RngStream(17))
        with warnings.catch_warnings(record=True) as caught, np.errstate(over="ignore", invalid="ignore"):
            warnings.simplefilter("always")
            w, b = _reference_fit(x, y, 150, 0.1)
            with pytest.raises(ValueError, match="finite"):
                train_classifier(x, y, 3, epochs=150, learning_rate=0.1)
        assert not (np.isfinite(w).all() and np.isfinite(b).all())
        assert [str(c.message) for c in caught if issubclass(c.category, RuntimeWarning)] == []

    @pytest.mark.parametrize("k", [2, 3, 7, 8, 9, 16, 17, 128, 129, 300])
    def test_class_sum_matches_numpy_row_sum(self, k):
        rows = np.exp(3.0 * np.random.default_rng(k).normal(size=(37, k)))
        assert np.array_equal(_pairwise_class_sum(np.ascontiguousarray(rows.T)), rows.sum(axis=1))


class TestLogitTable:
    def _write_round_trip(self, tmp_path, model, x, y, tags):
        rows = model.logit_matrix(x)
        path = tmp_path / "logits.csv"
        write_logit_table(path, tags, y, rows)
        return path, rows

    def test_round_trip_scores_bit_identical(self, tmp_path):
        g = RngStream(16)
        model = LinearLogitMap(g.substream("w").generator().normal(size=(3, 2)), np.zeros(3))
        x = g.substream("x").generator().normal(size=(30, 2))
        y = g.substream("y").generator().integers(1, 4, size=30)
        tags = ["source_cal"] * 10 + ["source_test"] * 10 + ["target_test"] * 10
        path, rows = self._write_round_trip(tmp_path, model, x, y, tags)

        table = load_logit_table(path)
        np.testing.assert_array_equal(table.logits, rows)
        tmap = LogitTableMap(table.logits)
        idx = np.arange(30.0)[:, None]
        np.testing.assert_array_equal(score(tmap, idx, y), score(model, x, y))
        np.testing.assert_array_equal(predict(tmap, idx), predict(model, x))
        np.testing.assert_array_equal(predictive_entropy(tmap, idx), predictive_entropy(model, x))

    def test_missing_labels_allowed_only_in_target_cal(self, tmp_path):
        path = tmp_path / "ok.csv"
        path.write_text("split,label,logit_0,logit_1\ntarget_cal,MISSING,0.5,0.1\nsource_cal,1,0.2,0.3\n")
        table = load_logit_table(path)
        assert table.labels[table.rows("target_cal")][0] == 0

        bad = tmp_path / "bad.csv"
        bad.write_text("split,label,logit_0,logit_1\nsource_cal,MISSING,0.5,0.1\n")
        with pytest.raises(DataError, match="line 2"):
            load_logit_table(bad)

    def test_malformed_rows_report_line_numbers(self, tmp_path):
        cases = {
            "unknown tag": "split,label,logit_0,logit_1\nweird,1,0.1,0.2\n",
            "bad label": "split,label,logit_0,logit_1\nsource_cal,9,0.1,0.2\n",
            "bad float": "split,label,logit_0,logit_1\nsource_cal,1,x,0.2\n",
            "short row": "split,label,logit_0,logit_1\nsource_cal,1,0.1\n",
        }
        for name, content in cases.items():
            path = tmp_path / "case.csv"
            path.write_text(content)
            with pytest.raises(DataError, match="line 2"):
                load_logit_table(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("foo,bar\n")
        with pytest.raises(DataError, match="line 1"):
            load_logit_table(path)

    def test_hand_written_margins(self, tmp_path):
        path = tmp_path / "hand.csv"
        path.write_text(
            "split,label,logit_0,logit_1,logit_2\n"
            "source_cal,1,3.0,1.0,0.0\n"
            "source_cal,2,0.0,2.0,2.0\n"
            "target_test,3,-1.0,0.5,-2.0\n"
        )
        table = load_logit_table(path)
        tmap = LogitTableMap(table.logits)
        idx = np.array([[0.0], [1.0], [2.0]])
        got = score(tmap, idx, np.array([1, 2, 3]))
        # Hand arithmetic: margins 2, 0, -2.5 -> scores -2, 0, 2.5.
        np.testing.assert_allclose(got, [-2.0, 0.0, 2.5])

    def test_downstream_calibration_on_table(self, tmp_path):
        from shiftcp.conformal import coverage
        from shiftcp.pseudo import pseudo_calibrate

        g = RngStream(17)
        model = LinearLogitMap(g.substream("w").generator().normal(size=(3, 2)), np.zeros(3))
        x = g.substream("x").generator().normal(size=(60, 2))
        y = g.substream("y").generator().integers(1, 4, size=60)
        tags = ["target_cal"] * 30 + ["target_test"] * 30
        path, _ = self._write_round_trip(tmp_path, model, x, y, tags)
        table = load_logit_table(path)
        tmap = LogitTableMap(table.logits)
        cal = pseudo_calibrate(tmap, table.features("target_cal"), 0.2)
        cov = coverage(tmap, table.features("target_test"), table.labels[table.rows("target_test")], cal)
        assert 0.0 <= cov <= 1.0
