"""Synthetic source/target generation and external-logit ingestion.

The generator draws isotropic Gaussian class clusters for the source domain
and produces the target by a per-class translation plus norm-clipped Gaussian
noise, so labels are preserved by construction (identical class marginals)
and the per-pair displacement is certifiably at most
``max_y(||t_y|| + clip_radius)``. Translations and noise scale jointly under
a single shift-strength knob, keeping the certificate analytic across a
sweep. A plain multinomial logistic regression trained by full-batch gradient
descent plays the role of the fixed pre-trained classifier.

Draw order is part of the output contract (see :func:`generate_source` and
:func:`_clipped_noise`). Rows are gathered with ``take`` and features built in
place, bit for bit the textbook expressions kept as test oracles.

Externally computed logits can be ingested from a CSV table; the resulting
table map plugs into every downstream scoring and calibration routine, with
row indices standing in for feature vectors.
"""

from __future__ import annotations

import csv
import io
import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from .conformal import _validate_finite, _validate_nonnegative
from .exceptions import ConfigError, DataError, InvariantError
from .rng import RngStream
from .scores import LinearLogitMap, _check_labels, _pairwise_class_sum

SPLIT_TAGS = ("source_cal", "source_test", "target_cal", "target_test")

#: Internal label code for rows whose label column is the literal MISSING.
MISSING_LABEL = 0

_MAX_REJECTION_ROUNDS = 10_000

#: Largest logit magnitude a table may hold: scores are logit differences and
#: the bounds take score differences, so both must stay finite.
_MAX_ABS_LOGIT = np.finfo(float).max / 8


@dataclass(frozen=True)
class SourceSpec:
    """Isotropic Gaussian mixture defining the source domain.

    ``class_means`` has one row per class; ``class_cov_scale`` is the shared
    isotropic standard deviation (0 collapses each class onto its mean);
    ``priors`` is a probability vector over classes.
    """

    class_means: np.ndarray
    class_cov_scale: float
    priors: np.ndarray

    def __post_init__(self) -> None:
        means = np.asarray(self.class_means, dtype=float)
        priors = np.asarray(self.priors, dtype=float)
        if means.ndim != 2 or means.shape[0] < 2:
            raise ValueError("class_means must be a (K, d) matrix with K >= 2")
        if priors.shape != (means.shape[0],):
            raise ValueError("priors must have one entry per class")
        if (priors < 0).any() or abs(priors.sum() - 1.0) > 1e-9:
            raise ValueError("priors must be a probability vector")
        _validate_nonnegative(class_cov_scale=self.class_cov_scale)
        _validate_finite(class_cov_scale=self.class_cov_scale)
        if not (np.isfinite(means).all() and np.isfinite(priors).all()):
            raise ValueError("spec entries must be finite")
        object.__setattr__(self, "class_means", means)
        object.__setattr__(self, "priors", priors)

    @property
    def n_classes(self) -> int:
        return self.class_means.shape[0]

    @property
    def dim(self) -> int:
        return self.class_means.shape[1]


@dataclass(frozen=True)
class ShiftSpec:
    """Per-class translation plus norm-clipped Gaussian noise.

    ``clip_mode`` selects how noise is kept inside the radius: ``resample``
    redraws rejected vectors (smooth density), ``project`` rescales them onto
    the ball.
    """

    per_class_translation: np.ndarray
    noise_scale: float
    clip_radius: float
    clip_mode: str = "resample"

    def __post_init__(self) -> None:
        t = np.asarray(self.per_class_translation, dtype=float)
        if t.ndim != 2:
            raise ValueError("per_class_translation must be a (K, d) matrix")
        if not np.isfinite(t).all():
            raise ValueError("translations must be finite")
        _validate_nonnegative(noise_scale=self.noise_scale, clip_radius=self.clip_radius)
        if self.clip_mode not in ("resample", "project"):
            raise ValueError(f"unknown clip_mode {self.clip_mode!r}")
        object.__setattr__(self, "per_class_translation", t)

    @property
    def rho_true(self) -> float:
        """Certified sup displacement: max translation norm plus the clip radius."""
        return float(np.linalg.norm(self.per_class_translation, axis=1).max() + self.clip_radius)

    def per_class_rho(self) -> np.ndarray:
        """Certified per-class displacement bounds ``||t_y|| + clip_radius``."""
        return np.linalg.norm(self.per_class_translation, axis=1) + self.clip_radius

    def scaled(self, sigma: float) -> "ShiftSpec":
        """Shift of strength ``sigma``: translations, noise and radius all scale jointly."""
        _validate_nonnegative(sigma=sigma)
        return replace(
            self,
            per_class_translation=self.per_class_translation * sigma,
            noise_scale=self.noise_scale * sigma,
            clip_radius=self.clip_radius * sigma,
        )


def generate_source(spec: SourceSpec, n: int, rng: RngStream) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``n`` labeled source points: labels from the priors, features Gaussian.

    Labels come from one ``random(n)`` block, as ``Generator.choice`` draws them:
    a label counts the inner edges of the priors' normalised CDF at or below its
    uniform. That count is ``choice``'s right-sided ``searchsorted``, since the CDF
    never decreases and its last edge, exactly 1, lies above every uniform.
    Features are one ``standard_normal((n, d))`` block, scaled and moved in place.
    """
    if n < 0:
        raise ValueError("sample size must be nonnegative")
    g = rng.generator()
    cdf = spec.priors.cumsum()
    idx = (g.random(n) >= (cdf[:-1] / cdf[-1])[:, None]).sum(axis=0, dtype=np.intp)
    x = g.standard_normal((n, spec.dim))
    x *= spec.class_cov_scale
    x += spec.class_means.take(idx, axis=0)
    return x, idx + 1


# A draw or norm that overflows lies beyond any radius: resampling rejects it,
# and projection cannot rescale it.
@np.errstate(over="ignore")
def _clipped_noise(n: int, d: int, scale: float, radius: float, mode: str, g: np.random.Generator) -> np.ndarray:
    """``scale`` times one ``standard_normal((n, d))`` block, its rows outside ``radius`` projected or redrawn.

    Each resample round draws one ``(m, d)`` block for the ``m`` rows still
    outside, in row order, so the draws, their order and the generator's end
    state are those of the row-wise loop kept as a test oracle. A block is
    scaled in place and scattered whole through a one-element-per-row view of
    the noise; its rows then stay outside exactly when their square sums
    exceed :func:`_square_cutoff` of the radius, the decisions of
    ``_row_norms(block) > radius`` without the root.
    """
    if scale == 0.0 or radius == 0.0 or d == 0:
        # radius 0 clips the noise entirely, and d = 0 has none; no rejection loop.
        return np.zeros((n, d))
    # A draw lands in the ball with chance at most its volume times the density's
    # peak, (r^2 / 2s^2)^(d/2) / Gamma(d/2 + 1) (in logs: r may be subnormal, s
    # huge). Below a 1e-6 chance within the rounds, none is tried.
    log_chance = d * (math.log(radius) - math.log(scale) - math.log(2.0) / 2) - math.lgamma(d / 2 + 1)
    if mode == "resample" and n and log_chance + math.log(_MAX_REJECTION_ROUNDS) < math.log(1e-6):
        raise ConfigError(_rejection_failure(radius, scale))
    eps = g.standard_normal((n, d))
    eps *= scale
    if mode == "project":
        norms = _row_norms(eps)[:, None]
        if not np.isfinite(norms).all():
            raise ConfigError(f"shift.noise_scale {scale:.4g} at this shift strength overflows the noise norms")
        eps *= np.where(norms > radius, radius / np.where(norms > 0, norms, 1.0), 1.0)
        return eps
    cutoff = _square_cutoff(radius)
    # An accepted row never changes, so each round checks only the block it drew.
    bad = np.flatnonzero(_pairwise_class_sum((eps * eps).T) > cutoff)
    rows = eps.view(np.dtype((np.void, eps.itemsize * d))).reshape(n)
    for _ in range(_MAX_REJECTION_ROUNDS):
        if bad.size == 0:
            return eps
        block = g.standard_normal((bad.size, d))
        block *= scale
        rows[bad] = block.view(rows.dtype).reshape(bad.size)
        block *= block
        bad = bad.compress(_pairwise_class_sum(block.T) > cutoff)
    raise ConfigError(_rejection_failure(radius, scale))


def _row_norms(e: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(e, axis=1)`` bit for bit: its per-row pairwise sum of squares, run down columns."""
    return np.sqrt(_pairwise_class_sum((e * e).T))


def _square_cutoff(radius: float) -> float:
    """The largest float whose root is at most ``radius``.

    A correctly rounded root never decreases, so for any square sum ``s``,
    ``inf`` included, ``sqrt(s) > radius`` exactly when ``s > _square_cutoff(radius)``.
    """
    radius = float(radius)
    if radius == math.inf:
        return radius
    cut = radius * radius  # within an ulp or two of the cutoff; inf if it overflows
    while math.sqrt(cut) > radius:
        cut = math.nextafter(cut, 0.0)
    while math.sqrt(math.nextafter(cut, math.inf)) <= radius:
        cut = math.nextafter(cut, math.inf)
    return cut


def _rejection_failure(radius: float, scale: float) -> str:
    return (
        f"shift.clip_radius is too small for shift.noise_scale: rejection sampling of the clipped noise "
        f"(radius {radius:.4g}, scale {scale:.4g} at this shift strength) does not converge in "
        f"{_MAX_REJECTION_ROUNDS} rounds; use a larger radius or shift.clip_mode \"project\""
    )


def apply_shift(x, y, shift: ShiftSpec, rng: RngStream) -> np.ndarray:
    """Shift features by the class translation plus clipped noise; labels are unchanged.

    ``x`` is one point ``(d,)`` with a scalar label or a batch ``(n, d)`` with
    ``n`` labels; any other shape or label count is a ``ValueError``, and
    non-finite features a :class:`DataError` (a ``ValueError``), each raised
    before any draw.

    Returns the shifted features aligned row-by-row with ``x``, so the
    positional pairing realizes an explicit coupling for sup-displacement
    checks.
    """
    xa = np.asarray(x, dtype=float)
    single = xa.ndim == 1
    if single:
        xa = xa[None, :]
    if xa.ndim != 2:
        raise ValueError(f"features must be one point (d,) or a batch (n, d), got shape {xa.shape}")
    ya = _check_labels(np.atleast_1d(y), shift.per_class_translation.shape[0])
    if ya.shape != xa.shape[:1]:
        raise ValueError(f"{ya.size} labels for {xa.shape[0]} feature rows; each row needs its own label")
    if xa.shape[1] != shift.per_class_translation.shape[1]:
        raise ValueError("feature dimension does not match the shift specification")
    if not np.isfinite(xa).all():
        raise DataError("features to shift must be finite")
    g = rng.generator()
    eps = _clipped_noise(xa.shape[0], xa.shape[1], shift.noise_scale, shift.clip_radius, shift.clip_mode, g)
    out = xa + shift.per_class_translation.take(ya - 1, axis=0)
    out += eps
    return out[0] if single else out


def train_classifier(x, y, n_classes: int, epochs: int = 200, learning_rate: float = 0.1) -> LinearLogitMap:
    """Multinomial logistic regression over classes ``1..n_classes`` by full-batch gradient descent.

    The features must be finite, with one label per row, and the labels must
    hold every class, so the model has ``n_classes`` rows whatever the
    sample; all are checked before the first epoch. Zero-initialized, so the
    fit is deterministic. The cross-entropy loss must be non-increasing
    across epochs and an :class:`InvariantError` is raised if it is not (a
    sign the learning rate is too large for the data scale).

    Each epoch works on class-major (K, n) arrays allocated once, so its
    passes run along the long axis. The weights are bit-identical to the
    textbook row-major loop (kept as a test oracle), which fixes the order of
    every floating-point reduction; changing any of these changes the bits:

    - logits are ``w @ x.T`` into the (K, n) buffer, then ``+ b``;
    - the softmax normalizer sums each column in numpy's pairwise order for
      a length-K row (:func:`_pairwise_class_sum`; ``(p0 + p1) + p2`` at
      K = 3, never ``p0 + (p1 + p2)``);
    - the loss is ``mean((zmax + log(total)) - z_true)``;
    - the weight gradient is ``grad.T @ x`` with ``grad`` a C-contiguous
      (n, K) array: a contiguous (K, n) operand changes the BLAS bits;
    - the bias gradient is ``einsum("ij->j", grad)``, the strictly sequential
      sum of each column down its rows (the order of ``grad.sum(axis=0)``
      and of a cumulative sum's last row), never pairwise; numpy does not
      document ``einsum``'s order, so ``tests/test_synthetic.py`` pins it.
    """
    _validate_finite(learning_rate=learning_rate)
    k = operator.index(n_classes)
    if k < 2:
        raise ValueError(f"a classifier needs at least two classes, got n_classes {k}")
    xa = np.asarray(x, dtype=float)
    ya = _check_labels(y, k)
    if xa.ndim != 2 or xa.shape[0] == 0:
        raise ValueError("training data must be a nonempty (n, d) array")
    if ya.shape != xa.shape[:1]:
        raise ValueError(f"{ya.size} labels for {xa.shape[0]} training rows; each row needs its own label")
    if not np.isfinite(xa).all():
        raise ValueError("training features must be finite")
    if epochs < 1 or learning_rate <= 0:
        raise ValueError("need epochs >= 1 and a positive learning rate")
    missing = sorted(set(range(1, k + 1)) - set(np.unique(ya).tolist()))
    if missing:
        raise ValueError(f"its {xa.shape[0]} rows hold no sample of class(es) {missing}")

    n, d = xa.shape
    w = np.zeros((k, d))
    b = np.zeros(k)
    true = (ya - 1) * n + np.arange(n)  # flat (K, n) index of each row's true-label entry
    onehot = np.zeros((k, n))
    onehot.flat[true] = 1.0
    z = np.empty((k, n))
    p = np.empty((k, n))
    grad = np.empty((n, k))

    prev_loss = np.inf
    for _ in range(epochs):
        np.matmul(w, xa.T, out=z)
        z += b[:, None]
        zmax = z.max(axis=0)
        np.exp(np.subtract(z, zmax, out=p), out=p)
        total = _pairwise_class_sum(p)
        loss = float(np.mean(zmax + np.log(total) - z.take(true)))
        if loss > prev_loss + 1e-9:
            raise InvariantError(f"training loss increased ({prev_loss:.6g} -> {loss:.6g}); lower the learning rate")
        prev_loss = loss
        p /= total
        p -= onehot
        np.divide(p, n, out=grad.T)
        w -= learning_rate * (grad.T @ xa)
        b -= learning_rate * np.einsum("ij->j", grad)
    return LinearLogitMap(w, b)


@dataclass(frozen=True)
class LogitTable:
    """Rows of (split tag, label-or-missing, K logits) from an external classifier."""

    split: np.ndarray
    labels: np.ndarray
    logits: np.ndarray

    @property
    def n_classes(self) -> int:
        return self.logits.shape[1]

    def rows(self, tag: str) -> np.ndarray:
        """Global row indices belonging to a split tag."""
        if tag not in SPLIT_TAGS:
            raise ValueError(f"unknown split tag {tag!r}")
        return np.nonzero(self.split == tag)[0]

    def features(self, tag: str) -> np.ndarray:
        """Row indices of a split, shaped (m, 1) to act as feature vectors for the table map."""
        return self.rows(tag)[:, None].astype(float)


@dataclass(frozen=True)
class LogitTableMap:
    """Classifier facade over stored logits; inputs are table row indices.

    A "feature vector" is the 1-element row index, so single points have
    shape (1,) and batches shape (m, 1), matching the conventions of
    :mod:`shiftcp.scores`.
    """

    logits: np.ndarray

    @property
    def n_classes(self) -> int:
        return self.logits.shape[1]

    @property
    def dim(self) -> int:
        return 1

    def logit_matrix(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != 1:
            raise ValueError("table-map inputs must be row indices of shape (m, 1)")
        idx = x[:, 0].astype(int)
        if not np.array_equal(idx.astype(float), x[:, 0]):
            raise ValueError("table-map inputs must be integral row indices")
        if idx.size and (idx.min() < 0 or idx.max() >= self.logits.shape[0]):
            raise ValueError("row index out of range")
        return self.logits[idx]


def _utf8_lines(path) -> io.StringIO:
    """The text of ``path`` as a file of untranslated lines, for :mod:`csv`.

    A file that cannot be read, or is not UTF-8 text, is a :class:`DataError`
    that names the path (and the line of the first bad byte).
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    try:
        return io.StringIO(data.decode("utf-8"), newline="")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{path}: line {line}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _output_file(path, newline: str | None = None):
    """``path`` opened for writing UTF-8 text; a path that cannot be written is a :class:`ConfigError` naming it."""
    try:
        return open(path, "w", newline=newline, encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def load_logit_table(path) -> LogitTable:
    """Parse a logit-table CSV.

    Expected header: ``split,label,logit_0,...,logit_{K-1}``. Labels are
    1-based integers, or the literal ``MISSING`` (accepted only in the
    ``target_cal`` split). Raises :class:`DataError` with the offending line
    number on any malformed content, and on a missing or non-UTF-8 file.
    """
    splits: list[str] = []
    labels: list[int] = []
    rows: list[list[float]] = []
    with _utf8_lines(path) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        expected_prefix = ["split", "label"]
        if header[:2] != expected_prefix or len(header) < 4:
            raise DataError(f"{path}: line 1: header must start with 'split,label,logit_0,logit_1' (K >= 2 classes)")
        k = len(header) - 2
        if header[2:] != [f"logit_{i}" for i in range(k)]:
            raise DataError(f"{path}: line 1: logit columns must be named logit_0..logit_{k - 1}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != k + 2:
                raise DataError(f"{path}: line {lineno}: expected {k + 2} fields, got {len(row)}")
            tag = row[0]
            if tag not in SPLIT_TAGS:
                raise DataError(f"{path}: line {lineno}: unknown split tag {tag!r}")
            raw_label = row[1].strip()
            if raw_label == "MISSING":
                if tag != "target_cal":
                    raise DataError(f"{path}: line {lineno}: MISSING labels are only allowed in target_cal")
                label = MISSING_LABEL
            else:
                try:
                    label = int(raw_label)
                except ValueError:
                    raise DataError(f"{path}: line {lineno}: label must be an integer or MISSING") from None
                if not (1 <= label <= k):
                    raise DataError(f"{path}: line {lineno}: label {label} outside 1..{k}")
            try:
                values = [float(v) for v in row[2:]]
            except ValueError:
                raise DataError(f"{path}: line {lineno}: non-numeric logit") from None
            if not all(abs(v) <= _MAX_ABS_LOGIT for v in values):
                raise DataError(f"{path}: line {lineno}: logits must be finite and within +-{_MAX_ABS_LOGIT:.4g}")
            splits.append(tag)
            labels.append(label)
            rows.append(values)
    if not rows:
        raise DataError(f"{path}: no data rows")
    return LogitTable(
        split=np.asarray(splits, dtype=object),
        labels=np.asarray(labels, dtype=int),
        logits=np.asarray(rows, dtype=float),
    )


def _write_split_table(path, split, labels, values, prefix: str) -> None:
    """``split,label,{prefix}0,...`` rows; floats use repr and :data:`MISSING_LABEL` is written as MISSING."""
    split = list(split)
    labels = np.asarray(labels, dtype=int)
    values = np.asarray(values, dtype=float)
    if not (len(split) == labels.shape[0] == values.shape[0]):
        raise ValueError("split, labels and values must have matching lengths")
    with _output_file(path, newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["split", "label"] + [f"{prefix}{i}" for i in range(values.shape[1])])
        for tag, label, row in zip(split, labels, values):
            text = "MISSING" if label == MISSING_LABEL else str(int(label))
            writer.writerow([tag, text] + [repr(float(v)) for v in row])


def write_dataset_csv(path, split, labels, features) -> None:
    """Export a dataset as ``split,label,x_0,...,x_{d-1}`` for reproducibility audits."""
    _write_split_table(path, split, labels, features, "x_")
