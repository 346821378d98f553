"""Margin-based classifier scoring.

Logits, argmax prediction, multiclass margins, the nonconformity score
(negated margin), ramp/hinge surrogate losses, predictive entropy, and the
exact Lipschitz constant of the margin for linear logit maps.

Conventions
-----------
Labels are 1-based: classes are ``1..K``. Every function accepts either a
single input (1-D feature vector, scalar label) or a batch (2-D inputs with
one row per point, 1-D label array) and vectorizes accordingly. Any object
exposing ``logit_matrix(x) -> (n, K)`` and ``n_classes`` can stand in for a
classifier; see :class:`LinearLogitMap` and the logit-table map in
:mod:`shiftcp.synthetic`.

Scored views
------------
:func:`scored_view` makes one ``logit_matrix`` pass over a batch and keeps
what every downstream quantity is derived from: the score matrix ``S``, the
hard labels, their scores and the predictive entropy. Scores of any other
label assignment are the gather ``S[i, y_i - 1]`` (true labels, randomized
labels), and coverage, set sizes, losses and the tuning curve are reductions
over ``S`` or over one such gather. A :class:`ScoredView` can be passed
wherever a batch of inputs is expected (the model argument is then unused),
so a caller that scores a split once pays for one logit pass however many
quantities it derives.

Views work class-major: ``S`` is a (K, n) array exposed as its (n, K)
transpose, so each pass runs along the n points and a gather is one flat
``take``; the class-major logits of :class:`LinearLogitMap` are not copied twice.

The hard labels and their scores come with ``S``, not from a label gather:
the hard score ``-(top1 - top2) <= 0`` is the row minimum, and any other
label scores ``top1 - logit >= 0``. So a true-label score is never below the
hard score, equals it on the prediction and exceeds it by at most twice
itself elsewhere. These are construction guarantees for any finite logits,
pinned by a property test in ``tests/test_scores.py``; no caller re-checks them.

The view is the single validation boundary: logits must be finite (a
non-finite input row raises instead of counting as a miss), and labels are
checked for integrality, the range ``1..K`` and one label per row each time
they are gathered.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .exceptions import _finite_array


@dataclass(frozen=True)
class LinearLogitMap:
    """Linear multiclass classifier ``logits(x) = weights @ x + biases``.

    Parameters
    ----------
    weights : np.ndarray, shape (K, d)
        One weight row per class.
    biases : np.ndarray, shape (K,)
        One intercept per class.
    """

    weights: np.ndarray
    biases: np.ndarray

    def __post_init__(self) -> None:
        w = _finite_array(self.weights, "weights")
        b = _finite_array(self.biases, "biases")
        if w.ndim != 2:
            raise ValueError("weights must be a (K, d) matrix")
        if b.ndim != 1 or b.shape[0] != w.shape[0]:
            raise ValueError("biases must be a length-K vector matching weights")
        if w.shape[0] < 2:
            raise ValueError("at least two classes are required")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "biases", b)

    @property
    def n_classes(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.weights.shape[1]

    def logit_matrix(self, x: np.ndarray) -> np.ndarray:
        """Class logits, shape (n, K): the transpose of ``W @ x.T + b``, bit for bit ``x @ W.T + b`` (tested)."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.dim:
            raise ValueError(f"expected inputs of shape (n, {self.dim}), got {x.shape}")
        with np.errstate(invalid="ignore", over="ignore"):  # a non-finite logit is refused by the view, without a warning
            return (self.weights @ x.T + self.biases[:, None]).T


def _as_batch(x) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return x[None, :], True
    if x.ndim == 2:
        return x, False
    raise ValueError(f"inputs must be 1-D or 2-D, got ndim={x.ndim}")


def _check_labels(y: np.ndarray, n_classes: int | None, lowest: int = 1) -> np.ndarray:
    """Integer labels of at least ``lowest`` and, when ``n_classes`` is given, at most ``n_classes``."""
    y = np.asarray(y)
    if not np.issubdtype(y.dtype, np.integer):
        # NaN, infinite and huge values have no integer to cast to; they fail the round trip.
        with np.errstate(invalid="ignore"):
            yi = y.astype(int)
        if not np.array_equal(yi, y):
            raise ValueError("labels must be integers")
        y = yi
    if y.size and (y.min() < lowest or (n_classes is not None and y.max() > n_classes)):
        raise ValueError(f"labels must lie in {lowest}..{n_classes or 'K'}")
    return y.astype(np.intp, copy=False)


def _pairwise_class_sum(p: np.ndarray) -> np.ndarray:
    """Per-column sums of a class-major (K, n) array, added in numpy's pairwise order.

    ``q.sum(axis=1)`` on the row-major (n, K) layout ``q = p.T`` sums each
    row by numpy's pairwise summation: left to right below 8 terms; from 8 to
    128 terms, 8 strided accumulators combined as a fixed tree, then the
    remainder left to right; above 128, the two halves (split at a multiple
    of 8) separately. This replays that order with whole rows of ``p`` as the
    terms, so every sum is bit-identical while each add runs along the long axis.
    """
    k = p.shape[0]
    if k > 128:
        half = k // 2 - (k // 2) % 8
        return _pairwise_class_sum(p[:half]) + _pairwise_class_sum(p[half:])
    if k < 8:
        total, rest = (p[0] + p[1], p[2:]) if k > 1 else (p[0].copy(), p[1:])
    else:
        acc = p[:8].copy()
        for i in range(8, k - k % 8, 8):
            acc += p[i : i + 8]
        total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
        rest = p[k - k % 8 :]
    for row in rest:
        total += row
    return total


@dataclass(frozen=True, eq=False)
class ScoredView:
    """One batch scored once: score matrix, hard labels and predictive entropy.

    Built from an (n, K) logit matrix, which must be finite. ``scores[i, k]``
    is the nonconformity score of label ``k + 1`` at row ``i``; ``hard``
    holds the 1-based argmax labels (ties to the smallest index) and
    ``hard_scores`` their scores, bit for bit ``label_scores(hard)`` and the
    row minimum of ``scores``; ``entropy`` is the temperature-1 softmax
    entropy in nats, computed on first use. The arrays are read-only.

    Every pass runs on the (K, n) transpose of the logits, copied only when
    they are not class-major already, and ``scores`` is the transpose of a
    (K, n) array. The bits equal the row-major definitions (kept as a test
    oracle) through these orders:

    - one pass over the classes keeps a running ``lead = maximum(lead,
      row)``, the chain that ``max(axis=0)`` runs down a (K, n) array, so
      ``lead`` is ``top1``, the sign of a tied zero included; a class wins a
      row only by beating ``lead`` (ties to the first, as ``np.argmax``), and
      as classes come in order the argmax is the last class to win;
    - ``top2`` is ``max(axis=0)`` of the logits with each row's argmax entry
      set to ``-inf``;
    - each score is ``-(own - competitor)``, keeping the sign of a zero: the
      argmax label's is ``-(own - top2)``, with ``own`` its logit (equal to
      ``lead`` but for the sign of a zero), and every other label's competitor
      is ``lead``; the hard scores are the argmax labels' scores before they
      are scattered into the score matrix;
    - the entropy sums each row in numpy's pairwise order (:func:`_pairwise_class_sum`).
    """

    logits: np.ndarray = field(repr=False)
    scores: np.ndarray = field(init=False, repr=False)
    hard: np.ndarray = field(init=False, repr=False)
    hard_scores: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        rows = np.array(self.logits, dtype=float)
        if rows.ndim != 2 or rows.shape[1] < 2:
            raise ValueError(f"logits must be an (n, K) matrix with K >= 2, got shape {rows.shape}")
        _finite_array(rows, "logits")
        cols = np.ascontiguousarray(rows.T)
        k, n = cols.shape
        best, lead = np.zeros(n, dtype=np.intp), cols[0]
        for c in range(1, k):
            np.maximum(best, (cols[c] > lead) * c, out=best)
            lead = np.maximum(lead, cols[c])
        at_best = best * n  # flat (K, n) index of each row's argmax entry
        at_best += np.arange(n)
        scores = cols.copy()
        flat = scores.reshape(-1)
        flat[at_best] = -np.inf
        top2 = scores.max(axis=0)
        hard_scores = cols.take(at_best)
        hard_scores -= top2
        np.subtract(cols, lead, out=scores)
        flat[at_best] = hard_scores
        np.negative(scores, out=scores)
        np.negative(hard_scores, out=hard_scores)
        derived = {"logits": rows, "scores": scores.T, "hard": best + 1, "hard_scores": hard_scores}
        for name, arr in derived.items():
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @cached_property
    def entropy(self) -> np.ndarray:
        cols = np.ascontiguousarray(self.logits.T)
        expz = np.exp(cols - cols.max(axis=0))
        p = expz / _pairwise_class_sum(expz)
        terms = np.where(p > 0.0, p * np.log(np.where(p > 0.0, p, 1.0)), 0.0)
        out = -_pairwise_class_sum(terms)
        out.flags.writeable = False
        return out

    @property
    def n_classes(self) -> int:
        return self.scores.shape[1]

    def __len__(self) -> int:
        return self.scores.shape[0]

    def label_scores(self, y) -> np.ndarray:
        """Scores ``S[i, y_i - 1]`` of one label per row."""
        yarr = _check_labels(np.atleast_1d(y), self.n_classes)
        if yarr.shape != (len(self),):
            raise ValueError(f"expected one label per scored row ({len(self)}), got shape {yarr.shape}")
        n = len(self)
        return self.scores.T.take((yarr - 1) * n + np.arange(n))


def scored_view(model, x) -> ScoredView:
    """Score a batch of inputs with one logit pass; a view is returned unchanged."""
    return _scored(model, x)[0]


def _scored(model, x) -> tuple[ScoredView, bool]:
    """The view of ``x`` and whether ``x`` was a single input."""
    if isinstance(x, ScoredView):
        return x, False
    batch, single = _as_batch(x)
    return ScoredView(model.logit_matrix(batch)), single


def logits(model, x) -> np.ndarray:
    """Class logit vector(s) for ``x``: shape (K,) for a single input, (n, K) for a batch."""
    batch, single = _as_batch(x)
    out = model.logit_matrix(batch)
    return out[0] if single else out


def predict(model, x):
    """Predicted class = argmax of the logits, ties broken by the smallest class index."""
    view, single = _scored(model, x)
    return int(view.hard[0]) if single else view.hard


def score(model, x, y):
    """Nonconformity score: the negated margin of label ``y`` at ``x``."""
    view, single = _scored(model, x)
    out = view.label_scores(y)
    return float(out[0]) if single else out


def margin(model, x, y):
    """Multiclass margin of label ``y`` at ``x``.

    Positive iff ``y`` strictly beats every other class; zero on exact ties.
    """
    return -score(model, x, y)


def score_matrix(model, x) -> np.ndarray:
    """Scores of every candidate label, shape (n, K)."""
    view, single = _scored(model, x)
    return view.scores[0] if single else view.scores


def ramp_loss(gamma):
    """Ramp surrogate ``min(max(1 - gamma, 0), 1)``: 1 below margin 0, 0 above margin 1."""
    g = np.asarray(gamma, dtype=float)
    out = np.clip(1.0 - g, 0.0, 1.0)
    return float(out) if g.ndim == 0 else out


def hinge_loss(gamma):
    """Hinge surrogate ``max(1 - gamma, 0)``."""
    g = np.asarray(gamma, dtype=float)
    out = np.maximum(1.0 - g, 0.0)
    return float(out) if g.ndim == 0 else out


def _population_loss(loss, true_scores: np.ndarray) -> float:
    """Mean ``loss`` of the true-label margins, the negated true-label scores."""
    if true_scores.size == 0:
        raise ValueError("population loss of an empty sample is undefined")
    return float(loss(-true_scores).mean())


def population_ramp_loss(model, x, y) -> float:
    """Mean ramp loss of the true-label margins over a labeled sample."""
    return _population_loss(ramp_loss, scored_view(model, x).label_scores(y))


def population_hinge_loss(model, x, y) -> float:
    """Mean hinge loss of the true-label margins over a labeled sample."""
    return _population_loss(hinge_loss, scored_view(model, x).label_scores(y))


def predictive_entropy(model, x):
    """Entropy (nats) of the temperature-1 softmax over the logits.

    Computed with max-subtraction for stability; ranges over ``[0, ln K]``.
    """
    view, single = _scored(model, x)
    return float(view.entropy[0]) if single else view.entropy


def lipschitz_bound(model: LinearLogitMap) -> float:
    """Exact Lipschitz constant of the margin for a linear logit map.

    The margin of label y is ``min over k != y`` of the linear function
    ``(w_y - w_k) . x + (b_y - b_k)``, each Lipschitz with constant
    ``||w_y - w_k||``. A pointwise min of L-Lipschitz functions is
    L-Lipschitz, so the max pairwise row-difference norm bounds every label's
    margin at once (and is tighter than summing row norms).
    """
    w = model.weights
    diffs = w[:, None, :] - w[None, :, :]
    return float(np.linalg.norm(diffs, axis=2).max())
