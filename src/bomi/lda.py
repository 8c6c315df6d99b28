"""Linear discriminant analysis with a pooled, shrunk covariance.

Fitting computes per-class means, the pooled within-class covariance
Sigma = (1 / (N - K)) * sum of centered outer products, and the shrunk
Sigma_l = (1 - l) * Sigma + l * (tr(Sigma) / d) * I. The Cholesky factor
of Sigma_l is taken once at fit time; prediction is a single matrix
product against precomputed weights, so scoring never re-solves the
system.

Scores are delta_j(x) = x' Sigma_l^-1 mu_j - mu_j' Sigma_l^-1 mu_j / 2
+ log pi_j; ties break toward the neutral class, then the lowest label.
"""

from __future__ import annotations

import datetime as _dt
import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np
from scipy.linalg import cho_solve, cholesky, LinAlgError

from .errors import (
    DimensionMismatchError,
    ModelFormatError,
    NumericalError,
    ShapeError,
    SingularCovarianceError,
    TrainingDataError,
    ValidationError,
)
from .features import (
    DEFAULT_OVERLAP,
    DEFAULT_WINDOW,
    FEATURE_KINDS,
    AmplitudeRange,
    FeatureLayout,
    check_geometry,
    check_window,
    feature_dim,
)
from .fusion import FusionConfig

DEFAULT_SHRINKAGE = 1e-3

MODEL_FORMAT = "bomi-lda"
MODEL_VERSION = 2


@dataclass
class LdaModel:
    """A fitted classifier. Immutable after fit; predict is reentrant."""

    classes: np.ndarray            # (K,) int labels, sorted
    means: np.ndarray              # (K, d)
    chol_lower: np.ndarray         # (d, d) L with Sigma_l = L L'
    shrinkage: float
    log_priors: np.ndarray         # (K,)
    feature_kind: str
    layout: FeatureLayout
    ranges: AmplitudeRange | None = None
    meta: dict = field(default_factory=dict)
    # The chain the training windows were built with; features fit the
    # model only when built the same way.
    fusion: FusionConfig = FusionConfig()
    window: int = DEFAULT_WINDOW
    overlap: int = DEFAULT_OVERLAP
    _weights: np.ndarray = field(init=False, repr=False)   # (d, K)
    _biases: np.ndarray = field(init=False, repr=False)    # (K,)
    _labels: list = field(init=False, repr=False)          # classes as Python ints

    def __post_init__(self) -> None:
        # Precompute the linear form once; scoring is then x @ W + b.
        w = cho_solve((self.chol_lower, True), self.means.T)
        self._weights = w
        self._biases = -0.5 * np.einsum("kd,dk->k", self.means, w) + self.log_priors
        self._labels = self.classes.tolist()

    @property
    def dim(self) -> int:
        return self.means.shape[1]


def fit(
    X: np.ndarray,
    y: np.ndarray,
    shrinkage: float = DEFAULT_SHRINKAGE,
    priors: str = "empirical",
    feature_kind: str = "fv3",
    layout: FeatureLayout | None = None,
    ranges: AmplitudeRange | None = None,
    meta: dict | None = None,
    fusion: FusionConfig = FusionConfig(),
    window: int = DEFAULT_WINDOW,
    overlap: int = DEFAULT_OVERLAP,
) -> LdaModel:
    """Fit the classifier on labeled feature vectors.

    Args:
        X: (N, d) feature matrix.
        y: (N,) integer labels.
        shrinkage: blend weight toward the scaled identity, in [0, 1).
        priors: "empirical" uses class frequencies; "uniform" weighs all
            classes equally.

    Raises:
        TrainingDataError: fewer than 2 classes, a class with fewer than
            2 examples, or ragged input.
        ShapeError: ``window`` and ``overlap`` are not a geometry
            ``feature_kind`` can stream with.
        SingularCovarianceError: the (shrunk) covariance is not positive
            definite; raise shrinkage above zero.
    """
    check_geometry(window, overlap)
    check_window(feature_kind, window)
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or len(X) != len(y):
        raise TrainingDataError(f"X must be (N, d) aligned with y, got {X.shape}")
    classes, counts = np.unique(y, return_counts=True)
    if len(classes) < 2:
        raise TrainingDataError(f"need at least 2 classes, got {len(classes)}")
    if counts.min() < 2:
        short = classes[counts < 2].tolist()
        raise TrainingDataError(f"classes {short} have fewer than 2 examples")
    if not 0.0 <= shrinkage < 1.0 + 1e-12:
        raise TrainingDataError(f"shrinkage must be in [0, 1], got {shrinkage}")
    if priors not in ("empirical", "uniform"):
        raise TrainingDataError(f"priors must be empirical or uniform, got {priors!r}")

    n, d = X.shape
    k = len(classes)
    means = np.empty((k, d))
    centered = np.empty_like(X)
    for i, cls in enumerate(classes):
        mask = y == cls
        means[i] = X[mask].mean(axis=0)
        centered[mask] = X[mask] - means[i]
    cov = (centered.T @ centered) / (n - k)
    if shrinkage > 0.0:
        target = np.trace(cov) / d
        cov = (1.0 - shrinkage) * cov
        cov[np.diag_indices(d)] += shrinkage * target

    try:
        lower = cholesky(cov, lower=True)
    except LinAlgError as exc:
        raise SingularCovarianceError(
            "pooled covariance is singular; refit with shrinkage > 0"
        ) from exc

    if priors == "empirical":
        log_priors = np.log(counts / n)
    else:
        log_priors = np.full(k, -np.log(k))

    model_meta = {
        "trained_at": _dt.datetime.now(_dt.timezone.utc).isoformat(),
        "n_train": int(n),
        "class_counts": {str(int(c)): int(cnt) for c, cnt in zip(classes, counts)},
        "priors": priors,
    }
    if meta:
        model_meta.update(meta)
    return LdaModel(
        classes=classes,
        means=means,
        chol_lower=lower,
        shrinkage=float(shrinkage),
        log_priors=log_priors,
        feature_kind=feature_kind,
        layout=layout or FeatureLayout(sensor_ids=(1,)),
        ranges=ranges,
        meta=model_meta,
        fusion=fusion,
        window=window,
        overlap=overlap,
    )


def predict_scores(model: LdaModel, X: np.ndarray) -> np.ndarray:
    """Discriminant scores: (K,) for a (d,) vector, (N, K) for an (N, d) matrix."""
    X = np.asarray(X, dtype=np.float64)
    if X.shape[-1] != model.dim:
        raise DimensionMismatchError(
            f"feature dimension {X.shape[-1]} does not match model "
            f"({model.feature_kind}, d={model.dim})"
        )
    return X @ model._weights + model._biases


def _argmax_with_ties(model: LdaModel, scores: np.ndarray) -> int:
    """Label of the highest of one row of scores, on Python floats; an
    exact tie goes to the neutral class, then to the lowest label.

    Raises NumericalError on a NaN anywhere or an infinite best score; a
    -inf score under a finite best is a class ruled out, not an error."""
    values = scores.tolist()
    best = max(values)
    # A sum is NaN exactly when a score is NaN or scores of both infinite
    # signs meet, and then the best is +inf anyway.
    if not math.isfinite(best) or math.isnan(sum(values)):
        raise NumericalError(f"non-finite discriminant scores {values}")
    if values.count(best) > 1:
        tied = [c for c, v in zip(model._labels, values) if v == best]
        return 0 if 0 in tied else min(tied)
    return model._labels[values.index(best)]


def predict(model: LdaModel, x: np.ndarray) -> int:
    """Predicted label for one feature vector (ties go to neutral).

    Raises:
        NumericalError: a score is NaN or the highest score is infinite.
    """
    return _argmax_with_ties(model, predict_scores(model, x))


def predict_many(model: LdaModel, X: np.ndarray) -> np.ndarray:
    """Predicted labels for a feature matrix, row for row as ``predict``.

    Raises:
        NumericalError: a score is NaN or a row's highest score is infinite.
    """
    scores = predict_scores(model, np.atleast_2d(X))
    # A row's max is NaN when any of its scores is.
    best = scores.max(axis=1, keepdims=True)
    if not np.isfinite(best).all():
        raise NumericalError("non-finite discriminant scores")
    out = model.classes[np.argmax(scores, axis=1)]
    # argmax takes the first maximum; revisit rows with exact ties.
    tie_rows = np.where((scores == best).sum(axis=1) > 1)[0]
    for i in tie_rows:
        out[i] = _argmax_with_ties(model, scores[i])
    return out


# ---------------------------------------------------------------------------
# Serialization


def _ranges_to_dict(r: AmplitudeRange | None) -> dict | None:
    if r is None:
        return None
    return {
        "mode": r.mode,
        "ranges": {str(c): [lo, hi] for c, (lo, hi) in r.ranges.items()},
        "class_sensor": {str(c): s for c, s in r.class_sensor.items()},
    }


def _ranges_from_dict(obj: dict | None) -> AmplitudeRange | None:
    if obj is None:
        return None
    return AmplitudeRange(
        ranges={int(c): (float(v[0]), float(v[1])) for c, v in obj["ranges"].items()},
        class_sensor={int(c): int(s) for c, s in obj["class_sensor"].items()},
        mode=obj.get("mode", "minmax"),
    )


def serialize(model: LdaModel, path: str | Path) -> None:
    """Write a model to versioned JSON; floats round-trip exactly."""
    payload = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "classes": model.classes.tolist(),
        "means": model.means.tolist(),
        "chol_lower": model.chol_lower.tolist(),
        "shrinkage": model.shrinkage,
        "log_priors": model.log_priors.tolist(),
        "feature_kind": model.feature_kind,
        "sensor_ids": list(model.layout.sensor_ids),
        "ranges": _ranges_to_dict(model.ranges),
        "meta": model.meta,
        "fusion": asdict(model.fusion),
        "window": model.window,
        "overlap": model.overlap,
    }
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


def deserialize(path: str | Path) -> LdaModel:
    """Load a model written by serialize.

    Raises:
        ModelFormatError: missing file content, wrong format marker,
            unsupported version, inconsistent shapes, an unknown feature
            kind or one whose dimension does not fit the sensor count and
            window, bad fusion settings or window geometry, non-finite
            arrays, a ``chol_lower`` that is not lower-triangular with a
            positive diagonal, or amplitude ranges that are not finite or
            name a sensor outside the layout.
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ModelFormatError(f"cannot read model file: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != MODEL_FORMAT:
        raise ModelFormatError("not a model file (missing format marker)")
    if payload.get("version") not in (1, MODEL_VERSION):
        raise ModelFormatError(
            f"unsupported model version {payload.get('version')!r}"
        )
    if payload["version"] == 1:
        # Version 1 stored no chain; plain `bomi train` used the defaults.
        payload = {"fusion": asdict(FusionConfig()), "window": DEFAULT_WINDOW,
                   "overlap": DEFAULT_OVERLAP, **payload}
    try:
        classes = np.asarray(payload["classes"], dtype=np.int64)
        means = np.asarray(payload["means"], dtype=np.float64)
        lower = np.asarray(payload["chol_lower"], dtype=np.float64)
        log_priors = np.asarray(payload["log_priors"], dtype=np.float64)
        kind = str(payload["feature_kind"])
        layout = FeatureLayout(sensor_ids=tuple(payload["sensor_ids"]))
        shrinkage = float(payload["shrinkage"])
        ranges = _ranges_from_dict(payload.get("ranges"))
        fusion = FusionConfig(*(payload["fusion"][f.name] for f in fields(FusionConfig)))
        window, overlap = payload["window"], payload["overlap"]
    except (KeyError, TypeError, ValueError, ValidationError) as exc:
        raise ModelFormatError(f"corrupt model file: {exc}") from exc
    if means.ndim != 2:
        raise ModelFormatError("inconsistent array shapes in model file")
    k, d = means.shape
    if classes.shape != (k,) or log_priors.shape != (k,) or lower.shape != (d, d):
        raise ModelFormatError("inconsistent array shapes in model file")
    if kind not in FEATURE_KINDS:
        raise ModelFormatError(f"unknown feature kind {kind!r}")
    try:
        check_geometry(window, overlap)
        check_window(kind, window)
    except ShapeError as exc:
        raise ModelFormatError(str(exc)) from exc
    if ranges is not None and not set(ranges.class_sensor.values()) <= set(layout.sensor_ids):
        raise ModelFormatError(
            f"amplitude ranges name sensors {sorted(ranges.class_sensor.values())} "
            f"outside the layout {layout.sensor_ids}"
        )
    if d != feature_dim(kind, layout.n_sensors, window):
        raise ModelFormatError(
            f"dimension {d} does not fit {kind} with {layout.n_sensors} sensors "
            f"and window {window}"
        )
    if not (np.isfinite(means).all() and np.isfinite(log_priors).all()
            and np.isfinite(lower).all()):
        raise ModelFormatError("non-finite values in model file")
    if np.triu(lower, 1).any() or not (np.diag(lower) > 0.0).all():
        raise ModelFormatError(
            "chol_lower is not lower-triangular with a positive diagonal"
        )
    return LdaModel(
        classes=classes,
        means=means,
        chol_lower=lower,
        shrinkage=shrinkage,
        log_priors=log_priors,
        feature_kind=kind,
        layout=layout,
        ranges=ranges,
        meta=payload.get("meta", {}),
        fusion=fusion,
        window=window,
        overlap=overlap,
    )
