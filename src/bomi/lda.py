"""Linear discriminant analysis with a pooled, shrunk covariance.

Fitting computes per-class means, the pooled within-class covariance
Sigma = (1 / (N - K)) * sum of centered outer products, and the shrunk
Sigma_l = (1 - l) * Sigma + l * (tr(Sigma) / d) * I. The Cholesky factor
of Sigma_l is taken once at fit time. The weights W and biases b of the
linear scores are solved from it once per model, which owns them: an
``LdaModel`` solves them in its constructor, so a stream step never
solves, and a bare ``LdaCore`` at its first score; ``fit`` never solves.

The class means, the centered rows and the check that X is finite come
from one call of the compiled kernel's ``moments`` entry (``_fuse.c``):
a sweep in row order sums each class, a second writes each row less its
class mean, with the bits numpy's ``X[y == c].mean(axis=0)`` and
``X[y == c] - mean`` give. The means come first and the centered sums
after, the two-pass form Chan, Golub and LeVeque (1983) recommend.

The factor and the solve for the weights call no BLAS or LAPACK: each is
a Python loop over rows in which every sum is one ``np.add.reduce`` over
a row of a product, in a fixed order. So a model's bits do not depend on
the host's BLAS thread count, and the package needs no scipy. The one
BLAS call left at run time is ``fit``'s Gram matrix ``centered.T @
centered``. A test pins its model bits at 1 and 2 OpenBLAS threads for
every d that fv1, fv2 and fv3 give with 1 to 6 sensors (24 to 248);
other widths are not checked.

Scores are delta_j(x) = x' Sigma_l^-1 mu_j - mu_j' Sigma_l^-1 mu_j / 2
+ log pi_j = x . W[:, j] + b[j]. ``predict``, ``predict_many`` and
``predict_scores`` all take them from the compiled kernel's ``score``
entry (``_fuse.c``): each is a left fold over j ascending, seeded with
-0.0, plus b[j], so a row's scores have the same bits alone, in any
batch and in the stream, as a fixed-order dot product on an embedded
platform would give. The entry also gives each row's label: the highest
score wins; an exact tie goes to the neutral class when it is tied, else
to the lowest tied label.

``fit`` is plain LDA and returns an ``LdaCore``. An ``LdaModel`` adds
the preprocessing chain; its constructor holds the model's one validity
rule, and training and ``deserialize`` both build models through it.
"""

from __future__ import annotations

import datetime as _dt
import json
import math
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from .dataset_io import _check_numbers, _decimal_key, _int_field, _number_field
from .errors import (
    DataError,
    DimensionMismatchError,
    LayoutError,
    ModelFormatError,
    NumericalError,
    SchemaError,
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
from .fusion import FusionConfig, _kernel

DEFAULT_SHRINKAGE = 1e-3

MODEL_FORMAT = "bomi-lda"
MODEL_VERSION = 2


@dataclass(frozen=True)
class LdaCore:
    """A fitted classifier alone, as ``fit`` returns it; the predict
    functions score with it. Frozen, so a model stays what its
    constructor checked; predict is reentrant."""

    classes: np.ndarray            # (K,) int64 labels, sorted
    means: np.ndarray              # (K, d)
    chol_lower: np.ndarray         # (d, d) L with Sigma_l = L L'
    shrinkage: float
    log_priors: np.ndarray         # (K,)
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        # The kernel reads the labels as int64, whatever array was given.
        object.__setattr__(self, "classes", np.ascontiguousarray(self.classes, dtype=np.int64))

    @cached_property
    def _linear(self) -> tuple[np.ndarray, np.ndarray]:
        """The C-contiguous (d, K) weights W and (K,) biases b, solved at
        the first read; scoring is then x . W + b."""
        w = _cho_solve(self.chol_lower, self.means.T)
        # The biases read the solve's own (Fortran-ordered) w: the sum over
        # its C-contiguous copy can round otherwise.
        biases = -0.5 * np.einsum("kd,dk->k", self.means, w) + self.log_priors
        return np.ascontiguousarray(w), biases

    @property
    def dim(self) -> int:
        return self.means.shape[1]


@dataclass(frozen=True, kw_only=True)
class LdaModel(LdaCore):
    """A classifier with the chain its features were built with: the
    artefact ``serialize`` writes and a stream runs.

    The constructor holds the model's one validity rule, so every model
    that is built loads and streams.

    Raises:
        ValidationError: ``feature_kind`` is not one of ``FEATURE_KINDS``.
        ShapeError: ``window`` and ``overlap`` are not a geometry the kind
            can stream with.
        DimensionMismatchError: the width of ``means`` is not the feature
            dimension of the kind, sensor count and window.
        LayoutError: the amplitude ranges name a sensor outside ``layout``.
    """

    feature_kind: str
    layout: FeatureLayout
    ranges: AmplitudeRange | None = None
    fusion: FusionConfig = FusionConfig()
    window: int = DEFAULT_WINDOW
    overlap: int = DEFAULT_OVERLAP

    def __post_init__(self) -> None:
        kind, layout = self.feature_kind, self.layout
        if kind not in FEATURE_KINDS:
            raise ValidationError(f"unknown feature kind {kind!r}")
        check_geometry(self.window, self.overlap)
        check_window(kind, self.window)
        if self.dim != feature_dim(kind, layout.n_sensors, self.window):
            raise DimensionMismatchError(
                f"dimension {self.dim} does not fit {kind} with {layout.n_sensors} "
                f"sensors and window {self.window}"
            )
        ranges = self.ranges
        if ranges is not None and not set(ranges.class_sensor.values()) <= set(layout.sensor_ids):
            raise LayoutError(
                f"amplitude ranges name sensors {sorted(ranges.class_sensor.values())} "
                f"outside the layout {layout.sensor_ids}"
            )
        super().__post_init__()
        # A model solves its linear form here, once, so no stream step
        # solves. It is set as a plain attribute: reading the cached
        # property would build the instance __dict__, which slows every
        # later attribute read (0.12 us per predict on CPython 3.11).
        object.__setattr__(self, "_linear", LdaCore._linear.func(self))


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Each row's sum of ``a * b``: one pairwise ``np.add.reduce`` over a
    C-contiguous row of the product, whatever the operands' layout."""
    return np.add.reduce(np.multiply(a, b, order="C"), axis=-1)


def _cholesky(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor L of a symmetric positive definite ``a``
    (only its lower triangle is read), left-looking, a column at a time.

    Raises:
        SingularCovarianceError: a pivot is not positive (or is NaN).
    """
    d = len(a)
    lower = np.zeros((d, d))
    for j in range(d):
        # Column j below the diagonal, less what the columns left of it account for.
        col = a[j:, j] - _row_dots(lower[j:, :j], lower[j, :j])
        pivot = col[0]
        if not pivot > 0.0:
            raise SingularCovarianceError(
                "pooled covariance is singular; refit with shrinkage > 0"
            )
        root = math.sqrt(pivot)
        lower[j, j] = root
        lower[j + 1:, j] = col[1:] / root
    return lower


def _cho_solve(lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve (L L') x = b for a (d,) or (d, m) ``b``, given the lower
    factor L: a forward then a back substitution, a row at a time."""
    # One row of y per right-hand side, so each sum runs along a row of L or L'.
    y = np.array(np.atleast_2d(b.T), dtype=np.float64)
    upper = np.ascontiguousarray(lower.T)
    d = len(lower)
    for i in range(d):
        y[:, i] = (y[:, i] - _row_dots(lower[i, :i], y[:, :i])) / lower[i, i]
    for i in reversed(range(d)):
        y[:, i] = (y[:, i] - _row_dots(upper[i, i + 1:], y[:, i + 1:])) / upper[i, i]
    return y.T if b.ndim == 2 else y[0]


def _check_shrinkage(shrinkage: float) -> None:
    if not 0.0 <= shrinkage < 1.0 + 1e-12:
        raise TrainingDataError(f"shrinkage must be in [0, 1], got {shrinkage}")


def fit(
    X: np.ndarray,
    y: np.ndarray,
    shrinkage: float = DEFAULT_SHRINKAGE,
    priors: str = "empirical",
) -> LdaCore:
    """Fit the classifier on labeled feature vectors.

    Args:
        X: (N, d) finite feature matrix.
        y: (N,) integer labels.
        shrinkage: blend weight toward the scaled identity, in [0, 1].
        priors: "empirical" uses class frequencies; "uniform" weighs all
            classes equally.

    Raises:
        TrainingDataError: fewer than 2 classes, a class with fewer than
            2 examples, ragged, complex, zero-width or non-finite ``X``,
            ``X`` whose class means or pooled covariance overflow float64,
            labels that are not one integer per row, or a bad
            ``shrinkage`` or ``priors``.
        SingularCovarianceError: the (shrunk) covariance is not positive
            definite; raise shrinkage above zero.
    """
    try:
        X = np.asarray(X)
        y = np.asarray(y)
        if X.dtype.kind == "c":  # not the real part alone, which a cast would keep
            raise TrainingDataError(f"X must be real, got dtype {X.dtype}")
        X = X.astype(np.float64, copy=False)
    except (TypeError, ValueError) as exc:
        raise TrainingDataError(f"X and y must be numeric arrays: {exc}") from exc
    if X.ndim != 2 or y.ndim != 1 or len(X) != len(y):
        raise TrainingDataError(
            f"X must be (N, d) aligned with y of shape (N,), got {X.shape} and {y.shape}"
        )
    if X.shape[1] == 0:
        raise TrainingDataError("X has no feature columns")
    if y.dtype.kind not in "iu" or not np.can_cast(y.dtype, np.int64):
        raise TrainingDataError(f"labels must be integers that fit in int64, got dtype {y.dtype}")
    y = y.astype(np.int64, copy=False)
    classes, counts = np.unique(y, return_counts=True)
    n, d = X.shape
    k = len(classes)
    # One compiled pass: the class means, the centered rows and whether X is finite.
    X = np.ascontiguousarray(X)
    means = np.empty((k, d))
    centered = np.empty_like(X)
    if _kernel.moments(X, np.searchsorted(classes, y), counts, means, centered):
        raise TrainingDataError("X holds non-finite values")
    if k < 2:
        raise TrainingDataError(f"need at least 2 classes, got {k}")
    if counts.min() < 2:
        short = classes[counts < 2].tolist()
        raise TrainingDataError(f"classes {short} have fewer than 2 examples")
    _check_shrinkage(shrinkage)
    if priors not in ("empirical", "uniform"):
        raise TrainingDataError(f"priors must be empirical or uniform, got {priors!r}")

    # Finite X can still overflow a class sum, the Gram product or its trace.
    with np.errstate(over="ignore", invalid="ignore"):
        cov = (centered.T @ centered) / (n - k)
        if shrinkage > 0.0:
            target = np.trace(cov) / d
            cov = (1.0 - shrinkage) * cov
            cov[np.diag_indices(d)] += shrinkage * target
    if not np.isfinite(cov).all():
        raise TrainingDataError("the pooled covariance of X overflows float64; rescale X")

    lower = _cholesky(cov)

    if priors == "empirical":
        log_priors = np.log(counts / n)
    else:
        log_priors = np.full(k, -np.log(k))

    return LdaCore(
        classes=classes,
        means=means,
        chol_lower=lower,
        shrinkage=float(shrinkage),
        log_priors=log_priors,
        meta={
            "trained_at": _dt.datetime.now(_dt.timezone.utc).isoformat(),
            "n_train": int(n),
            "class_counts": {str(int(c)): int(cnt) for c, cnt in zip(classes, counts)},
            "priors": priors,
        },
    )


def _score(model: LdaCore, X: np.ndarray, matrix: bool) -> tuple[np.ndarray, np.ndarray, int]:
    """The (N, K) scores and (N,) labels of the kernel's ``score`` entry
    for the rows of ``X`` (a (d,) vector is one row), and the first row
    whose scores hold a NaN or whose best is infinite (-1 when there is
    none).

    Raises:
        DimensionMismatchError: ``X`` is not a (d,) vector or, when
            ``matrix``, an (N, d) matrix.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim not in ((1, 2) if matrix else (1,)):
        raise DimensionMismatchError(
            f"features must be a (d,) vector{' or an (N, d) matrix' if matrix else ''}, "
            f"got shape {X.shape}"
        )
    if X.shape[-1] != model.dim:
        raise DimensionMismatchError(
            f"feature dimension {X.shape[-1]} does not match the model's d={model.dim}"
        )
    X = np.ascontiguousarray(X[None] if X.ndim == 1 else X)
    scores = np.empty((len(X), len(model.classes)))
    labels = np.empty(len(X), dtype=np.int64)
    weights, biases = model._linear
    bad = _kernel.score(weights, biases, model.classes, X, scores, labels)
    return scores, labels, bad


def predict_scores(model: LdaCore, X: np.ndarray) -> np.ndarray:
    """Discriminant scores: (K,) for a (d,) vector, (N, K) for an (N, d) matrix.

    Raises:
        DimensionMismatchError: ``X`` is neither, for the model's d.
    """
    scores = _score(model, X, matrix=True)[0]
    return scores[0] if np.ndim(X) == 1 else scores


def predict(model: LdaCore, x: np.ndarray) -> int:
    """Predicted label for one (d,) feature vector (ties go to neutral).

    Raises:
        DimensionMismatchError: ``x`` is not a (d,) vector.
        NumericalError: a score is NaN or the highest score is infinite.
    """
    scores, labels, bad = _score(model, x, matrix=False)
    if bad >= 0:
        raise NumericalError(f"non-finite discriminant scores {scores[0].tolist()}")
    return int(labels[0])


def predict_many(model: LdaCore, X: np.ndarray) -> np.ndarray:
    """Predicted labels for a feature matrix (or one vector), row for row
    as ``predict``.

    Raises:
        DimensionMismatchError: ``X`` is not a (d,) vector or an (N, d) matrix.
        NumericalError: a score is NaN or a row's highest score is infinite.
    """
    _, labels, bad = _score(model, X, matrix=True)
    if bad >= 0:
        raise NumericalError("non-finite discriminant scores")
    return labels


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
    """A model file's amplitude ranges; a bounds entry that is not a list of
    two numbers is a SchemaError."""
    if obj is None:
        return None

    def key(c: str) -> int:
        return _decimal_key(c, "amplitude class", "class")

    def bounds(v) -> tuple[float, float]:
        if type(v) is not list or len(v) != 2:
            raise SchemaError(f"amplitude bounds must be two numbers, got {v!r}")
        return _number_field(v[0], "amplitude bounds"), _number_field(v[1], "amplitude bounds")

    return AmplitudeRange(
        ranges={key(c): bounds(v) for c, v in obj["ranges"].items()},
        class_sensor={key(c): _int_field(s, "class_sensor")
                      for c, s in obj["class_sensor"].items()},
        mode=obj.get("mode", "minmax"),
    )


def _float_array(value, name: str) -> np.ndarray:
    """A model file's JSON array as float64; a bool or a numeric string in
    it, which ``np.asarray`` would take as a number, is a SchemaError."""
    array = np.asarray(value, dtype=np.float64)
    if array.ndim in (1, 2):
        _check_numbers(value if array.ndim == 2 else [value], name)
    return array


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

    The file's integrity (format marker, version, distinct integer
    classes, integer sensor ids, arrays and a ``shrinkage`` of JSON
    numbers, array shapes, finite arrays, a lower-triangular
    ``chol_lower`` with a positive diagonal, amplitude ranges keyed by
    classes of the model in canonical decimal, with bounds of two numbers,
    integer sensor ids and a known mode) is checked before the model is
    built, so the constructor never solves with a broken factor.

    Raises:
        ModelFormatError: a fault above, a ``shrinkage`` ``fit`` refuses,
            or the fusion settings' or the model constructor's error,
            with its message.
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
        classes = np.asarray([_int_field(c, "classes") for c in payload["classes"]],
                             dtype=np.int64)
        means = _float_array(payload["means"], "means")
        lower = _float_array(payload["chol_lower"], "chol_lower")
        log_priors = _float_array(payload["log_priors"], "log_priors")
        kind = str(payload["feature_kind"])
        layout = FeatureLayout(
            sensor_ids=tuple(_int_field(s, "sensor_ids") for s in payload["sensor_ids"])
        )
        shrinkage = _number_field(payload["shrinkage"], "shrinkage")
        ranges = _ranges_from_dict(payload.get("ranges"))
        fusion = FusionConfig(*(payload["fusion"][f.name] for f in fields(FusionConfig)))
        window, overlap = payload["window"], payload["overlap"]
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError, DataError) as exc:
        raise ModelFormatError(f"corrupt model file: {exc}") from exc
    if means.ndim != 2:
        raise ModelFormatError("inconsistent array shapes in model file")
    k, d = means.shape
    if classes.shape != (k,) or log_priors.shape != (k,) or lower.shape != (d, d):
        raise ModelFormatError("inconsistent array shapes in model file")
    if len(np.unique(classes)) != k:
        raise ModelFormatError(f"classes {classes.tolist()} are not distinct")
    if ranges is not None:
        unknown = sorted((ranges.ranges.keys() | ranges.class_sensor.keys())
                         - set(classes.tolist()))
        if unknown:
            raise ModelFormatError(f"amplitude ranges name classes {unknown} outside the "
                                   f"model's classes {classes.tolist()}")
    if not (np.isfinite(means).all() and np.isfinite(log_priors).all()
            and np.isfinite(lower).all()):
        raise ModelFormatError("non-finite values in model file")
    if np.triu(lower, 1).any() or not (np.diag(lower) > 0.0).all():
        raise ModelFormatError(
            "chol_lower is not lower-triangular with a positive diagonal"
        )
    try:
        _check_shrinkage(shrinkage)
        return LdaModel(
            classes=classes,
            means=means,
            chol_lower=lower,
            shrinkage=shrinkage,
            log_priors=log_priors,
            meta=payload.get("meta", {}),
            feature_kind=kind,
            layout=layout,
            ranges=ranges,
            fusion=fusion,
            window=window,
            overlap=overlap,
        )
    except DataError as exc:
        raise ModelFormatError(str(exc)) from exc
