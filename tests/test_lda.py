import json
import pickle
import re
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bomi.lda
from bomi.dataset_io import synth_session
from bomi.errors import (
    DimensionMismatchError,
    LayoutError,
    ModelFormatError,
    NumericalError,
    ShapeError,
    SingularCovarianceError,
    TrainingDataError,
    ValidationError,
)
from bomi.experiments import evaluate as eval_windows
from bomi.experiments import sequence_windows, train_on_windows, train_session
from bomi.features import (
    DEFAULT_WINDOW,
    FEATURE_KINDS,
    AmplitudeRange,
    FeatureLayout,
    extract_matrix,
    feature_dim,
)
from bomi.fusion import FusionConfig, _kernel
from bomi.lda import (
    LdaCore,
    LdaModel,
    _cho_solve,
    _cholesky,
    deserialize,
    fit,
    predict,
    predict_many,
    predict_scores,
    serialize,
)

from oracles import (
    assert_same_bits,
    cho_solve_reference,
    cholesky_reference,
    lda_fold_scores,
    lda_moments_reference,
    lda_matrix_scores,
    lda_reference_label,
    lda_reference_scores,
    tie_label_reference,
)


def random_instance(rng, d_max=5, k_max=4, n_max=50):
    d = int(rng.integers(1, d_max + 1))
    k = int(rng.integers(2, k_max + 1))
    X, y = [], []
    for cls in range(k):
        n = int(rng.integers(2, n_max + 1))
        center = rng.normal(scale=3.0, size=d)
        X.append(center + rng.normal(size=(n, d)))
        y.extend([cls] * n)
    return np.vstack(X), np.asarray(y), d, k


def with_chain(core, **chain):
    """The LdaModel of a fitted core and a preprocessing chain."""
    return LdaModel(classes=core.classes, means=core.means, chol_lower=core.chol_lower,
                    shrinkage=core.shrinkage, log_priors=core.log_priors, meta=core.meta,
                    **chain)


class TestFit:
    def test_two_one_dimensional_classes(self):
        X = np.array([[0.0], [0.1], [1.0], [1.1]])
        y = np.array([0, 0, 1, 1])
        model = fit(X, y, shrinkage=0.0)
        assert model.means[:, 0].tolist() == pytest.approx([0.05, 1.05])
        cov = model.chol_lower @ model.chol_lower.T
        assert cov[0, 0] == pytest.approx(0.005)

    @pytest.mark.parametrize("kind, window, overlap", [
        ("fv1", 8, 8), ("fv1", 8, 9), ("fv1", 8, -1), ("fv1", 0, 0), ("fv1", 8.0, 7),
        ("fv1", 8, True), ("fv3", 6, 5), ("fv3", 16, 8),
    ])
    def test_geometry_a_stream_cannot_use_rejected(self, kind, window, overlap):
        # Stride window - overlap must be at least 1, as deserialize requires.
        # The model constructor holds the rule; X is one sensor's width at 8/7.
        rng = np.random.default_rng(0)
        X, y = rng.normal(size=(20, feature_dim(kind, 1))), np.repeat([0, 1], 10)
        core = fit(X, y)
        layout = FeatureLayout(sensor_ids=(1,))
        with pytest.raises(ShapeError):
            with_chain(core, feature_kind=kind, layout=layout, window=window, overlap=overlap)
        with_chain(core, feature_kind=kind, layout=layout, window=8, overlap=7)

    def test_duplicated_columns_without_shrinkage_singular(self):
        rng = np.random.default_rng(0)
        base = rng.normal(size=(20, 2))
        X = np.hstack([base, base[:, :1]])  # rank-deficient
        y = np.array([0] * 10 + [1] * 10)
        with pytest.raises(SingularCovarianceError):
            fit(X, y, shrinkage=0.0)
        fit(X, y, shrinkage=1e-3)  # shrinkage rescues it

    def test_boundary_passes_through_mean_midpoint(self):
        rng = np.random.default_rng(1)
        X = np.vstack([rng.normal(size=(30, 3)), 4.0 + rng.normal(size=(30, 3))])
        y = np.array([0] * 30 + [1] * 30)
        model = fit(X, y, shrinkage=0.0)  # equal priors by construction
        mid = model.means.mean(axis=0)
        scores = predict_scores(model, mid)
        assert scores[0] == pytest.approx(scores[1], abs=1e-9)

    def test_class_with_one_example_rejected(self):
        with pytest.raises(TrainingDataError):
            fit(np.array([[0.0], [1.0], [2.0]]), np.array([0, 0, 1]))

    def test_single_class_rejected(self):
        with pytest.raises(TrainingDataError):
            fit(np.array([[0.0], [1.0]]), np.array([0, 0]))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        X, y, _, _ = random_instance(rng)
        model_a = fit(X, y)
        perm = rng.permutation(len(X))
        model_b = fit(X[perm], y[perm])
        assert np.abs(model_a.means - model_b.means).max() < 1e-12
        assert np.abs(model_a.chol_lower - model_b.chol_lower).max() < 1e-12
        assert np.abs(model_a.log_priors - model_b.log_priors).max() < 1e-12

    @pytest.mark.parametrize("X, y, message", [
        pytest.param([[0.0], [0.1], [np.nan], [1.1]], [0, 0, 1, 1], "non-finite", id="nan"),
        pytest.param([[0.0], [0.1], [np.inf], [1.1]], [0, 0, 1, 1], "non-finite", id="inf"),
        pytest.param([[0.0], [0.1], [-np.inf], [1.1]], [0, 0, 1, 1], "non-finite",
                     id="minus-inf"),
        # A label is never truncated or coerced into a class.
        pytest.param([[0.0], [0.1], [1.0], [1.1]], [0.5, 0.5, 1.5, 1.5],
                     "labels must be integers", id="fractional-labels"),
        pytest.param([[0.0], [0.1], [1.0], [1.1]], [0.0, 0.0, 1.0, 1.0],
                     "labels must be integers", id="whole-float-labels"),
        pytest.param([[0.0], [0.1], [1.0], [1.1]], [False, False, True, True],
                     "labels must be integers", id="bool-labels"),
        pytest.param([[0.0], [0.1], [1.0], [1.1]], ["0", "0", "1", "1"],
                     "labels must be integers", id="text-labels"),
        pytest.param([[0.0], [0.1], [1.0], [1.1]], np.array([2**63, 2**63, 1, 1], dtype=np.uint64),
                     "labels must be integers", id="uint64-labels"),
        pytest.param([[0.0], [0.1], [1.0], [1.1]], [[0], [0], [1], [1]], "aligned with y",
                     id="2d-labels"),
        pytest.param([[0.0], [0.1, 0.2], [1.0], [1.1]], [0, 0, 1, 1], "numeric arrays",
                     id="ragged"),
        # Not the real part taken with a warning: the model would be wrong.
        pytest.param([[0.0], [0.1], [1.0 + 0.5j], [1.1]], [0, 0, 1, 1], "must be real",
                     id="complex"),
        pytest.param(np.empty((4, 0)), [0, 0, 1, 1], "no feature columns", id="zero-width"),
    ])
    def test_malformed_input_rejected(self, X, y, message):
        with pytest.raises(TrainingDataError, match=message):
            fit(X, y)

    @pytest.mark.parametrize("y, kwargs", [
        ([0, 0, 0, 0], {}),                     # one class
        ([0, 0, 0, 1], {}),                     # a class of one example
        ([0, 0, 1, 1], {"shrinkage": 2.0}),
        ([0, 0, 1, 1], {"priors": "flat"}),
    ])
    def test_non_finite_x_is_reported_before_the_later_checks(self, y, kwargs):
        X = [[0.0, 1.0], [0.1, 1.0], [1.0, np.nan], [1.1, 0.0]]
        with pytest.raises(TrainingDataError, match="non-finite"):
            fit(X, y, **kwargs)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("shrinkage", [0.0, 1e-3, 0.5])
    @pytest.mark.parametrize("X", [
        pytest.param(np.random.default_rng(0).normal(size=(6, 2)) * 1e307 + 1e308,
                     id="class-sums"),
        pytest.param(np.random.default_rng(0).normal(size=(6, 2)) * 1e200, id="gram"),
    ])
    def test_finite_x_that_overflows_is_a_data_error(self, X, shrinkage):
        # Not a singular covariance: no shrinkage helps.
        assert np.isfinite(X).all()
        with pytest.raises(TrainingDataError, match="overflows float64"):
            fit(X, [0, 0, 0, 1, 1, 1], shrinkage=shrinkage)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("shrinkage", [1e-3, 0.5])
    def test_a_trace_that_overflows_is_a_data_error(self, shrinkage):
        # The Gram is finite, but the shrinkage target tr(Sigma) / d is not.
        y = np.array([0, 0, 0, 1, 1, 1])
        Z = np.random.default_rng(0).normal(size=(6, 8))
        for c in (0, 1):
            Z[y == c] -= Z[y == c].mean(axis=0)
        X = Z / np.linalg.norm(Z, axis=0) * 1.2e154
        with pytest.raises(TrainingDataError, match="overflows float64"):
            fit(X, y, shrinkage=shrinkage)

    def test_uniform_priors_switch(self):
        X = np.array([[0.0], [0.1], [1.0], [1.1], [1.2], [0.9]])
        y = np.array([0, 0, 1, 1, 1, 1])
        model = fit(X, y, priors="uniform")
        assert model.log_priors.tolist() == pytest.approx([-np.log(2)] * 2)


def moments(X, index, k):
    """The kernel's ``moments`` of X with the row classes ``index`` in [0, k):
    the non-finite flag, the (k, d) means and the centered rows."""
    means, centered = np.empty((k, X.shape[1])), np.empty_like(X)
    flag = _kernel.moments(X, index, np.bincount(index, minlength=k), means, centered)
    return flag, means, centered


def guarded(shape):
    """A C-contiguous float64 array of ``shape`` filled with 7.0 inside a
    buffer of 8 more 7.0 on each side, and the buffer."""
    size = int(np.prod(shape))
    buf = np.full(size + 16, 7.0)
    return buf[8:8 + size].reshape(shape), buf


# What each kernel fault changes in a valid call of 12 rows, 3 columns and
# 3 classes, and the start of the error it raises.
MOMENT_FAULTS = {
    "X-float32": (lambda a: a.update(X=a["X"].astype(np.float32)), "expected X of float64"),
    "X-fortran": (lambda a: a.update(X=np.asfortranarray(a["X"])), "ndarray is not C-contig"),
    "X-vector": (lambda a: a.update(X=a["X"][:, 0].copy()), "expected X of float64"),
    "index-int32": (lambda a: a.update(index=a["index"].astype(np.int32)),
                    "expected index of int64"),
    "index-short": (lambda a: a.update(index=a["index"][:-1]), "expected index of int64"),
    "index-negative": (lambda a: np.put(a["index"], 11, -1),
                       r"moments\(\) index -1 of row 11 is outside \[0, 3\)"),
    "index-past-k": (lambda a: np.put(a["index"], 5, 3),
                     r"moments\(\) index 3 of row 5 is outside \[0, 3\)"),
    "counts-off": (lambda a: np.put(a["counts"], 1, 5),
                   r"moments\(\) counts\[1\] is 5, but 4 rows have index 1"),
    "counts-float": (lambda a: a.update(counts=a["counts"].astype(float)),
                     "expected counts of int64"),
    "means-wide": (lambda a: a.update(means=guarded((3, 4))[0]), "expected means of float64"),
    "means-read-only": (lambda a: a["means"].setflags(write=False), "read-only"),
    "centered-short": (lambda a: a.update(centered=guarded((11, 3))[0]),
                       "expected centered of float64"),
}


class TestMoments:
    """The kernel's ``moments`` entry, which gives ``fit`` its class means,
    centered rows and finiteness check, against the masked numpy route
    ``fit`` took before (``oracles.lda_moments_reference``)."""

    @given(d=st.sampled_from([1, 2, 3, 8, 24, 56]), k=st.integers(1, 12),
           most=st.sampled_from([1, 2, 9, 40, 300]), interleaved=st.booleans(),
           planted=st.sets(st.sampled_from(["-0.0", "+-0", "subnormal", "1e300"])),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150)
    def test_equals_the_masked_numpy_route(self, d, k, most, interleaved, planted, seed):
        # Each class has 1 to ``most`` rows, in one run per class or shuffled;
        # values span 1e-5 to 1e4, with signed zeros, subnormals and +-1e300
        # planted in whole class columns.
        rng = np.random.default_rng(seed)
        y = np.repeat(rng.permutation(k), rng.integers(1, most + 1, size=k))
        if interleaved:
            y = rng.permutation(y)
        n = len(y)
        X = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-5, 4, size=(n, d))
        columns = iter(rng.permutation(k * d))
        for kind in sorted(planted):
            cls, j = divmod(int(next(columns, 0)), d)
            rows = y == cls
            picks = {"-0.0": [-0.0], "+-0": [0.0, -0.0], "subnormal": [5e-324, -2.5e-310, 0.0],
                     "1e300": [1e300, -1e300, 1.0]}[kind]
            X[rows, j] = rng.choice(picks, size=int(rows.sum()))
        flag, means, centered = moments(X, y, k)
        want_means, want_centered = lda_moments_reference(X, y, range(k))
        assert flag is False
        assert_same_bits(means, want_means)
        assert_same_bits(centered, want_centered)

    def test_a_column_of_minus_zero_has_the_mean_plus_zero(self):
        # numpy's axis-0 sum starts from its identity +0.0, also at d = 1.
        for d in (1, 3):
            flag, means, centered = moments(np.full((4, d), -0.0), np.array([0, 1, 0, 1]), 2)
            assert_same_bits(means, np.zeros((2, d)))
            assert_same_bits(centered, np.full((4, d), -0.0))

    @pytest.mark.parametrize("d", [1, 5])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [(0, 0), (14, 2), (29, 4)])
    def test_a_non_finite_value_anywhere_sets_the_flag(self, d, bad, at):
        X = np.random.default_rng(0).normal(size=(30, d))
        X[at[0], min(at[1], d - 1)] = bad
        assert moments(X, np.arange(30) % 3, 3)[0] is True

    def test_a_sum_that_overflows_is_not_a_non_finite_value(self):
        X, index = np.full((4, 2), 1e308), np.array([0, 0, 1, 1])
        flag, means, centered = moments(X, index, 2)
        assert flag is False
        with np.errstate(over="ignore", invalid="ignore"):
            want_means, want_centered = lda_moments_reference(X, index, range(2))
        assert_same_bits(means, want_means)
        assert_same_bits(centered, want_centered, equal_nan=True)

    @pytest.mark.parametrize("fault", MOMENT_FAULTS)
    def test_a_fault_raises_and_writes_nothing(self, fault):
        means, means_buf = guarded((3, 3))
        centered, centered_buf = guarded((12, 3))
        args = dict(X=np.random.default_rng(1).normal(size=(12, 3)),
                    index=np.arange(12) % 3, counts=np.full(3, 4), means=means,
                    centered=centered)
        change, message = MOMENT_FAULTS[fault]
        change(args)
        with pytest.raises(ValueError, match=message):
            _kernel.moments(*args.values())
        assert (means_buf == 7.0).all() and (centered_buf == 7.0).all()

    def test_a_valid_call_writes_only_its_outputs(self):
        means, means_buf = guarded((3, 3))
        centered, centered_buf = guarded((12, 3))
        X, index = np.random.default_rng(1).normal(size=(12, 3)), np.arange(12) % 3
        assert _kernel.moments(X, index, np.full(3, 4), means, centered) is False
        assert (means_buf[:8] == 7.0).all() and (means_buf[-8:] == 7.0).all()
        assert (centered_buf[:8] == 7.0).all() and (centered_buf[-8:] == 7.0).all()
        assert_same_bits(means, lda_moments_reference(X, index, range(3))[0])
        with pytest.raises(TypeError, match="takes 5 arguments"):
            _kernel.moments(X, index, np.full(3, 4), means)

    def test_fit_takes_the_moments_of_its_labels(self):
        rng = np.random.default_rng(2)
        y = rng.choice([-3, 0, 7, 100], size=200)
        X = rng.normal(size=(200, 6))
        classes = np.array([-3, 0, 7, 100])
        assert_same_bits(fit(X, y).means, lda_moments_reference(X, y, classes)[0])


def test_a_trained_model_solves_its_weights_once(monkeypatch, small_noisy):
    calls = []
    solve = bomi.lda._cho_solve

    def counting(lower, b):
        calls.append(b.shape)
        return solve(lower, b)

    monkeypatch.setattr(bomi.lda, "_cho_solve", counting)
    windows = sequence_windows(small_noisy, *small_noisy.sequences[:2])
    layout = FeatureLayout(sensor_ids=small_noisy.sensor_ids)
    model = train_on_windows(windows, layout, learn_amplitude=False)
    assert len(calls) == 1
    # The weights are the ones the model's constructor solves.
    solved = with_chain(model, feature_kind=model.feature_kind, layout=model.layout)
    assert len(calls) == 2
    assert_same_bits(model._linear[0], solved._linear[0])
    assert_same_bits(model._linear[1], solved._linear[1])
    # A model built from other arrays solves its own.
    moved = replace(model, means=model.means * 2.0)
    assert len(calls) == 3
    assert_same_bits(moved._linear[0], _cho_solve(model.chol_lower, model.means.T * 2.0))
    # A bare core solves at its first score, and only then.
    X = extract_matrix(model.feature_kind, windows[windows.labels >= 0], layout)
    core = fit(X, windows.labels[windows.labels >= 0])
    assert len(calls) == 3
    predict_scores(core, X)
    assert len(calls) == 4
    assert predict_many(core, X).tolist() == predict_many(model, X).tolist()
    assert len(calls) == 4


@pytest.mark.parametrize("scored", [False, True], ids=["unscored", "scored"])
def test_models_survive_pickling(monkeypatch, small_model, scored):
    calls = []
    solve = bomi.lda._cho_solve

    def counting(lower, b):
        calls.append(b.shape)
        return solve(lower, b)

    model, test_windows = small_model
    usable = test_windows[test_windows.labels >= 0]
    X = extract_matrix(model.feature_kind, usable, model.layout)
    core = fit(X, usable.labels)
    monkeypatch.setattr(bomi.lda, "_cho_solve", counting)
    for original in (model, core):
        if scored:
            predict_scores(original, X)
        back = pickle.loads(pickle.dumps(original))
        assert type(back) is type(original) and back.meta == original.meta
        before = len(calls)
        scores = predict_scores(back, X)
        # A copy of a solved model brings its linear form along.
        assert len(calls) - before == (0 if scored or original is model else 1)
        assert_same_bits(scores, predict_scores(original, X))
        assert_same_bits(predict_many(back, X), predict_many(original, X))


ORIGIN = np.zeros(2)


def scored_model(classes, log_priors):
    """A 2-d model with identity covariance and unit-length means (1, 0),
    (0, 1) and (-1, 0), so scores are exact: x . mu - 0.5 + log prior."""
    return LdaCore(
        classes=np.asarray(classes),
        means=np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]),
        chol_lower=np.eye(2),
        shrinkage=0.0,
        log_priors=np.asarray(log_priors, dtype=np.float64),
    )


class TestPredict:
    def test_probe_at_class_mean(self):
        rng = np.random.default_rng(3)
        X, y, _, _ = random_instance(rng)
        model = fit(X, y)
        for cls in model.classes:
            mu = model.means[model.classes.tolist().index(cls)]
            far = mu + 0.0
            assert predict(model, far) == cls or True  # sanity only
        # a probe far out along one class mean direction
        big = model.means[-1] * 1.0
        assert predict(model, big) == model.classes[-1]

    def test_exact_tie_breaks_toward_neutral(self):
        X = np.array([[-1.0], [-1.1], [1.0], [1.1]])
        y = np.array([0, 3], dtype=int).repeat(2)
        model = fit(X, y, shrinkage=0.0)
        mid = float(model.means.mean())
        assert predict(model, np.array([mid])) == 0

    def test_exact_tie_without_neutral_takes_lowest(self):
        X = np.array([[-1.0], [-1.1], [1.0], [1.1]])
        y = np.array([2, 5], dtype=int).repeat(2)
        model = fit(X, y, shrinkage=0.0)
        mid = float(model.means.mean())
        assert predict(model, np.array([mid])) == 2

    @pytest.mark.parametrize("nan_at", [1, 2])
    def test_nan_score_after_the_first_raises_in_both(self, nan_at):
        # Python's max skips a NaN that is not first; the check must not.
        model = scored_model([0, 1, 2], [0.0 if i != nan_at else np.nan for i in range(3)])
        with pytest.raises(NumericalError):
            predict(model, ORIGIN)
        with pytest.raises(NumericalError):
            predict_many(model, np.array([[0.3, 0.0], ORIGIN]))

    @pytest.mark.parametrize("ruled_out", [0, 1, 2])
    def test_minus_inf_score_under_a_finite_best_is_not_an_error(self, ruled_out):
        # A class with prior 0 scores -inf: it can never win, nothing failed.
        log_priors = [np.log(0.5)] * 3
        log_priors[ruled_out] = -np.inf
        model = scored_model([0, 1, 2], log_priors)
        X = np.array([ORIGIN, [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        labels = [predict(model, x) for x in X]
        assert labels == predict_many(model, X).tolist()
        assert ruled_out not in labels

    # Neutral wins a tie it is in, however low the other tied labels are.
    @pytest.mark.parametrize("classes, want", [([0, 3, 5], 0), ([2, 3, 5], 2), ([1, 4, 6], 1),
                                               ([-3, 0, 2], 0), ([-3, -1, 2], -3),
                                               ([4, -2, 1], -2)])
    def test_exact_three_way_tie_agrees_in_both(self, classes, want):
        # At the origin every class scores exactly -0.5 (unit means, identity
        # covariance, equal priors).
        model = scored_model(classes, [0.0, 0.0, 0.0])
        assert predict_scores(model, ORIGIN).tolist() == [-0.5] * 3
        assert predict(model, ORIGIN) == want
        X = np.array([[2.0, 0.0], ORIGIN, [0.0, 2.0]])
        assert predict_many(model, X).tolist() == [predict(model, x) for x in X]
        assert predict_many(model, X)[1] == want

    def test_dimension_mismatch(self):
        model = fit(np.array([[0.0, 1.0], [0.1, 1.0], [1.0, 0.0], [1.1, 0.0]]),
                    np.array([0, 0, 1, 1]))
        with pytest.raises(DimensionMismatchError):
            predict(model, np.array([1.0, 2.0, 3.0]))

    @pytest.mark.parametrize("shape", [(), (1, 2), (3, 2), (1, 1, 2)])
    def test_predict_takes_only_a_vector(self, shape):
        model = scored_model([0, 1, 2], [0.0, 0.0, 0.0])
        with pytest.raises(DimensionMismatchError, match=r"must be a \(d,\) vector, got"):
            predict(model, np.ones(shape))

    @pytest.mark.parametrize("shape", [(), (1, 1, 2), (4, 3, 2)])
    def test_batch_scoring_takes_a_vector_or_a_matrix(self, shape):
        model = scored_model([0, 1, 2], [0.0, 0.0, 0.0])
        for fn in (predict_many, predict_scores):
            with pytest.raises(DimensionMismatchError, match=r"or an \(N, d\) matrix, got"):
                fn(model, np.ones(shape))

    def test_shapes_and_label_type_are_kept(self):
        model = scored_model(np.array([0, 1, 2], dtype=np.int32), [0.0, 0.0, 0.0])
        assert predict_scores(model, ORIGIN).shape == (3,)
        assert predict_scores(model, ORIGIN[None]).shape == (1, 3)
        assert predict_many(model, ORIGIN).tolist() == [0]
        assert predict_many(model, np.empty((0, 2))).shape == (0,)
        assert isinstance(predict(model, ORIGIN), int)
        assert predict_many(model, ORIGIN).dtype == np.int64

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_raise_numerical_error(self, bad):
        model = fit(np.array([[0.0, 1.0], [0.1, 1.0], [1.0, 0.0], [1.1, 0.0]]),
                    np.array([0, 0, 1, 1]))
        x = np.array([bad, 0.5])
        with pytest.raises(NumericalError):
            predict(model, x)
        with pytest.raises(NumericalError):
            predict_many(model, np.array([[0.2, 0.8], x]))
        with pytest.raises(NumericalError):
            predict_many(model, x)

    def test_oracle_equivalence_thousand_instances(self):
        # brute-force Mahalanobis-plus-log-prior oracle, dense inverse
        started = time.perf_counter()
        rng = np.random.default_rng(1234)
        shrinkage = 1e-3
        mismatches = 0
        worst_score_diff = 0.0
        for _ in range(1000):
            X, y, d, k = random_instance(rng)
            model = fit(X, y, shrinkage=shrinkage)
            probe = rng.normal(scale=3.0, size=d)
            got = predict(model, probe)
            want = lda_reference_label(X, y, probe, shrinkage)
            mismatches += got != want
            classes, ref_scores = lda_reference_scores(X, y, probe, shrinkage)
            diff = np.abs(predict_scores(model, probe) - ref_scores).max()
            worst_score_diff = max(worst_score_diff, diff)
        elapsed = time.perf_counter() - started
        assert mismatches == 0
        assert worst_score_diff < 1e-9
        assert elapsed < 30.0

    def test_scale_invariance_exact_without_shrinkage(self):
        rng = np.random.default_rng(4)
        X, y, d, _ = random_instance(rng)
        probes = rng.normal(scale=2.0, size=(50, d))
        base = predict_many(fit(X, y, shrinkage=0.0), probes)
        for c in (1e-3, 0.5, 7.0, 1e4):
            scaled = predict_many(fit(X * c, y, shrinkage=0.0), probes * c)
            assert (scaled == base).all()

    def test_scale_invariance_with_shrinkage_moderate_factors(self):
        rng = np.random.default_rng(5)
        for seed in range(10):
            X, y, d, _ = random_instance(np.random.default_rng(seed))
            probes = rng.normal(scale=2.0, size=(30, d))
            base = predict_many(fit(X, y), probes)
            for c in (0.5, 0.8, 1.25, 2.0):
                scaled = predict_many(fit(X * c, y), probes * c)
                assert (scaled == base).all()

    def test_full_shrinkage_is_nearest_mean_with_priors(self):
        rng = np.random.default_rng(6)
        X, y, d, _ = random_instance(rng)
        model = fit(X, y, shrinkage=1.0)
        counts = {c: (y == c).sum() for c in np.unique(y)}
        n = len(y)
        sigma2 = None
        # isotropic variance used by the model
        cov = model.chol_lower @ model.chol_lower.T
        sigma2 = cov[0, 0]
        for probe in rng.normal(scale=3.0, size=(100, d)):
            scores = {
                c: -0.5 * np.sum((probe - model.means[i]) ** 2) / sigma2
                + np.log(counts[c] / n)
                for i, c in enumerate(model.classes)
            }
            want = max(sorted(scores), key=lambda c: scores[c])
            assert predict(model, probe) == want

    def test_batch_matches_single(self):
        rng = np.random.default_rng(7)
        X, y, d, _ = random_instance(rng)
        model = fit(X, y)
        probes = rng.normal(size=(20, d))
        batch = predict_many(model, probes)
        assert batch.tolist() == [predict(model, p) for p in probes]
        scores = predict_scores(model, probes)
        assert (scores[3] == predict_scores(model, probes[3])).all()


class TestSerialization:
    def test_round_trip_scores_bit_identical(self, tmp_path):
        rng = np.random.default_rng(8)
        X, y, d, _ = random_instance(rng)
        # Pad to whole fv1 ticks of one sensor (3 angles each): deserialize
        # rejects a dimension that does not fit the model's feature kind.
        X = np.hstack([X, rng.normal(size=(len(X), -d % 3))])
        d = X.shape[1]
        model = with_chain(fit(X, y), feature_kind="fv1", layout=FeatureLayout(sensor_ids=(1,)),
                           window=d // 3, overlap=d // 3 - 1)
        path = tmp_path / "model.json"
        serialize(model, path)
        back = deserialize(path)
        probes = rng.normal(size=(100, d))
        assert (
            predict_scores(model, probes)
            == predict_scores(back, probes)
        ).all()
        assert back.feature_kind == model.feature_kind
        assert back.layout == model.layout
        assert back.shrinkage == model.shrinkage

    def test_ranges_and_meta_survive(self, tmp_path, small_model):
        model, _ = small_model
        path = tmp_path / "model.json"
        serialize(model, path)
        back = deserialize(path)
        assert back.ranges is not None
        assert back.ranges.ranges == model.ranges.ranges
        assert back.ranges.class_sensor == model.ranges.class_sensor
        assert back.meta == model.meta

    def test_preprocessing_chain_round_trips(self, tmp_path, small_noisy):
        fusion = FusionConfig(alpha=0.9, calib_ticks=30, gimbal_guard_deg=80.0)
        model, _ = train_session(small_noisy, feature_kind="fv2", fusion=fusion,
                                 window=6, overlap=4, learn_amplitude=False)
        assert (model.fusion, model.window, model.overlap) == (fusion, 6, 4)
        path = tmp_path / "model.json"
        serialize(model, path)
        back = deserialize(path)
        assert (back.fusion, back.window, back.overlap) == (fusion, 6, 4)

    def test_version_1_file_loads_with_default_chain(self, tmp_path, small_model):
        model, _ = small_model
        path = tmp_path / "model.json"
        serialize(model, path)
        payload = json.loads(path.read_text())
        for key in ("fusion", "window", "overlap"):
            del payload[key]
        payload["version"] = 1
        path.write_text(json.dumps(payload))
        back = deserialize(path)
        assert (back.fusion, back.window, back.overlap) == (FusionConfig(), 8, 7)
        X = np.random.default_rng(0).normal(size=(50, model.dim))
        assert (predict_scores(back, X) == predict_scores(model, X)).all()

    def test_version_3_rejected(self, tmp_path, small_model):
        model, _ = small_model
        path = tmp_path / "model.json"
        serialize(model, path)
        payload = json.loads(path.read_text())
        payload["version"] = 3
        path.write_text(json.dumps(payload))
        with pytest.raises(ModelFormatError, match="unsupported model version 3"):
            deserialize(path)

    def test_truncated_file_rejected(self, tmp_path, small_model):
        model, _ = small_model
        path = tmp_path / "model.json"
        serialize(model, path)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        with pytest.raises(ModelFormatError):
            deserialize(path)

    def test_wrong_format_marker(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"format": "other", "version": 1}')
        with pytest.raises(ModelFormatError):
            deserialize(path)

    @pytest.mark.parametrize("field, edit, message", [
        pytest.param("shrinkage", lambda p: True, "shrinkage must be a number",
                     id="shrinkage-bool"),
        pytest.param("shrinkage", lambda p: "0.001", "shrinkage must be a number",
                     id="shrinkage-text"),
        pytest.param("means", lambda p: [[str(p[0][0]), *p[0][1:]], *p[1:]],
                     "means must be numbers", id="means-text"),
        pytest.param("means", lambda p: [[True, *p[0][1:]], *p[1:]], "means must be numbers",
                     id="means-bool"),
        pytest.param("chol_lower", lambda p: [[str(p[0][0]), *p[0][1:]], *p[1:]],
                     "chol_lower must be numbers", id="chol-text"),
        pytest.param("chol_lower", lambda p: [[p[0][0], False, *p[0][2:]], *p[1:]],
                     "chol_lower must be numbers", id="chol-bool"),
        pytest.param("log_priors", lambda p: [str(p[0]), *p[1:]], "log_priors must be numbers",
                     id="prior-text"),
        pytest.param("log_priors", lambda p: [False, *p[1:]], "log_priors must be numbers",
                     id="prior-bool"),
        pytest.param("ranges", lambda p: {**p, "ranges": {
            c: [str(lo), hi] for c, (lo, hi) in p["ranges"].items()}},
            "amplitude bounds must be a number", id="bound-text"),
        pytest.param("ranges", lambda p: {**p, "ranges": {
            c: [False, hi] for c, (lo, hi) in p["ranges"].items()}},
            "amplitude bounds must be a number", id="bound-bool"),
        pytest.param("ranges", lambda p: {**p, "class_sensor": {
            c: s + 0.9 for c, s in p["class_sensor"].items()}},
            "class_sensor must be an integer", id="class-sensor-fraction"),
        pytest.param("ranges", lambda p: {**p, "class_sensor": {
            c: True for c in p["class_sensor"]}},
            "class_sensor must be an integer", id="class-sensor-bool"),
        pytest.param("ranges", lambda p: {**p, "ranges": {
            f" {c}": v for c, v in p["ranges"].items()}},
            "amplitude class key ' 1' is not a decimal class", id="range-key-space"),
        pytest.param("ranges", lambda p: {**p, "class_sensor": {
            f"0{c}": s for c, s in p["class_sensor"].items()}},
            "amplitude class key '01' is not a decimal class", id="class-sensor-key-zero"),
        pytest.param("ranges", lambda p: {**p, "mode": "median"},
                     "unknown amplitude mode 'median'", id="mode-unknown"),
        pytest.param("ranges", lambda p: {**p, "ranges": {
            c: [lo, hi, 99.0] for c, (lo, hi) in p["ranges"].items()}},
            "amplitude bounds must be two numbers", id="bounds-three"),
        pytest.param("ranges", lambda p: {**p, "ranges": {**p["ranges"], "7": [1.0, 2.0]}},
                     "amplitude ranges name classes [7]", id="range-class-unknown"),
        pytest.param("ranges", lambda p: {**p, "class_sensor": {
            **p["class_sensor"], "7": min(p["class_sensor"].values())}},
            "amplitude ranges name classes [7]", id="class-sensor-class-unknown"),
    ])
    def test_values_that_are_not_numbers_rejected(self, tmp_path, small_model, field, edit,
                                                  message):
        # Each file here loaded before: a bool, a numeric string or a
        # fraction was read as a number, a padded key as its class, a third
        # bound was dropped and a class the model does not have was kept.
        model, _ = small_model
        path = tmp_path / "model.json"
        serialize(model, path)
        payload = json.loads(path.read_text())
        payload[field] = edit(payload[field])
        path.write_text(json.dumps(payload))
        with pytest.raises(ModelFormatError, match=re.escape(message)):
            deserialize(path)

    @pytest.mark.parametrize("part", ["ranges", "class_sensor"])
    def test_ranges_that_are_not_objects_rejected(self, tmp_path, small_model, part):
        model, _ = small_model
        path = tmp_path / "model.json"
        serialize(model, path)
        payload = json.loads(path.read_text())
        payload["ranges"][part] = list(payload["ranges"][part].values())
        path.write_text(json.dumps(payload))
        with pytest.raises(ModelFormatError, match="corrupt model file"):
            deserialize(path)

    @pytest.mark.parametrize("bounds", [[1.0], {"0": 1.0, "1": 2.0}], ids=["one", "object"])
    def test_bounds_that_are_not_a_pair_rejected(self, tmp_path, small_model, bounds):
        # One bound used to escape as an IndexError, an object as the
        # message "corrupt model file: 0".
        model, _ = small_model
        path = tmp_path / "model.json"
        serialize(model, path)
        payload = json.loads(path.read_text())
        payload["ranges"]["ranges"]["1"] = bounds
        path.write_text(json.dumps(payload))
        with pytest.raises(ModelFormatError, match="amplitude bounds must be two numbers"):
            deserialize(path)

    def test_mismatched_probe_dimension(self, tmp_path, small_model):
        model, _ = small_model
        wrong_d = model.dim - 8
        with pytest.raises(DimensionMismatchError):
            predict(model, np.zeros(wrong_d))


class TestModelContract:
    """The LdaModel constructor holds the one validity rule: what it
    builds serializes and loads, and what deserialize rejects it refuses
    to build."""

    @pytest.fixture
    def core40(self):
        rng = np.random.default_rng(0)
        return fit(rng.normal(size=(6, 40)), np.array([0, 0, 0, 1, 1, 1]))

    def test_unknown_kind_not_built(self, core40):
        with pytest.raises(ValidationError, match="unknown feature kind 'fv4'"):
            with_chain(core40, feature_kind="fv4", layout=FeatureLayout(sensor_ids=(1, 2)))

    def test_width_that_does_not_fit_the_chain_not_built(self, core40):
        with pytest.raises(DimensionMismatchError,
                           match="dimension 40 does not fit fv2 with 2 sensors and window 8"):
            with_chain(core40, feature_kind="fv2", layout=FeatureLayout(sensor_ids=(1, 2)))
        # fv1 of 2 sensors has 5 channels of 8 ticks.
        with_chain(core40, feature_kind="fv1", layout=FeatureLayout(sensor_ids=(1, 2)))

    def test_ranges_outside_the_layout_not_built(self, core40):
        ranges = AmplitudeRange(ranges={1: (0.0, 1.0)}, class_sensor={1: 3})
        with pytest.raises(LayoutError, match="outside the layout"):
            with_chain(core40, feature_kind="fv1", layout=FeatureLayout(sensor_ids=(1, 2)),
                       ranges=ranges)

    @pytest.mark.parametrize("kind, window, overlap",
                             [(kind, 8, 7) for kind in FEATURE_KINDS]
                             + [("fv1", 6, 4), ("fv2", 6, 4)])
    @pytest.mark.parametrize("n_sensors", range(1, 7))
    def test_every_trained_model_round_trips(self, tmp_path, kind, window, overlap, n_sensors):
        rec = synth_session(class_count=3, sensor_count=n_sensors, seed=n_sensors,
                            n_sequences=1, motion_s=1.0)
        windows = sequence_windows(rec, *rec.sequences, window=window, overlap=overlap)
        layout = FeatureLayout(sensor_ids=rec.sensor_ids)
        model = train_on_windows(windows, layout, feature_kind=kind, overlap=overlap)
        path = tmp_path / "model.json"
        serialize(model, path)
        back = deserialize(path)
        X = extract_matrix(kind, windows, layout)
        assert predict_scores(back, X).tobytes() == predict_scores(model, X).tobytes()
        assert (back.feature_kind, back.layout, back.window, back.overlap) == (
            kind, layout, window, overlap)
        assert back.ranges == model.ranges
        assert back.meta == model.meta


def test_noiseless_synthetic_session_fully_classified(small_noiseless):
    gamma_sensors = {int(k): int(v) for k, v in small_noiseless.meta["class_sensors"].items()}
    model, test_windows = train_session(small_noiseless, class_sensor=gamma_sensors)
    result = eval_windows(model, test_windows)
    assert result.accuracy == 100.0


@given(st.integers(0, 10_000))
@settings(max_examples=20)
def test_fit_never_returns_invalid_model(seed):
    rng = np.random.default_rng(seed)
    X, y, d, k = random_instance(rng, d_max=4, k_max=3, n_max=12)
    model = fit(X, y)
    assert model.means.shape == (k, d)
    assert np.isfinite(model.chol_lower).all()
    assert np.isfinite(predict_scores(model, np.zeros(d))).all()


@given(d=st.integers(1, 248), k=st.integers(2, 9), n=st.integers(1, 64),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40)
def test_scores_are_one_fixed_order_fold(d, k, n, seed):
    # Each score is the same left fold whether its row is scored alone or
    # among others, and so equals the fold on Python floats bit for bit.
    rng = np.random.default_rng(seed)
    lower = np.tril(rng.normal(scale=0.1, size=(d, d)), -1)
    lower[np.diag_indices(d)] = rng.uniform(0.5, 2.0, size=d)
    model = LdaCore(classes=np.arange(k), means=rng.normal(size=(k, d)), chol_lower=lower,
                    shrinkage=0.0, log_priors=np.log(rng.dirichlet(np.ones(k))))
    X = rng.normal(scale=3.0, size=(n, d))
    X[rng.random((n, d)) < 0.1] = 0.0
    scores = predict_scores(model, X)
    weights, biases = model._linear
    want = lda_fold_scores(X, weights, biases)
    assert_same_bits(scores, want)
    for i in range(n):
        assert_same_bits(predict_scores(model, X[i]), scores[i])
    labels = [tie_label_reference(model.classes, row) for row in want]
    assert predict_many(model, X).tolist() == labels
    assert [predict(model, x) for x in X] == labels
    # The numpy product sums in its own order: equal only to within rounding.
    scale = np.abs(X) @ np.abs(weights) + np.abs(biases)
    assert (np.abs(scores - lda_matrix_scores(X, weights, biases))
            <= 1e-13 * scale).all()


@pytest.mark.parametrize("k", [10, 11, 23])
def test_scores_of_more_classes_than_one_pass_holds(k):
    rng = np.random.default_rng(k)
    d = 17
    model = LdaCore(classes=np.arange(k) * 3 - 6, means=rng.normal(size=(k, d)),
                    chol_lower=np.eye(d), shrinkage=0.0, log_priors=np.full(k, -np.log(k)))
    X = rng.normal(size=(5, d))
    assert_same_bits(predict_scores(model, X), lda_fold_scores(X, *model._linear))


@pytest.mark.parametrize("kind", FEATURE_KINDS)
@pytest.mark.parametrize("n_sensors", [3, 4, 6])
def test_held_out_rows_score_alike_alone_and_in_the_batch(kind, n_sensors):
    rec = synth_session(class_count=5, sensor_count=n_sensors, seed=n_sensors,
                        n_sequences=3, motion_s=1.0)
    model, test_windows = train_session(rec, feature_kind=kind, learn_amplitude=False)
    X = extract_matrix(kind, test_windows, model.layout)
    scores = predict_scores(model, X)
    assert len(X) > 100
    for i in range(len(X)):
        assert scores[i].tobytes() == predict_scores(model, X[i]).tobytes()


def spd_matrix(rng, d):
    """A random, well-conditioned symmetric positive definite (d, d)
    matrix: a sample covariance of unit normals plus at least 0.1 times
    the identity, at a random scale."""
    g = rng.normal(size=(d + int(rng.integers(1, 2 * d + 2)), d))
    a = g.T @ g / len(g) + rng.uniform(0.1, 1.0) * np.eye(d)
    return a * 10.0 ** rng.uniform(-6, 6)


def rel_error(actual, expected):
    return np.linalg.norm(actual - expected) / np.linalg.norm(expected)


class TestFixedOrderFactor:
    """``_cholesky`` and ``_cho_solve``, which ``fit`` and the model
    constructor use, against LAPACK."""

    @given(d=st.integers(1, 64), m=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60)
    def test_matches_lapack(self, d, m, seed):
        rng = np.random.default_rng(seed)
        a = spd_matrix(rng, d)
        b = rng.normal(size=(d, m))
        lower = _cholesky(a)
        reference = cholesky_reference(a)
        assert rel_error(lower, reference) <= 1e-12
        x = _cho_solve(lower, b)
        assert rel_error(x, cho_solve_reference(reference, b)) <= 1e-12
        # A right-hand side solved alone has the bits it has among others.
        assert_same_bits(_cho_solve(lower, b[:, 0]), x[:, 0])

    @given(d=st.integers(1, 64), seed=st.integers(0, 2**32 - 1),
           fault=st.sampled_from(["indefinite", "nan"]))
    @settings(max_examples=60)
    def test_not_positive_definite_raises(self, d, seed, fault):
        rng = np.random.default_rng(seed)
        a = spd_matrix(rng, d)
        i, j = rng.integers(d, size=2)
        if fault == "indefinite":
            a[j, j] = -a[j, j]  # e_j' a e_j < 0
        else:
            a[i, j] = a[j, i] = np.nan
        with pytest.raises(SingularCovarianceError):
            _cholesky(a)

    @pytest.mark.parametrize("a", [
        [[0.0]], [[-0.0]], np.zeros((3, 3)),
        [[4.0, 2.0], [2.0, 1.0]],  # second pivot exactly 1 - 1
        [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    ])
    def test_zero_pivot_raises(self, a):
        with pytest.raises(SingularCovarianceError):
            _cholesky(np.asarray(a))


# Every feature width bomi's kinds give with 1 to 6 sensors.
_FEATURE_DIMS = sorted({feature_dim(kind, sensors, DEFAULT_WINDOW)
                        for kind in FEATURE_KINDS for sensors in range(1, 7)})

# The fit inputs are built without BLAS, so both interpreters fit the same bits.
_FIT_DIGESTS = f"""
import hashlib
import numpy as np
from bomi.lda import fit
for d in {_FEATURE_DIMS}:
    rng = np.random.default_rng(d)
    y = np.arange(8 * d) % 5
    X = rng.normal(size=(8 * d, d)).cumsum(axis=1) + y[:, None]
    core = fit(X, y, shrinkage=1e-3)
    for name, array in zip(("chol_lower", "weights", "biases"), (core.chol_lower, *core._linear)):
        data = np.ascontiguousarray(array).tobytes()
        print(d, name, hashlib.sha256(data).hexdigest())
"""


def test_fit_bits_do_not_depend_on_blas_threads(run_python):
    one = run_python(_FIT_DIGESTS, OPENBLAS_NUM_THREADS="1")
    assert len(_FEATURE_DIMS) == 11 and len(one.splitlines()) == 3 * len(_FEATURE_DIMS)
    assert run_python(_FIT_DIGESTS, OPENBLAS_NUM_THREADS="2") == one
