import json
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bomi.errors import (
    DimensionMismatchError,
    ModelFormatError,
    NumericalError,
    ShapeError,
    SingularCovarianceError,
    TrainingDataError,
)
from bomi.experiments import evaluate as eval_windows
from bomi.experiments import train_session
from bomi.features import FeatureLayout
from bomi.fusion import FusionConfig
from bomi.lda import (
    LdaModel,
    deserialize,
    fit,
    predict,
    predict_many,
    predict_scores,
    serialize,
)

from oracles import lda_reference_label, lda_reference_scores


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
        rng = np.random.default_rng(0)
        X, y = rng.normal(size=(20, 3)), np.repeat([0, 1], 10)
        with pytest.raises(ShapeError):
            fit(X, y, feature_kind=kind, window=window, overlap=overlap)
        fit(X, y, feature_kind=kind, window=8, overlap=7)

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

    def test_uniform_priors_switch(self):
        X = np.array([[0.0], [0.1], [1.0], [1.1], [1.2], [0.9]])
        y = np.array([0, 0, 1, 1, 1, 1])
        model = fit(X, y, priors="uniform")
        assert model.log_priors.tolist() == pytest.approx([-np.log(2)] * 2)


ORIGIN = np.zeros(2)


def scored_model(classes, log_priors):
    """A 2-d model with identity covariance and unit-length means (1, 0),
    (0, 1) and (-1, 0), so scores are exact: x . mu - 0.5 + log prior."""
    return LdaModel(
        classes=np.asarray(classes),
        means=np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]),
        chol_lower=np.eye(2),
        shrinkage=0.0,
        log_priors=np.asarray(log_priors, dtype=np.float64),
        feature_kind="fv1",
        layout=FeatureLayout(sensor_ids=(1,)),
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

    @pytest.mark.parametrize("classes, want", [([0, 3, 5], 0), ([2, 3, 5], 2), ([1, 4, 6], 1)])
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
        model = fit(X, y, feature_kind="fv1", window=d // 3, overlap=d // 3 - 1)
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

    def test_truncated_file_rejected(self, tmp_path):
        rng = np.random.default_rng(9)
        X, y, _, _ = random_instance(rng)
        path = tmp_path / "model.json"
        serialize(fit(X, y), path)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        with pytest.raises(ModelFormatError):
            deserialize(path)

    def test_wrong_format_marker(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"format": "other", "version": 1}')
        with pytest.raises(ModelFormatError):
            deserialize(path)

    def test_mismatched_probe_dimension(self, tmp_path, small_model):
        model, _ = small_model
        wrong_d = model.dim - 8
        with pytest.raises(DimensionMismatchError):
            predict(model, np.zeros(wrong_d))


def test_noiseless_synthetic_session_fully_classified(small_noiseless):
    gamma_sensors = {int(k): int(v) for k, v in small_noiseless.meta["class_sensors"].items()}
    model, test_windows = train_session(small_noiseless, class_sensor=gamma_sensors)
    result = eval_windows(model, test_windows)
    assert result.accuracy == 100.0


@given(st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_fit_never_returns_invalid_model(seed):
    rng = np.random.default_rng(seed)
    X, y, d, k = random_instance(rng, d_max=4, k_max=3, n_max=12)
    model = fit(X, y)
    assert model.means.shape == (k, d)
    assert np.isfinite(model.chol_lower).all()
    assert np.isfinite(predict_scores(model, np.zeros(d))).all()
