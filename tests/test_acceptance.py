"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria 1 and 2 evaluate reproduction targets on the published recordings;
the dataset directory is taken from BOMI_DATASET_DIR (default ./dataset).
When it is absent those tests skip: criterion 1 is replaced by criterion 6
(its own fallback), and criterion 2's structural claims are asserted on the
synthetic spasm analog inside criterion 6.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from bomi.dataset_io import synth_session
from bomi.experiments import (
    evaluate,
    run_amplitude_experiment,
    run_fv_comparison,
    run_multiday_experiment,
    sequence_windows,
    train_session,
)
from bomi.features import (
    AmplitudeRange,
    feature_dim,
    make_windows,
    prop_output,
)
from bomi.fusion import ComplementaryFilter
from bomi.lda import fit, predict, predict_many, predict_scores, serialize, deserialize
from bomi.pipeline import StreamStats, replay

from oracles import lda_reference_label, lda_reference_scores, world_to_body

DATASET_DIR = Path(os.environ.get("BOMI_DATASET_DIR", "dataset"))

TABLE_FV3 = {"P1": 100.00, "P2": 99.87, "P3": 100.00, "P4": 94.84, "P5": 88.48}


def report(criterion, ok, detail):
    print(f"\nCRITERION {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def require_dataset(criterion, purpose):
    if not DATASET_DIR.is_dir():
        print(
            f"\nCRITERION {criterion}: SKIP - no recorded dataset at "
            f"{DATASET_DIR} ({purpose})"
        )
        pytest.skip(
            f"recorded dataset not present at {DATASET_DIR}; criterion covered "
            "by its documented synthetic fallback"
        )


def test_criterion_1_feature_vector_comparison_on_recorded_dataset():
    require_dataset(1, "replaced by criterion 6 per its fallback clause")
    started = time.perf_counter()
    result = run_fv_comparison(DATASET_DIR)
    elapsed = time.perf_counter() - started
    checks = []
    for participant, want in TABLE_FV3.items():
        got = result.accuracies.get(participant, {}).get("fv3")
        checks.append(got is not None and abs(got - want) <= 2.0)
    for participant in ("P4", "P5"):
        row = result.accuracies.get(participant, {})
        checks.append(row.get("fv1", 1e9) < row.get("fv3", -1e9))
        checks.append(row.get("fv2", 1e9) < row.get("fv3", -1e9))
    checks.append(elapsed < 300.0)
    ok = all(checks)
    report(1, ok, f"fv3 accuracies {result.accuracies}, runtime {elapsed:.1f}s")
    assert ok


def test_criterion_2_misclassification_structure_on_recorded_dataset():
    require_dataset(2, "structural analog asserted within criterion 6")
    result = run_fv_comparison(DATASET_DIR, feature_kinds=("fv3",))
    checks = []
    details = {}
    for participant in ("P4", "P5"):
        r = result.details[participant]
        frac = r.structure.neutral_fraction
        details[participant] = frac
        checks.append(frac is not None and frac >= 0.60)
    p4 = result.details["P4"]
    head_classes = [c for c in p4.confusion.labels if 1 <= c <= 4]
    diag = p4.confusion.diagonal_percent()
    checks.append(min(head_classes, key=lambda c: diag[c]) == 1)
    checks.append(abs(diag[1] - 64.2) <= 10.0)
    ok = all(checks)
    report(2, ok, f"neutral fractions {details}, c1 diagonal {diag.get(1)}")
    assert ok


def test_criterion_3_amplitude_study(sae7, mae7):
    study = run_amplitude_experiment(sae7, mae7)
    gap = study.mae_accuracy - study.sae_accuracy
    neutral = study.sae_structure.neutral_fraction
    ok = gap >= 10.0 and neutral is not None and neutral >= 0.90
    report(
        3,
        ok,
        f"multi-amplitude {study.mae_accuracy:.2f}% vs single {study.sae_accuracy:.2f}% "
        f"(gap {gap:.2f} pts), {100 * (neutral or 0):.1f}% of single-amplitude errors "
        "predicted neutral",
    )
    assert ok


def test_criterion_4_multiday_study(days5):
    study = run_multiday_experiment(days5)
    day1 = study.day1_model_accuracy
    dday = study.dday_model_accuracy
    checks = [
        abs(day1[4] - 98.31) <= 2.0,
        dday[3] >= day1[3],
        dday[4] >= day1[4],
    ]
    ok = all(checks)
    report(
        4,
        ok,
        f"day-1 model {['%.2f' % a for a in day1]}, "
        f"d-day models {['%.2f' % a for a in dday]}",
    )
    assert ok


def test_criterion_5_lda_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(20260810)
    shrinkage = 1e-3
    mismatches = 0
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(1, 6))
        k = int(rng.integers(2, 5))
        X, y = [], []
        for cls in range(k):
            n = int(rng.integers(2, 51))
            X.append(rng.normal(scale=3.0, size=d) + rng.normal(size=(n, d)))
            y.extend([cls] * n)
        X = np.vstack(X)
        y = np.asarray(y)
        model = fit(X, y, shrinkage=shrinkage)
        probe = rng.normal(scale=3.0, size=d)
        if predict(model, probe) != lda_reference_label(X, y, probe, shrinkage):
            mismatches += 1
        _, ref = lda_reference_scores(X, y, probe, shrinkage)
        worst = max(worst, float(np.abs(predict_scores(model, probe) - ref).max()))
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and worst < 1e-9 and elapsed < 30.0
    report(
        5,
        ok,
        f"1000 instances, {mismatches} argmax mismatches, worst score "
        f"difference {worst:.2e}, runtime {elapsed:.1f}s",
    )
    assert ok


def test_criterion_6_synthetic_end_to_end():
    started = time.perf_counter()
    clean = synth_session(class_count=9, sensor_count=3, noise_deg=0.5, seed=42)
    model, test_windows = train_session(clean, learn_amplitude=False)
    clean_result = evaluate(model, test_windows)

    # The involuntary-motion participant: class 1 moves through a reduced
    # range comparable to the 10-degree modulation, as in the recorded
    # low-range spasm condition.
    spasm = synth_session(
        class_count=9, sensor_count=3, noise_deg=0.5,
        spasm_deg=10.0, spasm_class=1, class_scale={1: 0.55}, seed=42,
    )
    model_s, test_s = train_session(spasm, learn_amplitude=False)
    spasm_result = evaluate(model_s, test_s)
    elapsed = time.perf_counter() - started

    diag = spasm_result.confusion.diagonal_percent()
    non_spasm_min = min(v for c, v in diag.items() if c != 1)
    neutral = spasm_result.structure.neutral_fraction
    checks = [
        clean_result.accuracy >= 99.0,
        spasm_result.accuracy < clean_result.accuracy,
        spasm_result.accuracy >= 85.0,
        diag[1] < non_spasm_min,
        # criterion 2's structural analog on the synthetic spasm participant
        neutral is not None and neutral >= 0.60,
        elapsed < 60.0,
    ]
    ok = all(checks)
    report(
        6,
        ok,
        f"clean {clean_result.accuracy:.2f}%, spasm {spasm_result.accuracy:.2f}% "
        f"(class-1 diagonal {diag[1]:.1f}%, next lowest {non_spasm_min:.1f}%), "
        f"{100 * (neutral or 0):.0f}% of errors predicted neutral, "
        f"runtime {elapsed:.1f}s",
    )
    assert ok


def test_criterion_7_fusion_properties():
    checks = []

    # static-input convergence from arbitrary states within 5 simulated s
    acc, gyro, mag = (0.0, 0.0, 1.0), (0.0, 0.0, 0.0), (1.0, 0.0, 0.0)
    worst_after = 0.0
    for init in [(80.0, 170.0, -179.0), (-60.0, -120.0, 90.0), (45.0, 10.0, 179.0)]:
        filt = ComplementaryFilter(alpha=0.98, dt=1 / 60, initial=init)
        for t in range(300):
            out = filt.step(t, acc, gyro, mag)
        worst_after = max(worst_after, abs(out.pitch), abs(out.roll), abs(out.yaw))
    checks.append(worst_after < 0.5)

    # alpha = 1: pure integration
    filt = ComplementaryFilter(alpha=1.0, dt=1 / 60, initial=(0.0, 0.0, 0.0))
    for t in range(60):
        out = filt.step(t, acc, (0.0, 0.0, 10.0), mag)
    checks.append(abs(out.yaw - 10.0) < 1e-9)

    # alpha = 0: measurement pass-through
    filt = ComplementaryFilter(alpha=0.0, dt=1 / 60, initial=(37.0, -40.0, 120.0))
    acc_m = world_to_body((0, 0, 1), yaw=15.0, pitch=10.0, roll=5.0)
    mag_m = world_to_body((1, 0, 0), yaw=15.0, pitch=10.0, roll=5.0)
    out = filt.step(0, acc_m, (3.0, -2.0, 1.0), mag_m)
    checks.append(
        abs(out.pitch - 10.0) < 1e-9
        and abs(out.roll - 5.0) < 1e-9
        and abs(out.yaw - 15.0) < 1e-9
    )

    # accel/mag inversion against the rotation-matrix oracle
    from bomi.fusion import accel_angles, mag_yaw

    rng = np.random.default_rng(77)
    worst_inv = 0.0
    field = (0.86, 0.0, -0.51)
    for _ in range(1000):
        pitch = rng.uniform(-84.0, 84.0)
        roll = rng.uniform(-179.0, 179.0)
        yaw = rng.uniform(-179.9, 179.9)
        got_p, got_r = accel_angles(world_to_body((0, 0, 1), yaw, pitch, roll))
        got_y = mag_yaw(world_to_body(field, yaw, pitch, roll), pitch, roll)
        worst_inv = max(
            worst_inv, abs(got_p - pitch), abs(got_r - roll), abs(got_y - yaw)
        )
    checks.append(worst_inv < 1e-9)

    ok = all(checks)
    report(
        7,
        ok,
        f"static residual {worst_after:.3f} deg after 5 s, inversion error "
        f"{worst_inv:.2e} deg over 1000 attitudes, degeneracies exact",
    )
    assert ok


def test_criterion_8_streaming_contract(synth9, model9):
    model, test_windows = model9
    outputs, stats = replay(synth9, model, sequence_indices=[3])

    offline = sequence_windows(synth9, synth9.sequences[2])
    from bomi.features import extract_matrix

    X = extract_matrix(model.feature_kind, offline, model.layout)
    offline_pred = predict_many(model, X).tolist()
    online_pred = [o.label for o in outputs]

    mean_ms = stats.latency_mean_ms()
    p99_ms = stats.latency_percentile_ms(99)
    window_span_ms = 8 * 1000.0 / synth9.sample_rate_hz

    constructed = StreamStats(sample_rate_hz=60.0)
    predictions = [0] * 50
    predictions[4:7] = [1] * 3
    predictions[10:28] = [2] * 18
    predictions[30:35] = [1] * 5
    for label in predictions:
        constructed.add(label, 0, False, 0.0)

    checks = [
        online_pred == offline_pred,
        mean_ms < 16.7,
        p99_ms < 50.0,
        window_span_ms + mean_ms < 300.0,
        constructed.max_run() == 18,
    ]
    ok = all(checks)
    report(
        8,
        ok,
        f"online == offline over {len(online_pred)} windows: {online_pred == offline_pred}, "
        f"latency mean {mean_ms:.3f} ms / p99 {p99_ms:.3f} ms, "
        f"window span + mean {window_span_ms + mean_ms:.1f} ms, "
        f"constructed 18-run reported as {constructed.max_run()}",
    )
    assert ok


def test_criterion_9_structural_properties(model9, tmp_path):
    checks = []

    # window count N - 7 across the range, enumerated
    angles = np.zeros((10_000, 1, 3))
    gyro = np.zeros((10_000, 1, 3))
    counts_ok = True
    for n in list(range(8, 257)) + [1000, 4096, 9999, 10_000]:
        got = sum(1 for _ in make_windows(angles[:n], gyro[:n], None))
        counts_ok = counts_ok and got == n - 7
    checks.append(counts_ok)

    dims_ok = all(
        feature_dim("fv1", s) == 8 * (3 + 2 * (s - 1))
        and feature_dim("fv2", s) == 8 * (3 + 2 * (s - 1) + 3 * s)
        and feature_dim("fv3", s) == 8 * (3 + 2 * (s - 1) + 3 * s)
        for s in (1, 2, 3, 6)
    )
    checks.append(dims_ok)

    ranges = AmplitudeRange(ranges={1: (10.0, 30.0)}, class_sensor={1: 1})
    nu_ok = (
        prop_output(10.0, 1, ranges) == 0.0
        and prop_output(30.0, 1, ranges) == 1.0
        and prop_output(100.0, 1, ranges) == 1.0
        and all(
            0.0 <= prop_output(g, 1, ranges) <= 1.0
            for g in np.linspace(-20.0, 80.0, 101)
        )
    )
    checks.append(nu_ok)

    model, test_windows = model9
    from bomi.features import extract_matrix

    X = extract_matrix(model.feature_kind, test_windows[:200], model.layout)
    path = tmp_path / "model.json"
    serialize(model, path)
    back = deserialize(path)
    round_trip_ok = (predict_many(model, X) == predict_many(back, X)).all()
    checks.append(bool(round_trip_ok))

    ok = all(checks)
    report(
        9,
        ok,
        f"window counts N-7 verified, dims closed-form for S in (1,2,3,6), "
        f"nu clipped to [0,1] with exact endpoints, round-trip predictions "
        f"identical: {bool(round_trip_ok)}",
    )
    assert ok
