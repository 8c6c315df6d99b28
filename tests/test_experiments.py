import json
import multiprocessing
import os
import signal
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bomi.experiments
from bomi.cli import main
from bomi.dataset_io import SplitSpec, load_recording, save_recording, synth_session
from bomi.errors import CoverageError, DataError, PoolError, ValidationError
from bomi.experiments import (
    ConfusionMatrix,
    ExperimentReport,
    MisclassStructure,
    evaluate,
    extract_matrix,
    misclassification_structure,
    run_all,
    run_amplitude_experiment,
    run_fv_comparison,
    run_multiday_experiment,
    sequence_windows,
    split_windows,
    train_session,
)
from bomi.features import FEATURE_KINDS, FeatureLayout, Windows
from bomi.fusion import FusionConfig, fuse_sequence
from bomi.lda import DEFAULT_SHRINKAGE, predict_many
from bomi.pipeline import max_consecutive_disagreements

from oracles import max_run_reference, misclassification_reference


def fake_windows(labels):
    n = len(labels)
    return Windows(
        angles=np.zeros((n + 7, 1, 3)),
        gyro=np.zeros((n + 7, 1, 3)),
        rows=np.arange(n),
        labels=np.array([-1 if lab is None else lab for lab in labels]),
        start_ticks=np.arange(n),
        length=8,
    )


def write_studies(data):
    """Save a small session for every study (one participant, one
    amplitude pair, two days) into ``data``; return them by file stem."""
    sessions = {
        "P1": synth_session(class_count=3, sensor_count=2, seed=30),
        "P9_sae": synth_session(class_count=3, sensor_count=1, seed=31),
        "P9_mae": synth_session(class_count=3, sensor_count=1,
                                amplitudes=(0.5, 0.75, 1.0), seed=32),
        "day1": synth_session(class_count=3, sensor_count=1, seed=41),
        "day2": synth_session(class_count=3, sensor_count=1, seed=42),
    }
    for stem, rec in sessions.items():
        save_recording(rec, data / f"{stem}.json")
    return sessions


_window_job = bomi.experiments._window_job


def _window_job_killed_on_day2(path, split=None):
    """``run_all``'s pool job, except that for ``day2.json`` its process
    dies by SIGKILL, as under the OOM killer. It dies once the main process
    has read day1's session, so no other job is pending then."""
    if path.name == "day2.json":
        deadline = time.monotonic() + 60
        while not path.with_name("day1.read").exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        os.kill(os.getpid(), signal.SIGKILL)
    return _window_job(path, split)


def _window_job_killed_on_day2_while_day1_runs(path, split=None):
    """``run_all``'s pool job, except that the job for ``day1.json`` blocks
    and the one for ``day2.json`` dies by SIGKILL while day1's still runs
    in the other worker."""
    if path.name == "day1.json":
        path.with_name("day1.running").touch()
        time.sleep(60)  # the broken pool terminates this worker first
    elif path.name == "day2.json":
        deadline = time.monotonic() + 60
        while not path.with_name("day1.running").exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        os.kill(os.getpid(), signal.SIGKILL)
    return _window_job(path, split)


@pytest.fixture
def blas_threads():
    """numpy's OpenBLAS thread-count getter, with the count set to 2 for
    the test and restored after; skips where numpy has no OpenBLAS."""
    found = bomi.experiments._blas_threads()
    if found is None:
        pytest.skip("numpy exports no OpenBLAS thread-count symbol on this platform")
    get, set_ = found
    before = get()
    set_(2)
    yield get
    set_(before)


def without_class_2_in_training(rec):
    """``rec`` with class 2 relabelled 1 in its training sequences, so
    windowing it with the default split raises CoverageError."""
    for seq in rec.sequences[:2]:
        seq.labels[seq.labels == 2] = 1
    return rec


class TestConfusion:
    def test_rows_normalize_to_hundred(self):
        counts = np.array([[8, 2, 0], [1, 9, 0], [0, 0, 5]])
        cm = ConfusionMatrix(labels=[0, 1, 2], counts=counts)
        pct = cm.row_percent()
        assert pct.sum(axis=1) == pytest.approx([100.0] * 3, abs=0.1)

    def test_accuracy_is_trace_over_total(self):
        counts = np.array([[8, 2], [1, 9]])
        cm = ConfusionMatrix(labels=[0, 1], counts=counts)
        assert cm.accuracy() == pytest.approx(100.0 * 17 / 20)

    def test_csv_output(self, tmp_path):
        cm = ConfusionMatrix(labels=[0, 3], counts=np.array([[3, 1], [0, 4]]))
        path = tmp_path / "conf.csv"
        cm.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "true\\pred,c0,c3"
        assert lines[1] == "c0,75.00,25.00"


@st.composite
def scored_streams(draw):
    """(predictions, labels) of one length in 0-300, built from runs, so
    error runs are long: predictions drawn freely, from labels the truth
    never carries, equal to the truth, or the truth with some ticks
    predicted neutral."""
    n = draw(st.integers(0, 300))

    def stream(values):
        runs = draw(st.lists(st.tuples(values, st.integers(1, 60)), min_size=1, max_size=12))
        flat = [v for v, k in runs for _ in range(k)]
        return (flat * (n // len(flat) + 1))[:n]

    labels = stream(st.integers(0, 5))
    kind = draw(st.sampled_from(("free", "disjoint", "exact", "neutral")))
    if kind == "exact":
        return list(labels), labels
    if kind == "neutral":
        return [0 if f else t for t, f in zip(labels, stream(st.booleans()))], labels
    return stream(st.integers(0, 8) if kind == "free" else st.integers(6, 9)), labels


class TestMisclassificationStructure:
    def test_all_errors_predict_neutral(self):
        labels = [1, 1, 2, 2]
        preds = [0, 1, 0, 2]
        s = misclassification_structure(preds, labels)
        assert s.neutral_fraction == 1.0

    def test_run_structure(self):
        labels = [0] * 30
        preds = list(labels)
        preds[1] = 5
        preds[10:28] = [3] * 18
        s = misclassification_structure(preds, labels)
        assert s.max_run == 18

    def test_pair_ordering(self):
        labels = [3] * 10 + [2] * 3
        preds = [0] * 6 + [5] * 4 + [0] * 3
        s = misclassification_structure(preds, labels)
        assert s.pairs[0] == (3, 0, 6)
        assert (3, 5, 4) in s.pairs and (2, 0, 3) in s.pairs

    def test_no_errors(self):
        s = misclassification_structure([1, 2], [1, 2])
        assert s.neutral_fraction is None
        assert s.max_run == 0
        assert s.pairs == []

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            misclassification_structure([1], [1, 2])

    @pytest.mark.parametrize("predictions, labels", [
        ([1.9, 0], [1, 0]),
        ([True, 2], [1, 2]),
        ([1, 0], [1.9, 0]),
        ([1, 2], [True, 2]),
        ([1, 2], np.array([1.0, 2.0])),
    ])
    def test_non_integer_labels_are_refused(self, predictions, labels):
        with pytest.raises(ValidationError, match="must be integers"):
            misclassification_structure(predictions, labels)

    def test_numpy_integer_labels_are_taken(self):
        s = misclassification_structure(np.array([0, 2], dtype=np.int32), [np.int64(1), 2])
        assert s.pairs == [(1, 0, 1)]

    @given(scored_streams())
    @settings(max_examples=300)
    def test_matches_the_pair_dict_oracle(self, streams):
        predictions, labels = streams
        s = misclassification_structure(predictions, labels)
        assert s == MisclassStructure(**misclassification_reference(predictions, labels))
        assert type(s.neutral_fraction) in (float, type(None))
        assert type(s.max_run) is int
        assert type(s.pairs) is list
        assert all(type(p) is tuple and [type(v) for v in p] == [int] * 3 for p in s.pairs)
        want = max_run_reference(predictions, labels)
        assert max_consecutive_disagreements(predictions, labels) == want
        assert max_consecutive_disagreements(np.array(predictions), np.array(labels)) == want


class TestEvaluate:
    def test_structure_matches_the_pair_dict_oracle(self, sae7, mae7):
        # A single-amplitude model errs on the multi-amplitude test sequence.
        model, _ = train_session(sae7, learn_amplitude=False)
        test_windows = sequence_windows(mae7, mae7.sequences[2])
        usable = test_windows[test_windows.labels >= 0]
        predictions = predict_many(model, extract_matrix(model.feature_kind, usable,
                                                         model.layout))
        structure = evaluate(model, test_windows).structure
        assert len(structure.pairs) > 1
        assert structure == MisclassStructure(
            **misclassification_reference(predictions.tolist(), usable.labels.tolist()))

    def test_perfect_predictions(self, small_model):
        model, test_windows = small_model
        result = evaluate(model, test_windows)
        assert 95.0 < result.accuracy <= 100.0
        assert result.n_windows + result.n_mixed_excluded == len(test_windows)
        assert result.confusion.counts.sum() == result.n_windows

    def test_nine_of_ten(self, small_model):
        model, test_windows = small_model
        # constructed: flip one window's label to force one error
        sample = test_windows[test_windows.labels == 0][:10]
        flipped = replace(sample, labels=np.array([2] + [0] * 9))
        result = evaluate(model, flipped)
        assert result.accuracy == pytest.approx(90.0)

    def test_empty_set_rejected(self, small_model):
        model, _ = small_model
        with pytest.raises(DataError):
            evaluate(model, fake_windows([]))
        with pytest.raises(DataError):
            evaluate(model, fake_windows([None, None]))


class TestTrainSession:
    def test_pooled_windows_never_straddle_sequences(self, small_noisy):
        rec = small_noisy
        pooled, test = split_windows(rec, SplitSpec(train=frozenset({1, 2, 3}),
                                                    test=frozenset()))
        singles = [sequence_windows(rec, seq) for seq in rec.sequences]
        assert len(pooled) == sum(len(ws) for ws in singles)
        ends = np.cumsum([len(ws.angles) for ws in singles])
        first = np.searchsorted(ends, pooled.rows, side="right")
        last = np.searchsorted(ends, pooled.rows + pooled.length - 1, side="right")
        assert (first == last).all()
        layout = FeatureLayout(sensor_ids=rec.sensor_ids)
        for kind in FEATURE_KINDS:
            stacked = np.concatenate([extract_matrix(kind, ws, layout) for ws in singles])
            assert stacked.tobytes() == extract_matrix(kind, pooled, layout).tobytes()
        assert len(test) == 0 and list(test) == []

    def test_windows_index_to_each_windows_ticks(self, small_noisy):
        # The oracle slices each sequence's fused stream directly.
        rec = small_noisy
        pooled = sequence_windows(rec, *rec.sequences)
        want = []
        for seq in rec.sequences:
            fused = fuse_sequence(seq.samples, rec.sample_rate_hz)
            c = fused.calib_ticks
            for start in range(c, seq.n_ticks - 7):
                span = seq.labels[start:start + 8]
                label = int(span[-1]) if (span == span[-1]).all() else None
                want.append((start, fused.angles[start:start + 8],
                             fused.gyro[start:start + 8], label))
        assert len(pooled) == len(want)
        for w, (start, angles, gyro, label) in zip(pooled, want):
            assert w.start_tick == start and w.label == label
            assert w.angles.tobytes() == angles.tobytes()
            assert w.gyro.tobytes() == gyro.tobytes()
        assert pooled[-1].start_tick == want[-1][0]

    def test_empty_test_split_gives_empty_set(self, small_noisy):
        _, test = train_session(small_noisy, split=SplitSpec(test=frozenset()),
                                learn_amplitude=False)
        assert len(test) == 0 and not test
        with pytest.raises(DataError):
            evaluate(train_session(small_noisy, learn_amplitude=False)[0], test)

    def test_missing_class_in_training_is_coverage_error(self, small_noisy):
        crippled = without_class_2_in_training(
            synth_session(class_count=3, sensor_count=2, noise_deg=0.5, seed=9))
        with pytest.raises(CoverageError):
            train_session(crippled)

    def test_window_counts_match_sequence_lengths(self, small_noisy):
        model, test_windows = train_session(small_noisy, learn_amplitude=False)
        n = small_noisy.sequences[2].n_ticks
        assert len(test_windows) == n - 60 - 7  # calibration ticks consumed


class TestStudies:
    def test_fv_comparison_table(self, tmp_path, small_noisy):
        save_recording(small_noisy, tmp_path / "P1.json")
        save_recording(
            synth_session(class_count=3, sensor_count=2, noise_deg=0.5, seed=10),
            tmp_path / "P2.json",
        )
        (tmp_path / "P3.json").write_text("{broken")
        with pytest.warns(UserWarning):
            report = run_fv_comparison(tmp_path)
        assert set(report.accuracies) == {"P1", "P2"}
        assert set(report.accuracies["P1"]) == {"fv1", "fv2", "fv3"}
        assert report.skipped == ["P3"]
        table = report.table()
        assert "P1" in table and "fv3" in table

    @pytest.mark.parametrize("names", [("P1", "P4"), ("P1", "a_long_participant_name")])
    def test_table_columns_line_up(self, names):
        # The second participant has no fv1 cell.
        report = ExperimentReport(accuracies={
            names[0]: {"fv1": 91.5, "fv3": 99.96}, names[1]: {"fv3": 91.66}})
        lines = report.table().splitlines()
        assert len(lines) == 3
        assert len({len(line) for line in lines}) == 1
        assert lines[0].startswith("Participant ")

    def test_amplitude_study_direction(self, sae7, mae7):
        study = run_amplitude_experiment(sae7, mae7)
        assert study.mae_accuracy > study.sae_accuracy
        assert study.sae_structure.neutral_fraction is not None

    def test_multiday_shapes(self):
        days = [
            synth_session(class_count=3, sensor_count=1, seed=20 + d,
                          target_bias_deg=2.0 * d, rotation_seed=99)
            for d in range(2)
        ]
        study = run_multiday_experiment(days)
        assert len(study.day1_model_accuracy) == 2
        assert len(study.dday_model_accuracy) == 2
        # a model evaluated on its own day is the day-1 model on day 1
        assert study.day1_model_accuracy[0] == study.dday_model_accuracy[0]
        assert "day2" in study.table()

    def test_multiday_evaluates_each_pair_once(self, monkeypatch):
        calls = []
        original = bomi.experiments.evaluate

        def counting(model, windows):
            calls.append(1)
            return original(model, windows)

        monkeypatch.setattr(bomi.experiments, "evaluate", counting)
        days = [synth_session(class_count=3, sensor_count=1, seed=20 + d)
                for d in range(3)]
        run_multiday_experiment(days)
        assert len(calls) == 2 * len(days) - 1

    def test_multiday_empty_rejected(self):
        with pytest.raises(DataError):
            run_multiday_experiment([])

    def test_day1_model_accuracy_non_increasing_under_drift(self, days5):
        study = run_multiday_experiment(days5)
        accs = study.day1_model_accuracy
        for prev, cur in zip(accs, accs[1:]):
            assert cur <= prev + 0.25  # drift only ever hurts, noise aside
        assert all(d >= a for d, a in zip(study.dday_model_accuracy, accs))

    def test_report_deterministic(self, tmp_path, small_noisy):
        save_recording(small_noisy, tmp_path / "P1.json")
        a = run_fv_comparison(tmp_path, feature_kinds=("fv3",))
        b = run_fv_comparison(tmp_path, feature_kinds=("fv3",))
        assert a.accuracies == b.accuracies
        assert a.details["P1"].to_dict() == b.details["P1"].to_dict()


class TestRunAll:
    def test_writes_reports(self, tmp_path, small_noisy):
        data = tmp_path / "data"
        out = tmp_path / "out"
        data.mkdir()
        save_recording(small_noisy, data / "P1.json")
        sae = synth_session(class_count=3, sensor_count=1, seed=31)
        mae = synth_session(class_count=3, sensor_count=1,
                            amplitudes=(0.5, 0.75, 1.0), seed=32)
        save_recording(sae, data / "P9_sae.json")
        save_recording(mae, data / "P9_mae.json")
        for d in (1, 2):
            save_recording(
                synth_session(class_count=3, sensor_count=1, seed=40 + d,
                              target_bias_deg=1.5 * (d - 1), rotation_seed=5),
                data / f"day{d}.json",
            )
        combined = run_all(data, out)
        assert {"fv_comparison", "amplitude", "multiday"} <= set(combined)
        report = json.loads((out / "report.json").read_text())
        assert report["fv_comparison"]["accuracies"]["P1"]["fv3"] > 90.0
        assert (out / "fv_table.txt").exists()
        assert (out / "confusion_P1.csv").exists()
        assert (out / "multiday_table.txt").exists()

    def test_fuses_each_used_sequence_once(self, tmp_path, fuse_counts):
        data = tmp_path / "data"
        data.mkdir()
        sessions = write_studies(data)
        run_all(data, tmp_path / "out")
        # Every sequence is used except the single-amplitude session's
        # third: that model is only ever tested on the multi-amplitude one.
        used = [fuse_counts.key(seq.samples)
                for stem, rec in sessions.items()
                for seq in (rec.sequences[:2] if stem == "P9_sae" else rec.sequences)]
        assert fuse_counts == {key: 1 for key in used}

    def test_studies_train_the_default_chain(self, tmp_path, monkeypatch):
        data = tmp_path / "data"
        data.mkdir()
        sessions = write_studies(data)
        models = []
        real_train = bomi.experiments.train_on_windows

        def recording_train(*args, **kwargs):
            models.append(real_train(*args, **kwargs))
            return models[-1]

        monkeypatch.setattr(bomi.experiments, "train_on_windows", recording_train)
        run_all(data, tmp_path / "out")
        # fv1, fv2 and fv3 on P1, two amplitude models, one model per day.
        assert [m.feature_kind for m in models] == ["fv1", "fv2", "fv3"] + ["fv3"] * 4
        for m in models:
            assert m.fusion == FusionConfig()
            assert (m.window, m.overlap) == (8, 7)
            assert m.shrinkage == DEFAULT_SHRINKAGE

    def test_orphan_amplitude_session_warns(self, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        sae = synth_session(class_count=3, sensor_count=1, seed=31)
        save_recording(sae, data / "P9_sae.json")
        with pytest.warns(UserWarning):
            combined = run_all(data, tmp_path / "out")
        assert "amplitude" not in combined


class TestRunAllPool:
    """``run_all`` loads, fuses and windows each recording in a forked
    worker; what it reports and raises is what in-process studies give."""

    def test_matches_the_public_studies_byte_for_byte(self, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        write_studies(data)
        save_recording(synth_session(class_count=4, sensor_count=2, seed=33), data / "P2.csv")
        (data / "P3.json").write_text("{broken")
        with pytest.warns(UserWarning, match="skipping P3.json"):
            combined = run_all(data, tmp_path / "out")
        assert multiprocessing.active_children() == []

        expected = tmp_path / "expected"
        expected.mkdir()
        with pytest.warns(UserWarning, match="skipping P3.json"):
            report = run_fv_comparison(data)
        amplitude = run_amplitude_experiment(load_recording(data / "P9_sae.json"),
                                             load_recording(data / "P9_mae.json"))
        multiday = run_multiday_experiment(
            [load_recording(data / f"day{d}.json") for d in (1, 2)])
        (expected / "fv_table.txt").write_text(report.table() + "\n", encoding="utf-8")
        for name, result in report.details.items():
            result.confusion.write_csv(expected / f"confusion_{name}.csv")
        (expected / "multiday_table.txt").write_text(multiday.table() + "\n", encoding="utf-8")
        in_process = {"fv_comparison": report.to_dict(),
                      "amplitude": {"P9": amplitude.to_dict()},
                      "multiday": multiday.to_dict()}
        (expected / "report.json").write_text(json.dumps(in_process, indent=2), encoding="utf-8")

        assert combined == in_process
        assert report.skipped == ["P3"]
        names = sorted(p.name for p in expected.iterdir())
        assert names == sorted(p.name for p in (tmp_path / "out").iterdir())
        assert {"confusion_P1.csv", "confusion_P2.csv"} <= set(names)
        for name in names:
            assert (tmp_path / "out" / name).read_bytes() == (expected / name).read_bytes(), name

    def test_unloadable_participant_is_skipped(self, tmp_path, small_noisy):
        data = tmp_path / "data"
        data.mkdir()
        save_recording(small_noisy, data / "P1.json")
        (data / "P2.json").write_text('{"version": 1,')
        with pytest.warns(UserWarning, match="skipping P2.json"):
            combined = run_all(data, tmp_path / "out")
        assert combined["fv_comparison"]["skipped"] == ["P2"]
        assert set(combined["fv_comparison"]["accuracies"]) == {"P1"}
        assert multiprocessing.active_children() == []

    def test_participant_that_loads_but_misses_a_class_raises(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        write_studies(data)
        save_recording(without_class_2_in_training(synth_session(class_count=3, seed=34)),
                       data / "P2.json")
        with pytest.raises(CoverageError, match="no training windows"):
            run_all(data, tmp_path / "out")
        assert multiprocessing.active_children() == []
        assert main(["experiments", "run-all", "--data", str(data),
                     "--out", str(tmp_path / "cli")]) == 2
        assert "error: classes [2] have no training windows" in capsys.readouterr().err
        assert multiprocessing.active_children() == []

    def test_corrupt_day_exits_2_with_the_load_message(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        write_studies(data)
        (data / "day2.json").write_text('{"version": 1, "sample_rate_hz": [')
        with pytest.raises(DataError) as raised:
            load_recording(data / "day2.json")
        assert main(["experiments", "run-all", "--data", str(data),
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {raised.value}\n"
        assert multiprocessing.active_children() == []
        # the studies before the failing one have written their files
        assert (tmp_path / "out" / "fv_table.txt").exists()
        assert not (tmp_path / "out" / "report.json").exists()

    def test_blas_runs_on_one_thread_while_the_pool_runs(self, tmp_path, monkeypatch,
                                                         blas_threads):
        data = tmp_path / "data"
        data.mkdir()
        write_studies(data)
        seen = []
        multiday = bomi.experiments._multiday_study
        monkeypatch.setattr(bomi.experiments, "_multiday_study",
                            lambda days: seen.append(blas_threads()) or multiday(days))
        run_all(data, tmp_path / "out")
        assert seen == [1]
        assert blas_threads() == 2

        (data / "day2.json").write_text("[")
        with pytest.raises(DataError):
            run_all(data, tmp_path / "again")
        assert blas_threads() == 2

    def test_a_worker_that_dies_is_a_pool_error(self, tmp_path, monkeypatch, capsys):
        data = tmp_path / "data"
        data.mkdir()
        write_studies(data)
        found = bomi.experiments._blas_threads()
        threads = found[0] if found else lambda: None
        before = threads()
        # Forked workers inherit the patched job.
        monkeypatch.setattr(bomi.experiments, "_window_job", _window_job_killed_on_day2)
        multiday = bomi.experiments._multiday_study

        def multiday_marking_day1(days):
            def marked():
                yield next(days)
                (data / "day1.read").touch()
                yield from days
            return multiday(marked())

        monkeypatch.setattr(bomi.experiments, "_multiday_study", multiday_marking_day1)
        with pytest.raises(PoolError, match="day2.json"):
            run_all(data, tmp_path / "out")
        assert multiprocessing.active_children() == []
        assert threads() == before

        (data / "day1.read").unlink()
        assert main(["experiments", "run-all", "--data", str(data),
                     "--out", str(tmp_path / "cli")]) == 4
        assert "day2.json" in capsys.readouterr().err
        assert multiprocessing.active_children() == []
        assert threads() == before

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                        reason="day1's job must run in a second worker while day2's dies")
    def test_a_pool_error_names_every_job_the_dead_worker_failed(self, tmp_path, monkeypatch):
        data = tmp_path / "data"
        data.mkdir()
        write_studies(data)
        monkeypatch.setattr(bomi.experiments, "_window_job",
                            _window_job_killed_on_day2_while_day1_runs)
        with pytest.raises(PoolError) as raised:
            run_all(data, tmp_path / "out")
        # The main process waits on day1's job, but the worker that died ran day2's.
        assert str(raised.value) == ("a worker process died; the jobs for day1.json, "
                                     "day2.json did not finish")
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("corrupt, crippled", [("day2", "day1"), ("P9_sae", "P9_mae")])
    def test_a_load_fault_wins_over_a_windowing_fault(self, tmp_path, corrupt, crippled):
        # All files of a study load before any is windowed, so a corrupt
        # file is reported even when an earlier one misses a class.
        data = tmp_path / "data"
        data.mkdir()
        sessions = write_studies(data)
        save_recording(without_class_2_in_training(sessions[crippled]), data / f"{crippled}.json")
        (data / f"{corrupt}.json").write_text("[")
        with pytest.raises(DataError) as raised:
            run_all(data, tmp_path / "out")
        assert not isinstance(raised.value, CoverageError)
        with pytest.raises(DataError) as loading:
            load_recording(data / f"{corrupt}.json")
        assert (type(raised.value), str(raised.value)) == (type(loading.value), str(loading.value))
        assert multiprocessing.active_children() == []
