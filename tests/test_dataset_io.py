import csv
import dataclasses
import itertools
import json
import math
import random
import re
import struct
import sys
import types
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import given, settings, strategies as st

from bomi.cli import main
from bomi.dataset_io import (
    CSV_HEADER,
    _loadtxt_rows,
    _parse_json,
    _read_csv_compiled,
    _read_json,
    _rec_from_dict,
    ImportMapping,
    Sequence,
    SessionRecording,
    SensorInfo,
    SplitSpec,
    angles_to_raw,
    label_runs,
    load_recording,
    protocol_issues,
    save_recording,
    split_session,
    synth_session,
    validate_recording,
)
from bomi.errors import (
    AlignmentError,
    DataError,
    ParseError,
    SchemaError,
    SplitSpecError,
    ValidationError,
)
from bomi.experiments import sequence_windows
from bomi.fusion import _kernel, fuse_sequence
from bomi.pipeline import StreamingPipeline

from oracles import (
    csv_reference_load,
    csv_reference_save,
    json_float_text,
    nearest_target_class,
    synth_reference,
)


def meta_targets(rec):
    """class -> {sensor index: target vector}, including neutral."""
    index = {sid: i for i, sid in enumerate(rec.sensor_ids)}
    out = {0: {i: np.zeros(3) for i in range(len(rec.sensor_ids))}}
    for cls, per in rec.meta["class_targets"].items():
        out[int(cls)] = {index[int(s)]: np.asarray(v) for s, v in per.items()}
    return out


HEADER = ",".join(CSV_HEADER)


def csv_row(tick, sensor, label=0, seq=1, acc_x="0.5"):
    values = [acc_x, "0.0", "1.0", "0.0", "0.0", "0.0", "0.8", "0.0", "-0.5"]
    return ",".join([str(tick), str(sensor), *values, str(label), str(seq)])


def base_lines():
    """Header on line 1, then ticks 0-2 of sensors 1 and 2 on lines 2-7."""
    return [HEADER] + [csv_row(t, s) for t in range(3) for s in (1, 2)]


def with_line(line, text):
    """base_lines with physical line ``line`` replaced by ``text``."""
    lines = base_lines()
    lines[line - 1] = text
    return lines


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_recording(actual, expected):
    assert actual.sensor_ids == expected.sensor_ids
    assert actual.class_count == expected.class_count
    assert len(actual.sequences) == len(expected.sequences)
    for sa, sb in zip(actual.sequences, expected.sequences):
        assert same_bits(sa.labels, sb.labels)
        assert sa.sensor_ids == sb.sensor_ids
        assert same_bits(sa.samples, sb.samples)


VALID_ROW = [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0]


def step_row(small_model, row):
    """Step a fresh pipeline with ``row`` for sensor 1 and a valid row for sensor 2."""
    model, _ = small_model
    return StreamingPipeline(model).step(0, {1: row, 2: list(VALID_ROW)})


class TestImuSample:
    """One IMU sample is one sensor's row at one tick: 9 real numbers, acc,
    gyro and mag xyz, as ``Sequence.tick_samples`` gives them and
    ``StreamingPipeline.step`` checks them."""

    def test_valid(self, small_model):
        assert step_row(small_model, [0, 0, 1, 0, 0, 0, 1, 0, 0]) is None

    def test_sensor_id_out_of_range(self, small_noisy):
        for sensor_id in (0, 7):
            layout = [SensorInfo(sensor_id), *small_noisy.sensor_layout[1:]]
            seqs = [Sequence((sensor_id, 2), seq.samples, seq.labels)
                    for seq in small_noisy.sequences]
            rec = SessionRecording(60.0, small_noisy.class_count, layout, seqs)
            with pytest.raises(ValidationError, match=f"sensor id {sensor_id} outside"):
                validate_recording(rec, protocol="none")

    def test_non_finite_component(self, small_model):
        row = np.array(VALID_ROW)
        row[2] = np.nan
        with pytest.raises(ValidationError, match="sensor 1 at tick 0"):
            step_row(small_model, row)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("position", range(9))
    def test_each_position_rejects_non_finite(self, small_model, position, bad):
        values = list(VALID_ROW)
        values[position] = bad
        with pytest.raises(ValidationError, match="sensor 1 at tick 0"):
            step_row(small_model, values)

    @pytest.mark.parametrize("vector", range(3))
    def test_two_element_vector_rejected(self, small_model, vector):
        # One of the three vectors cut to two values: a row of 8.
        values = list(VALID_ROW)
        del values[3 * vector + 2]
        with pytest.raises(ValidationError, match="expected 9 finite numbers"):
            step_row(small_model, values)

    def test_tick_samples_gives_python_floats_equal_to_the_row(self):
        rows = np.random.default_rng(4).normal(size=(5, 3, 9))
        seq = Sequence(sensor_ids=(3, 1, 2), samples=rows, labels=np.zeros(5, dtype=int))
        for tick in range(5):
            samples = seq.tick_samples(tick)
            assert list(samples) == [3, 1, 2]  # layout order, not id order
            for j, sid in enumerate((3, 1, 2)):
                assert all(type(v) is float for v in samples[sid])
                assert np.array(samples[sid]).tobytes() == rows[tick, j].tobytes()
        # A fresh dict each call: popping a sensor leaves the sequence whole.
        seq.tick_samples(0).pop(2)
        assert list(seq.tick_samples(0)) == [3, 1, 2]


class TestSynth:
    def test_deterministic_for_fixed_seed(self):
        a = synth_session(class_count=3, sensor_count=1, seed=5)
        b = synth_session(class_count=3, sensor_count=1, seed=5)
        assert a.meta == b.meta
        for sa, sb in zip(a.sequences, b.sequences):
            assert (sa.labels == sb.labels).all()
            assert (sa.samples == sb.samples).all()

    def test_different_seed_differs(self):
        a = synth_session(class_count=3, sensor_count=1, seed=5)
        b = synth_session(class_count=3, sensor_count=1, seed=6)
        assert not (a.sequences[0].samples[:, 0] == b.sequences[0].samples[:, 0]).all()

    def test_label_runs_are_five_seconds(self, synth9):
        for seq in synth9.sequences:
            for cls, start, end in label_runs(seq.labels):
                assert end - start == 300  # 5 s at 60 Hz

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 500])
    def test_label_runs_match_per_tick_loop(self, n):
        def loop_runs(labels):
            runs, start = [], 0
            for t in range(1, len(labels)):
                if labels[t] != labels[start]:
                    runs.append((int(labels[start]), start, t))
                    start = t
            return runs + [(int(labels[start]), start, len(labels))] if len(labels) else runs

        rng = np.random.default_rng(n)
        for high in (1, 2, 5):
            labels = rng.integers(0, high, size=n)
            # Runs of random length too, not only single ticks.
            labels = np.repeat(labels, rng.integers(1, 4, size=n))
            runs = label_runs(labels)
            assert runs == loop_runs(labels)
            assert all(type(v) is int for run in runs for v in run)

    def test_declared_length_matches(self, synth9):
        # lead-in plus (motion + neutral) per repetition of each class
        expected = 300 + (synth9.class_count - 1) * 3 * 600
        assert synth9.meta["ticks_per_sequence"] == expected
        for seq in synth9.sequences:
            assert seq.n_ticks == expected

    def test_class_count_limits(self):
        with pytest.raises(ValidationError):
            synth_session(class_count=12)
        with pytest.raises(ValidationError):
            synth_session(class_count=1)

    def test_negative_noise_rejected(self):
        with pytest.raises(ValidationError):
            synth_session(noise_deg=-1.0)

    def test_noiseless_hits_targets_exactly(self, small_noiseless):
        rec = small_noiseless
        seq = rec.sequences[0]
        fused = fuse_sequence(seq.samples, rec.sample_rate_hz)
        targets = rec.meta["class_targets"]
        for cls, start, end in label_runs(seq.labels):
            mid = fused.angles[start + 40:end - 40, 0, :]
            want = np.asarray(targets[str(cls)]["1"]) if cls else np.zeros(3)
            assert np.abs(mid - want).max() < 1e-9

    def test_noiseless_windows_nearest_mean_separable(self, small_noiseless):
        # downstream smoke oracle: every single-label window sits closest
        # to its own class target
        rec = small_noiseless
        targets = meta_targets(rec)
        for seq in rec.sequences[:1]:
            for w in sequence_windows(rec, seq):
                if w.label is None:
                    continue
                means = {si: w.angles[:, si, :].mean(axis=0) for si in range(1)}
                assert nearest_target_class(means, targets) == w.label

    def test_spasm_bounded_by_amplitude(self):
        rec = synth_session(
            class_count=3, sensor_count=1, noise_deg=0.0,
            spasm_deg=10.0, spasm_class=1, seed=8,
        )
        seq = rec.sequences[0]
        fused = fuse_sequence(seq.samples, rec.sample_rate_hz)
        target = np.asarray(rec.meta["class_targets"]["1"]["1"])
        moved = 0.0
        for cls, start, end in label_runs(seq.labels):
            if cls != 1:
                continue
            mid = fused.angles[start + 40:end - 40, 0, :]
            dev = np.abs(mid - target).max()
            assert dev <= 10.0 + 1e-6
            moved = max(moved, dev)
        assert moved > 1.0  # the modulation actually happened

    def test_amplitude_factors_scale_repetitions(self):
        rec = synth_session(
            class_count=3, sensor_count=1, noise_deg=0.0,
            amplitudes=(0.5, 1.0, 1.5), seed=2,
        )
        seq = rec.sequences[0]
        fused = fuse_sequence(seq.samples, rec.sample_rate_hz)
        target = np.linalg.norm(rec.meta["class_targets"]["1"]["1"])
        runs = [r for r in label_runs(seq.labels) if r[0] == 1]
        norms = [
            np.linalg.norm(fused.angles[s + 100:e - 100, 0, :], axis=1).mean()
            for _, s, e in runs
        ]
        assert norms == pytest.approx(
            [0.5 * target, 1.0 * target, 1.5 * target], abs=1e-6
        )

    def test_shuffled_test_sequence_keeps_counts(self):
        rec = synth_session(class_count=5, seed=4, shuffle_test_seq=True)
        ordered = [c for c, _, _ in label_runs(rec.sequences[0].labels) if c != 0]
        shuffled = [c for c, _, _ in label_runs(rec.sequences[-1].labels) if c != 0]
        assert sorted(ordered) == sorted(shuffled)
        assert ordered != shuffled


# One session per synth branch: rotation, bias with and without
# rotation_seed, negative and zero class_scale, 1 and 6 sensors, a spasm on
# class 8 and on a zero target, shuffle, transition_s=0 and short runs.
SYNTH_CASES = [
    dict(),
    dict(seed=1),
    dict(class_count=9, sensor_count=1, target_rotation_deg=8.0, seed=2),
    dict(class_count=9, sensor_count=2, spasm_deg=10.0, spasm_class=8,
         target_rotation_deg=6.0, seed=3),
    dict(class_count=9, sensor_count=6, noise_deg=1.0, seed=4),
    dict(class_count=6, sensor_count=2, spasm_deg=10.0, spasm_class=1,
         class_scale={1: 0.55}, seed=5),
    dict(class_scale={3: -0.5, 7: 2.0}, seed=6),
    dict(amplitude_deg=12.0, noise_deg=1.0, target_bias_deg=3.0, rotation_seed=321,
         shuffle_test_seq=True, seed=13),
    dict(target_rotation_deg=5.0, target_bias_deg=2.0, seed=7),
    dict(sensor_count=1, target_bias_deg=1.5, rotation_seed=11, seed=8),
    dict(class_count=4, transition_s=0.0, seed=9),
    dict(motion_s=1.0, transition_s=0.25, n_sequences=1, sensor_count=6,
         class_scale={2: -1.0}, seed=10),
    dict(class_count=7, amplitudes=np.array([0.4, 1.0, 1.6]), spasm_deg=5.0, spasm_class=6,
         seed=11),
    dict(class_count=3, sensor_count=2, noise_deg=0.0, shuffle_test_seq=True,
         n_sequences=2, seed=12),
    dict(class_scale={1: 0.0}, spasm_deg=8.0, spasm_class=1, seed=14),
]


class TestSynthAgainstReference:
    """``synth_session`` against the per-class, per-sensor, per-tick
    reference in ``oracles.synth_reference``, bit for bit."""

    @pytest.mark.parametrize("kwargs", SYNTH_CASES)
    def test_labels_blocks_and_meta_are_the_reference_bits(self, kwargs):
        rec = synth_session(**kwargs)
        sequences, meta = synth_reference(**kwargs)
        assert len(rec.sequences) == len(sequences)
        for seq, (labels, samples) in zip(rec.sequences, sequences):
            assert seq.labels.dtype == labels.dtype
            assert seq.labels.tobytes() == labels.tobytes()
            assert list(seq.sensor_ids) == list(samples)
            assert seq.samples.dtype == np.float64 and seq.samples.flags.c_contiguous
            for block, want in zip(seq.samples.swapaxes(0, 1), samples.values()):
                assert block.shape == want.shape
                assert block.tobytes() == want.tobytes()
        # repr tells -0.0 from 0.0 and keeps the key order the JSON file keeps.
        assert repr(rec.meta) == repr(meta)


class TestSynthArguments:
    @pytest.mark.parametrize("kwargs, message", [
        (dict(class_count=3, spasm_deg=5.0, spasm_class=0),
         "spasm_class 0 names no motion class in [1, 2]"),
        (dict(spasm_class=12), "spasm_class 12 names no motion class in [1, 8]"),
        (dict(spasm_class=1.5), "spasm_class 1.5 names no motion class in [1, 8]"),
        (dict(class_scale={12: 0.5}), "class_scale entry 12:0.5 names no motion class in [1, 8]"),
        (dict(class_scale={0: 0.5}), "class_scale entry 0:0.5 names no motion class in [1, 8]"),
        (dict(class_scale={1: math.nan}), "class_scale[1] must be a finite number, got nan"),
        (dict(noise_deg=math.nan), "noise_deg must be a finite number >= 0, got nan"),
        (dict(noise_deg=-1.0), "noise_deg must be a finite number >= 0, got -1.0"),
        (dict(spasm_deg=math.inf), "spasm_deg must be a finite number >= 0, got inf"),
        (dict(spasm_deg=-2.0), "spasm_deg must be a finite number >= 0, got -2.0"),
        (dict(amplitude_deg=math.nan), "amplitude_deg must be a finite number, got nan"),
        (dict(amplitudes=(1.0, math.inf, 1.0)), "amplitudes[1] must be a finite number, got inf"),
        (dict(target_rotation_deg=math.nan), "target_rotation_deg must be a finite number, got nan"),
        (dict(target_bias_deg=-math.inf), "target_bias_deg must be a finite number, got -inf"),
        (dict(motion_s=math.nan), "motion_s must be a finite number >= 0, got nan"),
        (dict(transition_s=-0.5), "transition_s must be a finite number >= 0, got -0.5"),
        (dict(noise_deg=True), "noise_deg must be a finite number >= 0, got True"),
        (dict(class_count=3.5), "class_count must be an integer in [2, 9]"),
        (dict(sensor_count=2.5), "sensor_count must be an integer in [1, 6], got 2.5"),
        (dict(n_sequences=math.nan), "n_sequences must be an integer >= 1, got nan"),
        (dict(seed=-1), "seed and rotation_seed must be integers >= 0, got -1 and None"),
        (dict(target_bias_deg=1.0, rotation_seed=2.5),
         "seed and rotation_seed must be integers >= 0, got 0 and 2.5"),
    ])
    def test_fault_names_the_argument_and_its_value(self, kwargs, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            synth_session(**kwargs)


class TestRoundTrip:
    def test_json_identity(self, small_noisy, tmp_path):
        path = tmp_path / "rec.json"
        save_recording(small_noisy, path)
        back = load_recording(path, validate="none")
        assert back.sample_rate_hz == small_noisy.sample_rate_hz
        assert back.class_count == small_noisy.class_count
        assert back.sensor_layout == small_noisy.sensor_layout
        assert back.meta == small_noisy.meta
        for sa, sb in zip(back.sequences, small_noisy.sequences):
            assert (sa.labels == sb.labels).all()
            assert sa.sensor_ids == sb.sensor_ids
            assert (sa.samples == sb.samples).all()

    def test_csv_value_round_trip(self, small_noisy, tmp_path):
        path = tmp_path / "rec.csv"
        save_recording(small_noisy, path)
        back = load_recording(path, validate="none")
        assert back.sample_rate_hz == small_noisy.sample_rate_hz
        assert_same_recording(back, small_noisy)

    def test_csv_line_count_matches_declared_length(self, small_noisy, tmp_path):
        path = tmp_path / "rec.csv"
        save_recording(small_noisy, path)
        lines = path.read_text().splitlines()
        ticks = small_noisy.meta["ticks_per_sequence"]
        sensors = len(small_noisy.sensor_layout)
        assert len(lines) == 1 + 3 * ticks * sensors

    def test_empty_sequences_rejected(self, tmp_path):
        rec = SessionRecording(60.0, 3, [SensorInfo(1)], [])
        with pytest.raises(ValidationError):
            save_recording(rec, tmp_path / "x.json")

    def test_nine_class_csv_schema_round_trip(self, tmp_path):
        rec = synth_session(
            class_count=9, sensor_count=3, seed=6,
            motion_s=1.0, transition_s=0.25,
        )
        path = tmp_path / "nine.csv"
        save_recording(rec, path)
        back = load_recording(path, validate="none")
        assert back.class_count == 9
        assert len(back.sequences) == 3
        assert back.sensor_ids == (1, 2, 3)


def layout_312_recording():
    """Two sequences of random samples under a layout that lists sensors 3, 1, 2."""
    rng = np.random.default_rng(31)
    ids = (3, 1, 2)
    sequences = [Sequence(ids, rng.normal(size=(n, 3, 9)), np.arange(n) % 3) for n in (7, 5)]
    return SessionRecording(60.0, 3, [SensorInfo(sid, f"s{sid}") for sid in ids], sequences)


class TestLayoutOrder:
    """A layout need not list its sensors in id order: the array follows the
    layout, and both files keep sensors in id order."""

    def test_json_round_trips_in_layout_order(self, tmp_path):
        rec = layout_312_recording()
        path = tmp_path / "rec.json"
        save_recording(rec, path)
        back = load_recording(path, validate="none")
        assert back.sensor_ids == (3, 1, 2)
        assert_same_recording(back, rec)
        sensors = json.loads(path.read_text(encoding="utf-8"))["sequences"][0]["sensors"]
        assert list(sensors) == ["1", "2", "3"]
        assert same_bits(back.sequences[0].samples[:, 0], np.array(sensors["3"]))

    def test_csv_round_trips_each_sensor_bit_for_bit(self, tmp_path):
        rec = layout_312_recording()
        path = tmp_path / "rec.csv"
        save_recording(rec, path)
        _, rows = csv_lines(path)
        assert [row.split(",")[1] for row in rows[:6]] == ["1", "2", "3"] * 2
        back = load_recording(path, validate="none")
        assert back.sensor_ids == (1, 2, 3)  # a CSV holds no layout
        for sa, sb in zip(back.sequences, rec.sequences):
            assert same_bits(sa.labels, sb.labels)
            for j, sid in enumerate(sb.sensor_ids):
                assert same_bits(sa.samples[:, back.sensor_ids.index(sid)], sb.samples[:, j])


class TestLoadErrors:
    def test_missing_sensor_at_tick(self, small_noisy, tmp_path):
        path = tmp_path / "rec.csv"
        save_recording(small_noisy, path)
        lines = path.read_text().splitlines()
        # drop one data row for sensor 2
        victim = next(
            i for i, line in enumerate(lines[1:], start=1)
            if line.split(",")[1] == "2"
        )
        path.write_text("\n".join(lines[:victim] + lines[victim + 1:]) + "\n")
        with pytest.raises(AlignmentError):
            load_recording(path, validate="none")

    def test_malformed_row_reports_line(self, small_noisy, tmp_path):
        path = tmp_path / "rec.csv"
        save_recording(small_noisy, path)
        lines = path.read_text().splitlines()
        lines[5] = lines[5].replace(",", ",junk", 1)  # file line 6
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            load_recording(path, validate="none")
        assert err.value.line == 6

    def test_unknown_label_rejected(self, small_noisy, tmp_path):
        path = tmp_path / "rec.json"
        save_recording(small_noisy, path)
        obj = json.loads(path.read_text())
        obj["sequences"][0]["labels"][0] = 99
        path.write_text(json.dumps(obj))
        with pytest.raises(SchemaError):
            load_recording(path, validate="none")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_recording(path)

    def test_unknown_format(self, tmp_path):
        with pytest.raises(SchemaError, match=r"expected \.json or \.csv"):
            load_recording(tmp_path / "rec.xyz")


class TestImportMapping:
    def test_column_rename_and_scale(self, small_noisy, tmp_path):
        path = tmp_path / "rec.csv"
        save_recording(small_noisy, path)
        text = path.read_text().replace(
            "tick,sensor_id,acc_x", "sample,node,ax", 1
        )
        foreign = tmp_path / "foreign.csv"
        foreign.write_text(text)
        cfg = tmp_path / "mapping.cfg"
        cfg.write_text(
            "column.tick=sample\ncolumn.sensor_id=node\ncolumn.acc_x=ax\n"
            "scale.gyro=0.5\n"
        )
        mapping = ImportMapping.from_file(cfg)
        rec = load_recording(foreign, mapping=mapping, validate="none")
        orig = small_noisy.sequences[0].samples[:, 0]
        assert np.allclose(rec.sequences[0].samples[:, 0, 3:6], 0.5 * orig[:, 3:6])
        assert np.allclose(rec.sequences[0].samples[:, 0, 0:3], orig[:, 0:3])

    def test_angles_mode_resynthesizes_raw(self, tmp_path):
        rows = ["tick,sensor_id,pitch,roll,yaw,label,sequence"]
        t_axis = np.arange(200)
        pitch = 10.0 * np.sin(t_axis / 40.0)
        for t in t_axis:
            # The last tick carries class 1, so the file holds two classes.
            rows.append(f"{t},1,{float(pitch[t])!r},0.0,25.0,{int(t == 199)},1")
        path = tmp_path / "angles.csv"
        path.write_text("\n".join(rows) + "\n")
        # without the angles-mode mapping the canonical columns are missing
        with pytest.raises(SchemaError):
            load_recording(path, validate="none")
        mapping = ImportMapping(mode="angles")
        rec = load_recording(path, mapping=mapping, validate="none")
        assert rec.class_count == 2
        fused = fuse_sequence(rec.sequences[0].samples, 60.0)
        assert np.abs(fused.angles[:, 0, 0] - (pitch - pitch[:60].mean())).max() < 0.2

    def test_unknown_mapping_key(self, tmp_path):
        cfg = tmp_path / "mapping.cfg"
        cfg.write_text("colour.tick=sample\n")
        with pytest.raises(ParseError):
            ImportMapping.from_file(cfg)


# (physical lines of the file, error type, its physical line or None, message part)
CSV_FAULTS = [
    pytest.param(with_line(4, csv_row(1, 1, acc_x="abc")), ParseError, 4, "'abc'",
                 id="non-numeric"),
    pytest.param(with_line(5, ",".join(csv_row(1, 2).split(",")[:5])), ParseError, 5,
                 "expected 13 fields, got 5", id="short-row"),
    pytest.param([HEADER], ParseError, 2, "no data rows", id="header-only"),
    pytest.param([], ParseError, 1, "empty CSV file", id="empty-file"),
    pytest.param([HEADER.replace(",mag_z", "")]
                 + [line.replace(",-0.5,", ",") for line in base_lines()[1:]],
                 SchemaError, None, "'mag_z'", id="missing-column"),
    pytest.param(base_lines()[:5] + [csv_row(3, 1), csv_row(3, 2)], AlignmentError, None,
                 "sequence 1: ticks are not consecutive from 0", id="non-consecutive-ticks"),
    pytest.param(base_lines()[:4] + base_lines()[5:], AlignmentError, None,
                 "sequence 1 tick 1: missing sensors [2]", id="missing-sensor"),
    pytest.param(with_line(5, csv_row(1, 2, label=1)), ParseError, 5,
                 "conflicting labels 0 and 1 for tick 1", id="conflicting-labels"),
    pytest.param(base_lines() + [csv_row(1, 1, acc_x="0.25")], AlignmentError, None,
                 "line 8: duplicate row for sequence 1 tick 1 sensor 1", id="duplicate-row"),
    pytest.param(base_lines() + [csv_row(1, 1, label=2)], ParseError, 8,
                 "conflicting labels 0 and 2 for tick 1", id="duplicate-with-other-label"),
    pytest.param(base_lines()[:4] + [""] + base_lines()[4:6] + [csv_row(2, 2, acc_x="x")],
                 ParseError, 8, "'x'", id="bad-row-after-blank-line"),
    pytest.param(with_line(3, csv_row(0, 2, label="99999999999999999999")), ParseError, 3,
                 "int64", id="label-past-int64"),
    pytest.param(with_line(6, csv_row(2, 1, acc_x="1_0")), ParseError, 6, "'1_0'",
                 id="underscore-grouping"),
]


class TestCsvFaults:
    @pytest.mark.parametrize("lines, error, line, message", CSV_FAULTS)
    def test_typed_error_at_physical_line(self, tmp_path, lines, error, line, message):
        path = write_lines(tmp_path / "rec.csv", lines)
        with pytest.raises(error) as err:
            load_recording(path, validate="none")
        assert type(err.value) is error
        assert getattr(err.value, "line", None) == line
        assert message in str(err.value)

    @pytest.mark.parametrize("lines, error, line, message", CSV_FAULTS)
    def test_cli_train_exits_2(self, tmp_path, capsys, lines, error, line, message):
        path = write_lines(tmp_path / "rec.csv", lines)
        assert main(["train", "--recording", str(path), "--out", str(tmp_path / "m.json")]) == 2
        assert message in capsys.readouterr().err

    def test_text_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "rec.csv"
        lines = base_lines()
        path.write_bytes(("\n".join(lines[:3]) + "\n").encode() + b"0,1,\xff\xfe\n")
        with pytest.raises(ParseError):
            load_recording(path, validate="none")
        assert main(["train", "--recording", str(path), "--out", str(tmp_path / "m.json")]) == 2


def json_recording():
    """A two-sensor, three-tick recording as the JSON object the loader reads."""
    row = [0.5, 0.0, 1.0, 0.0, 0.0, 0.0, 0.8, 0.0, -0.5]
    return {
        "sample_rate_hz": 60.0,
        "class_count": 3,
        "sensor_layout": [{"id": 1, "location": "a"}, {"id": 2, "location": "b"}],
        "sequences": [{"labels": [0, 1, 2], "sensors": {"1": [row] * 3, "2": [row] * 3}}],
        "meta": {},
    }


JSON_ROWS = json_recording()["sequences"][0]["sensors"]["1"]


# (path of the field in the JSON object, value written there, message part).
# Integer fields must be JSON integers: a fraction was truncated before.
JSON_FAULTS = [
    pytest.param(("sequences", 0, "labels", 1), 1.9, "sequence 1 labels must be integers, got 1.9",
                 id="label-fraction"),
    pytest.param(("sequences", 0, "labels", 2), 2.0, "sequence 1 labels must be integers, got 2.0",
                 id="label-integral-float"),
    pytest.param(("sequences", 0, "labels", 0), False,
                 "sequence 1 labels must be integers, got False", id="label-bool"),
    pytest.param(("class_count",), 3.8, "class_count must be an integer, got 3.8",
                 id="class-count-fraction"),
    pytest.param(("class_count",), True, "class_count must be an integer, got True",
                 id="class-count-bool"),
    pytest.param(("sensor_layout", 0, "id"), 1.7, "sensor_layout id must be an integer, got 1.7",
                 id="sensor-id-fraction"),
    pytest.param(("sensor_layout", 1, "id"), "2", "sensor_layout id must be an integer, got '2'",
                 id="sensor-id-string"),
    # Sensor keys must spell the id in canonical decimal: int() took these as 2.
    pytest.param(("sequences", 0, "sensors"), {"1": JSON_ROWS, "+0_2": JSON_ROWS},
                 # A message part is also a regex, so it starts after the "+".
                 "0_2' is not a decimal sensor id",
                 id="sensor-key-sign-underscore"),
    pytest.param(("sequences", 0, "sensors"), {"1": JSON_ROWS, " 2": JSON_ROWS},
                 "sequence 1 sensor key ' 2' is not a decimal sensor id", id="sensor-key-space"),
    pytest.param(("sequences", 0, "sensors"), [],
                 "malformed recording JSON: 'list' object has no attribute 'items'",
                 id="sensors-not-an-object"),
    # The rate must be a JSON number: float() took true as 1.0 and "60" as 60.0.
    pytest.param(("sample_rate_hz",), True, "sample_rate_hz must be a number, got True",
                 id="rate-bool"),
    pytest.param(("sample_rate_hz",), "60", "sample_rate_hz must be a number, got '60'",
                 id="rate-string"),
    # orjson reads an integer past 64 bits as a float.
    pytest.param(("sequences", 0, "labels", 1), 2**64,
                 "sequence 1 labels must be integers, got 1.8446744073709552e", id="label-2-64"),
    # orjson reads one in [2**63, 2**64) as an int that int64 cannot hold.
    pytest.param(("sequences", 0, "labels", 1), 2**63,
                 "sequence 1 labels must fit in 64 bits, got 9223372036854775808",
                 id="label-2-63"),
    # meta must be an object: a null meta loaded and failed in `bomi train`.
    pytest.param(("meta",), None, "meta must be a JSON object, got None", id="meta-null"),
    # A message part is also a regex, so it ends before the bracket.
    pytest.param(("meta",), [1], "meta must be a JSON object, got ", id="meta-list"),
    # A sample must be a JSON number: float() took true as 1.0 and "1.5" as 1.5.
    pytest.param(("sequences", 0, "sensors", "2", 1), [*JSON_ROWS[0][:4], True, *JSON_ROWS[0][5:]],
                 "sequence 1 sensor 2 samples must be numbers, got True", id="sample-bool"),
    pytest.param(("sequences", 0, "sensors", "2", 1), [*JSON_ROWS[0][:8], "1.5"],
                 "sequence 1 sensor 2 samples must be numbers, got '1.5'", id="sample-string"),
]


class TestJsonFaults:
    def write(self, tmp_path, field=None, value=None):
        obj = json_recording()
        if field is not None:
            *path, key = field
            target = obj
            for i in path:
                target = target[i]
            target[key] = value
        path = tmp_path / "rec.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        return path

    def test_unfaulted_recording_loads(self, tmp_path):
        rec = load_recording(self.write(tmp_path), validate="none")
        assert rec.class_count == 3
        assert rec.sensor_ids == (1, 2)
        assert rec.sequences[0].labels.tolist() == [0, 1, 2]

    def test_sensor_keys_other_than_the_layout_are_an_alignment_error(self, tmp_path):
        path = self.write(tmp_path, ("sequences", 0, "sensors"), {"1": JSON_ROWS, "3": JSON_ROWS})
        with pytest.raises(AlignmentError, match=re.escape(
                "sequence 1: sensors [1, 3] do not match layout [1, 2]")):
            load_recording(path, validate="none")

    def test_a_block_of_the_wrong_length_is_an_alignment_error(self, tmp_path):
        path = self.write(tmp_path, ("sequences", 0, "sensors", "2"), JSON_ROWS[:2])
        with pytest.raises(AlignmentError, match=re.escape(
                "sequence 1 sensor 2: shape (2, 9), expected (3, 9)")):
            load_recording(path, validate="none")

    @pytest.mark.parametrize("field, value, message", JSON_FAULTS)
    def test_schema_error_names_the_field(self, tmp_path, field, value, message):
        with pytest.raises(SchemaError, match=message):
            load_recording(self.write(tmp_path, field, value), validate="none")

    @pytest.mark.parametrize("field, value, message", JSON_FAULTS)
    def test_cli_train_exits_2(self, tmp_path, capsys, field, value, message):
        path = self.write(tmp_path, field, value)
        assert main(["train", "--recording", str(path), "--out", str(tmp_path / "m.json")]) == 2
        assert message in capsys.readouterr().err


# int() failed on these with a ValueError or an AttributeError (exit 1).
@pytest.mark.filterwarnings("ignore:sequence 1 deviates from protocol")
@pytest.mark.parametrize("class_sensors", [{"a": "b"}, {"1": 1.5}, [1, 2], "1:1"],
                         ids=["letters", "fraction", "list", "string"])
def test_malformed_class_sensors_exits_2(tmp_path, capsys, class_sensors):
    obj = json_recording()
    obj["meta"] = {"class_sensors": class_sensors}
    path, out = tmp_path / "rec.json", tmp_path / "m.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["train", "--recording", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "meta.class_sensors must map class numbers to sensor ids" in err
    assert "Traceback" not in err and not out.exists()


def stdlib_json(rec):
    """``rec`` as json.dumps wrote it before orjson: lists, ", " and ": "."""
    return json.dumps({
        "sample_rate_hz": rec.sample_rate_hz,
        "class_count": rec.class_count,
        "sensor_layout": [{"id": s.id, "location": s.location} for s in rec.sensor_layout],
        "sequences": [{"labels": seq.labels.tolist(),
                       "sensors": {str(sid): seq.samples[:, seq.sensor_ids.index(sid)].tolist()
                                   for sid in sorted(seq.sensor_ids)}}
                      for seq in rec.sequences],
        "meta": rec.meta,
    })


def block_recording(samples, meta=None):
    """One sequence holding the (T, S, 9) ``samples`` as sensors 1, 2, ...,
    labels 0, 1, 0, ..."""
    ids = tuple(range(1, samples.shape[1] + 1))
    return SessionRecording(
        60.0, 2, [SensorInfo(i, f"s{i}") for i in ids],
        [Sequence(ids, samples, np.arange(len(samples)) % 2)],
        meta={} if meta is None else meta,
    )


# Floats whose spelling differs between orjson and repr (1e-7 against
# 1e-07, 0.000015 against 1.5e-05, 1e16 against 1e+16), the extremes and a
# signed zero.
EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-7, 1.5e-5, 1e16,
               1e22, 1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3]
FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)


@st.composite
def sample_blocks(draw):
    """A (T, S, 9) float64 array, T in [1, 12] and S in [1, 3]."""
    n = draw(st.integers(1, 12))
    rows = st.lists(st.lists(FINITE, min_size=9, max_size=9), min_size=n, max_size=n)
    blocks = [np.array(draw(rows), dtype=np.float64) for _ in range(draw(st.integers(1, 3)))]
    return np.stack(blocks, axis=1)


BAD_META = [
    pytest.param({"x": float("nan")}, "meta holds a non-finite number nan", id="nan"),
    pytest.param({"x": [1.0, float("-inf")]}, "meta holds a non-finite number -inf",
                 id="inf-in-list"),
    pytest.param({1: "a"}, "meta key 1 is not a string", id="int-key"),
    pytest.param({"x": {(1, 2): 0}}, "meta key (1, 2) is not a string", id="nested-tuple-key"),
    pytest.param({"x": {1, 2}}, "meta holds a set, which is not JSON data", id="set"),
    pytest.param({"x": np.arange(3)}, "meta holds a ndarray, which is not JSON data",
                 id="ndarray"),
    pytest.param({"x": 2**64}, "meta integer 18446744073709551616 does not fit in 64 bits",
                 id="int-past-64-bits"),
]


class TestJsonCodec:
    """Recording JSON is written by orjson and read by orjson, with
    json.loads reading only what orjson rejects."""

    @given(blocks=sample_blocks())
    @settings(max_examples=60)
    def test_blocks_load_bit_identical_from_both_writers(self, tmp_path_factory, blocks):
        rec = block_recording(blocks)
        work = tmp_path_factory.mktemp("codec")
        ours, stdlib = work / "orjson.json", work / "stdlib.json"
        save_recording(rec, ours)
        stdlib.write_text(stdlib_json(rec), encoding="utf-8")
        for path in (ours, stdlib):
            assert_same_recording(load_recording(path, validate="none"), rec)

    def test_saved_file_is_compact_and_stdlib_reads_the_same_values(self, small_noisy,
                                                                    tmp_path):
        path = tmp_path / "rec.json"
        save_recording(small_noisy, path)
        text = path.read_text(encoding="utf-8")
        assert text.startswith('{"sample_rate_hz":60.0,"class_count":3,"sensor_layout":[{"id":1,')
        assert json.loads(text) == json.loads(stdlib_json(small_noisy))

    def test_any_block_layout_and_dtype_saves_as_float64(self, tmp_path):
        samples = np.random.default_rng(2).normal(size=(6, 2, 9))
        path = tmp_path / "rec.json"
        for given in (np.asfortranarray(samples), samples.astype(np.float32)):
            save_recording(block_recording(given), path)
            back = load_recording(path, validate="none").sequences[0].samples
            assert back.flags.c_contiguous
            assert same_bits(back, given.astype(np.float64))

    def test_json_meta_round_trips(self, tmp_path):
        meta = {"a": (1, 2), "b": [None, True, -0.0, 1e-7, "x"], "c": {"d": 2**63}}
        path = tmp_path / "rec.json"
        save_recording(block_recording(np.zeros((2, 1, 9)), meta), path)
        back = load_recording(path, validate="none").meta
        assert back == {"a": [1, 2], "b": [None, True, -0.0, 1e-7, "x"], "c": {"d": 2**63}}
        assert math.copysign(1.0, back["b"][2]) == -1.0

    @pytest.mark.parametrize("meta, message", BAD_META)
    def test_save_refuses_meta_that_would_not_load_back(self, tmp_path, meta, message):
        path = tmp_path / "rec.json"
        with pytest.raises(ValidationError, match=re.escape(message)):
            save_recording(block_recording(np.zeros((2, 1, 9)), meta), path)
        assert not path.exists()

    @pytest.mark.parametrize("labels", [[0.0, np.nan], [0.0, 1.5], [False, True]],
                             ids=["nan", "fraction", "bool"])
    def test_save_refuses_labels_that_are_not_integers(self, tmp_path, labels):
        rec = block_recording(np.zeros((2, 1, 9)))
        rec.sequences[0].labels = np.array(labels)
        path = tmp_path / "rec.json"
        with pytest.raises(SchemaError, match="sequence 1: labels must be integers, got dtype"):
            save_recording(rec, path)
        assert not path.exists()

    def test_nan_literal_is_read_then_rejected(self, tmp_path):
        obj = json_recording()
        obj["sequences"][0]["sensors"]["2"] = [[float("nan")] * 9] * 3
        path = tmp_path / "rec.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        assert "NaN" in path.read_text(encoding="utf-8")
        with pytest.raises(ValidationError, match="sequence 1 sensor 2: non-finite samples"):
            load_recording(path, validate="none")

    def test_lone_surrogate_is_read_as_before(self, tmp_path):
        obj = json_recording()
        obj["sensor_layout"][0]["location"] = "\ud800"
        path = tmp_path / "rec.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        assert load_recording(path, validate="none").sensor_layout[0].location == "\ud800"

    def test_byte_order_mark_is_a_parse_error(self, tmp_path):
        path = tmp_path / "rec.json"
        path.write_bytes(b"\xef\xbb\xbf" + json.dumps(json_recording()).encode())
        with pytest.raises(ParseError, match="BOM"):
            load_recording(path, validate="none")

    def test_brackets_and_escapes_in_strings_do_not_nest(self, tmp_path):
        obj = json_recording()
        obj["meta"] = {"open": '\\"[' * 2500, "close": "]" * 2500 + "\\"}
        path = tmp_path / "rec.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        assert load_recording(path, validate="none").meta == obj["meta"]

    def test_recursion_in_the_stdlib_route_is_a_parse_error(self, tmp_path):
        # orjson rejects the NaN, so json.loads parses 500 levels under a
        # recursion limit 100 frames above this one.
        path = tmp_path / "deep.json"
        path.write_text('{"meta": ' + "[" * 500 + "NaN" + "]" * 500 + "}", encoding="utf-8")
        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 100)
        try:
            with pytest.raises(ParseError, match="JSON nested deeper than the recursion limit"):
                load_recording(path, validate="none")
        finally:
            sys.setrecursionlimit(limit)


def number_spellings():
    """JSON number tokens: decimal and exponent forms of 1-25 significant
    digits with leading and trailing zeros, ``E``/``e+``/``e-`` exponents
    with leading zeros, integers (``-0`` and past 2**64 among them),
    subnormals, the largest doubles, underflow to zero and the spellings
    of random doubles; none overflows."""
    digits = st.text("0123456789", min_size=1, max_size=25)
    sign = st.sampled_from(["", "-"])
    exponents = st.builds("{}{}{:0{}d}".format, st.sampled_from(["e", "E"]),
                          st.sampled_from(["", "+", "-"]), st.integers(0, 340), st.integers(1, 4))

    def exponent(draw, whole_digits: int) -> str:
        # Overflow is orjson's refusal, which the refusal table covers.
        exp = draw(exponents)
        return "e0" if exp[1:2] != "-" and whole_digits + int(exp.lstrip("eE+-")) > 308 else exp

    @st.composite
    def decimal(draw):
        d = draw(digits)
        point = draw(st.integers(0, len(d)))
        whole = d[:point].lstrip("0") or "0"
        frac = d[point:] + "0" * draw(st.integers(0, 3))
        text = draw(sign) + whole + ("." + frac if frac else "")
        return text + (exponent(draw, len(whole)) if draw(st.booleans()) else "")

    @st.composite
    def scientific(draw):
        d = draw(digits).lstrip("0") or "0"
        return draw(sign) + d[0] + ("." + d[1:] if len(d) > 1 else "") + exponent(draw, 1)

    edges = st.sampled_from([
        "-0", "0", "-0.0", "0e5", "-0E-0", "5e-324", "4.9e-324", "2.4703282292062328e-324",
        "2.4703282292062327e-324", "2.2250738585072014e-308", "2.2250738585072011e-308",
        "1.7976931348623157e308", "-1.7976931348623157e308", "1e-400", "-1e-400",
        "9007199254740993", "18446744073709551615", "18446744073709551616",
        "-9223372036854775809", "123456789012345678901234567", "1e22", "1e23",
        # Just above a halfway point: 19 digits whose quotient by 5**26
        # ends in a half, with a remainder; a 20th digit that breaks a tie.
        "0.00000008957120344875612682", "9007199254740993.0000001",
    ])
    integers = st.integers(-2**70, 2**70).map(str)
    doubles = FINITE.flatmap(lambda x: st.sampled_from([repr(x), orjson.dumps(x).decode()]))
    return decimal() | scientific() | edges | integers | doubles


NUMBER_TOKENS = number_spellings()
WHITESPACE = st.sampled_from(["", "", " ", "\n", "\t", "\r\n  "])
LABEL_TOKENS = st.integers(-2**63, 2**63 - 1).map(str) | st.just("-0")


@st.composite
def recording_texts(draw):
    """The text of a small recording: 1-2 sequences of 1-3 ticks and 1-3
    sensors, every sample a drawn number token, labels any int64 (``-0``
    too), the top-level keys in a drawn order and whitespace anywhere."""
    ws = lambda: draw(WHITESPACE)  # noqa: E731
    n_sensors = draw(st.integers(1, 3))

    def array(items):
        return ws() + "[" + ",".join(ws() + item + ws() for item in items) + "]" + ws()

    def obj(pairs):
        return ws() + "{" + ",".join(f'{ws()}"{k}"{ws()}:{v}' for k, v in pairs) + "}" + ws()

    sequences = []
    for _ in range(draw(st.integers(1, 2))):
        n = draw(st.integers(1, 3))
        labels = draw(st.lists(LABEL_TOKENS, min_size=n, max_size=n))
        blocks = []
        for sid in draw(st.permutations(range(1, n_sensors + 1))):
            tokens = draw(st.lists(NUMBER_TOKENS, min_size=9 * n, max_size=9 * n))
            blocks.append((str(sid), array([array(tokens[9 * t:9 * t + 9]) for t in range(n)])))
        sequences.append(obj(draw(st.permutations([("labels", array(labels)),
                                                   ("sensors", obj(blocks))]))))
    head = [
        ("sample_rate_hz", draw(NUMBER_TOKENS)),
        ("class_count", "3"),
        ("sensor_layout", json.dumps([{"id": i, "location": f"s{i}"}
                                      for i in range(1, n_sensors + 1)])),
        ("sequences", array(sequences)),
        ("meta", obj([("x", draw(NUMBER_TOKENS))])),
    ]
    return obj(draw(st.permutations(head))).encode()


def compact(obj) -> bytes:
    return orjson.dumps(obj)


def bad_token_text(token: str, where: str) -> bytes:
    """The compact text of ``json_recording`` with ``token`` as the label of
    tick 1 or as a sample of sensor 2 at tick 1."""
    obj = json_recording()
    if where == "label":
        obj["sequences"][0]["labels"][1] = "@"
    else:
        obj["sequences"][0]["sensors"]["2"][1] = [*JSON_ROWS[0][:4], "@", *JSON_ROWS[0][5:]]
    return compact(obj).replace(b'"@"', token.encode())


def bad_token_param(token: str, where: str, error, message: str):
    return pytest.param(bad_token_text(token, where), error, message, id=f"{where}-{token}")


# (text, error, message): text orjson refuses and the error it gives, as
# before the compiled reader.
ORJSON_REFUSES = [
    *(bad_token_param(token, where, ParseError, "line 1: invalid JSON: Expecting ',' delimiter")
      for token in ("01", "-01", "1.", "1e", "1e+", "0x10", "1_0", "1 2")
      for where in ("sample", "label")),
    *(bad_token_param(token, where, ParseError, "line 1: invalid JSON: Expecting value")
      for token in (".5", "+1", "-", "--1", "1,", "tru")
      for where in ("sample", "label")),
    *(bad_token_param(token, "sample", ValidationError, "sequence 1 sensor 2: non-finite samples")
      for token in ("NaN", "Infinity", "-Infinity", "1e400", "-1.8e308")),
    *(bad_token_param(token, "label", SchemaError, f"sequence 1 labels must be integers, got {value}")
      for token, value in (("NaN", "nan"), ("Infinity", "inf"), ("1e400", "inf"),
                           ("-1.8e308", "-inf"))),
    *(pytest.param(data, ParseError, f"line 1: invalid JSON: {message}", id=name)
      for name, data, message in (
          ("trailing-text", compact(json_recording()) + b" x", "Extra data"),
          ("two-objects", compact(json_recording()) + b"{}", "Extra data"),
          ("truncated", compact(json_recording())[:-1], "Expecting ',' delimiter"),
          ("object-trailing-comma", compact(json_recording())[:-1] + b",}",
           "Expecting property name enclosed in double quotes"),
          ("row-trailing-comma", compact(json_recording()).replace(b"-0.5]", b"-0.5,]", 1),
           "Expecting value"),
          ("missing-colon", compact(json_recording()).replace(b'"meta":', b'"meta"'),
           "Expecting ':' delimiter"),
          ("nul-byte", compact(json_recording()).replace(b'{"labels"', b'{\x00"labels"'),
           "Expecting property name enclosed in double quotes"),
          ("empty", b"", "Expecting value"),
      )),
]


def outcome(read):
    """What ``read()`` gives: a recording, or its error's type and text."""
    try:
        return read()
    except DataError as exc:
        return type(exc), str(exc)


def parsed_route(data: bytes, loads=orjson.loads) -> SessionRecording:
    """The recording ``loads`` parses from ``data``, checked as
    ``load_recording(..., validate="none")`` checks it."""
    rec = _rec_from_dict(loads(data))
    validate_recording(rec, protocol="none")
    return rec


def read_compiled(data: bytes) -> dict | None:
    """What ``_read_json`` reads from ``data`` when the kernel takes its
    sequences, or None when the kernel refuses the text."""
    return None if _kernel.read_json(data) is None else _read_json(data)


def assert_loads_as_parsed(path, data: bytes, loads=orjson.loads) -> None:
    """``load_recording`` of ``data``, written to ``path``, gives the
    recording, or the error, that ``loads``'s parse of the whole text gives."""
    path.write_bytes(data)
    actual = outcome(lambda: load_recording(path, validate="none"))
    expected = outcome(lambda: parsed_route(data, loads))
    if isinstance(expected, SessionRecording):
        assert_same_recording(actual, expected)
    else:
        assert actual == expected


# Text outside the shape the compiled reader takes, which orjson reads.
OUTSIDE_THE_SHAPE = {
    "escaped-key": compact(json_recording()).replace(b'"meta"', b'"me\\u0074a"'),
    "duplicate-sequences-key": compact(json_recording())[:-1] + b',"sequences":'
                               + compact(json_recording()["sequences"]).replace(b"[0,1,2]", b"[2,1,0]")
                               + b"}",
    "duplicate-sensor-key": compact(json_recording()).replace(b'"2":', b'"1":[[1,2,3,4,5,6,7,8,9]],"2":'),
    "sensor-key-with-sign": compact(json_recording()).replace(b'"2":', b'"+2":'),
    "empty-sensor-key": compact(json_recording()).replace(b'"2":', b'"":'),
    "float-label": compact(json_recording()).replace(b'"labels":[0,1,2]', b'"labels":[0,1.0,2]'),
    "exponent-label": compact(json_recording()).replace(b'"labels":[0,1,2]', b'"labels":[0,1e0,2]'),
    "label-past-63-bits": bad_token_text("9223372036854775808", "label"),
    "bool-sample": bad_token_text("true", "sample"),
    "null-sample": bad_token_text("null", "sample"),
    "string-sample": bad_token_text('"1.5"', "sample"),
    "row-of-8": compact(json_recording()).replace(b",-0.5]", b"]", 1),
    "empty-block": compact(json_recording()).replace(b'"2":[[', b'"2":[],"3":[['),
    "extra-sequence-key": compact(json_recording()).replace(b'"labels"', b'"x":0,"labels"'),
    "labels-not-an-array": compact(json_recording()).replace(b"[0,1,2]", b"0"),
    "sequences-not-an-array": compact({**json_recording(), "sequences": {}}),
    "no-sequences-key": compact({k: v for k, v in json_recording().items() if k != "sequences"}),
    "top-level-array": compact([json_recording()]),
}

# Text around sequences of the shape the compiled reader takes: it reads
# the sequences and steps over every other top-level value, whatever its
# key, as often as the key repeats.
KERNEL_TAKES = {
    "extra-top-level-key": compact({**json_recording(), "note": 1}),
    "duplicate-top-level-key": compact(json_recording())[:-1] + b',"class_count":4}',
    "sequences-key-in-meta": compact({**json_recording(), "meta": {"sequences": [[1, {}]]}}),
    "sequences-key-in-a-string": compact({**json_recording(),
                                          "meta": {"note": '"sequences":[],"}'}}),
}


class TestCompiledJson:
    """The kernel's read_json takes the sequences of the shape
    save_recording writes and gives the values orjson gives; the rest of
    the text, or all of text the kernel refuses, goes to orjson and
    json.loads as before."""

    @given(data=recording_texts())
    @settings(max_examples=200)
    def test_compiled_route_reads_what_orjson_reads_bit_for_bit(self, data):
        compiled = read_compiled(data)
        try:
            parsed = orjson.loads(data)
        except orjson.JSONDecodeError:
            assert compiled is None
            return
        assert compiled is not None
        actual, expected = _rec_from_dict(compiled), _rec_from_dict(parsed)
        assert_same_recording(actual, expected)
        assert struct.pack("<d", actual.sample_rate_hz) == struct.pack("<d", expected.sample_rate_hz)
        assert actual.sensor_layout == expected.sensor_layout
        x, y = actual.meta["x"], expected.meta["x"]
        assert type(x) is type(y) and repr(x) == repr(y)

    def test_saved_files_take_the_compiled_route(self, small_noisy, tmp_path):
        path = tmp_path / "rec.json"
        save_recording(small_noisy, path)
        assert read_compiled(path.read_bytes()) is not None
        path.write_text(stdlib_json(small_noisy), encoding="utf-8")
        compiled = read_compiled(path.read_bytes())
        assert compiled is not None
        assert_same_recording(_rec_from_dict(compiled), small_noisy)

    @pytest.mark.parametrize("data, error, message", ORJSON_REFUSES)
    def test_text_orjson_refuses_is_refused_with_the_error_of_before(
            self, tmp_path, data, error, message):
        with pytest.raises(orjson.JSONDecodeError):
            orjson.loads(data)
        assert _kernel.read_json(data) is None
        path = tmp_path / "rec.json"
        path.write_bytes(data)
        with pytest.raises(error) as info:
            load_recording(path, validate="none")
        assert str(info.value) == message

    @pytest.mark.parametrize("data", OUTSIDE_THE_SHAPE.values(), ids=OUTSIDE_THE_SHAPE.keys())
    def test_text_outside_the_shape_loads_as_orjson_reads_it(self, tmp_path, data):
        orjson.loads(data)
        assert _kernel.read_json(data) is None
        assert_loads_as_parsed(tmp_path / "rec.json", data)

    @pytest.mark.parametrize("data", KERNEL_TAKES.values(), ids=KERNEL_TAKES.keys())
    def test_text_the_kernel_takes_loads_as_orjson_reads_it(self, tmp_path, data):
        compiled = read_compiled(data)
        assert compiled is not None
        assert_reads_as_orjson(compiled, data)
        assert_loads_as_parsed(tmp_path / "rec.json", data)

    @pytest.mark.parametrize("levels, loads", [(999, True), (1000, False), (1_000_000, False)])
    def test_meta_may_nest_to_the_depth_limit(self, tmp_path, levels, loads):
        obj = json_recording()
        obj["meta"] = {"deep": "@"}
        data = compact(obj).replace(b'"@"', b"[" * (levels - 1) + b"]" * (levels - 1))
        # The kernel steps over meta however deep it nests.
        assert _kernel.read_json(data) is not None
        path = tmp_path / "rec.json"
        path.write_bytes(data)
        if loads:
            # Walked, not compared: == recurses once per level.
            value, depth = load_recording(path, validate="none").meta["deep"], 1
            while value:
                value, depth = value[0], depth + 1
            assert depth == levels - 1
        else:
            with pytest.raises(ParseError, match="JSON nested deeper than 1000 levels"):
                load_recording(path, validate="none")

    def test_an_error_after_the_sequences_names_the_line_in_the_file(self, tmp_path):
        text = json.dumps(json_recording(), indent=2)
        assert text.index('"sequences"') < text.index('"meta"')
        data = text.replace('"meta": {}', '"meta": {,}').encode()
        assert _kernel.read_json(data) is not None
        with pytest.raises(json.JSONDecodeError) as info:
            json.loads(data)
        line = info.value.lineno
        assert line > 20
        path = tmp_path / "rec.json"
        path.write_bytes(data)
        with pytest.raises(ParseError) as raised:
            load_recording(path, validate="none")
        assert raised.value.line == line
        assert str(raised.value) == (
            f"line {line}: invalid JSON: Expecting property name enclosed in double quotes")

    # (span, location it loads as or the error of before): orjson refuses
    # each span, so the rest of the file goes to json.loads.
    @pytest.mark.parametrize("span, expected", [
        (b'"\\ud800"', "\ud800"),
        (b'"\xff"', "recording is not UTF-8 text: 'utf-8' codec can't decode byte 0xff"),
        (b"[1,]", "line 1: invalid JSON: Expecting value"),
        (b"nul", "line 1: invalid JSON: Expecting value"),
        (b'"a"x', "line 1: invalid JSON: Expecting ',' delimiter"),
    ], ids=["lone-surrogate", "bad-utf8", "trailing-comma", "bad-literal", "junk-after-string"])
    def test_a_span_orjson_refuses_goes_to_the_general_route(self, tmp_path, span, expected):
        data = compact(json_recording()).replace(b'"location":"a"', b'"location":' + span)
        assert _kernel.read_json(data) is not None
        with pytest.raises(orjson.JSONDecodeError):
            orjson.loads(data)
        path = tmp_path / "rec.json"
        path.write_bytes(data)
        if expected == "\ud800":
            assert load_recording(path, validate="none").sensor_layout[0].location == expected
        else:
            with pytest.raises(ParseError, match=re.escape(expected)):
                load_recording(path, validate="none")


# Float tokens in read_sample's grammar that np.loadtxt reads too: the
# shortest spellings of any finite float (signed zeros, subnormals,
# exponents to +-308), the integer token -0, integers past 19 digits, and
# mantissas of 17 to 30 digits with exponents past the double range, which
# round to zero (one that rounds to an infinity is refused, as "1e999").
CSV_FLOAT_TOKENS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: orjson.dumps(v).decode()),
    st.integers(-10**25, 10**25).map(str),
    st.sampled_from(["0", "-0", "-0.0", "0E0", "-0e-5", "5e-324", "-2.4703282292062328e-324",
                     "2.2250738585072011e-308", "1e-400", "-1e-400", "1E+308"]),
    st.builds(lambda sign, digits, exp: f"{sign}{digits[0]}.{digits[1:]}e{exp}",
              st.sampled_from(["", "-"]), st.text("0123456789", min_size=17, max_size=30),
              st.integers(-345, 308)).filter(lambda token: math.isfinite(float(token))),
)

# Float tokens np.loadtxt reads and the compiled route refuses.
CSV_REFUSED_TOKENS = st.sampled_from(
    ["+1", ".5", "1.", "01", "-01", "inf", "-inf", "nan", "1e999", " 1.5", "1.5 ", "\t2"])

# Unquoted extra fields: printable ASCII but the quote and the comma.
CSV_EXTRA_FIELDS = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E,
                                         blacklist_characters='",'), max_size=6)


@st.composite
def csv_texts(draw):
    """(text, refused token or None): a recording CSV of 1-2 sequences of
    1-4 ticks of 1-3 sensors, its columns in any order among 0-2 extra
    ones, rows shuffled, blank lines, LF or CRLF per line and perhaps no
    final newline; its float tokens from CSV_FLOAT_TOKENS, but for one
    from CSV_REFUSED_TOKENS when the second item is not None."""
    extras = draw(st.lists(st.sampled_from(["note", "x", "id2"]), max_size=2, unique=True))
    header = draw(st.permutations([*CSV_HEADER, *extras]))
    sensors = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3, unique=True))
    rows = []
    for qi in range(1, draw(st.integers(1, 2)) + 1):
        for t in range(draw(st.integers(1, 4))):
            label = draw(st.integers(0, 3))
            for sid in sensors:
                fields = dict(zip(CSV_HEADER[2:11], draw(st.lists(
                    CSV_FLOAT_TOKENS, min_size=9, max_size=9))))
                fields.update({name: draw(CSV_EXTRA_FIELDS) for name in extras})
                # The integer token -0 reads as tick 0.
                fields.update(tick=draw(st.sampled_from(["0", "-0"])) if t == 0 else str(t),
                              sensor_id=str(sid), label=str(label), sequence=str(qi))
                rows.append(fields)
    rows = draw(st.permutations(rows))
    refused = draw(st.none() | CSV_REFUSED_TOKENS)
    if refused is not None:
        row = draw(st.sampled_from(rows))
        row[draw(st.sampled_from(CSV_HEADER[2:11]))] = refused
    lines = [",".join(header)] + [",".join(row[name] for name in header) for row in rows]
    for i in draw(st.lists(st.integers(1, len(lines)), max_size=3)):
        lines.insert(i, "")
    text = "".join(line + draw(st.sampled_from(["\n", "\r\n"])) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text.encode(), refused


def labeled_lines():
    """Header on line 1, then ticks 0-2 of sensors 1 and 2 on lines 2-7,
    labels 0, 1, 0, so the file holds two classes."""
    return [HEADER] + [csv_row(t, s, label=t % 2) for t in range(3) for s in (1, 2)]


def csv_text(lines, end="\n") -> bytes:
    return "".join(line + end for line in lines).encode()


def respelled(line: int, old: str, new: str) -> bytes:
    """The text of labeled_lines with ``old`` spelled ``new`` on ``line``."""
    lines = labeled_lines()
    lines[line - 1] = lines[line - 1].replace(old, new, 1)
    return csv_text(lines)


PLAIN_CSV = csv_text(labeled_lines())
ACC_X_ONE = respelled(4, "0.5", "1")

# (text outside the compiled route's shape, what it loads as: the text it
# loads equal to or the error of before): np.loadtxt reads each.
CSV_OUTSIDE_THE_SHAPE = [
    pytest.param(respelled(4, "0.5", '"0.5"'), PLAIN_CSV, id="quoted-field"),
    pytest.param(respelled(1, "tick", '"tick"'), PLAIN_CSV, id="quoted-header"),
    pytest.param(csv_text([HEADER + ",note"] + [line + ',"a, b"' for line in labeled_lines()[1:]]),
                 PLAIN_CSV, id="quoted-extra-field"),
    pytest.param(csv_text([HEADER + ",note"] + [line + ",café" for line in labeled_lines()[1:]]),
                 PLAIN_CSV, id="non-ascii-extra-field"),
    pytest.param(csv_text([HEADER + ",note"] + [line + ",a\x00b" for line in labeled_lines()[1:]]),
                 PLAIN_CSV, id="control-byte-in-extra-field"),
    pytest.param(PLAIN_CSV.replace(b"\n", b"\r", 1), PLAIN_CSV, id="lone-cr-after-header"),
    pytest.param(PLAIN_CSV.replace(b"\n", b"\r", 3).replace(b"\r", b"\n", 2), PLAIN_CSV,
                 id="lone-cr-between-rows"),
    pytest.param(respelled(4, "0.5", " 0.5"), PLAIN_CSV, id="space-before"),
    pytest.param(respelled(4, "0.5", "0.5 "), PLAIN_CSV, id="space-after"),
    pytest.param(respelled(4, "0.5", "\t0.5"), PLAIN_CSV, id="tab-before"),
    pytest.param(respelled(4, "0.5", "+1"), ACC_X_ONE, id="plus"),
    pytest.param(respelled(4, "0.5", ".5"), PLAIN_CSV, id="leading-dot"),
    pytest.param(respelled(4, "0.5", "1."), ACC_X_ONE, id="trailing-dot"),
    pytest.param(respelled(4, "0.5", "01"), ACC_X_ONE, id="leading-zero"),
    pytest.param(respelled(4, "1,1,", "+1,1,"), PLAIN_CSV, id="plus-tick"),
    pytest.param(respelled(4, ",1,1", ",01,1"), PLAIN_CSV, id="leading-zero-label"),
    *(pytest.param(respelled(4, "0.5", token), (ValidationError,
                                                 "sequence 1 sensor 1: non-finite samples"),
                   id=token) for token in ("inf", "nan", "1e999")),
    pytest.param(respelled(4, ",1,1", ",1.0,1"), (ParseError, "line 4: malformed row: "
                 "invalid literal for int() with base 10: '1.0'"), id="fraction-label"),
    pytest.param(respelled(4, "0.5", "0x1p-1"), (ParseError, "line 4: malformed row: "
                 "could not convert string to float: '0x1p-1'"), id="hex-float"),
    pytest.param(csv_text(labeled_lines()[:4] + [",".join(labeled_lines()[4].split(",")[:5])]
                          + labeled_lines()[5:]),
                 (ParseError, "line 5: malformed row: expected 13 fields, got 5"),
                 id="short-row"),
    pytest.param(b"\xef\xbb\xbf" + PLAIN_CSV, (SchemaError, "missing CSV columns: ['tick']"),
                 id="byte-order-mark"),
]


def loadtxt_route():
    """Make load_recording read every CSV with np.loadtxt."""
    return mock.patch("bomi.dataset_io._read_csv_compiled", lambda data, mapping=None: None)


class TestCompiledCsv:
    """The kernel's read_csv takes the shape save_recording writes and
    gives the rows np.loadtxt gives; anything else goes to np.loadtxt as
    before."""

    @given(text=csv_texts())
    @settings(max_examples=150)
    def test_compiled_route_reads_what_loadtxt_reads_bit_for_bit(self, tmp_path_factory, text):
        data, refused = text
        path = tmp_path_factory.mktemp("compiled-csv") / "rec.csv"
        path.write_bytes(data)
        compiled = _read_csv_compiled(data)
        if refused is not None:
            assert compiled is None
            return
        expected = _loadtxt_rows(path, ImportMapping())
        assert compiled is not None
        assert compiled.dtype == expected.dtype
        assert compiled.tobytes() == expected.tobytes()
        actual = outcome(lambda: load_recording(path, validate="none"))
        with loadtxt_route():
            before = outcome(lambda: load_recording(path, validate="none"))
        if isinstance(before, SessionRecording):
            assert_same_recording(actual, before)
        else:
            assert actual == before

    def test_saved_files_take_the_compiled_route(self, small_noisy, tmp_path):
        path = tmp_path / "rec.csv"
        save_recording(small_noisy, path)
        compiled = _read_csv_compiled(path.read_bytes())
        assert compiled is not None
        assert compiled.tobytes() == _loadtxt_rows(path, ImportMapping()).tobytes()
        with mock.patch("bomi.dataset_io._loadtxt_rows", side_effect=AssertionError):
            assert_same_recording(load_recording(path, validate="none"), small_noisy)

    def test_the_angles_mode_and_renamed_columns_take_the_compiled_route(self, tmp_path):
        lines = ["sample,sensor_id,pitch,roll,yaw,label,sequence",
                 *(f"{t},{sid},{t / 7!r},-0,{-t / 3!r},{t % 2},1" for t in range(6)
                   for sid in (1, 2))]
        path = write_lines(tmp_path / "angles.csv", lines)
        mapping = ImportMapping(mode="angles", columns={"tick": "sample"})
        compiled = _read_csv_compiled(path.read_bytes(), mapping)
        assert compiled is not None
        assert compiled.tobytes() == _loadtxt_rows(path, mapping).tobytes()
        # The integer token -0 is -0.0, as np.loadtxt reads it.
        assert str(compiled["values"][0, 1]) == "-0.0"
        with mock.patch("bomi.dataset_io._loadtxt_rows", side_effect=AssertionError):
            actual = load_recording(path, mapping=mapping, validate="none")
        with loadtxt_route():
            assert_same_recording(actual, load_recording(path, mapping=mapping, validate="none"))

    @pytest.mark.parametrize("data, expected", CSV_OUTSIDE_THE_SHAPE)
    def test_text_outside_the_shape_loads_as_before(self, tmp_path, data, expected):
        assert _read_csv_compiled(data) is None
        path = tmp_path / "rec.csv"
        path.write_bytes(data)
        actual = outcome(lambda: load_recording(path, validate="none"))
        if isinstance(expected, bytes):
            assert _read_csv_compiled(expected) is not None
            path.write_bytes(expected)
            assert_same_recording(actual, load_recording(path, validate="none"))
        else:
            assert actual == expected

    def test_kernel_checks_its_arguments(self):
        data = PLAIN_CSV
        start = data.index(b"\n") + 1
        assert len(_kernel.read_csv(data, start, [12, 0, 1, 11], range(2, 11))) == 6 * 13 * 8
        assert len(_kernel.read_csv(data, len(data), [0], [])) == 0
        with pytest.raises(ValueError, match="start"):
            _kernel.read_csv(data, len(data) + 1, [0], [])
        with pytest.raises(ValueError, match="column indices"):
            _kernel.read_csv(data, start, [-1], [])
        with pytest.raises(ValueError, match="column indices"):
            _kernel.read_csv(data, start, range(20), range(20))


def sample_texts(tokens: list[str]) -> tuple[bytes, bytes]:
    """A recording JSON in the shape save_recording writes and a recording
    CSV, each holding ``tokens`` in order as sensor 1's samples (the last
    row padded with 0.5)."""
    rows = [tokens[i:i + 9] for i in range(0, len(tokens), 9)]
    rows[-1] = rows[-1] + ["0.5"] * (9 - len(rows[-1]))
    json_text = (
        '{"sample_rate_hz":60.0,"class_count":2,"sensor_layout":[{"id":1,"location":"a"}],'
        '"sequences":[{"labels":[' + ",".join("0" * len(rows)) + '],"sensors":{"1":['
        + ",".join("[" + ",".join(row) + "]" for row in rows) + "]}}],\"meta\":{}}")
    csv_text = "".join([HEADER + "\n", *(f"{t},1,{','.join(row)},0,1\n"
                                         for t, row in enumerate(rows))])
    return json_text.encode(), csv_text.encode()


def assert_tokens_read_as_float(tokens: list[str]) -> None:
    """Both compiled readers read every token as ``float(token)``, bit for
    bit, but for the integer token -0, which the JSON route reads as +0.0
    (orjson makes it the int 0)."""
    json_text, csv_text = sample_texts(tokens)
    compiled, rows = read_compiled(json_text), _read_csv_compiled(csv_text)
    assert compiled is not None and rows is not None
    from_json = compiled["sequences"][0]["sensors"]["1"].reshape(-1)[:len(tokens)]
    from_csv = rows["values"].reshape(-1)[:len(tokens)]
    expected = np.array([float(token) for token in tokens])
    integer_zero = np.array([expected[i] == 0 and not set(token) & set(".eE")
                             for i, token in enumerate(tokens)], dtype=bool)
    expected_json = np.where(integer_zero, 0.0, expected)
    for route, actual, want in (("json", from_json, expected_json), ("csv", from_csv, expected)):
        bad = np.flatnonzero(actual.view(np.uint64) != want.view(np.uint64))
        assert bad.size == 0, [(route, tokens[i], actual[i], want[i]) for i in bad[:5]]


def spellings(w: int, q: int) -> list[str]:
    """Spellings of w * 10**q that read_sample reads as the digits of w and
    the power q of its last digit: with an exponent, in scientific form (its
    digits after the point), and as a plain decimal."""
    digits = str(w)
    out = [f"{digits}e{q}", f"{digits[0]}.{digits[1:] or '0'}E{q + len(digits) - 1:+d}"]
    if q >= 0:
        out.append(digits + "0" * q)
    elif len(digits) > -q:
        out.append(f"{digits[:q]}.{digits[q:]}")
    else:
        out.append("0." + "0" * (-q - len(digits)) + digits)
    return out


def halfway_tokens(rng: random.Random) -> list[str]:
    """Tokens at and beside the points halfway between adjacent doubles:
    exact halfway values w * 10**q with w of at most 19 digits, at every q
    in [-4, 23] where one exists, and, at every q in [-27, 27], the 19-digit
    w either side of a halfway point, one unit apart. Together they reach
    every entry of the kernel's table of powers of five."""
    tokens = []
    for q in range(-4, 24):
        # A halfway value is an odd 54-bit integer times a power of two.
        # For q >= 0, w = o * 2**s gives o * 5**q * 2**(q + s), so o * 5**q
        # needs 54 bits; for q < 0, w = o * 5**-q * 2**s gives o * 2**(q + s),
        # so o does. Either way w stays below 10**19.
        for _ in range(8):
            if q >= 0:
                lo, hi, five = -(-2**53 // 5**q), (2**54 - 1) // 5**q + 1, 1
            else:
                lo, hi, five = 2**53, min(2**54, -(-10**19 // 5**-q)), 5**-q
            base = (2 * rng.randrange(lo // 2, hi // 2) + 1) * five
            w = base << rng.randrange(((10**19 - 1) // base).bit_length())
            value = Fraction(w) * Fraction(10) ** q
            odd_part = value.numerator >> (value.numerator & -value.numerator).bit_length() - 1
            assert value.denominator & (value.denominator - 1) == 0
            assert odd_part.bit_length() == 54, (w, q)
            tokens += spellings(w, q)
    for q in range(-27, 28):
        for _ in range(6):
            near = float(Fraction(rng.randrange(10**18, 10**19)) * Fraction(10) ** q)
            half = (Fraction(near) + Fraction(math.nextafter(near, math.inf))) / 2
            w = math.floor(half / Fraction(10) ** q)
            for v in (w - 1, w, w + 1, w + 2):
                if 10**18 <= v < 10**19:
                    tokens += spellings(v, q)
    return tokens


def random_tokens(rng: random.Random, n: int) -> list[str]:
    """``n`` finite number tokens: repr and orjson spellings of doubles
    (any bits, typical sensor values, subnormals) and 1-30 digit mantissas,
    the point anywhere, with exponents to +-308 or none."""
    tokens = []
    while len(tokens) < n:
        kind = rng.randrange(5)
        if kind < 3:
            if kind == 0:
                value = struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
            elif kind == 1:
                value = rng.uniform(-20.0, 20.0) * 10.0 ** rng.randrange(-8, 9)
            else:
                value = rng.choice([-1, 1]) * rng.randrange(1, 2**52) * 5e-324
            if not math.isfinite(value):
                continue
            tokens.append(repr(value) if rng.random() < 0.5 else orjson.dumps(value).decode())
            continue
        digits = "".join(rng.choice("0123456789") for _ in range(rng.randint(1, 30)))
        cut = rng.randint(0, len(digits))
        token = ("-" if rng.random() < 0.5 else "") + (digits[:cut].lstrip("0") or "0")
        if cut < len(digits):
            token += "." + digits[cut:]
        if kind == 4:
            exp = rng.randint(-30, 30) if rng.random() < 0.5 else rng.randint(-308, 308)
            token += rng.choice(["e", "E", "e+", "E-0"] if exp >= 0 else ["e", "E"]) + str(exp)
        if math.isfinite(float(token)):
            tokens.append(token)
    return tokens


class TestNumberReader:
    """The number reader both compiled readers share gives the correctly
    rounded double of every token, as float() does."""

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25)
    def test_random_tokens_read_as_float_reads_them(self, seed):
        zeros = ["0", "-0", "0.0", "-0.0", "-0e5", "0E-400", "-0.000e+0"]
        assert_tokens_read_as_float(zeros + random_tokens(random.Random(seed), 3000))

    def test_tokens_at_and_beside_halfway_points_round_to_even(self):
        assert_tokens_read_as_float(halfway_tokens(random.Random(3)))


# Bytes a mutation writes: structure and number bytes more often than others.
MUTATION_BYTES = b'0123456789-+.eE,[]{}":\n\r \t\x00\xff'


def mutated(data: bytes, rng: random.Random) -> bytes:
    """``data`` after one to three byte flips, inserts, deletions or a
    truncation, at random places; one more often than not."""
    for _ in range(rng.choice([1, 1, 1, 2, 3])):
        at = rng.randrange(len(data) + 1)
        byte = (bytes([rng.choice(MUTATION_BYTES)]) if rng.random() < 0.8
                else bytes([rng.randrange(256)]))
        op = rng.randrange(4)
        if op == 0 and at < len(data):
            data = data[:at] + byte + data[at + 1:]
        elif op == 1:
            data = data[:at] + byte * rng.randint(1, 3) + data[at:]
        elif op == 2:
            data = data[:at] + data[at + rng.randint(1, 4):]
        else:
            data = data[:at]
    return data


def assert_reads_as_orjson(compiled: dict, data: bytes) -> None:
    """``compiled``, what ``read_compiled`` gave for ``data``, holds the
    values orjson reads from it."""
    parsed = orjson.loads(data)
    assert isinstance(parsed, dict) and compiled.keys() == parsed.keys()
    for key, value in parsed.items():
        ours = compiled[key]
        if key != "sequences" or not isinstance(value, list):
            assert repr(ours) == repr(value)
            continue
        assert len(ours) == len(value)
        for seq, theirs in zip(ours, value):
            assert theirs.keys() == {"labels", "sensors"}
            assert all(type(label) is int for label in theirs["labels"])
            assert seq["labels"].tolist() == theirs["labels"]
            assert seq["sensors"].keys() == theirs["sensors"].keys()
            for sid, block in theirs["sensors"].items():
                assert all(len(row) == 9 and all(type(v) in (int, float) for v in row)
                           for row in block)
                expected = np.array([[float(v) for v in row] for row in block]).reshape(-1, 9)
                assert same_bits(seq["sensors"][sid], expected)


def mutation_base(tmp_path, suffix: str) -> bytes:
    """The bytes save_recording writes for a small two-sensor recording of
    typical, signed-zero, subnormal, integral and extreme values."""
    rng = np.random.default_rng(5)
    samples = rng.normal(scale=[1.0, 1.0, 1.0, 50.0, 50.0, 50.0, 0.5, 0.5, 0.5], size=(6, 2, 9))
    samples[0, 0, :4] = [-0.0, 5e-324, 1.0, 1e16]
    samples[1, 1, :3] = [-1.7976931348623157e308, 2.2250738585072014e-308, 1e-7]
    path = tmp_path / f"base{suffix}"
    save_recording(block_recording(samples), path)
    return path.read_bytes()


class TestMutatedFiles:
    """Byte-mutated saved files: each compiled reader refuses the text or
    gives exactly what the general route gives, and load_recording raises
    nothing but a DataError."""

    MUTANTS = 1500

    def loads_or_data_error(self, path) -> None:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                load_recording(path)
            except DataError:
                pass

    def test_json(self, tmp_path):
        base, rng = mutation_base(tmp_path, ".json"), random.Random(11)
        path, taken = tmp_path / "mutant.json", 0
        for _ in range(self.MUTANTS):
            data = mutated(base, rng)
            if _kernel.read_json(data) is not None:
                taken += 1
                try:
                    orjson.loads(data)
                except orjson.JSONDecodeError:
                    # The rest of the text loads as the whole text does.
                    assert_loads_as_parsed(path, data, loads=_parse_json)
                else:
                    assert_reads_as_orjson(_read_json(data), data)
            path.write_bytes(data)
            self.loads_or_data_error(path)
        # Some mutants stay inside the shape the compiled route takes.
        assert taken > self.MUTANTS // 10

    def test_csv(self, tmp_path):
        base, rng = mutation_base(tmp_path, ".csv"), random.Random(12)
        path, taken = tmp_path / "mutant.csv", 0
        for _ in range(self.MUTANTS):
            data = mutated(base, rng)
            path.write_bytes(data)
            compiled = _read_csv_compiled(data)
            if compiled is not None:
                taken += 1
                assert same_bits(compiled, _loadtxt_rows(path, ImportMapping()))
            self.loads_or_data_error(path)
        assert taken > self.MUTANTS // 10


class TestCsvCodec:
    """Recording CSV spells its floats as the JSON file does, and every
    sample and label loads back bit for bit."""

    @given(blocks=sample_blocks())
    @settings(max_examples=60)
    def test_blocks_load_bit_identical_and_as_the_repr_writer_loads(self, tmp_path_factory,
                                                                    blocks):
        rec = block_recording(blocks)
        # Labels 1, 0, 1, ...: every file holds label 1, so it loads with 2 classes.
        rec.sequences[0].labels = 1 - rec.sequences[0].labels
        work = tmp_path_factory.mktemp("csv-codec")
        ours, reference = work / "ours.csv", work / "reference.csv"
        save_recording(rec, ours)
        csv_reference_save(rec, reference)
        back = load_recording(ours, validate="none")
        assert_same_recording(back, rec)
        assert_same_recording(back, load_recording(reference, validate="none"))

    @pytest.mark.parametrize("label_dtype", [np.int32, np.uint8])
    @pytest.mark.parametrize("layout", ["fortran", "float32"])
    def test_any_block_layout_and_dtype_saves_as_float64(self, tmp_path, layout, label_dtype):
        samples = np.random.default_rng(2).normal(size=(6, 2, 9))
        given = np.asfortranarray(samples) if layout == "fortran" else samples.astype(np.float32)
        rec = block_recording(given)
        rec.sequences[0].labels = rec.sequences[0].labels.astype(label_dtype)
        path = tmp_path / "rec.csv"
        save_recording(rec, path)
        back = load_recording(path, validate="none").sequences[0]
        # float32 0.1 is written as the float64 0.10000000149011612, not as 0.1.
        assert same_bits(back.samples, given.astype(np.float64))
        assert same_bits(back.labels, np.array([0, 1, 0, 1, 0, 1]))
        _, rows = csv_lines(path)
        assert all(re.fullmatch(r"\d+,\d+,[^,]+(,[^,]+){8},\d+,1", row) for row in rows)
        reference = tmp_path / "reference.csv"
        csv_reference_save(rec, reference)
        assert_same_recording(load_recording(path, validate="none"),
                              load_recording(reference, validate="none"))

    def test_layout_and_the_json_spelling(self, small_noisy, tmp_path):
        csv_path, json_path = tmp_path / "rec.csv", tmp_path / "rec.json"
        save_recording(small_noisy, csv_path)
        save_recording(small_noisy, json_path)
        data = csv_path.read_bytes()
        assert b"\r" not in data and data.endswith(b"\n")
        header, rows = csv_lines(csv_path)
        assert header == HEADER
        # The sensor blocks are the only "<id>":[[ ... ]] in the JSON text.
        blocks = re.findall(r'"\d+":\[\[(.*?)\]\]', json_path.read_text(encoding="utf-8"))
        sids = small_noisy.sensor_ids
        expected = []
        for qi, seq in enumerate(small_noisy.sequences, start=1):
            spelled = {sid: blocks.pop(0).split("],[") for sid in sids}
            labels = seq.labels.tolist()
            expected += [f"{t},{sid},{spelled[sid][t]},{labels[t]},{qi}"
                         for t in range(seq.n_ticks) for sid in sids]
        assert not blocks
        assert rows == expected

    def test_spelling_is_the_shortest_that_reads_back(self, tmp_path):
        block = np.array([[-3.6e-6, 1.5e-5, 1e16, 1e-7, -0.0, 0.1, 1 / 3, 5e-324, 2.0]] * 2)
        path = tmp_path / "rec.csv"
        save_recording(block_recording(block[:, None]), path)
        _, rows = csv_lines(path)
        assert rows[0] == ("0,1,-3.6e-6,0.000015,1e16,1e-7,-0.0,0.1,0.3333333333333333,"
                           "5e-324,2.0,0,1")

    def test_a_rate_other_than_60_hz_warns_with_the_mapping_line(self, small_noisy,
                                                                  tmp_path):
        rec = dataclasses.replace(small_noisy, sample_rate_hz=100.0)
        path = tmp_path / "rec.csv"
        with pytest.warns(UserWarning, match=re.escape(
                "this 100 Hz recording loads back at 60 Hz unless its import mapping "
                "has the line sample_rate_hz=100.0")):
            save_recording(rec, path)
        assert load_recording(path, validate="none").sample_rate_hz == 60.0
        cfg = tmp_path / "mapping.cfg"
        cfg.write_text("sample_rate_hz=100.0\n")
        back = load_recording(path, mapping=ImportMapping.from_file(cfg), validate="none")
        assert back.sample_rate_hz == 100.0
        assert_same_recording(back, rec)

    def test_a_class_count_a_csv_cannot_hold_warns(self, small_noisy, tmp_path):
        rec = dataclasses.replace(small_noisy, class_count=9)
        path = tmp_path / "rec.csv"
        with pytest.warns(UserWarning, match=re.escape(
                "this 9-class recording loads back with 3 classes")):
            save_recording(rec, path)
        assert load_recording(path, validate="none").class_count == 3

    def test_all_neutral_labels_refuse_a_csv_and_write_nothing(self, small_noisy, tmp_path):
        sequences = [Sequence(seq.sensor_ids, seq.samples, np.zeros_like(seq.labels))
                     for seq in small_noisy.sequences]
        rec = dataclasses.replace(small_noisy, sequences=sequences)
        path = tmp_path / "rec.csv"
        with pytest.raises(ValidationError, match="would load back with 1 class"):
            save_recording(rec, path)
        assert not path.exists()
        save_recording(rec, tmp_path / "rec.json")  # JSON keeps the class count

    def test_no_warning_at_60_hz_or_for_json(self, small_noisy, tmp_path):
        rec = dataclasses.replace(small_noisy, sample_rate_hz=100.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            save_recording(small_noisy, tmp_path / "rec.csv")
            save_recording(rec, tmp_path / "rec.json")

    def test_failing_recording_writes_nothing(self, small_noisy, tmp_path):
        seq = small_noisy.sequences[0]
        bad = Sequence(seq.sensor_ids, seq.samples.copy(), seq.labels)
        bad.samples[5, seq.sensor_ids.index(2), 3] = np.nan
        rec = dataclasses.replace(small_noisy, sample_rate_hz=100.0,
                                  sequences=[*small_noisy.sequences[:2], bad])
        path = tmp_path / "rec.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="sequence 3 sensor 2: non-finite"):
                save_recording(rec, path)
        assert not path.exists()
        # A fault past every check, while the last sequence is formatted.
        rec = dataclasses.replace(small_noisy, sequences=[*small_noisy.sequences[:2], seq])
        for path in (tmp_path / "rec.csv", tmp_path / "rec.json"):
            with mock.patch("bomi.dataset_io._kernel", faulty_writers(3)):
                with pytest.raises(MemoryError):
                    save_recording(rec, path)
            assert not path.exists()


def faulty_writers(count: int):
    """The kernel, but its writers raise MemoryError at their ``count``-th call."""
    calls = itertools.count(1)

    def writer(name):
        def write(*args):
            if next(calls) == count:
                raise MemoryError
            return getattr(_kernel, name)(*args)
        return write

    return types.SimpleNamespace(write_json=writer("write_json"), write_csv=writer("write_csv"))


def csv_lines(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0], lines[1:]


def parent_json(rec) -> bytes:
    """``rec`` as save_recording wrote it when orjson wrote the whole
    object, each sensor's block a C-contiguous copy."""
    return orjson.dumps({
        "sample_rate_hz": rec.sample_rate_hz,
        "class_count": rec.class_count,
        "sensor_layout": [{"id": s.id, "location": s.location} for s in rec.sensor_layout],
        "sequences": [
            {"labels": np.asarray(seq.labels, dtype=np.int64),
             "sensors": {str(sid): np.ascontiguousarray(seq.samples[:, j], dtype=np.float64)
                         for sid, j in sorted((sid, j) for j, sid in enumerate(seq.sensor_ids))}}
            for seq in rec.sequences
        ],
        "meta": rec.meta,
    }, option=orjson.OPT_SERIALIZE_NUMPY)


def parent_csv(rec) -> bytes:
    """``rec`` as save_recording wrote it when orjson spelled every row's
    numbers, one row at a time."""
    rows = [",".join(CSV_HEADER).encode()]
    for qi, seq in enumerate(rec.sequences, start=1):
        for t, label in enumerate(seq.labels.tolist()):
            for sid in sorted(seq.sensor_ids):
                row = np.asarray(seq.samples[t, seq.sensor_ids.index(sid)], dtype=np.float64)
                values = orjson.dumps(row, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1]
                rows.append(b"%d,%d,%s,%d,%d" % (t, sid, values, label, qi))
    return b"\n".join(rows) + b"\n"


def spelled_block(values) -> tuple[np.ndarray, np.ndarray]:
    """Labels 0, 1, ... and a (T, 1, 9) sample block holding ``values`` in
    order, the last row padded with 0.5."""
    flat = np.full(-(-len(values) // 9) * 9, 0.5)
    flat[:len(values)] = values
    return np.arange(len(flat) // 9, dtype=np.int64), flat.reshape(-1, 1, 9)


def assert_spelled(values, oracle: bool = True) -> None:
    """Both writers spell every one of the finite ``values`` as orjson does,
    byte for byte, and as ``json_float_text`` does unless ``oracle`` is
    false."""
    labels, block = spelled_block(values)
    text = _kernel.write_json(labels, block, (1,))
    assert text == orjson.dumps({"labels": labels, "sensors": {"1": block[:, 0]}},
                                option=orjson.OPT_SERIALIZE_NUMPY)
    rows = _kernel.write_csv(labels, block, (1,), 1)
    assert rows == b"".join(b"%d,1,%s,%d,1\n" % (t, b",".join(orjson.dumps(v) for v in row), t)
                            for t, row in enumerate(block[:, 0].tolist()))
    if oracle:
        spelled = [json_float_text(v).encode() for row in block[:, 0].tolist() for v in row]
        assert text.split(b'"1":[[')[1][:-4].replace(b"],[", b",").split(b",") == spelled


def with_neighbours(values) -> list[float]:
    """``values``, each with its two neighbours on either side, and all of
    them negated."""
    out = []
    for x in values:
        with np.errstate(over="ignore"):
            below, above = np.nextafter(x, -np.inf), np.nextafter(x, np.inf)
            out += [np.nextafter(below, -np.inf), below, x, above, np.nextafter(above, np.inf)]
    out = [float(x) for x in out if np.isfinite(x)]
    return out + [-x for x in out]


MAX_DOUBLE = 1.7976931348623157e308
MIN_NORMAL = 2.2250738585072014e-308


class TestRecordingWriter:
    """The kernel's ``write_json`` and ``write_csv`` spell every double as
    orjson does and as repr's digits in its layout do, and both saves write
    the bytes the whole-object orjson writer wrote."""

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(11).integers(0, 2**64, size=90_000, dtype=np.uint64)
        values = bits.view(np.float64)
        values = values[np.isfinite(values)]
        assert_spelled(values, oracle=False)
        assert_spelled(values[:20_000])

    @given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
    @settings(max_examples=150)
    def test_drawn_bit_patterns(self, bits):
        values = np.array(bits, dtype=np.uint64).view(np.float64)
        assert_spelled(values[np.isfinite(values)] if np.isfinite(values).any() else [0.0])

    def test_every_power_of_two_and_of_ten(self):
        powers = [2.0**e for e in range(-1074, 1024)] + [float(f"1e{e}") for e in range(-323, 309)]
        assert_spelled(powers + [-x for x in powers])

    def test_layout_boundaries_and_their_neighbours(self):
        values = with_neighbours([1e-5, 1e16, 1e-4, 1e15])
        assert_spelled(values)
        assert b"0.00001," in _kernel.write_csv(*spelled_block([1e-5]), (1,), 1)
        assert b",1e16," in _kernel.write_csv(*spelled_block([0.5, 1e16]), (1,), 1)

    def test_subnormals_extremes_and_signed_zeros(self):
        subnormals = [5e-324 * k for k in range(1, 2000, 7)]
        subnormals += np.random.default_rng(12).integers(1, 2**52, size=3000, dtype=np.uint64) \
            .view(np.float64).tolist()
        values = with_neighbours([5e-324, MIN_NORMAL, MAX_DOUBLE]) + subnormals
        assert_spelled(values + [-x for x in subnormals] + [0.0, -0.0])
        assert_spelled([-0.0])
        assert _kernel.write_csv(*spelled_block([-0.0, 0.0, 5e-324, -MAX_DOUBLE]), (1,), 1) \
            .startswith(b"0,1,-0.0,0.0,5e-324,-1.7976931348623157e308,0.5,")

    def test_integral_floats_up_to_two_to_the_64(self):
        ints = list(range(0, 3000)) + [2**k + j for k in range(1, 65) for j in (-2, -1, 0, 1, 2)]
        ints += [10**k + j for k in range(1, 20) for j in (-1, 0, 1)]
        ints += np.random.default_rng(13).integers(0, 2**63, size=3000).tolist()
        values = [float(i) for i in ints if i <= 2**64]
        assert_spelled(values + [-x for x in values])

    def test_int64_extremes_in_labels_ids_and_sequence_numbers(self):
        extremes = [-2**63, -2**63 + 1, -10**18, -1, 0, 1, 9, 10, 99, 100, 10**18,
                    999_999_999_999_999_999, 2**63 - 1]
        labels = np.array(extremes, dtype=np.int64)
        block = np.zeros((len(labels), 2, 9))
        ids = (2**63 - 1, -2**63)
        text = _kernel.write_json(labels, block, ids)
        assert text == orjson.dumps(
            {"labels": labels, "sensors": {str(-2**63): [[0.0] * 9] * len(labels),
                                           str(2**63 - 1): [[0.0] * 9] * len(labels)}},
            option=orjson.OPT_SERIALIZE_NUMPY)
        rows = _kernel.write_csv(labels, block, ids, -2**63).splitlines()
        zeros = ",".join(["0.0"] * 9)
        assert rows == [f"{t},{sid},{zeros},{label},{-2**63}".encode()
                        for t, label in enumerate(extremes) for sid in (-2**63, 2**63 - 1)]
        assert _kernel.write_csv(labels[:1], block[:1], ids, 2**63 - 1).endswith(
            b",%d\n" % (2**63 - 1))

    def test_sensors_go_in_id_order_from_any_column_order(self):
        samples = np.random.default_rng(14).normal(size=(4, 3, 9))
        labels = np.array([0, 1, 1, 0])
        rec = SessionRecording(60.0, 2, [SensorInfo(i, f"s{i}") for i in (3, 1, 2)],
                               [Sequence((3, 1, 2), samples, labels)])
        assert _kernel.write_json(labels, samples, (3, 1, 2)) in parent_json(rec)
        assert b"1,3,%s" % b",".join(map(orjson.dumps, samples[1, 0].tolist())) \
            in _kernel.write_csv(labels, samples, (3, 1, 2), 1)

    @pytest.mark.parametrize("layout, meta", [
        pytest.param([(1, '"sequences":[]'), (2, "s2")],
                     {"x": '"sequences":[]', "sequences": []}, id="sequences-text"),
        pytest.param([(1, 'é "\\ \n\t  \x00'), (2, "\U0001f600")],
                     {"ü": ["\x1f", 'a"b', "\\"], "": {}}, id="escaped-and-non-ascii"),
        pytest.param([(2, "s2"), (1, "s1")], {}, id="empty-meta"),
    ])
    @pytest.mark.parametrize("lengths", [(1,), (1, 1), (1, 3, 2)], ids=["1", "1-1", "1-3-2"])
    def test_saves_write_the_bytes_of_the_whole_object_writer(self, tmp_path, layout, meta,
                                                              lengths):
        rng = np.random.default_rng(sum(lengths))
        ids = tuple(sid for sid, _ in layout)
        sequences = [Sequence(ids, rng.normal(scale=100.0, size=(n, len(ids), 9)),
                              np.arange(n) % 2 + (n == 1)) for n in lengths]
        rec = SessionRecording(60.0, 2, [SensorInfo(*item) for item in layout], sequences, meta)
        for path, expected in ((tmp_path / "rec.json", parent_json(rec)),
                               (tmp_path / "rec.csv", parent_csv(rec))):
            save_recording(rec, path)
            assert path.read_bytes() == expected
        data = (tmp_path / "rec.json").read_bytes()
        assert _kernel.read_json(data) is not None
        back = load_recording(tmp_path / "rec.json", validate="none")
        assert back.meta == meta and back.sensor_layout == rec.sensor_layout
        assert_same_recording(back, rec)
        assert data.count(b'"sequences":[{') == 1

    @pytest.mark.parametrize("args, error, message", [
        pytest.param((np.zeros(2), np.zeros((2, 1, 9)), (1,)), ValueError, "labels of int64",
                     id="float-labels"),
        pytest.param((np.zeros(2, np.int32), np.zeros((2, 1, 9)), (1,)), ValueError,
                     "labels of int64", id="int32-labels"),
        pytest.param((np.zeros(3, np.int64), np.zeros((2, 1, 9)), (1,)), ValueError,
                     "labels of int64 and shape", id="labels-of-another-length"),
        pytest.param((np.zeros((2, 1), np.int64), np.zeros((2, 1, 9)), (1,)), ValueError,
                     "labels of int64", id="labels-of-rank-2"),
        pytest.param((np.zeros(2, np.int64), np.zeros((2, 1, 9), np.float32), (1,)),
                     ValueError, "samples of float64", id="float32-samples"),
        pytest.param((np.zeros(2, np.int64), np.zeros((2, 1, 8)), (1,)), ValueError,
                     "samples of float64 and shape", id="rows-of-8"),
        pytest.param((np.zeros(2, np.int64), np.zeros((2, 9)), (1,)), ValueError,
                     "samples of float64 and shape", id="samples-of-rank-2"),
        pytest.param((np.zeros(2, np.int64), np.zeros((2, 2, 9))[:, ::-1], (1, 2)),
                     ValueError, "contiguous", id="reversed-samples"),
        pytest.param((np.zeros(4, np.int64)[::2], np.zeros((2, 1, 9)), (1,)), ValueError,
                     "contiguous", id="strided-labels"),
        pytest.param((np.zeros(2, np.int64), [[[0.0] * 9]] * 2, (1,)), TypeError, "bytes-like",
                     id="a-list"),
        pytest.param((np.zeros(2, np.int64), np.zeros((2, 2, 9)), (1,)), ValueError,
                     "one id per sensor", id="too-few-ids"),
        pytest.param((np.zeros(2, np.int64), np.zeros((2, 2, 9)), (1, 1)), ValueError,
                     "distinct ids", id="repeated-id"),
        pytest.param((np.zeros(2, np.int64), np.zeros((2, 1, 9)), (2**63,)), ValueError,
                     "within 64 bits", id="id-past-64-bits"),
        pytest.param((np.zeros(2, np.int64), np.zeros((2, 1, 9)), ("1",)), TypeError,
                     "cannot be interpreted as an integer", id="a-string-id"),
        pytest.param((np.zeros(2, np.int64), np.zeros((2, 1, 9)), 1), TypeError, "not iterable",
                     id="ids-not-a-sequence"),
        pytest.param((np.zeros(2, np.int64), np.zeros((2, 65, 9)), tuple(range(65))),
                     ValueError, "at most 64", id="65-sensors"),
        pytest.param((np.zeros(2, np.int64), np.full((2, 1, 9), np.inf), (1,)), ValueError,
                     "finite samples", id="an-infinity"),
        pytest.param((np.zeros(2, np.int64), np.array([[[0.0] * 8 + [np.nan]]] * 2), (1,)),
                     ValueError, "finite samples", id="a-nan"),
        pytest.param((np.zeros(2, np.int64), np.zeros((2, 1, 9))), TypeError, "3 arguments",
                     id="two-arguments"),
    ])
    def test_writers_refuse_arguments_they_cannot_read(self, args, error, message):
        with pytest.raises(error, match=message):
            _kernel.write_json(*args)
        if len(args) == 3:
            with pytest.raises(error, match=message):
                _kernel.write_csv(*args, 1)
        else:
            with pytest.raises(error, match="4 arguments"):
                _kernel.write_csv(*args)

    @pytest.mark.parametrize("sequence, error", [(2**63, ValueError), ("1", TypeError),
                                                 (1.0, TypeError)])
    def test_write_csv_refuses_a_sequence_number_it_cannot_write(self, sequence, error):
        with pytest.raises(error):
            _kernel.write_csv(np.zeros(1, np.int64), np.zeros((1, 1, 9)), (1,), sequence)

    def test_writers_take_empty_sequences_and_no_sensors(self):
        labels, empty = np.zeros(0, np.int64), np.zeros((0, 2, 9))
        assert _kernel.write_json(labels, empty, (2, 1)) == orjson.dumps(
            {"labels": [], "sensors": {"1": [], "2": []}})
        assert _kernel.write_csv(labels, empty, (2, 1), 1) == b""
        none = np.zeros((3, 0, 9))
        assert _kernel.write_json(np.zeros(3, np.int64), none, ()) == \
            b'{"labels":[0,0,0],"sensors":{}}'
        assert _kernel.write_csv(np.zeros(3, np.int64), none, (), 1) == b""


class TestCsvInputs:
    """Inputs the CSV loader accepts, and that they load bit for bit."""

    def test_shuffled_rows_load_as_ordered(self, small_noisy, tmp_path):
        ordered = tmp_path / "ordered.csv"
        save_recording(small_noisy, ordered)
        header, rows = csv_lines(ordered)
        shuffled = [rows[i] for i in np.random.default_rng(0).permutation(len(rows))]
        path = write_lines(tmp_path / "shuffled.csv", [header] + shuffled)
        assert_same_recording(load_recording(path, validate="none"),
                              load_recording(ordered, validate="none"))

    def test_scaled_foreign_columns_are_exact(self, small_noisy, tmp_path):
        path = tmp_path / "rec.csv"
        save_recording(small_noisy, path)
        header, rows = csv_lines(path)
        header = header.replace("tick,sensor_id,acc_x", "sample,node,ax")
        foreign = write_lines(tmp_path / "foreign.csv", [header + ",note"] + [
            f'{row},"free text, with a comma"' for row in rows])
        mapping = ImportMapping(columns={"tick": "sample", "sensor_id": "node", "acc_x": "ax"},
                                scale_acc=9.81, scale_gyro=0.0175, scale_mag=1e-3)
        back = load_recording(foreign, mapping=mapping, validate="none")
        for seq, orig in zip(back.sequences, small_noisy.sequences):
            assert seq.sensor_ids == orig.sensor_ids
            for j in range(len(orig.sensor_ids)):
                expected = orig.samples[:, j].copy()
                expected[:, 0:3] *= 9.81
                expected[:, 3:6] *= 0.0175
                expected[:, 6:9] *= 1e-3
                assert same_bits(seq.samples[:, j], expected)

    def test_angles_mode_is_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        angles = {sid: rng.uniform(-80.0, 80.0, size=(50, 3)) for sid in (1, 3)}
        rows = ["tick,sensor_id,pitch,roll,yaw,label,sequence"]
        for t in range(50):
            for sid, a in angles.items():
                pitch, roll, yaw = a[t].tolist()
                rows.append(f"{t},{sid},{pitch!r},{roll!r},{yaw!r},{t % 2},1")
        path = write_lines(tmp_path / "angles.csv", rows)
        rec = load_recording(path, mapping=ImportMapping(mode="angles", sample_rate_hz=50.0),
                             validate="none")
        assert rec.sample_rate_hz == 50.0 and rec.class_count == 2
        assert rec.sensor_ids == tuple(angles)
        for j, a in enumerate(angles.values()):
            assert same_bits(rec.sequences[0].samples[:, j], angles_to_raw(a, 50.0))

    def test_quoted_fields_and_crlf(self, tmp_path):
        lines = base_lines() + [csv_row(3, 1, label=1), csv_row(3, 2, label=1)]
        plain = write_lines(tmp_path / "plain.csv", lines)
        quoted = tmp_path / "quoted.csv"
        with quoted.open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, quoting=csv.QUOTE_ALL, lineterminator="\r\n")
            writer.writerows(line.split(",") for line in lines)
        assert '"0.5"' in quoted.read_text()
        assert_same_recording(load_recording(quoted, validate="none"),
                              load_recording(plain, validate="none"))


def random_csv(path, seed):
    """A valid CSV of 1-3 sequences and 1-3 sensors with random ids, rows
    in random order, mixed number spellings and a few blank lines."""
    rng = np.random.default_rng(seed)
    sequences = sorted(rng.choice(np.arange(1, 6), size=rng.integers(1, 4), replace=False))
    sensors = rng.permutation(np.arange(1, 7))[:rng.integers(1, 4)]
    spell = (repr, "{:.6e}".format, "{:g}".format, lambda v: f'"{v!r}"', lambda v: f" {v!r} ")
    rows = []
    for q in sequences:
        n = int(rng.integers(1, 40))
        labels = rng.integers(0, 9, size=n)
        for t in range(n):
            for s in sensors:
                values = rng.normal(scale=10.0 ** rng.integers(-3, 4), size=9).tolist()
                rows.append(",".join([str(t), str(s)]
                                     + [spell[rng.integers(len(spell))](v) for v in values]
                                     + [str(labels[t]), str(q)]))
    rows = [rows[i] for i in rng.permutation(len(rows))]
    for i in rng.integers(0, len(rows), size=3):
        rows.insert(i, "")
    return write_lines(path, [HEADER] + rows)


@pytest.mark.parametrize("seed", range(8))
def test_loader_matches_row_by_row_reference(tmp_path, seed):
    path = random_csv(tmp_path / "rec.csv", seed)
    scales = (2.0, 0.5, 1e-3)
    mapping = ImportMapping(scale_acc=scales[0], scale_gyro=scales[1], scale_mag=scales[2])
    rec = load_recording(path, mapping=mapping, validate="none")
    expected = csv_reference_load(path, scales)
    assert len(rec.sequences) == len(expected)
    for seq, (labels, samples) in zip(rec.sequences, expected):
        assert same_bits(seq.labels, labels)
        assert list(seq.sensor_ids) == sorted(samples) == list(rec.sensor_ids)
        for j, sid in enumerate(seq.sensor_ids):
            assert same_bits(seq.samples[:, j], samples[sid])


class TestSplit:
    def test_default_split(self, small_noisy):
        train, test = split_session(small_noisy)
        assert train == [small_noisy.sequences[0], small_noisy.sequences[1]]
        assert test == [small_noisy.sequences[2]]

    def test_custom_split_leaves_rest_unused(self, small_noisy):
        train, test = split_session(
            small_noisy, SplitSpec(train=frozenset({1}), test=frozenset({2}))
        )
        assert train == [small_noisy.sequences[0]]
        assert test == [small_noisy.sequences[1]]

    def test_overlapping_split_rejected(self, small_noisy):
        with pytest.raises(SplitSpecError):
            split_session(
                small_noisy, SplitSpec(train=frozenset({1, 2}), test=frozenset({2}))
            )

    def test_out_of_range_index(self, small_noisy):
        with pytest.raises(SplitSpecError):
            split_session(small_noisy, SplitSpec(train=frozenset({1}), test=frozenset({4})))

    @pytest.mark.parametrize("index", [1.0, True, "1", None], ids=["float", "bool", "str", "none"])
    def test_index_that_is_not_an_integer(self, index):
        spec = SplitSpec(train=frozenset({2}), test=frozenset({index}))
        with pytest.raises(SplitSpecError, match=f"sequence index {re.escape(repr(index))} "
                                                 "is not an integer"):
            spec.validate(3)

    def test_numpy_integer_index(self, small_noisy):
        spec = SplitSpec(train=frozenset({np.int64(1)}), test=frozenset({np.int32(3)}))
        assert split_session(small_noisy, spec) == ([small_noisy.sequences[0]],
                                                    [small_noisy.sequences[2]])

    def test_no_tick_leaks_between_default_splits(self, small_noisy):
        train, test = split_session(small_noisy)
        train_ids = {id(seq) for seq in train}
        assert all(id(seq) not in train_ids for seq in test)


class TestValidation:
    def test_protocol_issue_detected(self, small_noisy):
        seq = small_noisy.sequences[0]
        truncated = Sequence(seq.sensor_ids, seq.samples[:450], seq.labels[:450])
        issues = protocol_issues(truncated, 60.0, small_noisy.class_count)
        assert issues

    def test_strict_mode_raises_warn_mode_warns(self, small_noisy):
        seq = small_noisy.sequences[0]
        bad = SessionRecording(
            sample_rate_hz=60.0,
            class_count=small_noisy.class_count,
            sensor_layout=small_noisy.sensor_layout,
            sequences=[
                Sequence(seq.sensor_ids, seq.samples[:450], seq.labels[:450])
            ] * 3,
        )
        with pytest.raises(ValidationError):
            validate_recording(bad, protocol="strict")
        with pytest.warns(UserWarning):
            validate_recording(bad, protocol="warn")

    def test_sequence_sensor_ids_must_be_the_layout_in_order(self, small_noisy):
        seqs = [Sequence((2, 1), seq.samples, seq.labels) for seq in small_noisy.sequences]
        rec = dataclasses.replace(small_noisy, sequences=seqs)
        with pytest.raises(AlignmentError, match=re.escape(
                "sequence 1: sensor ids (2, 1) are not the layout's (1, 2)")):
            validate_recording(rec, protocol="none")

    def test_samples_must_hold_one_row_per_tick_and_sensor(self, small_noisy):
        seq = small_noisy.sequences[0]
        rec = dataclasses.replace(
            small_noisy, sequences=[Sequence(seq.sensor_ids, seq.samples[:, :1], seq.labels)])
        with pytest.raises(AlignmentError, match=re.escape(
                f"sequence 1: samples of shape ({seq.n_ticks}, 1, 9), "
                f"expected ({seq.n_ticks}, 2, 9)")):
            validate_recording(rec, protocol="none")

    @pytest.mark.parametrize("rate", [0.0, -60.0, float("nan"), float("inf")])
    def test_sample_rate_must_be_finite_and_positive(self, small_noisy, rate):
        rec = SessionRecording(rate, small_noisy.class_count, small_noisy.sensor_layout,
                               small_noisy.sequences)
        with pytest.raises(ValidationError, match="sample_rate_hz"):
            validate_recording(rec, protocol="none")

    def test_csv_rate_of_zero_rejected(self, tmp_path):
        path = write_lines(tmp_path / "rec.csv", base_lines() + [csv_row(3, 1, label=1),
                                                               csv_row(3, 2, label=1)])
        with pytest.raises(ValidationError, match="sample_rate_hz"):
            load_recording(path, mapping=ImportMapping(sample_rate_hz=0.0), validate="none")
