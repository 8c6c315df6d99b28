import csv
import json

import numpy as np
import pytest

from bomi.cli import main
from bomi.dataset_io import (
    CSV_HEADER,
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
    ParseError,
    SchemaError,
    SplitSpecError,
    ValidationError,
)
from bomi.experiments import sequence_windows
from bomi.fusion import fuse_sequence
from bomi.pipeline import StreamingPipeline

from oracles import csv_reference_load, nearest_target_class


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
        assert sorted(sa.samples) == sorted(sb.samples)
        for sid in sb.samples:
            assert same_bits(sa.samples[sid], sb.samples[sid])


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
            seqs = [Sequence({sensor_id: seq.samples[1], 2: seq.samples[2]}, seq.labels)
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
        rows = np.random.default_rng(4).normal(size=(5, 9))
        seq = Sequence(samples={2: rows}, labels=np.zeros(5, dtype=int))
        for tick in range(5):
            samples = seq.tick_samples(tick)
            assert list(samples) == [2]
            assert all(type(v) is float for v in samples[2])
            assert np.array(samples[2]).tobytes() == rows[tick].tobytes()
        # A fresh dict each call: popping a sensor leaves the sequence whole.
        seq.tick_samples(0).pop(2)
        assert list(seq.tick_samples(0)) == [2]


class TestSynth:
    def test_deterministic_for_fixed_seed(self):
        a = synth_session(class_count=3, sensor_count=1, seed=5)
        b = synth_session(class_count=3, sensor_count=1, seed=5)
        assert a.meta == b.meta
        for sa, sb in zip(a.sequences, b.sequences):
            assert (sa.labels == sb.labels).all()
            for sid in sa.samples:
                assert (sa.samples[sid] == sb.samples[sid]).all()

    def test_different_seed_differs(self):
        a = synth_session(class_count=3, sensor_count=1, seed=5)
        b = synth_session(class_count=3, sensor_count=1, seed=6)
        assert not (a.sequences[0].samples[1] == b.sequences[0].samples[1]).all()

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
        fused = fuse_sequence(seq.samples, rec.sensor_ids, rec.sample_rate_hz)
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
        fused = fuse_sequence(seq.samples, rec.sensor_ids, rec.sample_rate_hz)
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
        fused = fuse_sequence(seq.samples, rec.sensor_ids, rec.sample_rate_hz)
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
            for sid in sb.samples:
                assert (sa.samples[sid] == sb.samples[sid]).all()

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
        orig = small_noisy.sequences[0].samples[1]
        assert np.allclose(rec.sequences[0].samples[1][:, 3:6], 0.5 * orig[:, 3:6])
        assert np.allclose(rec.sequences[0].samples[1][:, 0:3], orig[:, 0:3])

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
        fused = fuse_sequence(
            rec.sequences[0].samples, rec.sensor_ids, 60.0,
        )
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

    @pytest.mark.parametrize("field, value, message", JSON_FAULTS)
    def test_schema_error_names_the_field(self, tmp_path, field, value, message):
        with pytest.raises(SchemaError, match=message):
            load_recording(self.write(tmp_path, field, value), validate="none")

    @pytest.mark.parametrize("field, value, message", JSON_FAULTS)
    def test_cli_train_exits_2(self, tmp_path, capsys, field, value, message):
        path = self.write(tmp_path, field, value)
        assert main(["train", "--recording", str(path), "--out", str(tmp_path / "m.json")]) == 2
        assert message in capsys.readouterr().err


def csv_lines(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0], lines[1:]


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
            for sid, arr in orig.samples.items():
                expected = arr.copy()
                expected[:, 0:3] *= 9.81
                expected[:, 3:6] *= 0.0175
                expected[:, 6:9] *= 1e-3
                assert same_bits(seq.samples[sid], expected)

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
        for sid, a in angles.items():
            assert same_bits(rec.sequences[0].samples[sid], angles_to_raw(a, 50.0))

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
        assert sorted(seq.samples) == sorted(samples) == list(rec.sensor_ids)
        for sid, arr in samples.items():
            assert same_bits(seq.samples[sid], arr)


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

    def test_no_tick_leaks_between_default_splits(self, small_noisy):
        train, test = split_session(small_noisy)
        train_ids = {id(seq) for seq in train}
        assert all(id(seq) not in train_ids for seq in test)


class TestValidation:
    def test_protocol_issue_detected(self, small_noisy):
        seq = small_noisy.sequences[0]
        truncated = Sequence(
            samples={sid: arr[:450] for sid, arr in seq.samples.items()},
            labels=seq.labels[:450],
        )
        issues = protocol_issues(truncated, 60.0, small_noisy.class_count)
        assert issues

    def test_strict_mode_raises_warn_mode_warns(self, small_noisy):
        seq = small_noisy.sequences[0]
        bad = SessionRecording(
            sample_rate_hz=60.0,
            class_count=small_noisy.class_count,
            sensor_layout=small_noisy.sensor_layout,
            sequences=[
                Sequence(
                    samples={sid: arr[:450] for sid, arr in seq.samples.items()},
                    labels=seq.labels[:450],
                )
            ] * 3,
        )
        with pytest.raises(ValidationError):
            validate_recording(bad, protocol="strict")
        with pytest.warns(UserWarning):
            validate_recording(bad, protocol="warn")

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
