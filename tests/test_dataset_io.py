import json

import numpy as np
import pytest

from bomi.dataset_io import (
    ImportMapping,
    ImuSample,
    Sequence,
    SessionRecording,
    SensorInfo,
    SplitSpec,
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

from oracles import nearest_target_class


def meta_targets(rec):
    """class -> {sensor index: target vector}, including neutral."""
    index = {sid: i for i, sid in enumerate(rec.sensor_ids)}
    out = {0: {i: np.zeros(3) for i in range(len(rec.sensor_ids))}}
    for cls, per in rec.meta["class_targets"].items():
        out[int(cls)] = {index[int(s)]: np.asarray(v) for s, v in per.items()}
    return out


class TestImuSample:
    def test_valid(self):
        s = ImuSample(1, 0, (0, 0, 1), (0, 0, 0), (1, 0, 0))
        assert s.sensor_id == 1

    def test_sensor_id_out_of_range(self):
        for sensor_id in (0, 7):
            with pytest.raises(ValidationError):
                ImuSample(sensor_id, 0, (0, 0, 1), (0, 0, 0), (1, 0, 0))

    def test_non_finite_component(self):
        with pytest.raises(ValidationError):
            ImuSample(1, 0, (0, 0, float("nan")), (0, 0, 0), (1, 0, 0))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("position", range(9))
    def test_each_position_rejects_non_finite(self, position, bad):
        values = [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0]
        values[position] = bad
        with pytest.raises(ValidationError):
            ImuSample(1, 0, tuple(values[0:3]), tuple(values[3:6]), tuple(values[6:9]))

    @pytest.mark.parametrize("vector", range(3))
    def test_two_element_vector_rejected(self, vector):
        vectors = [(0.0, 0.0, 1.0), (0.0, 0.0, 0.0), (1.0, 0.0, 0.0)]
        vectors[vector] = vectors[vector][:2]
        with pytest.raises(ValidationError):
            ImuSample(1, 0, *vectors)

    def test_sample_at_gives_python_floats_equal_to_the_row(self):
        rows = np.random.default_rng(4).normal(size=(5, 9))
        seq = Sequence(samples={2: rows}, labels=np.zeros(5, dtype=int))
        for tick in range(5):
            s = seq.sample_at(2, tick)
            values = s.acc + s.gyro + s.mag
            assert (s.sensor_id, s.tick) == (2, tick)
            assert all(type(v) is float for v in values)
            assert np.array(values).tobytes() == rows[tick].tobytes()


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
        assert back.class_count == small_noisy.class_count
        for sa, sb in zip(back.sequences, small_noisy.sequences):
            assert (sa.labels == sb.labels).all()
            for sid in sb.samples:
                assert np.allclose(sa.samples[sid], sb.samples[sid], atol=1e-6)

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
        with pytest.raises(SchemaError):
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
            rows.append(f"{t},1,{float(pitch[t])!r},0.0,25.0,0,1")
        path = tmp_path / "angles.csv"
        path.write_text("\n".join(rows) + "\n")
        # without the angles-mode mapping the canonical columns are missing
        with pytest.raises(SchemaError):
            load_recording(path, validate="none")
        mapping = ImportMapping(mode="angles")
        rec = load_recording(path, mapping=mapping, validate="none", class_count=2)
        fused = fuse_sequence(
            rec.sequences[0].samples, rec.sensor_ids, 60.0,
        )
        assert np.abs(fused.angles[:, 0, 0] - (pitch - pitch[:60].mean())).max() < 0.2

    def test_unknown_mapping_key(self, tmp_path):
        cfg = tmp_path / "mapping.cfg"
        cfg.write_text("colour.tick=sample\n")
        with pytest.raises(ParseError):
            ImportMapping.from_file(cfg)


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

    def test_sequence_count_enforced(self, small_noisy):
        partial = SessionRecording(
            60.0, small_noisy.class_count, small_noisy.sensor_layout,
            small_noisy.sequences[:2],
        )
        with pytest.raises(ValidationError):
            validate_recording(partial, expect_sequences=3, protocol="none")
        validate_recording(partial, expect_sequences=None, protocol="none")
