import copy
import csv
import math
from dataclasses import replace

import numpy as np
import pytest

import bomi.pipeline
from bomi.dataset_io import Sequence, synth_session
from bomi.errors import (
    LayoutError,
    MappingError,
    ModelFormatError,
    SplitSpecError,
    ValidationError,
)
from bomi.experiments import sequence_windows
from bomi.features import extract_matrix, prop_output, tick_gamma
from bomi.fusion import (
    FLAG_ACCEL_FALLBACK,
    FLAG_GAP,
    FLAG_GIMBAL_GUARD,
    FLAG_MAG_FALLBACK,
    FusionConfig,
    fuse_sequence,
)
from bomi.lda import deserialize, predict_many, serialize
from bomi.pipeline import (
    Command,
    CommandMapping,
    StreamingPipeline,
    VirtualDevice,
    map_command,
    max_consecutive_disagreements,
    replay,
    smooth,
    write_command_log,
)

from oracles import assert_same_bits, fv3_reference, fv3_values


def drive(pipe, seq, n=None):
    outs = []
    for t in range(n or seq.n_ticks):
        out = pipe.step(t, seq.tick_samples(t))
        if out is not None:
            outs.append(out)
    return outs


class TestCommandMapping:
    def test_default_covers_eight_classes(self):
        m = CommandMapping.default(range(9))
        assert m.table[0] is Command.NEUTRAL
        assert [m.table[c].value for c in range(1, 9)] == [
            "F", "B", "R", "L", "Rr", "Lr", "B1", "B2",
        ]

    def test_class_zero_must_be_neutral(self):
        with pytest.raises(MappingError):
            CommandMapping(table={0: Command.F})

    def test_unmapped_class(self):
        m = CommandMapping.default(range(3))
        with pytest.raises(MappingError):
            m.command_for(5)
        with pytest.raises(MappingError):
            m.validate_classes([0, 1, 5])

    def test_half_speed_forward(self):
        m = CommandMapping.default(range(9), v_max=20.0)
        command, velocity, event = map_command(1, 0.5, m)
        assert command is Command.F
        assert velocity == pytest.approx(10.0)
        assert event is False

    def test_neutral_zero_velocity(self):
        m = CommandMapping.default(range(9))
        command, velocity, event = map_command(0, 0.9, m)
        assert command is Command.NEUTRAL
        assert velocity == 0.0 and event is False

    def test_button_edge_trigger(self):
        m = CommandMapping.default(range(9))
        events = []
        prev = None
        for _ in range(30):
            command, velocity, event = map_command(7, 0.4, m, previous_cls=prev)
            assert command is Command.B1  # held state reported every window
            assert velocity == 0.0
            events.append(event)
            prev = 7
        assert events[0] is True
        assert not any(events[1:])  # the click fires once per entry


class TestSmoothing:
    def test_none_is_identity(self):
        stream = [1, 1, 0, 2, 2, 0]
        assert smooth("none", stream) == stream

    def test_majority_of_three(self):
        assert smooth("majority:3", [1, 1, 0, 1])[-1] == 1

    def test_all_neutral_stays_neutral(self):
        assert smooth("majority:5", [0] * 20) == [0] * 20

    def test_tie_keeps_previous_output(self):
        out = smooth("majority:2", [1, 1, 2, 2])
        # window [1, 2] ties; previous output was 1
        assert out[2] == 1

    def test_bad_policy(self):
        with pytest.raises(ValidationError):
            smooth("median:3", [1])
        with pytest.raises(ValidationError):
            smooth("majority:0", [1])
        with pytest.raises(ValidationError, match="integer"):
            smooth("majority:x", [1])


class TestMaxRun:
    def test_hand_built_runs(self):
        ref = [0] * 40
        pred = list(ref)
        pred[2:5] = [1] * 3
        pred[10:28] = [2] * 18
        pred[30:35] = [1] * 5
        assert max_consecutive_disagreements(pred, ref) == 18

    def test_all_agree(self):
        assert max_consecutive_disagreements([1, 2, 3], [1, 2, 3]) == 0

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            max_consecutive_disagreements([1], [1, 2])


class TestStreaming:
    def test_warmup_then_one_output_per_tick(self, small_noisy):
        from bomi.experiments import train_session

        model, _ = train_session(small_noisy, fusion=FusionConfig(calib_ticks=0))
        pipe = StreamingPipeline(model, sample_rate_hz=60.0)
        seq = small_noisy.sequences[0]
        outs = []
        for t in range(20):
            out = pipe.step(t, seq.tick_samples(t))
            if t < 7:
                assert out is None
            else:
                assert out is not None
            outs.append(out)
        assert sum(o is not None for o in outs) == 13

    def test_neutral_stream_gives_neutral_command(self, small_model, small_noisy):
        model, _ = small_model
        pipe = StreamingPipeline(model, sample_rate_hz=60.0)
        seq = small_noisy.sequences[0]
        outs = drive(pipe, seq, n=290)  # calibration plus neutral lead-in
        assert outs, "no outputs during neutral lead-in"
        assert all(o.label == 0 for o in outs)
        assert all(o.command is Command.NEUTRAL for o in outs)
        assert all(o.nu == 0.0 for o in outs)

    def test_replay_matches_offline_predictions(self, small_model, small_noisy):
        model, _ = small_model
        outputs, _ = replay(small_noisy, model, sequence_indices=[3])
        offline = sequence_windows(small_noisy, small_noisy.sequences[2])
        X = extract_matrix(model.feature_kind, offline, model.layout)
        want = predict_many(model, X)
        got = [o.label for o in outputs]
        assert got == want.tolist()
        assert [o.tick for o in outputs] == [w.end_tick for w in offline]

    def test_gap_repeats_last_sample_and_flags(self, small_model, small_noisy):
        model, _ = small_model
        seq = small_noisy.sequences[0]
        n = 300
        outs_clean = drive(StreamingPipeline(model), seq, n)

        pipe = StreamingPipeline(model)
        outs_gap = []
        for t in range(n):
            samples = seq.tick_samples(t)
            if t == 200:
                samples.pop(2)  # sensor 2 dropped this tick
            out = pipe.step(t, samples)
            if out is not None:
                outs_gap.append(out)
        assert len(outs_gap) == len(outs_clean)
        gap_out = next(o for o in outs_gap if o.tick == 200)
        assert FLAG_GAP in gap_out.flags

    def test_gap_tick_counted_and_flagged(self, small_model, small_noisy):
        model, _ = small_model
        seq = small_noisy.sequences[0]
        pipe = StreamingPipeline(model)
        outs = {}
        for t in range(100):
            samples = seq.tick_samples(t)
            if t == 80:  # past calibration and the first full window
                samples.pop(2)
            out = pipe.step(t, samples)
            if out is not None:
                outs[out.tick] = out
        assert pipe.dropped_ticks == 1
        assert FLAG_GAP in outs[80].flags
        assert not any(FLAG_GAP in o.flags for tick, o in outs.items() if tick != 80)

    def test_replay_sums_dropped_ticks(self, small_model, small_noisy, monkeypatch):
        model, _ = small_model
        seq = small_noisy.sequences[2]
        full = seq.tick_samples

        def with_gaps(t):
            samples = full(t)
            if t in (100, 101, 250):
                samples.pop(1)
            return samples

        monkeypatch.setattr(seq, "tick_samples", with_gaps)
        _, stats = replay(small_noisy, model, sequence_indices=[3])
        assert stats.dropped_ticks == 3
        assert stats.to_dict()["dropped_ticks"] == 3

    @pytest.mark.parametrize("rate", [0.0, -60.0, float("nan"), float("inf")])
    def test_sample_rate_must_be_finite_and_positive(self, small_model, rate):
        model, _ = small_model
        with pytest.raises(ValidationError, match="sample_rate_hz"):
            StreamingPipeline(model, sample_rate_hz=rate)

    def test_missing_sensor_at_start_rejected(self, small_model, small_noisy):
        model, _ = small_model
        pipe = StreamingPipeline(model)
        samples = small_noisy.sequences[0].tick_samples(0)
        samples.pop(2)
        with pytest.raises(LayoutError):
            pipe.step(0, samples)

    def test_button_fires_once_per_entry(self):
        rec = synth_session(class_count=9, sensor_count=3, noise_deg=0.5, seed=42)
        from bomi.experiments import train_session

        gamma_sensors = {int(k): int(v) for k, v in rec.meta["class_sensors"].items()}
        model, _ = train_session(rec, class_sensor=gamma_sensors)
        outputs, _ = replay(rec, model, sequence_indices=[3])
        events = [o for o in outputs if o.button_event]
        runs_of_7 = 0
        prev = None
        for o in outputs:
            if o.label == 7 and prev != 7:
                runs_of_7 += 1
            prev = o.label
        assert runs_of_7 >= 3
        b1_events = [o for o in events if o.command is Command.B1]
        assert len(b1_events) == runs_of_7  # edge-triggered: one event per entry
        # held button windows keep reporting the button state
        assert all(
            o.command is Command.B1 for o in outputs if o.label == 7
        )

    def test_neutral_command_iff_neutral_class(self, small_model, small_noisy):
        model, _ = small_model
        outputs, _ = replay(small_noisy, model)
        for o in outputs:
            assert (o.command is Command.NEUTRAL) == (o.label == 0)

    def test_velocity_bounded_by_v_max(self, small_model, small_noisy):
        model, _ = small_model
        mapping = CommandMapping.default(model.classes, v_max=20.0)
        outputs, _ = replay(small_noisy, model, mapping=mapping)
        assert all(0.0 <= o.velocity <= 20.0 for o in outputs)
        assert all(0.0 <= o.nu <= 1.0 for o in outputs)

    @pytest.mark.parametrize("window", [0, -1])
    def test_window_below_one_rejected(self, small_model, tmp_path, window):
        # The pipeline takes its geometry from the model; model load checks it.
        model, _ = small_model
        path = tmp_path / "model.json"
        serialize(replace(model, window=window), path)
        with pytest.raises(ModelFormatError, match="window geometry"):
            deserialize(path)

    @pytest.mark.parametrize("window, overlap", [(6, 5), (9, 8), (16, 8)])
    def test_fv3_misfit_window_rejected_at_construction(self, small_model, tmp_path,
                                                        window, overlap):
        model, _ = small_model
        assert model.feature_kind == "fv3"
        path = tmp_path / "model.json"
        serialize(replace(model, window=window, overlap=overlap), path)
        with pytest.raises(ModelFormatError, match="fv3 requires windows of length 8"):
            deserialize(path)

    @pytest.mark.parametrize("values", ["cancelling", "signed_zero"])
    @pytest.mark.parametrize("overlap", [7, 4])
    def test_fv3_stream_equals_oracle(self, small_noisy, monkeypatch, values, overlap):
        # The gyro channels carry the values; each emitted vector must equal
        # the plain-loop oracle on the same window's ticks, bit for bit.
        from bomi.experiments import train_session

        model, _ = train_session(small_noisy, feature_kind="fv3", overlap=overlap)
        sensor_ids = small_noisy.sensor_ids
        n_ticks = 120
        gyro = fv3_values(values, (n_ticks, len(sensor_ids), 3), seed=overlap)
        rows = {}
        for si, sid in enumerate(sensor_ids):
            rows[sid] = small_noisy.sequences[2].samples[sid][:n_ticks].copy()
            rows[sid][:, 3:6] = gyro[:, si]
        seq = Sequence(rows, small_noisy.sequences[2].labels[:n_ticks])

        vectors = []
        monkeypatch.setattr(bomi.pipeline, "predict", lambda m, x: vectors.append(x.copy()) or 0)
        outs = drive(StreamingPipeline(model), seq)
        windows = sequence_windows(
            replace(small_noisy, sequences=[seq]), seq, overlap=overlap
        )
        assert [o.tick for o in outs] == [w.end_tick for w in windows]
        assert len(vectors) == len(windows) > 0
        for x, w in zip(vectors, windows):
            assert_same_bits(x, fv3_reference(w.angles, w.gyro))

    def test_layout_mismatch_rejected(self, small_model):
        model, _ = small_model
        other = synth_session(class_count=3, sensor_count=1, seed=1)
        with pytest.raises(LayoutError):
            replay(other, model)

    @pytest.mark.parametrize("indices", [[0], [-1], [4], [3, 9]])
    def test_sequence_index_out_of_range_rejected(self, small_model, small_noisy,
                                                  monkeypatch, indices):
        model, _ = small_model
        steps = []
        monkeypatch.setattr(StreamingPipeline, "step", lambda *args: steps.append(args))
        with pytest.raises(SplitSpecError, match="out of range"):
            replay(small_noisy, model, sequence_indices=indices)
        assert steps == []

    def test_custom_window_geometry_matches_offline(self, small_noisy):
        # non-default window/overlap must keep streaming aligned with
        # offline windowing (fv1 tolerates any window length)
        from bomi.experiments import train_session

        model, _ = train_session(
            small_noisy, feature_kind="fv1", learn_amplitude=False,
            window=6, overlap=4,
        )
        outputs, _ = replay(small_noisy, model, sequence_indices=[3])
        offline = sequence_windows(
            small_noisy, small_noisy.sequences[2], window=6, overlap=4
        )
        X = extract_matrix("fv1", offline, model.layout)
        assert [o.label for o in outputs] == predict_many(model, X).tolist()
        assert [o.tick for o in outputs] == [w.end_tick for w in offline]


    @pytest.mark.parametrize("kind, window, overlap", [
        ("fv1", 8, 7), ("fv2", 8, 7), ("fv3", 8, 7), ("fv1", 6, 4), ("fv2", 6, 4),
        ("fv3", 8, 4), ("fv3", 8, 6), ("fv2", 12, 11),
    ])
    def test_degraded_stream_equals_offline_bitwise(self, small_noisy, kind, window, overlap):
        # Zero-accel and zero-mag spans, pitch driven past the gimbal guard,
        # and dropped sensors; offline, a dropped sensor repeats its
        # previous raw row, which is what the stream does.
        from bomi.experiments import train_session

        class_sensor = {int(k): int(v) for k, v in small_noisy.meta["class_sensors"].items()}
        model, _ = train_session(small_noisy, feature_kind=kind, class_sensor=class_sensor,
                                 window=window, overlap=overlap)
        sensor_ids = small_noisy.sensor_ids
        clean = small_noisy.sequences[2]
        rows = {sid: clean.samples[sid][:2000].copy() for sid in sensor_ids}
        primary, other = rows[sensor_ids[0]], rows[sensor_ids[-1]]
        primary[400:430, 0:3] = 0.0
        other[700:730, 6:9] = 0.0
        primary[1000:1060, 4] = 200.0   # pitch rate: past the guard, to the clamp
        other[1500:1520, 0:3] = 0.0
        other[1500:1520, 6:9] = 0.0
        seq = Sequence(rows, clean.labels[:2000])
        # Tick 503 is an emission tick at strides 1, 2 and 4.
        drops = {10: (2,), 300: (1,), 301: (1,), 302: (1, 2), 503: (2,), 900: (2,),
                 1030: (1,)}

        pipe = StreamingPipeline(model)
        outs = []
        for t in range(seq.n_ticks):
            samples = seq.tick_samples(t)
            for sid in drops.get(t, ()):
                del samples[sid]
            out = pipe.step(t, samples)
            if out is not None:
                outs.append(out)
        assert pipe.dropped_ticks == len(drops)

        filled = {sid: r.copy() for sid, r in rows.items()}
        for t in sorted(drops):
            for sid in drops[t]:
                filled[sid][t] = filled[sid][t - 1]
        offline_seq = Sequence(filled, seq.labels)
        recording = replace(small_noisy, sequences=[offline_seq])
        windows = sequence_windows(recording, offline_seq, window=window, overlap=overlap)
        fused = fuse_sequence(filled, sensor_ids, recording.sample_rate_hz)

        assert [o.tick for o in outs] == [w.end_tick for w in windows]
        X = extract_matrix(kind, windows, model.layout)
        assert [o.label for o in outs] == predict_many(model, X).tolist()
        ranges = model.ranges
        for o, w in zip(outs, windows):
            nu = 0.0
            if o.label != 0 and o.label in ranges.ranges:
                si = sensor_ids.index(ranges.class_sensor[o.label])
                nu = prop_output(float(tick_gamma(w.angles[:, si]).mean()), o.label, ranges)
            assert o.nu == nu
            flags = []
            for si, sid in enumerate(sensor_ids):
                if sid in drops.get(o.tick, ()):
                    flags.append(FLAG_GAP)
                flags.extend(fused.flags[si][o.tick])
            assert o.flags == tuple(dict.fromkeys(flags))

        seen = {f for o in outs for f in o.flags}
        assert {FLAG_GAP, FLAG_ACCEL_FALLBACK, FLAG_MAG_FALLBACK, FLAG_GIMBAL_GUARD} <= seen
        assert any(o.nu > 0.0 for o in outs)


@pytest.mark.parametrize("n_sensors", range(1, 7))
def test_ring_mean_equals_tick_gamma_mean_bitwise(n_sensors):
    # The stream writes each tick's amplitude, math.sqrt of the summed
    # squares, to rows k and k + w of a (2w, S) ring and averages a
    # window's column with numpy's sum and one division; offline averages
    # tick_gamma over the window's angles. Lengths past 8 cover numpy's
    # 8-lane sum and its tail.
    rng = np.random.default_rng(n_sensors)
    for w in range(1, 41):
        n_ticks = 3 * w + 5
        angles = rng.normal(scale=rng.choice([1e-3, 1.0, 90.0]), size=(n_ticks, n_sensors, 3))
        ring = np.zeros((2 * w, n_sensors))
        for t in range(n_ticks):
            k = t % w
            ring[k::w] = [math.sqrt(p * p + r * r + y * y) for p, r, y in angles[t].tolist()]
            if t + 1 < w:
                continue
            window = angles[t + 1 - w:t + 1]
            for si in range(n_sensors):
                ring_mean = float(np.add.reduce(ring[k + 1:k + 1 + w, si]) / w)
                assert ring_mean.hex() == float(tick_gamma(window[:, si]).mean()).hex()


def emitted(outs):
    """Everything an output carries except its wall-clock latency."""
    return [(o.tick, o.label, o.nu, o.command, o.velocity, o.button_event, o.flags)
            for o in outs]


def pipeline_state(pipe):
    """Every attribute a step can change, arrays as bytes, copied."""
    fixed = ("model", "mapping", "layout", "_smoother")
    return {k: v.tobytes() if isinstance(v, np.ndarray) else copy.deepcopy(v)
            for k, v in vars(pipe).items() if k not in fixed}


class TestStepInput:
    """``step`` takes 9 real numbers per sensor; a rejected tick changes nothing."""

    @pytest.mark.parametrize("row", [
        pytest.param([0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0], id="ten-values"),
        pytest.param([0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, "0"], id="str"),
        pytest.param([0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, None], id="none"),
        pytest.param(1.0, id="scalar"),
    ])
    def test_malformed_row_rejected(self, small_model, small_noisy, row):
        model, _ = small_model
        samples = small_noisy.sequences[0].tick_samples(5)
        samples[2] = row
        with pytest.raises(ValidationError, match="sensor 2 at tick 5: expected 9 finite"):
            StreamingPipeline(model).step(5, samples)

    @pytest.mark.parametrize("bad_tick, missing", [
        (30, ()),      # during calibration
        (200, ()),     # an emission tick, neutral
        (150, (1,)),   # sensor 1 missing too: no gap is counted
        (450, ()),     # an emission tick inside a class 1 hold
    ])
    def test_rejected_tick_changes_nothing(self, small_model, small_noisy, bad_tick, missing):
        model, _ = small_model
        seq = small_noisy.sequences[2]
        n = 600
        # Sensor 1 drops out on the tick after the rejected one, so its
        # repeated row shows which row the pipeline kept.
        drops = {bad_tick + 1: (1,)}
        pipe = StreamingPipeline(model)
        outs = []
        for t in range(n):
            samples = seq.tick_samples(t)
            for sid in drops.get(t, ()):
                del samples[sid]
            if t == bad_tick:
                for sid in missing:
                    del samples[sid]
                samples[2][4] = float("nan")  # sensor 1's row, checked first, is valid
                before = pipeline_state(pipe)
                with pytest.raises(ValidationError, match=f"sensor 2 at tick {t}"):
                    pipe.step(t, samples)
                assert pipeline_state(pipe) == before
                continue
            out = pipe.step(t, samples)
            if out is not None:
                outs.append(out)

        fresh = StreamingPipeline(model)
        want = []
        for t in range(n):
            if t == bad_tick:
                continue
            samples = seq.tick_samples(t)
            for sid in drops.get(t, ()):
                del samples[sid]
            out = fresh.step(t, samples)
            if out is not None:
                want.append(out)
        assert emitted(outs) == emitted(want)
        assert any(o.nu > 0.0 for o in want)
        assert pipe.dropped_ticks == fresh.dropped_ticks == 1

    @pytest.mark.parametrize("kind", ["float64-array", "int", "int64-array"])
    def test_array_and_int_rows_equal_float_lists_bitwise(self, small_model, small_noisy,
                                                          kind):
        model, _ = small_model
        clean = small_noisy.sequences[2]
        blocks = {sid: clean.samples[sid][:300] for sid in small_noisy.sensor_ids}
        if kind != "float64-array":
            # Integer-valued rows; acc and mag scale do not change the angles.
            blocks = {sid: np.round(8.0 * b) for sid, b in blocks.items()}
        as_kind = {
            "float64-array": lambda r: r,
            "int": lambda r: [int(v) for v in r],
            "int64-array": lambda r: r.astype(np.int64),
        }[kind]
        seq = Sequence(blocks, clean.labels[:300])
        want = drive(StreamingPipeline(model), seq)
        pipe = StreamingPipeline(model)
        got = [pipe.step(t, {sid: as_kind(b[t]) for sid, b in blocks.items()})
               for t in range(seq.n_ticks)]
        got = [o for o in got if o is not None]
        assert emitted(got) == emitted(want)
        assert np.array([o.nu for o in got]).tobytes() == np.array([o.nu for o in want]).tobytes()
        assert len(want) > 0


class TestReplayStats:
    def test_stats_against_labels(self, small_model, small_noisy):
        model, _ = small_model
        _, stats = replay(small_noisy, model, sequence_indices=[3])
        assert stats.windows > 0
        assert stats.dropped_ticks == 0
        acc = stats.accuracy()
        assert acc is not None and acc > 95.0
        assert stats.max_run() >= 0
        d = stats.to_dict()
        assert d["windows"] == stats.windows

    def test_max_run_reported_in_windows_and_ms(self):
        from bomi.pipeline import StreamStats

        stats = StreamStats(sample_rate_hz=60.0)
        ref = [0] * 60
        pred = list(ref)
        pred[5:8] = [1] * 3
        pred[20:38] = [2] * 18
        pred[40:45] = [3] * 5
        stats.predictions = pred
        stats.reference = ref
        assert stats.max_run() == 18
        assert stats.max_run_ms() == pytest.approx(300.0)

    def test_paced_replay_matches_unpaced(self, small_model):
        model, _ = small_model
        rec = synth_session(
            class_count=3, sensor_count=2, noise_deg=0.5, seed=9,
            motion_s=1.2, n_sequences=3,
        )
        fast, _ = replay(rec, model, sequence_indices=[1])
        paced, _ = replay(rec, model, sequence_indices=[1], pace_hz=600.0)
        assert [o.label for o in fast] == [o.label for o in paced]

    def test_command_log_schema(self, small_model, small_noisy, tmp_path):
        model, _ = small_model
        path = tmp_path / "log.csv"
        outputs, _ = replay(small_noisy, model, sequence_indices=[3], log_path=path)
        with path.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "tick", "timestamp_ms", "class", "nu", "command", "velocity", "latency_ms",
        ]
        assert len(rows) == 1 + len(outputs)
        assert rows[1][4] in {c.value for c in Command}


class TestVirtualDevice:
    def test_axis_integration(self):
        from bomi.pipeline import CommandOutput

        dev = VirtualDevice(sample_rate_hz=60.0)
        for t in range(60):
            dev.send(CommandOutput(
                tick=t, label=1, nu=0.5, command=Command.F,
                velocity=10.0, latency_ms=0.0, timestamp_ms=t / 0.06,
            ))
        # 10 cm/s along (0, -1, 0) for one second
        assert dev.position == pytest.approx([0.0, -10.0, 0.0])
        assert len(dev.trajectory) == 60

    def test_button_logged_not_integrated(self):
        from bomi.pipeline import CommandOutput

        dev = VirtualDevice()
        dev.send(CommandOutput(
            tick=0, label=7, nu=0.0, command=Command.B1,
            velocity=0.0, latency_ms=0.0, timestamp_ms=0.0, button_event=True,
        ))
        dev.send(CommandOutput(
            tick=1, label=7, nu=0.0, command=Command.B1,
            velocity=0.0, latency_ms=0.0, timestamp_ms=16.7, button_event=False,
        ))
        assert dev.button_events == [(0, Command.B1)]  # held, not re-clicked
        assert dev.position == pytest.approx([0.0, 0.0, 0.0])

    def test_device_log_written(self, small_model, small_noisy, tmp_path):
        model, _ = small_model
        dev = VirtualDevice(small_noisy.sample_rate_hz)
        replay(small_noisy, model, sequence_indices=[3], device=dev)
        path = tmp_path / "device.csv"
        dev.write_log(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "tick,x_cm,y_cm,z_cm"
        assert len(lines) == 1 + len(dev.trajectory)

    @pytest.mark.parametrize("rate", [0, -60.0, float("nan"), float("inf")])
    def test_bad_sample_rate_rejected(self, rate):
        with pytest.raises(ValidationError, match="sample_rate_hz"):
            VirtualDevice(sample_rate_hz=rate)


def test_write_command_log_round_trip_values(tmp_path):
    from bomi.pipeline import CommandOutput

    outs = [
        CommandOutput(tick=9, label=2, nu=0.25, command=Command.B,
                      velocity=5.0, latency_ms=0.125, timestamp_ms=150.0)
    ]
    path = tmp_path / "log.csv"
    write_command_log(outs, path)
    row = path.read_text().splitlines()[1].split(",")
    assert row == ["9", "150.0", "2", "0.25", "B", "5.0", "0.125"]
