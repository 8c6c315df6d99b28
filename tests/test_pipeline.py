import copy
import csv
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bomi.pipeline
from bomi.dataset_io import Sequence, synth_session
from bomi.errors import (
    LayoutError,
    MappingError,
    ModelFormatError,
    NumericalError,
    ShapeError,
    SplitSpecError,
    ValidationError,
)
from bomi.experiments import sequence_windows
from bomi.features import (
    FEATURE_KINDS,
    FeatureLayout,
    extract_matrix,
    feature_dim,
    prop_output,
    tick_gamma,
)
from bomi.fusion import (
    FLAG_ACCEL_FALLBACK,
    FLAG_GAP,
    FLAG_GIMBAL_GUARD,
    FLAG_MAG_FALLBACK,
    FLAG_SETS,
    FusionConfig,
    _kernel,
    fuse_sequence,
    wrap_deg,
)
from bomi.lda import (
    LdaModel,
    deserialize,
    fit,
    predict,
    predict_many,
    predict_scores,
    serialize,
)
from bomi.pipeline import (
    Command,
    CommandMapping,
    StreamingPipeline,
    VirtualDevice,
    make_smoother,
    map_command,
    max_consecutive_disagreements,
    replay,
    write_command_log,
)

from oracles import (
    assert_same_bits,
    complementary_filter_reference,
    fv3_reference,
    fv3_values,
)


def drive(pipe, seq, n=None):
    outs = []
    for t in range(n or seq.n_ticks):
        out = pipe.step(t, seq.tick_samples(t))
        if out is not None:
            outs.append(out)
    return outs


def scored_vectors(monkeypatch):
    """The list that collects, as (d,) copies, the vectors every
    StreamingPipeline scores from now on: ``bomi.pipeline``'s kernel is
    wrapped so that its ``score`` entry records its input first."""
    vectors = []
    kernel = bomi.pipeline._kernel

    class Spy:
        def __getattr__(self, name):
            return getattr(kernel, name)

        def score(self, weights, biases, classes, X, scores, labels):
            vectors.append(X.reshape(-1).copy())
            return kernel.score(weights, biases, classes, X, scores, labels)

    monkeypatch.setattr(bomi.pipeline, "_kernel", Spy())
    return vectors


def model_file_with(model, tmp_path, **fields):
    """A model file of ``model`` with top-level ``fields`` overwritten,
    for values the model constructor refuses to build."""
    path = tmp_path / "model.json"
    serialize(model, path)
    payload = json.loads(path.read_text())
    payload.update(fields)
    path.write_text(json.dumps(payload))
    return path


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


def smoothed(policy, stream):
    """The outputs of one ``make_smoother`` over a whole stream."""
    fn = make_smoother(policy)
    return [fn(c) for c in stream]


class TestSmoothing:
    def test_none_is_identity(self):
        stream = [1, 1, 0, 2, 2, 0]
        assert smoothed("none", stream) == stream

    def test_majority_of_three(self):
        assert smoothed("majority:3", [1, 1, 0, 1])[-1] == 1

    def test_all_neutral_stays_neutral(self):
        assert smoothed("majority:5", [0] * 20) == [0] * 20

    def test_tie_keeps_previous_output(self):
        out = smoothed("majority:2", [1, 1, 2, 2])
        # window [1, 2] ties; previous output was 1
        assert out[2] == 1

    def test_bad_policy(self):
        with pytest.raises(ValidationError):
            make_smoother("median:3")
        with pytest.raises(ValidationError):
            make_smoother("majority:0")
        with pytest.raises(ValidationError, match="integer"):
            make_smoother("majority:x")


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

    @pytest.mark.parametrize("pair, winner", [((0, 1), 0), ((1, 2), 1)])
    def test_planted_exact_ties_resolve_alike_online_and_offline(
            self, small_model, small_noisy, pair, winner):
        # Two classes with one mean and one prior score the same bits on
        # every window, so each window either class would win is a tie.
        model, _ = small_model
        a, b = pair
        means, log_priors = model.means.copy(), model.log_priors.copy()
        means[b], log_priors[b] = means[a], log_priors[a]
        tied = replace(model, means=means, log_priors=log_priors)
        outputs, _ = replay(small_noisy, tied, sequence_indices=[3])
        offline = sequence_windows(small_noisy, small_noisy.sequences[2])
        X = extract_matrix(tied.feature_kind, offline, tied.layout)
        scores = predict_scores(tied, X)
        ties = (scores[:, a] == scores[:, b]) & (scores[:, a] == scores.max(axis=1))
        assert ties.sum() > 10
        want = predict_many(tied, X)
        assert (want[ties] == winner).all()
        assert [o.label for o in outputs] == want.tolist()

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

    @pytest.mark.parametrize("planted, want", [
        pytest.param({80: {1: "zero_mag", 2: "drop"}}, {80: (FLAG_MAG_FALLBACK, FLAG_GAP)},
                     id="mag-then-gap"),
        pytest.param({80: {1: "drop", 2: "zero_mag"}}, {80: (FLAG_GAP, FLAG_MAG_FALLBACK)},
                     id="gap-then-mag"),
        # Sensor 1 repeats its zero-magnetometer row: its gap comes before
        # its own mag_fallback, and sensor 2's mag_fallback is not repeated.
        pytest.param({79: {1: "zero_mag"}, 80: {1: "drop", 2: "zero_mag"}},
                     {79: (FLAG_MAG_FALLBACK,), 80: (FLAG_GAP, FLAG_MAG_FALLBACK)},
                     id="first-occurrence-kept"),
        pytest.param({80: {1: "drop", 2: "drop"}}, {80: (FLAG_GAP,)}, id="two-gaps-one-tick"),
    ])
    def test_flags_in_sensor_order_gap_first(self, small_model, small_noisy, planted, want):
        model, _ = small_model
        seq = small_noisy.sequences[0]
        pipe = StreamingPipeline(model)
        outs = {}
        for t in range(100):
            samples = seq.tick_samples(t)
            for sid, what in planted.get(t, {}).items():
                if what == "drop":
                    del samples[sid]
                else:
                    samples[sid][6:9] = [0.0, 0.0, 0.0]
            out = pipe.step(t, samples)
            if out is not None:
                outs[out.tick] = out
        assert {tick: o.flags for tick, o in outs.items() if o.flags} == want
        assert pipe.dropped_ticks == 1

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
        # The pipeline takes its geometry from the model; the model
        # constructor checks it, at training and at load.
        model, _ = small_model
        with pytest.raises(ShapeError, match="window geometry"):
            replace(model, window=window)
        path = model_file_with(model, tmp_path, window=window)
        with pytest.raises(ModelFormatError, match="window geometry"):
            deserialize(path)

    @pytest.mark.parametrize("window, overlap", [(6, 5), (9, 8), (16, 8)])
    def test_fv3_misfit_window_rejected_at_construction(self, small_model, tmp_path,
                                                        window, overlap):
        model, _ = small_model
        assert model.feature_kind == "fv3"
        with pytest.raises(ShapeError, match="fv3 requires windows of length 8"):
            replace(model, window=window, overlap=overlap)
        path = model_file_with(model, tmp_path, window=window, overlap=overlap)
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
        rows = small_noisy.sequences[2].samples[:n_ticks].copy()
        rows[:, :, 3:6] = gyro
        seq = Sequence(sensor_ids, rows, small_noisy.sequences[2].labels[:n_ticks])

        vectors = scored_vectors(monkeypatch)
        outs = drive(StreamingPipeline(model), seq)
        windows = sequence_windows(
            replace(small_noisy, sequences=[seq]), seq, overlap=overlap
        )
        assert [o.tick for o in outs] == [w.end_tick for w in windows]
        assert len(vectors) == len(windows) > 0
        for x, w in zip(vectors, windows):
            assert_same_bits(x, fv3_reference(w.angles, w.gyro))

    @pytest.mark.parametrize("recording", ["small_noiseless", "synth9"])
    def test_fv3_stream_equals_extract_matrix_at_every_ring_row(self, recording, request,
                                                                 monkeypatch):
        # One and three sensors. At stride 1 the k-th of every 8 emissions
        # reads the ring from row k + 1, so 40 emissions wrap it 5 times.
        from bomi.experiments import train_session

        rec = request.getfixturevalue(recording)
        model, _ = train_session(rec, feature_kind="fv3", learn_amplitude=False)
        n_ticks = model.fusion.calib_ticks + model.window - 1 + 40
        clean = rec.sequences[-1]
        seq = Sequence(rec.sensor_ids, clean.samples[:n_ticks], clean.labels[:n_ticks])

        vectors = scored_vectors(monkeypatch)
        outs = drive(StreamingPipeline(model), seq)
        windows = sequence_windows(replace(rec, sequences=[seq]), seq)
        assert [o.tick for o in outs] == [w.end_tick for w in windows]
        assert len(vectors) == 40
        assert_same_bits(np.array(vectors), extract_matrix("fv3", windows, model.layout))

    def test_repeated_sequence_index_rejected(self, small_model, small_noisy, monkeypatch):
        # A repeated index would replay its sequence twice.
        model, _ = small_model
        steps = []
        monkeypatch.setattr(StreamingPipeline, "step", lambda *args: steps.append(args))
        with pytest.raises(SplitSpecError, match=r"sequence indices \[3, 3\] repeat an index"):
            replay(small_noisy, model, sequence_indices=[3, 3])
        assert steps == []

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

    @pytest.mark.parametrize("indices", [[1.0], [True], ["1"], [3, 2.5]])
    def test_sequence_index_that_is_not_an_integer_rejected(self, small_model, small_noisy,
                                                            monkeypatch, indices):
        model, _ = small_model
        steps = []
        monkeypatch.setattr(StreamingPipeline, "step", lambda *args: steps.append(args))
        with pytest.raises(SplitSpecError, match="is not an integer"):
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
        rows = clean.samples[:2000].copy()
        primary, other = rows[:, 0], rows[:, -1]
        primary[400:430, 0:3] = 0.0
        other[700:730, 6:9] = 0.0
        primary[1000:1060, 4] = 200.0   # pitch rate: past the guard, to the clamp
        other[1500:1520, 0:3] = 0.0
        other[1500:1520, 6:9] = 0.0
        seq = Sequence(sensor_ids, rows, clean.labels[:2000])
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

        filled = rows.copy()
        for t in sorted(drops):
            for sid in drops[t]:
                si = sensor_ids.index(sid)
                filled[t, si] = filled[t - 1, si]
        offline_seq = Sequence(sensor_ids, filled, seq.labels)
        recording = replace(small_noisy, sequences=[offline_seq])
        windows = sequence_windows(recording, offline_seq, window=window, overlap=overlap)
        fused = fuse_sequence(filled, recording.sample_rate_hz)

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
                flags.extend(FLAG_SETS[fused.bits[o.tick, si]])
            assert o.flags == tuple(dict.fromkeys(flags))

        seen = {f for o in outs for f in o.flags}
        assert {FLAG_GAP, FLAG_ACCEL_FALLBACK, FLAG_MAG_FALLBACK, FLAG_GIMBAL_GUARD} <= seen
        assert any(o.nu > 0.0 for o in outs)

    @pytest.mark.parametrize("calib_ticks", [0, 60])
    def test_stream_bits_equal_offline_bits_on_every_tick(self, small_noisy, calib_ticks):
        # Gap-free, with zero-accel and zero-mag spans and pitch past the
        # guard: from the first tick on, calibration and warm-up included,
        # the stream's per-sensor bits are the offline run's.
        layout = FeatureLayout(small_noisy.sensor_ids)
        X = np.random.default_rng(3).normal(size=(4, feature_dim("fv1", layout.n_sensors)))
        core = fit(X, [0, 0, 1, 1])
        config = FusionConfig(calib_ticks=calib_ticks)
        model = LdaModel(classes=core.classes, means=core.means, chol_lower=core.chol_lower,
                         shrinkage=core.shrinkage, log_priors=core.log_priors,
                         feature_kind="fv1", layout=layout, fusion=config)
        rows = small_noisy.sequences[0].samples[:800].copy()
        primary, other = rows[:, 0], rows[:, -1]
        primary[40:70, 0:3] = 0.0
        other[100:130, 6:9] = 0.0
        primary[300:360, 4] = 200.0   # pitch rate: past the guard, to the clamp
        primary[340:350, 0:3] = 0.0
        other[500:520, 0:3] = 0.0
        other[500:520, 6:9] = 0.0
        bits = fuse_sequence(rows, 60.0, config).bits
        pipe = StreamingPipeline(model)
        for t, tick_rows in enumerate(rows.tolist()):
            pipe.step(t, dict(zip(layout.sensor_ids, tick_rows)))
            assert pipe._bits.tolist() == bits[t].tolist(), t
        assert set(np.unique(bits).tolist()) == {0, 1, 2, 3, 4, 5}


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


@pytest.mark.parametrize("n_sensors", range(1, 7))
def test_tick_window_mean_equals_numpy_reduce_bitwise(n_sensors):
    # The tick entry writes each sensor's mean over columns k + 1 .. k + w of
    # its (S, 2w) gamma row, one of which it has just written; it must be
    # numpy's sum of that window, taken from a (2w, S) ring, then one
    # division. Zeros, -0.0 and magnitudes from 1e-3 to 1e300 are planted,
    # and lengths past 8 cover numpy's 8-lane sum and its tail.
    rng = np.random.default_rng(n_sensors)
    s = n_sensors
    rows = [[0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0]] * s
    last, state = np.full((s, 9), np.nan), np.zeros((s, 3))
    bits, pick = np.zeros(s, dtype=np.uint8), np.arange(6 * s, dtype=np.intp)
    for w in range(1, 41):
        channels, means = np.zeros((2 * w, 6 * s)), np.zeros(s)
        for k in range(w):
            if k % 2:
                gamma = rng.normal(scale=rng.choice([1e-3, 1.0, 90.0, 1e150, 1e300]),
                                   size=(s, 2 * w))
            else:
                gamma = rng.choice([-1.0, 1.0], size=(s, 2 * w)) * 10.0 ** rng.uniform(
                    -3.0, 300.0, size=(s, 2 * w))
            gamma[rng.random((s, 2 * w)) < 0.2] = 0.0
            gamma[rng.random((s, 2 * w)) < 0.2] = -0.0
            offset = rng.normal(scale=90.0, size=(s, 3))
            assert _kernel.tick(rows, last, state, bits, 0.98, 1 / 60, 85.0, offset, pick,
                                channels, gamma, means, k) >= 0
            ring = gamma.T
            want = [np.add.reduce(ring[k + 1:k + 1 + w, si]) / w for si in range(s)]
            assert_same_bits(means, np.array(want))


@pytest.mark.parametrize("kind", FEATURE_KINDS)
@pytest.mark.parametrize("n_sensors", range(1, 7))
def test_stream_vectors_equal_extract_matrix_rows(monkeypatch, kind, n_sensors):
    # Each window vector the stream scores is the extract_matrix row of
    # the same offline window, bit for bit.
    rec = synth_session(class_count=2, sensor_count=n_sensors, seed=n_sensors,
                        n_sequences=1, motion_s=1.0)
    n_ticks = 200
    seq = Sequence(rec.sensor_ids, rec.sequences[0].samples[:n_ticks],
                   rec.sequences[0].labels[:n_ticks])
    layout = FeatureLayout(rec.sensor_ids)
    X = np.random.default_rng(n_sensors).normal(size=(4, feature_dim(kind, n_sensors)))
    core = fit(X, [0, 0, 1, 1])
    model = LdaModel(classes=core.classes, means=core.means, chol_lower=core.chol_lower,
                     shrinkage=core.shrinkage, log_priors=core.log_priors,
                     feature_kind=kind, layout=layout)
    vectors = scored_vectors(monkeypatch)
    drive(StreamingPipeline(model, sample_rate_hz=rec.sample_rate_hz), seq)
    windows = sequence_windows(rec, seq)
    assert len(vectors) == len(windows) > 0
    assert_same_bits(np.array(vectors), extract_matrix(kind, windows, layout))


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
        pytest.param([10**400] + [0.0] * 8, id="huge-int"),
        pytest.param(np.array([0.0] * 8 + [np.inf]), id="inf-array"),
    ])
    def test_malformed_row_rejected(self, small_model, small_noisy, row):
        model, _ = small_model
        samples = small_noisy.sequences[0].tick_samples(5)
        samples[2] = row
        pipe = StreamingPipeline(model)
        before = pipeline_state(pipe)
        with pytest.raises(ValidationError, match="sensor 2 at tick 5: expected 9 finite"):
            pipe.step(5, samples)
        assert pipeline_state(pipe) == before

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

    def test_overflowing_scores_raise_predicts_error(self, small_noisy, monkeypatch):
        # fv2 scores the gyro values directly, and a model fitted on four
        # random rows weighs each feature by more than 1, so finite gyro
        # values of 1e308 overflow its scores: the stream raises the
        # NumericalError predict raises on the same vector. A tick refused
        # after it changes nothing, the buffers that hold the non-finite
        # scores included.
        X = np.random.default_rng(2).normal(size=(4, feature_dim("fv2", 2)))
        core = fit(X, [0, 0, 1, 1])
        model = LdaModel(classes=core.classes, means=core.means, chol_lower=core.chol_lower,
                         shrinkage=core.shrinkage, log_priors=core.log_priors,
                         feature_kind="fv2", layout=FeatureLayout(small_noisy.sensor_ids))
        seq = small_noisy.sequences[2]
        rows = seq.samples[:200].copy()
        rows[150:, :, 3:6] = 1e308
        seq = Sequence(small_noisy.sensor_ids, rows, seq.labels[:200])
        vectors = scored_vectors(monkeypatch)
        pipe = StreamingPipeline(model)
        with pytest.raises(NumericalError, match="non-finite discriminant scores") as got:
            drive(pipe, seq)
        with pytest.raises(NumericalError) as want:
            predict(model, vectors[-1])
        assert str(got.value) == str(want.value)
        tick = len(vectors) + model.fusion.calib_ticks + model.window - 2
        assert tick >= 150

        samples = seq.tick_samples(tick + 1)
        samples[2][4] = float("nan")
        before = pipeline_state(pipe)
        with pytest.raises(ValidationError, match=f"sensor 2 at tick {tick + 1}"):
            pipe.step(tick + 1, samples)
        assert pipeline_state(pipe) == before

    @pytest.mark.parametrize("kind", ["float64-array", "int", "int64-array"])
    def test_array_and_int_rows_equal_float_lists_bitwise(self, small_model, small_noisy,
                                                          kind):
        model, _ = small_model
        clean = small_noisy.sequences[2]
        blocks = clean.samples[:300]
        if kind != "float64-array":
            # Integer-valued rows; acc and mag scale do not change the angles.
            blocks = np.round(8.0 * blocks)
        as_kind = {
            "float64-array": lambda r: r,
            "int": lambda r: [int(v) for v in r],
            "int64-array": lambda r: r.astype(np.int64),
        }[kind]
        seq = Sequence(small_noisy.sensor_ids, blocks, clean.labels[:300])
        want = drive(StreamingPipeline(model), seq)
        pipe = StreamingPipeline(model)
        got = [pipe.step(t, {sid: as_kind(r) for sid, r in zip(seq.sensor_ids, blocks[t])})
               for t in range(seq.n_ticks)]
        got = [o for o in got if o is not None]
        assert emitted(got) == emitted(want)
        assert np.array([o.nu for o in got]).tobytes() == np.array([o.nu for o in want]).tobytes()
        assert len(want) > 0


# Values of raw - offset planted on the wrap's seams.
SEAMS = (180.0, -180.0, 540.0, -540.0, 0.0)
# Rows the tick entry refuses, each 9 items unless the length is the fault.
BAD_ROWS = ([0.0] * 8 + [float("nan")], [0.0] * 8, [0.0] * 8 + [10**400], [0.0] * 8 + ["0"],
            [0.0] * 8 + [-float("inf")])


def offset_on_seam(raw: float, seam: float) -> float | None:
    """An offset o with raw - o == seam exactly, or None when no float is one."""
    o = raw - seam
    for _ in range(4):
        d = raw - o
        if d == seam:
            return o
        o = math.nextafter(o, -math.inf if d < seam else math.inf)
    return None


def tick_args(rows, arrays, filt, offset, k):
    """The tick entry's arguments in order."""
    return (rows, arrays["last"], arrays["state"], arrays["bits"], *filt, offset,
            arrays["pick"], arrays["channels"], arrays["gamma"], arrays["means"], k)


def array_bytes(arrays):
    return {name: a.tobytes() for name, a in arrays.items()}


class TestTickEntry:
    """The kernel's ``tick`` entry against ``complementary_filter_reference``,
    ``wrap_deg`` and ``math.sqrt``, and its argument checks."""

    @given(
        n_sensors=st.integers(1, 5),
        window=st.integers(1, 4),
        n_ticks=st.integers(1, 14),
        calib=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
        alpha=st.sampled_from([0.0, 0.98, 1.0]) | st.floats(0.0, 1.0),
        guard=st.sampled_from([0.0, 85.0, 90.0]) | st.floats(0.0, 90.0),
        rate=st.sampled_from([4.0, 60.0, 100.0]),
    )
    @settings(max_examples=120)
    def test_tick_equals_the_python_reference_bitwise(self, n_sensors, window, n_ticks, calib,
                                                      seed, alpha, guard, rate):
        rng = np.random.default_rng(seed)
        s, w = n_sensors, window
        filt = (alpha, 1.0 / rate, guard)
        pick = rng.integers(0, 6 * s, size=rng.integers(1, 6 * s + 1))
        arrays = {
            "last": np.full((s, 9), np.nan),
            "state": np.zeros((s, 3)),
            "bits": np.zeros(s, dtype=np.uint8),
            "pick": pick,
            "channels": rng.normal(size=(2 * w, len(pick))),
            "gamma": rng.normal(size=(s, 2 * w)),
            "means": rng.normal(size=s),
        }
        # A still sensor reads zeros: its raw angles stay exactly 0.0, so
        # every seam can be planted on it.
        still = rng.random(s) < 0.3
        ref_rows, ref_last = [[] for _ in range(s)], [None] * s
        seams_hit = set()
        for t in range(n_ticks):
            # Random rows with zero accelerometers and magnetometers and
            # near-vertical gravity planted; a gap repeats the last row.
            rows = rng.normal(size=(s, 9)) * (1.0, 1.0, 1.0, 300.0, 300.0, 300.0, 1.0, 1.0, 1.0)
            rows[:, 2] += 1.0
            rows[rng.random(s) < 0.15, 0:3] = 0.0
            rows[rng.random(s) < 0.15, 6:9] = 0.0
            rows[rng.random(s) < 0.15, 0:3] = (1.0, 1e-3, -1e-3)
            rows[still] = 0.0
            as_ints = rng.random() < 0.2
            if as_ints:
                rows = np.round(8.0 * rows) + 0.0   # no -0.0, which an int cannot carry
            gaps = [ref_last[si] is not None and rng.random() < 0.3 for si in range(s)]
            given_rows = []
            for si in range(s):
                form = (list, tuple, np.array, lambda r: [int(v) for v in r])[
                    3 if as_ints else rng.integers(3)]
                given_rows.append(None if gaps[si] else form(rows[si]))

            # The reference, sensor by sensor.
            raw, gyro, want_bits = [], [], []
            for si in range(s):
                row = ref_last[si] if gaps[si] else tuple(map(float, rows[si]))
                ref_last[si] = row
                ref_rows[si].append(row)
                pitch, roll, yaw, flags = complementary_filter_reference(ref_rows[si], *filt)[-1]
                raw.append((pitch, roll, yaw))
                gyro.append(row[3:6])
                want_bits.append(FLAG_SETS.index(flags) | 8 * gaps[si])
            offset, k = None, t % w
            want_channels, want_gamma = arrays["channels"].copy(), arrays["gamma"].copy()
            want_means = arrays["means"].copy()
            if t >= calib:
                offset = rng.normal(scale=200.0, size=(s, 3))
                for si in range(s):
                    for j in range(3):
                        seam = SEAMS[rng.integers(len(SEAMS))]
                        o = offset_on_seam(raw[si][j], seam)
                        if o is not None and (still[si] or rng.random() < 0.5):
                            offset[si, j] = o
                            seams_hit.add(seam)
                angles = [wrap_deg(raw[si][j] - float(offset[si, j]))
                          for si in range(s) for j in range(3)]
                values = angles + [v for g in gyro for v in g]
                want_channels[k::w] = [values[i] for i in pick.tolist()]
                want_gamma[:, k::w] = [[math.sqrt(p * p + r * r + y * y)]
                                       for p, r, y in zip(*[iter(angles)] * 3)]
                # Each sensor's window mean as the stream took it from a
                # (2W, S) ring: numpy's sum, then one division.
                ring = want_gamma.T
                want_means = np.array([np.add.reduce(ring[k + 1:k + 1 + w, si]) / w
                                       for si in range(s)])

            # A bad row on the last sensor, or at the start a missing one,
            # is refused before anything changes.
            before = array_bytes(arrays)
            bad_rows = list(given_rows)
            bad_rows[-1] = None if t == 0 else BAD_ROWS[rng.integers(len(BAD_ROWS))]
            assert _kernel.tick(*tick_args(bad_rows, arrays, filt, offset, k)) == -s
            assert array_bytes(arrays) == before

            got = _kernel.tick(*tick_args(given_rows, arrays, filt, offset, k))
            assert got == np.bitwise_or.reduce(want_bits)
            assert arrays["bits"].tolist() == want_bits
            assert_same_bits(arrays["state"], np.array(raw))
            assert_same_bits(arrays["last"], np.array(ref_last))
            assert_same_bits(arrays["channels"], want_channels)
            assert_same_bits(arrays["gamma"], want_gamma)
            assert_same_bits(arrays["means"], want_means)
        if still.any() and n_ticks > calib:
            assert seams_hit

    @staticmethod
    def valid_args():
        arrays = {
            "last": np.full((2, 9), np.nan),
            "state": np.zeros((2, 3)),
            "bits": np.zeros(2, dtype=np.uint8),
            "pick": np.arange(7, dtype=np.intp),
            "channels": np.zeros((6, 7)),
            "gamma": np.zeros((2, 6)),
            "means": np.zeros(2),
        }
        rows = [[0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0]] * 2
        return rows, arrays, np.zeros((2, 3)), 0

    def test_valid_args_are_taken(self):
        rows, arrays, offset, k = self.valid_args()
        assert _kernel.tick(*tick_args(rows, arrays, (0.98, 1 / 60, 85.0), offset, k)) == 0
        assert _kernel.tick(*tick_args(rows, arrays, (0.98, 1 / 60, 85.0), None, k)) == 0

    @pytest.mark.parametrize("name, value", [
        ("last", np.zeros((2, 8))),
        ("last", np.zeros(18)),
        ("last", np.zeros((2, 9), dtype=np.float32)),
        ("state", np.zeros((3, 3))),
        ("state", np.zeros((2, 3), dtype=np.float32)),
        ("state", np.zeros((2, 3, 1))),
        ("bits", np.zeros(3, dtype=np.uint8)),
        ("bits", np.zeros(2, dtype=np.int8)),
        ("bits", np.zeros(2, dtype=np.uint16)),
        ("offset", np.zeros((2, 2))),
        ("offset", np.zeros((2, 3), dtype=np.float32)),
        ("pick", np.arange(7, dtype=np.int32)),
        ("pick", np.arange(7.0)),
        ("pick", np.arange(7, dtype=np.intp).reshape(1, 7)),
        ("pick", np.array([0, 1, 2, 3, 4, 5, 12], dtype=np.intp)),
        ("pick", np.array([0, 1, 2, 3, 4, 5, -1], dtype=np.intp)),
        ("channels", np.zeros((6, 6))),
        ("channels", np.zeros((5, 7))),
        ("channels", np.zeros((0, 7))),
        ("channels", np.zeros((6, 7), dtype=np.float32)),
        ("gamma", np.zeros((3, 6))),
        ("gamma", np.zeros((2, 4))),
        ("gamma", np.zeros((6, 2))),
        ("gamma", np.zeros((2, 6), dtype=np.float32)),
        ("means", np.zeros(3)),
        ("means", np.zeros((2, 1))),
        ("means", np.zeros(2, dtype=np.float32)),
        ("rows", [[0.0] * 9] * 3),
        ("k", 3),
        ("k", -1),
    ])
    def test_wrong_array_named_and_nothing_written(self, name, value):
        rows, arrays, offset, k = self.valid_args()
        if name == "rows":
            rows = value
        elif name == "offset":
            offset = value
        elif name == "k":
            k = value
        else:
            arrays[name] = value
        before = array_bytes(arrays)
        with pytest.raises(ValueError, match=rf"\b{name}\b"):
            _kernel.tick(*tick_args(rows, arrays, (0.98, 1 / 60, 85.0), offset, k))
        assert array_bytes(arrays) == before

    @pytest.mark.parametrize("name", ["last", "state", "bits", "channels", "gamma", "means"])
    def test_read_only_or_strided_output_rejected(self, name):
        rows, arrays, offset, k = self.valid_args()
        arrays[name].flags.writeable = False
        with pytest.raises(ValueError):
            _kernel.tick(*tick_args(rows, arrays, (0.98, 1 / 60, 85.0), offset, k))
        arrays[name] = np.repeat(arrays[name], 2, axis=-1)[..., ::2]
        with pytest.raises(ValueError):
            _kernel.tick(*tick_args(rows, arrays, (0.98, 1 / 60, 85.0), offset, k))

    def test_wrong_argument_count_or_rows_type(self):
        rows, arrays, offset, k = self.valid_args()
        args = tick_args(rows, arrays, (0.98, 1 / 60, 85.0), offset, k)
        with pytest.raises(TypeError, match="13 arguments"):
            _kernel.tick(*args[:-1])
        with pytest.raises(TypeError, match="13 arguments"):
            _kernel.tick(*args, 0)
        with pytest.raises(TypeError, match="rows"):
            _kernel.tick(iter(rows), *args[1:])


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

    def test_mixed_windows_against_window_labels(self, small_model, small_noisy):
        # A window is mixed when its own ticks carry more than one label.
        model, _ = small_model
        for i, seq in enumerate(small_noisy.sequences, start=1):
            outputs, stats = replay(small_noisy, model, sequence_indices=[i])
            mixed = [len(set(seq.labels[o.tick - model.window + 1:o.tick + 1].tolist())) > 1
                     for o in outputs]
            correct = sum(o.label == seq.labels[o.tick]
                          for o, m in zip(outputs, mixed) if not m)
            assert sum(mixed) > 0
            assert (stats.mixed_windows, stats.total_unmixed, stats.correct_unmixed) == (
                sum(mixed), len(outputs) - sum(mixed), correct)

    def test_max_run_reported_in_windows_and_ms(self):
        from bomi.pipeline import StreamStats

        stats = StreamStats(sample_rate_hz=60.0)
        ref = [0] * 60
        pred = list(ref)
        pred[5:8] = [1] * 3
        pred[20:38] = [2] * 18
        pred[40:45] = [3] * 5
        for p, r in zip(pred, ref):
            stats.add(p, r, False, 0.0)
        assert stats.max_run() == 18
        assert stats.max_run_ms() == pytest.approx(300.0)

    def test_a_run_across_a_sequence_boundary_is_one_run(self):
        from bomi.pipeline import StreamStats

        # The first sequence ends with 4 errors, the second starts with 3.
        first = [(1, 1)] * 10 + [(2, 1)] * 4
        second = [(0, 2)] * 3 + [(2, 2)] * 10
        stats = StreamStats()
        for label, reference in first + second:
            stats.add(label, reference, False, 0.0)
        assert stats.max_run() == 7
        assert stats.to_dict()["max_consecutive_misclassifications"] == 7

    def test_max_run_over_every_sequence(self, small_model, small_noisy):
        model, _ = small_model
        outputs, stats = replay(small_noisy, model)
        reference = []
        for i, seq in enumerate(small_noisy.sequences, start=1):
            ticks = [o.tick for o in replay(small_noisy, model, sequence_indices=[i])[0]]
            reference += seq.labels[ticks].tolist()
        want = max_consecutive_disagreements([o.label for o in outputs], reference)
        assert want > 0
        assert stats.max_run() == want
        assert stats.windows == len(outputs) == len(reference)

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


def test_command_output_is_immutable_with_keyword_defaults():
    from bomi.pipeline import CommandOutput

    out = CommandOutput(tick=9, label=2, nu=0.25, command=Command.B,
                        velocity=5.0, latency_ms=0.125, timestamp_ms=150.0)
    assert (out.button_event, out.flags) == (False, ())
    for name in ("tick", "nu", "flags"):
        with pytest.raises(AttributeError):
            setattr(out, name, 1)
    assert out == CommandOutput(9, 2, 0.25, Command.B, 5.0, 0.125, 150.0, False, ())


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
