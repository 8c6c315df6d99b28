import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bomi.errors import (
    CoverageError,
    DataError,
    DegenerateRangeError,
    LayoutError,
    ShapeError,
    ValidationError,
)
from bomi.features import (
    FEATURE_KINDS,
    HALF,
    AmplitudeRange,
    FeatureLayout,
    channel_index,
    extract,
    extract_matrix,
    feature_dim,
    learn_ranges,
    make_windows,
    prop_output,
    tick_gamma,
    window_labels,
)
from bomi.fusion import _kernel

from oracles import (
    CANCELLING,
    assert_same_bits,
    count_windows_by_enumeration,
    fv3_channels,
    fv3_of_channels,
    fv3_reference,
    fv3_values,
)


def build_window(angles, gyro=None):
    """(angles, gyro) arrays of one window; gyro defaults to zeros."""
    angles = np.asarray(angles, dtype=float)
    if gyro is None:
        gyro = np.zeros_like(angles)
    return angles, np.asarray(gyro, float)


def random_window(rng, n_sensors=3, length=8):
    return build_window(
        rng.normal(size=(length, n_sensors, 3)),
        rng.normal(size=(length, n_sensors, 3)),
    )


def window_set(windows, labels):
    """One set holding the given (angles, gyro) windows, back to back."""
    length = len(windows[0][0])
    return make_windows(
        np.concatenate([a for a, _ in windows]),
        np.concatenate([g for _, g in windows]),
        np.repeat(labels, length),
        size=length, overlap=0,
    )


def windows_of(n, size=8, overlap=7, labels=None):
    angles = np.zeros((n, 1, 3))
    gyro = np.zeros((n, 1, 3))
    return list(make_windows(angles, gyro, labels, size=size, overlap=overlap))


class TestWindowing:
    def test_sixty_ticks_give_53_windows(self):
        assert len(windows_of(60)) == 53

    def test_one_repetition_300_ticks(self):
        # enumeration cross-check of the N - size + 1 count
        assert len(windows_of(300)) == 293
        assert count_windows_by_enumeration(300, 8, 1) == 293

    def test_short_stream_yields_nothing(self):
        assert windows_of(7) == []

    def test_count_formula_exhaustive_small(self):
        for n in range(8, 140):
            assert len(windows_of(n)) == n - 7 == count_windows_by_enumeration(n, 8, 1)

    @given(st.integers(8, 4096))
    @settings(max_examples=40)
    def test_count_formula_property(self, n):
        assert len(windows_of(n)) == n - 7

    def test_large_stream_count(self):
        assert len(windows_of(10_000)) == 9993

    def test_stride_respects_overlap(self):
        assert len(windows_of(20, size=8, overlap=4)) == count_windows_by_enumeration(20, 8, 4)

    def test_label_is_last_tick_when_uniform(self):
        labels = np.array([0] * 10 + [2] * 10)
        ws = windows_of(20, labels=labels)
        assert ws[0].label == 0
        assert ws[-1].label == 2
        # windows spanning the change at tick 10 are mixed
        for w in ws:
            span = labels[w.start_tick:w.start_tick + 8]
            if len(set(span.tolist())) > 1:
                assert w.label is None
            else:
                assert w.label == span[-1]
        assert sum(1 for w in ws if w.label is None) == 7

    def test_bad_geometry_rejected(self):
        with pytest.raises(ShapeError):
            windows_of(20, size=8, overlap=8)

    @pytest.mark.parametrize("angles_shape, gyro_shape, n_labels, message", [
        ((20, 2, 3), (20, 2, 3), 19, r"labels must have shape \(20,\), got \(19,\)"),
        ((20, 2, 3), (20, 2, 3), 21, r"labels must have shape \(20,\), got \(21,\)"),
        ((20, 2, 3), (19, 2, 3), 20, r"one \(T, S, 3\) shape, got \(20, 2, 3\) and \(19, 2, 3\)"),
        ((20, 2, 3), (20, 1, 3), 20, r"one \(T, S, 3\) shape, got \(20, 2, 3\) and \(20, 1, 3\)"),
        ((20, 2, 9), (20, 2, 9), 20, r"one \(T, S, 3\) shape, got \(20, 2, 9\) and \(20, 2, 9\)"),
    ], ids=["short-labels", "long-labels", "short-gyro", "gyro-of-fewer-sensors", "not-3-angles"])
    def test_misaligned_streams_rejected(self, angles_shape, gyro_shape, n_labels, message):
        with pytest.raises(ShapeError, match=message):
            make_windows(np.zeros(angles_shape), np.zeros(gyro_shape),
                         np.zeros(n_labels, dtype=int))

    @given(st.lists(st.tuples(st.integers(-1, 3), st.integers(1, 12)), max_size=10),
           st.integers(1, 10))
    @settings(max_examples=200)
    def test_window_labels_match_a_per_window_loop(self, runs, size):
        labels = np.array([v for v, k in runs for _ in range(k)], dtype=np.int64)
        want = [int(labels[i + size - 1]) if len(set(labels[i:i + size].tolist())) == 1
                else -1 for i in range(len(labels) - size + 1)]
        got = window_labels(labels, size)
        assert got.dtype == np.int64
        assert got.tolist() == want


class TestFeatureDims:
    @pytest.mark.parametrize("n_sensors", [1, 2, 3, 6])
    def test_closed_forms(self, n_sensors):
        angle_ch = 3 + 2 * (n_sensors - 1)
        assert feature_dim("fv1", n_sensors) == 8 * angle_ch
        assert feature_dim("fv2", n_sensors) == 8 * (angle_ch + 3 * n_sensors)
        assert feature_dim("fv3", n_sensors) == 2 * 4 * (angle_ch + 3 * n_sensors)

    @pytest.mark.parametrize("n_sensors", [1, 2, 3, 6])
    def test_extractors_match_dims(self, n_sensors):
        rng = np.random.default_rng(0)
        w = random_window(rng, n_sensors)
        layout = FeatureLayout(sensor_ids=tuple(range(1, n_sensors + 1)))
        assert extract("fv1", *w, layout).shape == (feature_dim("fv1", n_sensors),)
        assert extract("fv2", *w, layout).shape == (feature_dim("fv2", n_sensors),)
        assert extract("fv3", *w, layout).shape == (feature_dim("fv3", n_sensors),)

    def test_three_sensor_fv1_is_56(self):
        assert feature_dim("fv1", 3) == 56

    def test_one_sensor_fv1_is_24(self):
        assert feature_dim("fv1", 1) == 24

    def test_three_sensor_fv2_is_128(self):
        assert feature_dim("fv2", 3) == 128

    def test_two_sensor_fv2_is_88(self):
        assert feature_dim("fv2", 2) == 88

    def test_three_sensor_fv3_is_128(self):
        assert feature_dim("fv3", 3) == 128

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            feature_dim("fv4", 3)


class TestFv1Fv2:
    def test_constant_window_repeats_channels(self):
        angles = np.tile(np.array([[[1.0, 2.0, 3.0], [4.0, 5.0, 0.0]]]), (8, 1, 1))
        w = build_window(angles)
        layout = FeatureLayout(sensor_ids=(1, 2))
        out = extract("fv1", *w, layout)
        assert out.shape == (40,)
        assert (out.reshape(8, 5) == [1.0, 2.0, 3.0, 4.0, 5.0]).all()

    def test_channel_order_primary_then_pitch_roll(self):
        angles = np.zeros((8, 2, 3))
        angles[:, 0] = [1, 2, 3]    # primary pitch/roll/yaw
        angles[:, 1] = [4, 5, 99]   # second sensor: yaw excluded
        out = extract("fv1", *build_window(angles), FeatureLayout(sensor_ids=(1, 2)))
        assert 99.0 not in out
        assert out[:5].tolist() == [1, 2, 3, 4, 5]

    def test_fv2_appends_gyro_blocks(self):
        angles = np.zeros((8, 2, 3))
        gyro = np.tile(np.array([[[7.0, 8.0, 9.0], [10.0, 11.0, 12.0]]]), (8, 1, 1))
        out = extract("fv2", *build_window(angles, gyro), FeatureLayout(sensor_ids=(1, 2)))
        per_sample = out.reshape(8, 11)
        assert (per_sample[:, :5] == 0).all()
        assert (per_sample[:, 5:] == [7, 8, 9, 10, 11, 12]).all()

    def test_zero_gyro_keeps_fv1_block(self):
        rng = np.random.default_rng(1)
        angles = rng.normal(size=(8, 2, 3))
        w = build_window(angles)
        layout = FeatureLayout(sensor_ids=(1, 2))
        v2 = extract("fv2", *w, layout).reshape(8, 11)
        assert (v2[:, 5:] == 0).all()
        assert (v2[:, :5].reshape(-1) == extract("fv1", *w, layout)).all()

    @pytest.mark.parametrize("kind", ["fv1", "fv2"])
    def test_zero_tick_window_gives_empty_vector(self, kind):
        w = build_window(np.zeros((0, 2, 3)))
        assert extract(kind, *w, FeatureLayout(sensor_ids=(1, 2))).shape == (0,)

    def test_missing_sensor_rejected(self):
        rng = np.random.default_rng(2)
        w = random_window(rng, n_sensors=2)
        with pytest.raises(LayoutError):
            extract("fv1", *w, FeatureLayout(sensor_ids=(1, 2, 3)))


class TestChannelIndex:
    @pytest.mark.parametrize("n_sensors", range(1, 7))
    def test_primary_angles_other_pitch_roll_then_gyro(self, n_sensors):
        # Name every value of a tick's row and read the picks back by name.
        row = ([("angle", si, axis) for si in range(n_sensors) for axis in "pry"]
               + [("gyro", si, axis) for si in range(n_sensors) for axis in "xyz"])
        angles = [ch for ch in row[:3 * n_sensors] if ch[1] == 0 or ch[2] != "y"]
        gyro = row[3 * n_sensors:]
        picked = {kind: [row[i] for i in channel_index(kind, n_sensors)] for kind in FEATURE_KINDS}
        assert picked == {"fv1": angles, "fv2": angles + gyro, "fv3": angles + gyro}

    def test_index_is_read_only(self):
        with pytest.raises(ValueError):
            channel_index("fv2", 3)[0] = 1

    def test_errors_keep_their_order(self):
        # Window length first, then the kind, then the sensor count.
        rng = np.random.default_rng(5)
        three = FeatureLayout(sensor_ids=(1, 2, 3))
        for kind, length, error in (("fv3", 6, ShapeError), ("fv4", 8, ValidationError),
                                    ("fv2", 8, LayoutError)):
            with pytest.raises(DataError) as info:
                extract(kind, *random_window(rng, n_sensors=2, length=length), three)
            assert type(info.value) is error


class TestFv3:
    def test_hand_computed_channel(self):
        angles = np.zeros((8, 1, 3))
        angles[:, 0, 0] = [1, -2, 3, -4, 0, 0, 0, 0]  # pitch channel
        out = extract("fv3", *build_window(angles), FeatureLayout(sensor_ids=(1,)))
        assert out[0:4].tolist() == [-4.0, 3.0, -0.5, 10.0]
        assert out[4:8].tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_constant_channel(self):
        angles = np.full((8, 1, 3), -2.5)
        out = extract("fv3", *build_window(angles), FeatureLayout(sensor_ids=(1,)))
        for c in range(3):
            for sub in range(2):
                base = c * 8 + sub * 4
                assert out[base:base + 4].tolist() == [-2.5, -2.5, -2.5, 10.0]

    def test_wrong_length_rejected(self):
        rng = np.random.default_rng(3)
        w = random_window(rng, n_sensors=1, length=6)
        with pytest.raises(ShapeError):
            extract("fv3", *w, FeatureLayout(sensor_ids=(1,)))

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30)
    def test_stats_invariants(self, seed):
        rng = np.random.default_rng(seed)
        w = random_window(rng, n_sensors=2)
        out = extract("fv3", *w, FeatureLayout(sensor_ids=(1, 2))).reshape(-1, 4)
        mins, maxs, means, abs_sums = out.T
        assert (mins <= means + 1e-12).all()
        assert (means <= maxs + 1e-12).all()
        assert (abs_sums >= np.abs(4 * means) - 1e-12).all()

    def test_batch_equals_single(self):
        rng = np.random.default_rng(4)
        ws = [random_window(rng, n_sensors=2) for _ in range(16)]
        layout = FeatureLayout(sensor_ids=(1, 2))
        for kind in ("fv1", "fv2", "fv3"):
            batch = extract_matrix(kind, window_set(ws, [0] * 16), layout)
            single = np.stack([extract(kind, *w, layout) for w in ws])
            assert (batch == single).all()


# Signed zeros, subnormals, magnitudes up to 1e300 (four of which still
# sum to a finite value), infinities and NaN of either sign.
EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e300, -1e300,
                     math.inf, -math.inf, math.nan, -math.nan]),
    st.floats(-1e300, 1e300),
)


@st.composite
def sensor_values(draw):
    """(T, S, 6) per-tick angles, then gyro, of one or two sensors: edge
    values, 0.0 and -0.0 in random orders, or -0.0 only."""
    n_ticks, n_sensors = draw(st.integers(2 * HALF, 3 * HALF)), draw(st.integers(1, 2))
    elements = draw(st.sampled_from([EDGE_FLOATS, st.sampled_from([0.0, -0.0]), st.just(-0.0)]))
    size = n_ticks * n_sensors * 6
    values = draw(st.lists(elements, min_size=size, max_size=size))
    return np.array(values).reshape(n_ticks, n_sensors, 6)


class TestFv3Oracle:
    @pytest.mark.parametrize("values", ["cancelling", "signed_zero"])
    def test_extract_and_extract_matrix_equal_oracle(self, values):
        n_ticks, layout = 20, FeatureLayout(sensor_ids=(1, 2))
        angles = fv3_values(values, (n_ticks, 2, 3), seed=1)
        gyro = fv3_values(values, (n_ticks, 2, 3), seed=2)
        windows = make_windows(angles, gyro, None)
        expected = np.array([fv3_reference(w.angles, w.gyro) for w in windows])
        if values == "signed_zero":
            zeros = expected[expected == 0.0]
            assert np.signbit(zeros).any() and not np.signbit(zeros).all()
        assert_same_bits(extract_matrix("fv3", windows, layout), expected)
        for w, row in zip(windows, expected):
            assert_same_bits(extract("fv3", w.angles, w.gyro, layout), row)

    @given(sensor_values())
    @settings(max_examples=200)
    def test_fv3_kernel_equals_oracle_in_both_layouts(self, values):
        angles, gyro = values[..., :3], values[..., 3:]
        channels = fv3_channels(angles, gyro)
        n_channels = len(channels[0])
        expected = [fv3_of_channels(channels[r:r + 2 * HALF])
                    for r in range(len(channels) - 2 * HALF + 1)]
        # The stream's layout: a ring that holds each tick at rows k and
        # k + 2 * HALF, one call per window with the window's first row.
        ring = np.zeros((4 * HALF, n_channels))
        row, vector = np.zeros(1, dtype=np.intp), np.empty((1, n_channels, 2, 4))
        for t, tick in enumerate(channels):
            k = t % (2 * HALF)
            ring[k::2 * HALF] = tick
            if t >= 2 * HALF - 1:
                row[0] = k + 1
                _kernel.fv3(ring, row, vector)
                assert_same_bits(vector.reshape(-1), expected[t - 2 * HALF + 1], equal_nan=True)
        # extract_matrix's layout: every window of a set in one call.
        layout = FeatureLayout(sensor_ids=tuple(range(1, values.shape[1] + 1)))
        x = extract_matrix("fv3", make_windows(angles, gyro, None), layout)
        assert_same_bits(x, expected, equal_nan=True)

    def test_oracle_hand_computed_half(self):
        angles = np.zeros((8, 1, 3))
        angles[:4, 0, 0] = CANCELLING
        out = fv3_reference(angles, np.zeros((8, 1, 3)))
        assert out[0:4] == [-1e16, 1e16, 0.25, 2e16]


def _fv3_args(**change):
    """Arguments of a valid fv3 kernel call on 10 ticks of 3 channels, two
    windows, with ``change`` applied."""
    args = {"channels": np.zeros((10, 3)), "rows": np.array([0, 2], dtype=np.intp),
            "out": np.full((2, 3, 2, 4), 7.0)}
    return {**args, **change}


class TestFv3Kernel:
    @pytest.mark.parametrize("change", [
        pytest.param({"channels": np.zeros(30)}, id="channels-1d"),
        pytest.param({"rows": np.zeros((1, 2), dtype=np.intp)}, id="rows-2d"),
        pytest.param({"out": np.empty((2, 3, 8))}, id="out-3d"),
        pytest.param({"channels": np.zeros((10, 3), dtype=np.float32)}, id="channels-float32"),
        pytest.param({"rows": np.array([0, 2], dtype=np.int32)}, id="rows-int32"),
        pytest.param({"rows": np.array([0.0, 2.0])}, id="rows-float"),
        pytest.param({"out": np.empty((2, 3, 2, 4), dtype=np.float32)}, id="out-float32"),
        pytest.param({"channels": np.zeros((10, 6))[:, ::2]}, id="channels-strided"),
        pytest.param({"rows": np.zeros(4, dtype=np.intp)[::2]}, id="rows-strided"),
        pytest.param({"out": np.empty((2, 3, 2, 8))[..., ::2]}, id="out-strided"),
        pytest.param({"channels": [[0.0] * 3] * 10}, id="channels-list"),
        pytest.param({"out": np.empty((1, 3, 2, 4))}, id="out-too-few-windows"),
        pytest.param({"out": np.empty((2, 2, 2, 4))}, id="out-too-few-channels"),
        pytest.param({"out": np.empty((2, 3, 2, 3))}, id="out-too-few-statistics"),
        pytest.param({"rows": np.array([0, 3], dtype=np.intp)}, id="row-past-T-8"),
        pytest.param({"rows": np.array([-1, 0], dtype=np.intp)}, id="row-negative"),
        pytest.param({"rows": np.array([0], dtype=np.intp),
                      "channels": np.zeros((7, 3)), "out": np.empty((1, 3, 2, 4))},
                     id="window-longer-than-channels"),
    ])
    def test_fv3_rejects_arrays_it_cannot_read(self, change):
        args = _fv3_args(**change)
        before = args["out"].tobytes()
        with pytest.raises((ValueError, TypeError)):
            _kernel.fv3(args["channels"], args["rows"], args["out"])
        assert args["out"].tobytes() == before

    def test_fv3_rejects_a_read_only_out_and_wrong_arity(self):
        args = _fv3_args()
        args["out"].flags.writeable = False
        with pytest.raises((ValueError, TypeError)):
            _kernel.fv3(*args.values())
        with pytest.raises(TypeError):
            _kernel.fv3(args["channels"], args["rows"])

    @pytest.mark.parametrize("n_ticks", [0, 3, 7])
    def test_fv3_takes_no_windows_of_any_length(self, n_ticks):
        out = np.empty((0, 3, 2, 4))
        assert _kernel.fv3(np.zeros((n_ticks, 3)), np.zeros(0, dtype=np.intp), out) is None


class TestEmptySets:
    @pytest.mark.parametrize("kind", FEATURE_KINDS)
    @pytest.mark.parametrize("n_ticks", [0, 3, 7, 20])
    def test_empty_set_gives_zero_rows(self, kind, n_ticks):
        # 0 and 3 ticks hold no half block; 20 ticks give an empty subset.
        layout = FeatureLayout(sensor_ids=(1, 2))
        windows = make_windows(np.ones((n_ticks, 2, 3)), np.ones((n_ticks, 2, 3)), None)
        windows = windows[:0]
        X = extract_matrix(kind, windows, layout)
        assert X.shape == (0, feature_dim(kind, 2))


class TestGamma:
    def test_neutral_is_zero(self):
        assert tick_gamma(np.array([0.0, 0.0, 0.0])) == 0.0

    def test_pythagorean(self):
        assert tick_gamma(np.array([3.0, 4.0, 0.0])) == pytest.approx(5.0)

    @given(
        st.floats(-90, 90), st.floats(-180, 180), st.floats(-180, 180),
        st.permutations([0, 1, 2]),
        st.tuples(st.sampled_from([-1, 1]), st.sampled_from([-1, 1]), st.sampled_from([-1, 1])),
    )
    @settings(max_examples=60)
    def test_sign_and_permutation_invariance(self, p, r, y, perm, signs):
        base = [p, r, y]
        mixed = [signs[i] * base[perm[i]] for i in range(3)]
        a = tick_gamma(np.array(base))
        b = tick_gamma(np.array(mixed))
        assert a == pytest.approx(b, rel=1e-12, abs=1e-12)

    def test_mae_session_shows_three_plateaus(self, mae7):
        # one plateau of window-mean amplitude per repetition level
        from bomi.experiments import sequence_windows

        ws = sequence_windows(mae7, mae7.sequences[0])
        by_rep = {}
        for w in ws:
            if w.label != 1:
                continue
            gam = float(np.linalg.norm(w.angles[:, 0, :], axis=1).mean())
            by_rep.setdefault(w.start_tick // 600, []).append(gam)
        levels = sorted(float(np.median(v)) for v in by_rep.values())
        assert len(levels) == 3
        assert levels[1] - levels[0] > 2.0
        assert levels[2] - levels[1] > 2.0


class TestRanges:
    @staticmethod
    def windows_at(gammas, labels, n=8):
        angles = np.zeros((len(gammas) * n, 1, 3))
        angles[:, 0, 0] = np.repeat(gammas, n)
        return make_windows(
            angles, np.zeros_like(angles), np.repeat(labels, n), size=n, overlap=0
        )

    def test_min_max_of_window_means(self):
        ws = self.windows_at([10.0, 15.0, 22.0, 5.0, 6.0], [1, 1, 1, 2, 2])
        r = learn_ranges(ws, FeatureLayout(sensor_ids=(1,)), classes=[1, 2])
        assert r.ranges[1] == pytest.approx((10.0, 22.0))
        assert r.ranges[2] == pytest.approx((5.0, 6.0))

    def test_percentile_mode_matches_sort_oracle(self):
        rng = np.random.default_rng(8)
        values = rng.uniform(0.0, 1.0, size=100)
        ws = self.windows_at([*values, 2.0, 3.0], [1] * 100 + [2, 2])
        r = learn_ranges(
            ws, FeatureLayout(sensor_ids=(1,)), classes=[1, 2], mode="percentile"
        )
        lo, hi = np.percentile(values, [5.0, 95.0])
        assert r.ranges[1] == pytest.approx((lo, hi), abs=1e-12)
        assert 0.0 < r.ranges[1][0] < 0.1
        assert 0.9 < r.ranges[1][1] < 1.0

    def test_missing_class_is_coverage_error(self):
        ws = self.windows_at([10.0], [1])
        with pytest.raises(CoverageError):
            learn_ranges(ws, FeatureLayout(sensor_ids=(1,)), classes=[1, 2])

    def test_degenerate_range_rejected(self):
        ws = self.windows_at([10.0, 10.0], [1, 1])
        with pytest.raises(DegenerateRangeError):
            learn_ranges(ws, FeatureLayout(sensor_ids=(1,)), classes=[1])

    def test_class_sensor_mapping_used(self):
        angles = np.zeros((8, 2, 3))
        angles[:, 1, 0] = 30.0
        other = np.zeros((8, 2, 3))
        other[:, 1, 0] = 10.0
        ws = window_set([build_window(angles), build_window(other)], [1, 1])
        r = learn_ranges(
            ws, FeatureLayout(sensor_ids=(1, 2)), classes=[1], class_sensor={1: 2}
        )
        assert r.ranges[1] == pytest.approx((10.0, 30.0))


class TestPropOutput:
    RANGES = AmplitudeRange(ranges={1: (10.0, 30.0)}, class_sensor={1: 1})

    def test_minimum_maps_to_zero(self):
        assert prop_output(10.0, 1, self.RANGES) == 0.0

    def test_maximum_maps_to_one(self):
        assert prop_output(30.0, 1, self.RANGES) == 1.0

    def test_midpoint(self):
        assert prop_output(20.0, 1, self.RANGES) == pytest.approx(0.5)

    def test_clipped_beyond_range(self):
        assert prop_output(45.0, 1, self.RANGES) == 1.0
        assert prop_output(2.0, 1, self.RANGES) <= 1.0

    def test_neutral_class_is_zero(self):
        assert prop_output(50.0, 0, self.RANGES) == 0.0

    def test_unknown_class(self):
        with pytest.raises(CoverageError):
            prop_output(10.0, 2, self.RANGES)

    @given(st.floats(10.0, 30.0), st.floats(10.0, 30.0))
    @settings(max_examples=50)
    def test_monotone_within_range(self, a, b):
        lo, hi = sorted((a, b))
        assert prop_output(lo, 1, self.RANGES) <= prop_output(hi, 1, self.RANGES) + 1e-12
        assert 0.0 <= prop_output(a, 1, self.RANGES) <= 1.0

    def test_degenerate_constructed_range_rejected(self):
        with pytest.raises(DegenerateRangeError):
            AmplitudeRange(ranges={1: (10.0, 10.0)}, class_sensor={1: 1})
