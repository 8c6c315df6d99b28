import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bomi.errors import (
    CalibrationError,
    UndefinedAttitudeError,
    UndefinedHeadingError,
    ValidationError,
)
from bomi.dataset_io import angles_to_raw
from bomi.fusion import (
    FLAG_ACCEL_FALLBACK,
    FLAG_GIMBAL_GUARD,
    FLAG_MAG_FALLBACK,
    FLAG_SETS,
    ComplementaryFilter,
    FusionConfig,
    OrientationFrame,
    accel_angles,
    calibrate_neutral,
    circular_mean_deg,
    fuse_sequence,
    _kernel,
    mag_yaw,
    wrap_deg,
)

from oracles import (
    WRAP_SITES,
    accel_measurement,
    assert_same_bits,
    circular_mean,
    complementary_filter_reference,
    heading_from_mag,
    mag_heading,
    world_to_body,
)

MAG_LEVEL = (1.0, 0.0, 0.0)


def frame(pitch, roll, yaw, sensor_id=1, tick=0):
    return OrientationFrame(sensor_id, tick, pitch, roll, yaw)


@given(st.floats(-1e6, 1e6), st.integers(-5, 5))
def test_wrap_deg_range_and_periodicity(a, k):
    w = wrap_deg(a)
    assert -180.0 < w <= 180.0
    assert wrap_deg(a + 360.0 * k) == pytest.approx(w, abs=1e-6)
    # The array form equals the scalar form bit for bit, seam values included.
    xs = np.array([a, a + 360.0 * k, 180.0, -180.0, 540.0, -540.0, 0.0, -0.0])
    got = wrap_deg(xs)
    want = np.array([wrap_deg(float(x)) for x in xs])
    assert got.tobytes() == want.tobytes()


def test_wrap_boundary_maps_to_positive_180():
    assert wrap_deg(180.0) == 180.0
    assert wrap_deg(-180.0) == 180.0
    assert wrap_deg(540.0) == 180.0


class TestAccelAngles:
    def test_gravity_along_z(self):
        assert accel_angles((0.0, 0.0, 1.0)) == pytest.approx((0.0, 0.0))

    def test_nose_down(self):
        pitch, roll = accel_angles((-1.0, 0.0, 0.0))
        assert pitch == pytest.approx(90.0)
        assert roll == pytest.approx(0.0)

    def test_rotated_gravity_inverts(self):
        acc = world_to_body((0, 0, 1), yaw=0.0, pitch=20.0, roll=-35.0)
        pitch, roll = accel_angles(acc)
        assert pitch == pytest.approx(20.0, abs=1e-9)
        assert roll == pytest.approx(-35.0, abs=1e-9)

    def test_zero_vector_rejected(self):
        with pytest.raises(UndefinedAttitudeError):
            accel_angles((0.0, 0.0, 0.0))

    def test_random_attitudes_match_rotation_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            pitch = rng.uniform(-89.0, 89.0)
            roll = rng.uniform(-179.0, 179.0)
            yaw = rng.uniform(-179.0, 179.0)
            acc = world_to_body((0, 0, 1), yaw, pitch, roll)
            got = accel_angles(acc)
            assert got[0] == pytest.approx(pitch, abs=1e-9)
            assert got[1] == pytest.approx(roll, abs=1e-9)


class TestMagYaw:
    def test_level_north(self):
        assert mag_yaw(MAG_LEVEL, 0.0, 0.0) == pytest.approx(0.0)

    def test_level_east_field(self):
        assert mag_yaw((0.0, 1.0, 0.0), 0.0, 0.0) == pytest.approx(-90.0)

    def test_tilted_matches_matrix_oracle(self):
        mag = world_to_body((0.9, 0.0, -0.4), yaw=37.0, pitch=25.0, roll=-40.0)
        got = mag_yaw(mag, 25.0, -40.0)
        assert got == pytest.approx(heading_from_mag(mag, 25.0, -40.0), abs=1e-9)
        assert got == pytest.approx(37.0, abs=1e-9)

    def test_zero_vector_rejected(self):
        with pytest.raises(UndefinedHeadingError):
            mag_yaw((0.0, 0.0, 0.0), 0.0, 0.0)

    def test_random_attitudes_recover_heading(self):
        rng = np.random.default_rng(11)
        field = (0.86, 0.0, -0.51)
        for _ in range(1000):
            pitch = rng.uniform(-80.0, 80.0)
            roll = rng.uniform(-179.0, 179.0)
            yaw = rng.uniform(-179.9, 179.9)
            mag = world_to_body(field, yaw, pitch, roll)
            assert mag_yaw(mag, pitch, roll) == pytest.approx(yaw, abs=1e-9)


class TestComplementaryFilter:
    @staticmethod
    def static_inputs():
        return (0.0, 0.0, 1.0), (0.0, 0.0, 0.0), MAG_LEVEL

    def test_static_convergence_within_five_seconds(self):
        acc, gyro, mag = self.static_inputs()
        filt = ComplementaryFilter(alpha=0.98, dt=1 / 60, initial=(80.0, 170.0, -179.0))
        for t in range(300):
            out = filt.step(t, acc, gyro, mag)
        assert abs(out.pitch) < 0.5
        assert abs(out.roll) < 0.5
        assert abs(out.yaw) < 0.5

    def test_alpha_zero_passes_measurement_through(self):
        filt = ComplementaryFilter(alpha=0.0, dt=1 / 60, initial=(42.0, -30.0, 100.0))
        acc = world_to_body((0, 0, 1), yaw=15.0, pitch=10.0, roll=5.0)
        mag = world_to_body(MAG_LEVEL, yaw=15.0, pitch=10.0, roll=5.0)
        out = filt.step(0, acc, (17.0, -3.0, 120.0), mag)
        assert out.pitch == pytest.approx(10.0, abs=1e-9)
        assert out.roll == pytest.approx(5.0, abs=1e-9)
        assert out.yaw == pytest.approx(15.0, abs=1e-9)

    def test_alpha_one_pure_integration(self):
        filt = ComplementaryFilter(alpha=1.0, dt=1 / 60, initial=(0.0, 0.0, 0.0))
        acc, _, mag = self.static_inputs()
        for t in range(60):
            out = filt.step(t, acc, (0.0, 0.0, 10.0), mag)
        assert out.yaw == pytest.approx(10.0, abs=1e-9)
        assert out.pitch == pytest.approx(0.0, abs=1e-9)

    def test_blend_takes_shortest_path_across_wrap(self):
        filt = ComplementaryFilter(alpha=0.9, dt=1 / 60, initial=(0.0, 0.0, 179.0))
        acc = (0.0, 0.0, 1.0)
        mag = world_to_body(MAG_LEVEL, yaw=-179.0, pitch=0.0, roll=0.0)
        out = filt.step(0, acc, (0.0, 0.0, 0.0), mag)
        # measurement is 2 degrees away through the seam, not 358 back
        assert out.yaw == pytest.approx(179.2, abs=1e-9)

    def test_zero_accel_falls_back_to_gyro(self):
        filt = ComplementaryFilter(alpha=0.98, dt=1 / 60, initial=(1.0, 2.0, 3.0))
        out = filt.step(0, (0.0, 0.0, 0.0), (0.0, 60.0, 0.0), MAG_LEVEL)
        assert FLAG_ACCEL_FALLBACK in out.flags
        assert out.pitch == pytest.approx(2.0, abs=1e-9)  # 1 + 60/60

    def test_gimbal_guard_holds_yaw(self):
        filt = ComplementaryFilter(
            alpha=0.5, dt=1 / 60, gimbal_guard_deg=85.0, initial=(89.0, 0.0, 50.0)
        )
        acc = world_to_body((0, 0, 1), yaw=0.0, pitch=89.0, roll=0.0)
        out = filt.step(0, acc, (0.0, 0.0, 0.0), MAG_LEVEL)
        assert FLAG_GIMBAL_GUARD in out.flags
        assert out.yaw == pytest.approx(50.0, abs=1e-9)

    def test_determinism(self):
        rng = np.random.default_rng(0)
        stream = rng.normal(size=(200, 9))
        stream[:, 2] += 2.0
        stream[:, 6] += 2.0
        outs = []
        for _ in range(2):
            filt = ComplementaryFilter(alpha=0.97, dt=1 / 60)
            outs.append(
                [filt.step(t, r[0:3], r[3:6], r[6:9]) for t, r in enumerate(stream)]
            )
        assert outs[0] == outs[1]

    def test_zero_mean_gyro_bias_does_not_drift(self):
        # long-run mean error under zero-mean rate noise stays < 0.1 deg
        rng = np.random.default_rng(21)
        filt = ComplementaryFilter(alpha=0.98, dt=1 / 60, initial=(0.0, 0.0, 0.0))
        acc = world_to_body((0, 0, 1), yaw=30.0, pitch=12.0, roll=-8.0)
        mag = world_to_body(MAG_LEVEL, yaw=30.0, pitch=12.0, roll=-8.0)
        errs = np.empty((10_000, 3))
        for t in range(10_000):
            gyro = rng.normal(0.0, 5.0, size=3)
            out = filt.step(t, acc, gyro, mag)
            errs[t] = (out.pitch - 12.0, out.roll + 8.0, out.yaw - 30.0)
        assert np.abs(errs[1000:].mean(axis=0)).max() < 0.1

    def test_invalid_parameters_rejected(self):
        for field, value in [
            ("alpha", 1.5), ("alpha", float("nan")),
            ("dt", 0.0), ("dt", float("nan")), ("dt", float("inf")), ("dt", float("-inf")),
            ("gimbal_guard_deg", 91.0),
            ("initial", (float("nan"), 0.0, 0.0)), ("initial", (1.0, 2.0)), ("initial", "abc"),
            ("initial", (10**400, 0.0, 0.0)),
        ]:
            with pytest.raises(ValidationError, match=field):
                ComplementaryFilter(**{field: value})


@pytest.mark.parametrize("initial", [None, (80.0, 170.0, -179.0)])
@pytest.mark.parametrize("acc, gyro, mag", [
    ((float("nan"), 0.0, 1.0), (0.0, 0.0, 0.0), MAG_LEVEL),
    ((0.0, 0.0, 1.0), (float("inf"), 0.0, 0.0), MAG_LEVEL),
    (("0", "0", "1"), (0.0, 0.0, 0.0), MAG_LEVEL),
])
def test_filter_rejects_bad_rows_and_stays_unchanged(initial, acc, gyro, mag):
    good = world_to_body((0, 0, 1), yaw=0.0, pitch=10.0, roll=5.0), (1.0, -2.0, 3.0), MAG_LEVEL
    filt = ComplementaryFilter(sensor_id=4, initial=initial)
    untouched = ComplementaryFilter(sensor_id=4, initial=initial)
    for f in (filt, untouched):
        f.step(0, *good)
    with pytest.raises(ValidationError,
                       match=r"sensor 4 at tick 1: expected 9 finite numbers, got "):
        filt.step(1, acc, gyro, mag)
    assert filt.step(1, *good) == untouched.step(1, *good)


@pytest.mark.parametrize("initial", [None, (80.0, 170.0, -179.0)])
def test_a_shallow_copy_steps_on_its_own(initial):
    first = world_to_body((0, 0, 1), yaw=0.0, pitch=10.0, roll=5.0), (1.0, -2.0, 3.0), MAG_LEVEL
    then = world_to_body((0, 0, 1), yaw=20.0, pitch=-4.0, roll=9.0), (5.0, 0.5, -7.0), MAG_LEVEL
    filt = ComplementaryFilter(sensor_id=4, initial=initial)
    filt.step(0, *first)
    twin = copy.copy(filt)
    assert twin == filt
    assert filt.step(1, *then) == twin.step(1, *then)


@pytest.mark.parametrize("field, value", [
    ("alpha", -0.1), ("alpha", 1.5), ("alpha", float("nan")), ("alpha", float("inf")),
    ("alpha", "x"), ("alpha", True),
    ("calib_ticks", -1), ("calib_ticks", 2.5), ("calib_ticks", "60"), ("calib_ticks", True),
    ("gimbal_guard_deg", -1.0), ("gimbal_guard_deg", 90.5), ("gimbal_guard_deg", float("nan")),
    ("gimbal_guard_deg", None),
])
def test_fusion_config_rejects_bad_values(field, value):
    with pytest.raises(ValidationError, match=field):
        FusionConfig(**{field: value})


@pytest.mark.parametrize("values", [
    dict(alpha=0, calib_ticks=0, gimbal_guard_deg=0), dict(alpha=1.0, gimbal_guard_deg=90.0),
    dict(alpha=np.float64(0.5), calib_ticks=np.int64(3)),
])
def test_fusion_config_accepts_bounds(values):
    FusionConfig(**values)


class TestCalibration:
    def test_constant_frames_give_exact_offset(self):
        frames = [[(5.0, -2.0, 30.0)] * 60]
        off = calibrate_neutral(frames, 60)
        assert off.shape == (1, 3) and off.dtype == np.float64
        assert off[0] == pytest.approx((5.0, -2.0, 30.0), abs=1e-9)

    def test_alternating_pitch_averages(self):
        frames = [[(10.0 if t % 2 else 20.0, 0.0, 0.0) for t in range(60)]]
        off = calibrate_neutral(frames, 60)
        assert off[0, 0] == pytest.approx(15.0, abs=1e-9)

    def test_yaw_across_seam_uses_circular_mean(self):
        frames = [[(0.0, 0.0, 179.0 if t % 2 else -179.0) for t in range(60)]]
        off = calibrate_neutral(frames, 60)
        expected = wrap_deg(circular_mean([179.0, -179.0] * 30))
        assert off[0, 2] == pytest.approx(expected, abs=1e-9)
        assert off[0, 2] == pytest.approx(180.0, abs=1e-9)

    def test_insufficient_frames(self):
        with pytest.raises(CalibrationError):
            calibrate_neutral([[(0, 0, 0)] * 59], 60)

    def test_circular_mean_matches_unit_vector_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            angles = rng.uniform(-179, 180, size=8).tolist()
            got = circular_mean_deg(angles)
            assert got == pytest.approx(wrap_deg(circular_mean(angles)), abs=1e-9)


def subtract_offset(f, offset):
    """The offset step of fuse_sequence and StreamingPipeline.step on one
    frame; ``offset`` is a (1, 3) array."""
    out = wrap_deg(np.array([[f.pitch, f.roll, f.yaw]]) - offset)
    return frame(*out[0], sensor_id=f.sensor_id, tick=f.tick)


class TestApplyOffset:
    def test_frame_equal_to_offset_zeroes(self):
        f = frame(5.0, -2.0, 30.0)
        off = np.array([(5.0, -2.0, 30.0)])
        out = subtract_offset(f, off)
        assert (out.pitch, out.roll, out.yaw) == pytest.approx((0, 0, 0), abs=1e-12)

    def test_wrapped_subtraction(self):
        out = subtract_offset(frame(0.0, 0.0, -170.0), np.array([(0.0, 0.0, 170.0)]))
        assert out.yaw == pytest.approx(20.0, abs=1e-12)

    def test_offset_from_own_frame_calibration(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            f = frame(rng.uniform(-80, 80), rng.uniform(-170, 170), rng.uniform(-170, 170))
            off = calibrate_neutral([[(f.pitch, f.roll, f.yaw)] * 10], 10)
            out = subtract_offset(f, off)
            assert abs(out.pitch) < 1e-9
            assert abs(out.roll) < 1e-9
            assert abs(out.yaw) < 1e-9


def test_batch_fusion_matches_streaming_steps_bitwise(small_noisy):
    seq = small_noisy.sequences[0]
    cfg = FusionConfig()
    fused = fuse_sequence(seq.samples, 60.0, cfg)

    filters = {
        sid: ComplementaryFilter(alpha=cfg.alpha, dt=1 / 60, sensor_id=sid)
        for sid in small_noisy.sensor_ids
    }
    head: dict[int, list] = {sid: [] for sid in small_noisy.sensor_ids}
    frames = []
    for t in range(400):
        row_frames = {}
        for si, sid in enumerate(small_noisy.sensor_ids):
            r = seq.samples[t, si]
            fr = filters[sid].step(t, r[0:3], r[3:6], r[6:9])
            row_frames[sid] = fr
            if t < cfg.calib_ticks:
                head[sid].append((fr.pitch, fr.roll, fr.yaw))
        frames.append(row_frames)
    offset = calibrate_neutral(list(head.values()), cfg.calib_ticks).tolist()
    for t in range(400):
        for si, sid in enumerate(small_noisy.sensor_ids):
            # Independent scalar route: one Python-float wrap per element.
            fr = frames[t][sid]
            p0, r0, y0 = offset[si]
            assert fused.angles[t, si, 0] == wrap_deg(fr.pitch - p0)
            assert fused.angles[t, si, 1] == wrap_deg(fr.roll - r0)
            assert fused.angles[t, si, 2] == wrap_deg(fr.yaw - y0)


def degraded_rows(first_zero: str, direction: float) -> np.ndarray:
    """Raw rows that drive the filter through every degraded branch.

    Pitch climbs to the gimbal guard and the gyro pushes it past +-90 deg
    (the clamp); roll and yaw cross +-180 deg; accel and mag each drop to
    zero for a span, and ``first_zero`` names the vectors zeroed on the
    first tick (the bootstrap fallbacks).
    """
    t = np.arange(600, dtype=np.float64)
    pitch = np.interp(t, [0, 330, 370, 420, 470, 520, 599], [0, 0, 89.5, 89.5, -89.5, -89.5, 0])
    turn = direction * (150.0 + 0.4 * np.maximum(t - 200.0, 0.0))
    angles = np.stack([pitch, wrap_deg(turn), wrap_deg(-turn)], axis=1)
    rows = angles_to_raw(angles, 60.0)
    rows[100:120, 0:3] = 0.0
    rows[120:140, 6:9] = 0.0
    rows[362:382, 4] = 400.0    # pitch prediction overshoots +90
    rows[462:482, 4] = -400.0   # and -90
    rows[400:410, 0:3] = 0.0    # zero accel inside the guard band
    if first_zero in ("acc", "both"):
        rows[0, 0:3] = 0.0
    if first_zero in ("mag", "both"):
        rows[0, 6:9] = 0.0
    return rows


@pytest.mark.parametrize("calib_ticks", [60, 0])
@pytest.mark.parametrize("first_zero", ["acc", "mag", "both"])
def test_batch_fusion_matches_streaming_steps_under_degraded_input(first_zero, calib_ticks):
    sensor_ids = (1, 2)
    samples = np.stack([degraded_rows(first_zero, 1.0), degraded_rows(first_zero, -1.0)], axis=1)
    cfg = FusionConfig(calib_ticks=calib_ticks)
    fused = fuse_sequence(samples, 60.0, cfg)

    frames = {}
    for si, sid in enumerate(sensor_ids):
        filt = ComplementaryFilter(alpha=cfg.alpha, dt=1 / 60, sensor_id=sid)
        frames[sid] = [filt.step(t, r[0:3], r[3:6], r[6:9])
                       for t, r in enumerate(samples[:, si])]
    if calib_ticks:
        offset = calibrate_neutral(
            [[(fr.pitch, fr.roll, fr.yaw) for fr in frames[s][:calib_ticks]] for s in sensor_ids],
            calib_ticks,
        )
    else:
        offset = np.zeros((len(sensor_ids), 3))
    assert fused.offset.shape == (len(sensor_ids), 3)
    assert fused.offset.tobytes() == offset.tobytes()

    for si, sid in enumerate(sensor_ids):
        p0, r0, y0 = offset[si].tolist()
        want = np.array([[wrap_deg(f.pitch - p0), wrap_deg(f.roll - r0), wrap_deg(f.yaw - y0)]
                         for f in frames[sid]])
        assert fused.angles[:, si].tobytes() == want.tobytes()
        assert fused.flags[si] == tuple(f.flags for f in frames[sid])

        # Every degraded branch was taken, so the equality above covers it.
        flags = fused.flags[si]
        assert set(flags[0]) == {"acc": {FLAG_ACCEL_FALLBACK}, "mag": {FLAG_MAG_FALLBACK},
                                 "both": {FLAG_ACCEL_FALLBACK, FLAG_MAG_FALLBACK}}[first_zero]
        assert all(flags[t] == (FLAG_ACCEL_FALLBACK,) for t in range(100, 120))
        assert all(flags[t] == (FLAG_MAG_FALLBACK,) for t in range(120, 140))
        assert any(FLAG_GIMBAL_GUARD in f for f in flags)
        assert any(FLAG_ACCEL_FALLBACK in f and FLAG_GIMBAL_GUARD in f for f in flags)
        raw_pitch = [f.pitch for f in frames[sid]]
        assert 90.0 in raw_pitch and -90.0 in raw_pitch
        for axis in ("roll", "yaw"):
            raw = np.array([getattr(f, axis) for f in frames[sid]])
            assert (np.abs(np.diff(raw)) > 300.0).any()   # crossed the +-180 seam


def test_angles_stay_in_wrap_ranges(small_noisy):
    seq = small_noisy.sequences[0]
    fused = fuse_sequence(seq.samples, 60.0)
    assert (fused.angles[..., 1:] > -180.0).all() and (fused.angles[..., 1:] <= 180.0).all()
    assert (np.abs(fused.angles[..., 0]) <= 180.0).all()


def assert_filter_matches_reference(rows, alpha, rate, guard=85.0, hits=None):
    """A stepped filter and fuse_sequence both equal the plain recursion
    of oracles.complementary_filter_reference, bit for bit, flags included.
    Returns the reference's (pitch, roll, yaw, flags) per tick."""
    want = complementary_filter_reference(rows, alpha, 1.0 / rate, guard, hits)
    raw = np.array([w[:3] for w in want])
    flags = tuple(w[3] for w in want)

    filt = ComplementaryFilter(alpha=alpha, dt=1.0 / rate, gimbal_guard_deg=guard)
    frames = [filt.step(t, r[0:3], r[3:6], r[6:9]) for t, r in enumerate(rows)]
    assert_same_bits([(f.pitch, f.roll, f.yaw) for f in frames], raw)
    assert tuple(f.flags for f in frames) == flags

    # With calib_ticks 0 the offset is zero: angles are wrap_deg(raw - 0).
    cfg = FusionConfig(alpha=alpha, calib_ticks=0, gimbal_guard_deg=guard)
    fused = fuse_sequence(rows[:, None], rate, cfg)
    assert_same_bits(fused.angles[:, 0], wrap_deg(raw - 0.0))
    assert fused.flags == (flags,)
    return want


def random_rows(rng, n: int) -> np.ndarray:
    acc = rng.normal(size=(n, 3)) + (0.0, 0.0, 1.0)
    gyro = rng.normal(scale=300.0, size=(n, 3))
    mag = rng.normal(size=(n, 3))
    return np.hstack([acc, gyro, mag])


@pytest.mark.parametrize("seed", range(4))
def test_filter_matches_reference_on_random_blocks(seed):
    rng = np.random.default_rng(seed)
    rate = (4.0, 60.0, 100.0)[seed % 3]
    assert_filter_matches_reference(random_rows(rng, 300), rng.uniform(), rate)


@pytest.mark.parametrize("where", ["first", "mid"])
@pytest.mark.parametrize("zero", ["acc", "mag", "both"])
def test_filter_matches_reference_on_zero_vectors(zero, where):
    rows = random_rows(np.random.default_rng(11), 120)
    ticks = slice(0, 1) if where == "first" else slice(50, 60)
    if zero in ("acc", "both"):
        rows[ticks, 0:3] = 0.0
    if zero in ("mag", "both"):
        rows[ticks, 6:9] = 0.0
    flags = tuple(w[3] for w in assert_filter_matches_reference(rows, 0.9, 60.0, guard=90.0))
    want = {"acc": (FLAG_ACCEL_FALLBACK,), "mag": (FLAG_MAG_FALLBACK,),
            "both": (FLAG_ACCEL_FALLBACK, FLAG_MAG_FALLBACK)}[zero]
    assert all(f == want for f in flags[ticks])
    assert not any(flags[:ticks.start] + flags[ticks.stop:])


def test_filter_matches_reference_past_the_gimbal_guard():
    rng = np.random.default_rng(12)
    rows = random_rows(rng, 200)
    rows[:, 0:3] = (-1.0, 0.0, 0.02) + rng.normal(scale=0.01, size=(200, 3))   # pitch ~89
    rows[60:80, 4] = 900.0      # the gyro pushes pitch past the +90 clamp
    rows[100:110, 0:3] = 0.0    # zero accel inside the guard band
    rows[120:130, 6:9] = 0.0    # zero mag: the guard still decides
    want = assert_filter_matches_reference(rows, 0.98, 60.0)
    flags = [w[3] for w in want]
    assert FLAG_GIMBAL_GUARD in flags[1]
    assert (FLAG_ACCEL_FALLBACK, FLAG_GIMBAL_GUARD) in flags
    assert 90.0 in [w[0] for w in want]


# Vectors whose angles are exact (0, +-45, +-90, +-180 and signed zeros),
# and gyro rates that turn by multiples of 45 degrees at 4 Hz, so wraps
# land on -180 exactly.
EXACT_ACC = ((0, 0, 1), (0, 0, -1), (0, 1, 0), (0, -1, 0), (-1, 0, 0), (1, 0, 0), (0, 0, 0),
             (0, -0.0, -1))
EXACT_MAG = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (1, 1, 0), (0, 0, 0), (-1, -0.0, 0))


def test_filter_matches_reference_where_every_wrap_hits_minus_180():
    rng = np.random.default_rng(0)
    hits: dict[str, int] = {}
    n = 8
    for _ in range(50):
        acc = np.array(EXACT_ACC, dtype=np.float64)[rng.integers(0, len(EXACT_ACC), n)]
        mag = np.array(EXACT_MAG, dtype=np.float64)[rng.integers(0, len(EXACT_MAG), n)]
        gyro = 180.0 * rng.integers(-4, 5, size=(n, 3))
        assert_filter_matches_reference(np.hstack([acc, gyro, mag]), 0.5, 4.0, hits=hits)
    assert set(hits) == set(WRAP_SITES)


def test_measurements_match_reference_and_filter_bootstrap():
    rng = np.random.default_rng(13)
    for acc, mag in zip(rng.normal(size=(200, 3)), rng.normal(size=(200, 3))):
        pitch, roll = accel_angles(acc)
        assert_same_bits((pitch, roll), accel_measurement(acc))
        assert_same_bits(mag_yaw(mag, pitch, roll), mag_heading(mag, pitch, roll))
        p, r = rng.uniform(-90.0, 90.0), rng.uniform(-180.0, 180.0)
        assert_same_bits(mag_yaw(mag, p, r), mag_heading(mag, p, r))
        first = ComplementaryFilter().step(0, acc, (0.0, 0.0, 0.0), mag)
        assert_same_bits((first.pitch, first.roll, first.yaw),
                         (pitch, roll, mag_yaw(mag, pitch, roll)))


# Conditions planted on ticks of random rows: a zero or sub-threshold
# accelerometer or magnetometer, accelerometer y and z of +-0.0, a
# near-vertical accelerometer that takes |pitch| toward 90, and still or
# 400x gyro rates.
TICK_KINDS = ("zero_acc", "tiny_acc", "zero_mag", "tiny_mag", "signed_zero", "vertical",
              "spike", "still")


def planted_rows(n: int, planted, seed: int) -> np.ndarray:
    """``n`` random rows with each (tick, kind) of ``planted`` at tick % n."""
    rng = np.random.default_rng(seed)
    rows = random_rows(rng, n)
    for t, kind in planted:
        t %= n
        if kind == "zero_acc":
            rows[t, 0:3] = 0.0
        elif kind == "tiny_acc":    # squares sum below the 1e-24 threshold
            rows[t, 0:3] = rng.uniform(-5e-13, 5e-13, 3)
        elif kind == "zero_mag":
            rows[t, 6:9] = 0.0
        elif kind == "tiny_mag":    # norm below the 1e-12 threshold
            rows[t, 6:9] = rng.uniform(-5e-13, 5e-13, 3)
        elif kind == "signed_zero":
            rows[t, 1:3] = rng.choice([0.0, -0.0], 2)
        elif kind == "vertical":
            rows[t, 0:3] = (rng.choice([-1.0, 1.0]), *rng.normal(scale=1e-3, size=2))
        elif kind == "spike":
            rows[t, 3:6] *= 400.0
        elif kind == "still":
            rows[t, 3:6] = 0.0
    return rows


@given(
    n=st.integers(1, 300),
    planted=st.lists(st.tuples(st.integers(0, 299), st.sampled_from(TICK_KINDS)), max_size=80),
    seed=st.integers(0, 2**32 - 2),
    alpha=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    guard=st.sampled_from([0.0, 90.0]) | st.floats(0.0, 90.0),
    rate=st.sampled_from([4.0, 60.0, 100.0]),
)
@settings(max_examples=150)
def test_kernel_entries_match_reference_bitwise(n, planted, seed, alpha, guard, rate):
    rows = planted_rows(n, planted, seed)
    dt = 1.0 / rate
    want = complementary_filter_reference(rows, alpha, dt, guard)
    want_raw = np.array([w[:3] for w in want]).tobytes()
    want_flags = tuple(w[3] for w in want)

    # The whole-sequence entry on the second sensor of two (row stride 18).
    samples = np.stack([planted_rows(n, planted[::-1], seed + 1), rows], axis=1)
    raw = np.full((n, 2, 3), np.nan)
    assert _kernel.run(samples, 1, alpha, dt, guard, raw, FLAG_SETS) == want_flags
    assert raw[:, 1].tobytes() == want_raw
    assert np.isnan(raw[:, 0]).all()

    # The one-tick entry on one sensor, from the bootstrap on, with no
    # offset: it writes neither ring nor the means.
    last, state, bits = np.full((1, 9), np.nan), np.zeros((1, 3)), np.zeros(1, dtype=np.uint8)
    pick, channels, gamma = np.zeros(0, dtype=np.intp), np.zeros((2, 0)), np.zeros((1, 2))
    means = np.zeros(1)
    states, tick_bits = [], []
    for row in rows.tolist():
        tick_bits.append(_kernel.tick([row], last, state, bits, alpha, dt, guard, None,
                                      pick, channels, gamma, means, 0))
        assert bits[0] == tick_bits[-1]
        states.append(state[0].copy())
    assert np.array(states).tobytes() == want_raw
    assert tuple(FLAG_SETS[b] for b in tick_bits) == want_flags
    assert not gamma.any()

    # A filter stepped tick by tick equals fuse_sequence on the same rows.
    assert_filter_matches_reference(rows, alpha, rate, guard)


# Vector components: any float, sub-threshold ones (three squares under
# the accelerometer's 1e-24 and a norm under the magnetometer's 1e-12),
# signed zeros, infinities and NaN.
COMPONENTS = (st.floats() | st.floats(-6e-13, 6e-13)
              | st.sampled_from([0.0, -0.0, float("inf"), float("-inf"), float("nan")]))


@given(vector=st.tuples(COMPONENTS, COMPONENTS, COMPONENTS), pitch=st.floats(),
       roll=st.floats())
@settings(max_examples=500)
def test_measure_entry_matches_reference_bitwise(vector, pitch, roll):
    want = accel_measurement(vector)
    got = _kernel.measure(*vector)
    assert (got is None) == (want is None)
    if want is not None:
        assert np.array(got).tobytes() == np.array(want).tobytes()

    try:
        want = mag_heading(vector, pitch, roll)
    except ValueError:   # math.cos of an infinite angle
        with pytest.raises(ValueError):
            _kernel.measure(*vector, pitch, roll)
        return
    got = _kernel.measure(*vector, pitch, roll)
    assert (got is None) == (want is None)
    if want is not None:
        assert np.array(got).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("samples, angles, error", [
    (np.zeros((4, 2, 8)), np.zeros((4, 2, 3)), ValueError),
    (np.zeros((4, 2, 9)), np.zeros((4, 1, 3)), ValueError),
    (np.zeros((4, 2, 9), dtype=np.float32), np.zeros((4, 2, 3)), ValueError),
    (np.zeros((4, 2, 18))[:, :, ::2], np.zeros((4, 2, 3)), ValueError),
    (np.zeros((4, 1, 9)), np.zeros((4, 1, 3)), IndexError),
])
def test_kernel_run_rejects_arrays_it_cannot_read(samples, angles, error):
    with pytest.raises(error):
        _kernel.run(samples, 1, 0.98, 1 / 60, 85.0, angles, FLAG_SETS)
