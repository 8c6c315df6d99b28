"""Sensor fusion: raw 9-axis samples to calibrated pitch/roll/yaw.

Conventions (fixed throughout the package):

* World frame: z up, x toward magnetic north. Body attitude is the
  intrinsic z-y-x rotation Rz(yaw)·Ry(pitch)·Rx(roll) from body to world.
* A level, stationary sensor reads acc = (0, 0, 1) g and, ignoring
  magnetic dip, mag ∝ (1, 0, k).
* Angles are degrees. Pitch lies in [-90, 90]; roll and yaw are wrapped
  to (-180, 180].
* Gyro axes map gyro_x → roll rate, gyro_y → pitch rate, gyro_z → yaw
  rate, in degrees/second.

The filter blends gyro-integrated angles (weight ``alpha``) with the
instantaneous accelerometer/magnetometer angles (weight ``1 - alpha``),
taking the shortest angular path.
"""

from __future__ import annotations

import math
import numbers
from array import array
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    CalibrationError,
    UndefinedAttitudeError,
    UndefinedHeadingError,
    ValidationError,
)

DEFAULT_ALPHA = 0.98
DEFAULT_CALIB_TICKS = 60
DEFAULT_GIMBAL_GUARD_DEG = 85.0

# Flags attached to OrientationFrame when the filter degrades.
FLAG_ACCEL_FALLBACK = "accel_fallback"   # zero accel: pitch/roll from gyro only
FLAG_MAG_FALLBACK = "mag_fallback"       # zero mag: yaw from gyro only
FLAG_GIMBAL_GUARD = "gimbal_guard"       # |pitch| beyond guard: yaw held on gyro
FLAG_GAP = "gap"                         # sample gap: previous raw sample reused


def wrap_deg(angle):
    """Wrap angles in degrees to (-180, 180]; a float or an ndarray.

    ``(x + 180) % 360 - 180`` never yields -0.0, so adding 360 where it
    gives -180 is exact for floats and arrays alike.
    """
    a = (angle + 180.0) % 360.0 - 180.0
    return a + 360.0 * (a == -180.0)


def _accel_meas(ax: float, ay: float, az: float) -> tuple[float, float] | None:
    """Pitch and roll measured from gravity; None for a zero vector."""
    if ax * ax + ay * ay + az * az < 1e-24:
        return None
    pitch = math.degrees(math.atan2(-ax, math.hypot(ay, az)))
    roll = math.degrees(math.atan2(ay, az))
    return pitch, roll


def _mag_unit(mx: float, my: float, mz: float) -> tuple[float, float, float] | None:
    """Unit magnetometer vector; None for a zero vector."""
    norm = math.sqrt(mx * mx + my * my + mz * mz)
    if norm < 1e-12:
        return None
    return mx / norm, my / norm, mz / norm


def _level_yaw(unit: tuple[float, float, float], pitch: float, roll: float) -> float:
    """Heading of a unit field vector de-rotated by pitch and roll."""
    mx, my, mz = unit
    p = math.radians(pitch)
    r = math.radians(roll)
    cp, sp = math.cos(p), math.sin(p)
    cr, sr = math.cos(r), math.sin(r)
    # Level-frame components of the field: Ry(pitch) · Rx(roll) · m.
    x_level = mx * cp + my * sr * sp + mz * cr * sp
    y_level = my * cr - mz * sr
    return math.degrees(math.atan2(-y_level, x_level))


def accel_angles(acc: Sequence[float]) -> tuple[float, float]:
    """Pitch and roll, in degrees, from an accelerometer gravity reading.

    pitch = atan2(-acc_x, sqrt(acc_y² + acc_z²)), roll = atan2(acc_y, acc_z).

    Raises:
        UndefinedAttitudeError: if the vector is (numerically) zero.
    """
    meas = _accel_meas(float(acc[0]), float(acc[1]), float(acc[2]))
    if meas is None:
        raise UndefinedAttitudeError("zero accelerometer vector")
    return meas


def mag_yaw(mag: Sequence[float], pitch: float, roll: float) -> float:
    """Tilt-compensated heading, in degrees, from a magnetometer reading.

    The body-frame field is de-rotated into the level frame using the
    current pitch and roll, then yaw = atan2(-m_y_level, m_x_level).

    Raises:
        UndefinedHeadingError: if the vector is (numerically) zero.
    """
    unit = _mag_unit(float(mag[0]), float(mag[1]), float(mag[2]))
    if unit is None:
        raise UndefinedHeadingError("zero magnetometer vector")
    return _level_yaw(unit, pitch, roll)


# The filter kernel. ComplementaryFilter.step (one tick of a stream) and
# fuse_sequence (a whole recording) both advance the state only through
# _filter_start and _filter_update, so offline and online angles and flags
# are equal bit for bit. Inputs are Python floats; ``acc`` is the output of
# _accel_meas and ``mag`` that of _mag_unit for the tick.
Flags = tuple[str, ...]


def _filter_start(acc, mag) -> tuple[float, float, float, Flags]:
    """Bootstrap state from the first tick's instantaneous measurement."""
    flags: Flags = ()
    pitch = roll = yaw = 0.0
    if acc is None:
        flags = (FLAG_ACCEL_FALLBACK,)
    else:
        pitch, roll = acc
    if mag is None:
        flags += (FLAG_MAG_FALLBACK,)
    else:
        yaw = _level_yaw(mag, pitch, roll)
    return pitch, roll, yaw, flags


def _filter_update(
    pitch: float, roll: float, yaw: float,
    gx: float, gy: float, gz: float, acc, mag,
    alpha: float, dt: float, gimbal_guard_deg: float,
) -> tuple[float, float, float, Flags]:
    """Advance (pitch, roll, yaw) by one tick; return the new state and flags.

    A zero accelerometer falls back to pure gyro integration for
    pitch/roll (flagged); a zero magnetometer, or |pitch| beyond the
    gimbal guard, does the same for yaw. Pitch is clamped to [-90, 90],
    roll/yaw wrapped.
    """
    flags: Flags = ()
    pitch_pred = pitch + gy * dt
    roll_pred = wrap_deg(roll + gx * dt)
    yaw_pred = wrap_deg(yaw + gz * dt)

    if acc is None:
        flags = (FLAG_ACCEL_FALLBACK,)
        pitch_new, roll_new = pitch_pred, roll_pred
    else:
        pitch_new = pitch_pred + (1.0 - alpha) * wrap_deg(acc[0] - pitch_pred)
        roll_new = wrap_deg(roll_pred + (1.0 - alpha) * wrap_deg(acc[1] - roll_pred))
    # min(90, max(-90, x)) without the two calls, NaN included.
    pitch_new = pitch_new if pitch_new > -90.0 else -90.0
    pitch_new = pitch_new if pitch_new < 90.0 else 90.0

    if abs(pitch_new) > gimbal_guard_deg:
        flags += (FLAG_GIMBAL_GUARD,)
        yaw_new = yaw_pred
    elif mag is None:
        flags += (FLAG_MAG_FALLBACK,)
        yaw_new = yaw_pred
    else:
        yaw_meas = _level_yaw(mag, pitch_new, roll_new)
        yaw_new = wrap_deg(yaw_pred + (1.0 - alpha) * wrap_deg(yaw_meas - yaw_pred))
    return pitch_new, roll_new, yaw_new, flags


@dataclass(frozen=True)
class OrientationFrame:
    """Fused orientation of one sensor at one tick, in degrees."""

    sensor_id: int
    tick: int
    pitch: float
    roll: float
    yaw: float
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class NeutralOffset:
    """Per-sensor neutral-pose angles subtracted during operation."""

    offsets: Mapping[int, tuple[float, float, float]]

    def for_sensor(self, sensor_id: int) -> tuple[float, float, float]:
        return self.offsets[sensor_id]

    def array(self, sensor_ids: Sequence[int]) -> np.ndarray:
        """(S, 3) offsets in ``sensor_ids`` order."""
        return np.array([self.offsets[s] for s in sensor_ids], dtype=np.float64)

    @staticmethod
    def zero(sensor_ids: Iterable[int]) -> "NeutralOffset":
        return NeutralOffset({s: (0.0, 0.0, 0.0) for s in sensor_ids})


@dataclass
class ComplementaryFilter:
    """First-order complementary filter for one sensor stream.

    State is the current fused (pitch, roll, yaw); it bootstraps from the
    first sample's accelerometer/magnetometer angles unless an initial
    state is given. One instance owns one sensor stream; instances share
    nothing.

    Attributes:
        alpha: gyro blend weight in [0, 1]. 0 passes the instantaneous
            measurement through; 1 integrates the gyro only.
        dt: sample period in seconds.
        gimbal_guard_deg: |pitch| beyond which yaw holds its
            gyro-integrated value (tilt compensation ill-conditioned).
    """

    alpha: float = DEFAULT_ALPHA
    dt: float = 1.0 / 60.0
    gimbal_guard_deg: float = DEFAULT_GIMBAL_GUARD_DEG
    sensor_id: int = 0
    initial: tuple[float, float, float] | None = None
    _pitch: float = field(default=0.0, init=False, repr=False)
    _roll: float = field(default=0.0, init=False, repr=False)
    _yaw: float = field(default=0.0, init=False, repr=False)
    _started: bool = field(default=False, init=False, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.dt <= 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.initial is not None:
            self._pitch, self._roll, self._yaw = self.initial
            self._started = True

    @property
    def state(self) -> tuple[float, float, float]:
        return (self._pitch, self._roll, self._yaw)

    def step(self, tick: int, acc, gyro, mag) -> OrientationFrame:
        """Advance the filter by one sample and return the fused frame.

        A zero accelerometer falls back to pure gyro integration for
        pitch/roll this tick (flagged); a zero magnetometer does the same
        for yaw. Pitch is clamped to [-90, 90], roll/yaw wrapped.
        """
        acc_m = _accel_meas(float(acc[0]), float(acc[1]), float(acc[2]))
        mag_u = _mag_unit(float(mag[0]), float(mag[1]), float(mag[2]))
        if self._started:
            pitch, roll, yaw, flags = _filter_update(
                self._pitch, self._roll, self._yaw,
                float(gyro[0]), float(gyro[1]), float(gyro[2]), acc_m, mag_u,
                self.alpha, self.dt, self.gimbal_guard_deg,
            )
        else:
            pitch, roll, yaw, flags = _filter_start(acc_m, mag_u)
            self._started = True
        self._pitch, self._roll, self._yaw = pitch, roll, yaw
        return OrientationFrame(self.sensor_id, tick, pitch, roll, yaw, flags)


def circular_mean_deg(angles: Sequence[float]) -> float:
    """Mean of angles in degrees on the circle, wrapped to (-180, 180]."""
    if len(angles) == 0:
        raise CalibrationError("no angles to average")
    s = sum(math.sin(math.radians(a)) for a in angles)
    c = sum(math.cos(math.radians(a)) for a in angles)
    return wrap_deg(math.degrees(math.atan2(s, c)))


def calibrate_neutral(
    frames_by_sensor: Mapping[int, Sequence[OrientationFrame]],
    calib_ticks: int = DEFAULT_CALIB_TICKS,
) -> NeutralOffset:
    """Estimate per-sensor neutral offsets from frames held at rest.

    Uses the per-angle circular mean over the first ``calib_ticks``
    frames of each sensor.

    Raises:
        CalibrationError: if any sensor has fewer than ``calib_ticks``
            frames.
    """
    if calib_ticks < 1:
        raise CalibrationError(f"calib_ticks must be >= 1, got {calib_ticks}")
    offsets: dict[int, tuple[float, float, float]] = {}
    for sensor_id, frames in frames_by_sensor.items():
        if len(frames) < calib_ticks:
            raise CalibrationError(
                f"sensor {sensor_id}: {len(frames)} frames < {calib_ticks} required"
            )
        head = frames[:calib_ticks]
        offsets[sensor_id] = (
            circular_mean_deg([f.pitch for f in head]),
            circular_mean_deg([f.roll for f in head]),
            circular_mean_deg([f.yaw for f in head]),
        )
    return NeutralOffset(offsets)


@dataclass(frozen=True)
class FusionConfig:
    """Knobs for the fusion stage. Config keys: ``fusion.alpha``,
    ``fusion.calib_ticks``, ``fusion.pitch_gimbal_guard_deg``."""

    alpha: float = DEFAULT_ALPHA
    calib_ticks: int = DEFAULT_CALIB_TICKS
    gimbal_guard_deg: float = DEFAULT_GIMBAL_GUARD_DEG

    def __post_init__(self) -> None:
        def real_in(value, lo: float, hi: float) -> bool:
            return (isinstance(value, numbers.Real) and not isinstance(value, bool)
                    and math.isfinite(value) and lo <= value <= hi)

        if not real_in(self.alpha, 0.0, 1.0):
            raise ValidationError(f"alpha must be a number in [0, 1], got {self.alpha!r}")
        if (not isinstance(self.calib_ticks, numbers.Integral)
                or isinstance(self.calib_ticks, bool) or self.calib_ticks < 0):
            raise ValidationError(
                f"calib_ticks must be an integer >= 0, got {self.calib_ticks!r}"
            )
        if not real_in(self.gimbal_guard_deg, 0.0, 90.0):
            raise ValidationError(
                f"gimbal_guard_deg must be a number in [0, 90], got {self.gimbal_guard_deg!r}"
            )


@dataclass
class FusedSequence:
    """Batch fusion output for one sequence.

    ``angles`` holds calibrated (offset-subtracted) pitch/roll/yaw per
    tick and sensor, shape (T, S, 3); ``gyro`` the matching raw rates.
    ``flags[si][t]`` is the degradation flag tuple of sensor ``si`` at
    tick ``t``, the same tuple ``OrientationFrame.flags`` carries online.
    Windowing starts at ``calib_ticks`` so streaming and offline paths
    see identical data.
    """

    sensor_ids: tuple[int, ...]
    angles: np.ndarray
    gyro: np.ndarray
    offset: NeutralOffset
    calib_ticks: int
    flags: tuple[tuple[Flags, ...], ...]


def _run_filter(
    rows: np.ndarray, alpha: float, dt: float, gimbal_guard_deg: float
) -> tuple[np.ndarray, list[Flags]]:
    """Raw (T, 3) angles and per-tick flags of one sensor's (T, 9) rows.

    Columns are read through memoryviews and states gathered in
    ``array("d")``, so a value is a Python float only during its own tick:
    8 bytes per value at peak, where lists of floats would hold 32.
    """
    ax, ay, az, gx, gy, gz, mx, my, mz = map(memoryview, np.asarray(rows, np.float64).T)
    ticks = zip(gx, gy, gz, map(_accel_meas, ax, ay, az), map(_mag_unit, mx, my, mz))
    pitches, rolls, yaws = array("d"), array("d"), array("d")
    flags: list[Flags] = []
    first = next(ticks, None)
    if first is None:
        return np.empty((0, 3)), flags
    pitch, roll, yaw, f = _filter_start(first[3], first[4])
    pitches.append(pitch)
    rolls.append(roll)
    yaws.append(yaw)
    flags.append(f)
    for x, y, z, acc, mag in ticks:
        pitch, roll, yaw, f = _filter_update(
            pitch, roll, yaw, x, y, z, acc, mag, alpha, dt, gimbal_guard_deg
        )
        pitches.append(pitch)
        rolls.append(roll)
        yaws.append(yaw)
        flags.append(f)
    return np.array((pitches, rolls, yaws)).T, flags


def fuse_sequence(
    samples_by_sensor: Mapping[int, np.ndarray],
    sensor_ids: Sequence[int],
    sample_rate_hz: float,
    config: FusionConfig = FusionConfig(),
) -> FusedSequence:
    """Fuse and calibrate one sequence of raw per-sensor sample arrays.

    Runs the same filter kernel as ``ComplementaryFilter.step``, tick by
    tick over Python floats, so the result equals stepping a filter per
    sensor bit for bit.

    Args:
        samples_by_sensor: sensor id -> (T, 9) array with columns
            acc_xyz, gyro_xyz, mag_xyz.
        sensor_ids: ordered sensor ids (first one is the primary sensor).
        sample_rate_hz: sampling rate; dt = 1 / rate.
        config: fusion parameters.

    Returns:
        FusedSequence with calibrated angles for every tick. The neutral
        offset is the circular mean of the first ``config.calib_ticks``
        fused frames per sensor (the rest pose); with ``calib_ticks`` 0
        no offset is subtracted.
    """
    dt = 1.0 / sample_rate_hz
    sensor_ids = tuple(sensor_ids)
    n_ticks = len(next(iter(samples_by_sensor.values())))
    raw_angles = np.empty((n_ticks, len(sensor_ids), 3), dtype=np.float64)
    gyro = np.empty_like(raw_angles)
    flags = []
    heads: dict[int, list[OrientationFrame]] = {}
    for si, sensor_id in enumerate(sensor_ids):
        rows = samples_by_sensor[sensor_id]
        block, sensor_flags = _run_filter(rows, config.alpha, dt, config.gimbal_guard_deg)
        raw_angles[:, si] = block
        gyro[:, si] = rows[:, 3:6]
        flags.append(tuple(sensor_flags))
        heads[sensor_id] = [
            OrientationFrame(sensor_id, t, pitch, roll, yaw, sensor_flags[t])
            for t, (pitch, roll, yaw) in enumerate(block[:config.calib_ticks].tolist())
        ]

    if config.calib_ticks > 0:
        offset = calibrate_neutral(heads, config.calib_ticks)
    else:
        offset = NeutralOffset.zero(sensor_ids)

    angles = wrap_deg(raw_angles - offset.array(sensor_ids))
    return FusedSequence(sensor_ids, angles, gyro, offset, config.calib_ticks, tuple(flags))
