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
from dataclasses import dataclass
from typing import Sequence, Sized

import numpy as np

from ._build import load as load_kernel
from .errors import (
    CalibrationError,
    ShapeError,
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


def _real_in(value, lo: float, hi: float) -> bool:
    """Whether ``value`` is a finite real number, not a bool, in [lo, hi]."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value) and lo <= value <= hi
    except OverflowError:   # an int too large for a float
        return False


def _check_filter_params(alpha, gimbal_guard_deg) -> None:
    """Raise ValidationError unless alpha is in [0, 1] and the gimbal guard
    in [0, 90] degrees; ``ComplementaryFilter`` and ``FusionConfig`` share it."""
    if not _real_in(alpha, 0.0, 1.0):
        raise ValidationError(f"alpha must be a number in [0, 1], got {alpha!r}")
    if not _real_in(gimbal_guard_deg, 0.0, 90.0):
        raise ValidationError(
            f"gimbal_guard_deg must be a number in [0, 90], got {gimbal_guard_deg!r}"
        )


def _sample_period(sample_rate_hz) -> float:
    """Seconds per sample of a rate in Hz.

    Raises:
        ValidationError: the rate is not a finite positive number.
    """
    if not (_real_in(sample_rate_hz, 0.0, math.inf) and sample_rate_hz > 0):
        raise ValidationError(
            f"sample_rate_hz must be a finite positive number, got {sample_rate_hz!r}"
        )
    return 1.0 / sample_rate_hz


# The filter kernel is C (_fuse.c, which also holds bomi.features' fv3
# entry and bomi.lda's score entry), compiled when this module is
# imported (see _build). The filter has two entries over one bootstrap
# and one advance, so offline and online angles and flags are equal bit
# for bit: run filters a whole recording, one call per sensor, for
# fuse_sequence; tick advances every sensor of a stream one tick, for
# StreamingPipeline.step and for the one sensor of a ComplementaryFilter.
# accel_angles and mag_yaw take their numbers from its measure entry. It
# forms every value as CPython does for the Python expressions
# tests/oracles.py spells out: float %, math.atan2 and math.hypot (which
# it calls), and degrees and radians as products. The kernel sums up a
# tick's degradations in bits, and FLAG_SETS, indexed by them, holds the
# flag tuple each stands for.
Flags = tuple[str, ...]

_kernel = load_kernel()

FLAG_SETS: tuple[Flags, ...] = tuple(
    tuple(name for bit, name in ((1, FLAG_ACCEL_FALLBACK), (4, FLAG_GIMBAL_GUARD),
                                 (2, FLAG_MAG_FALLBACK)) if bits & bit)
    for bits in range(8)
)

# The pick, channels and gamma rings and the means a ComplementaryFilter
# passes the tick entry for its one sensor: with no offset the entry writes
# none of them.
_NO_RINGS = (np.zeros(0, dtype=np.intp), np.zeros((2, 0)), np.zeros((1, 2)), np.zeros(1))


def accel_angles(acc: Sequence[float]) -> tuple[float, float]:
    """Pitch and roll, in degrees, from an accelerometer gravity reading.

    pitch = atan2(-acc_x, sqrt(acc_y² + acc_z²)), roll = atan2(acc_y, acc_z).

    Raises:
        UndefinedAttitudeError: if the vector is (numerically) zero.
    """
    angles = _kernel.measure(float(acc[0]), float(acc[1]), float(acc[2]))
    if angles is None:
        raise UndefinedAttitudeError("zero accelerometer vector")
    return angles


def mag_yaw(mag: Sequence[float], pitch: float, roll: float) -> float:
    """Tilt-compensated heading, in degrees, from a magnetometer reading.

    The body-frame field is de-rotated into the level frame using the
    current pitch and roll, then yaw = atan2(-m_y_level, m_x_level).

    Raises:
        UndefinedHeadingError: if the vector is (numerically) zero.
    """
    yaw = _kernel.measure(float(mag[0]), float(mag[1]), float(mag[2]), pitch, roll)
    if yaw is None:
        raise UndefinedHeadingError("zero magnetometer vector")
    return yaw


@dataclass(frozen=True)
class OrientationFrame:
    """Fused orientation of one sensor at one tick, in degrees."""

    sensor_id: int
    tick: int
    pitch: float
    roll: float
    yaw: float
    flags: tuple[str, ...] = ()


@dataclass
class ComplementaryFilter:
    """First-order complementary filter for one sensor stream.

    State is the current fused (pitch, roll, yaw); it bootstraps from the
    first sample's accelerometer/magnetometer angles unless an initial
    state is given. One instance owns one sensor stream; instances share
    nothing. Each step is one call of the kernel's tick entry for one
    sensor, so it checks rows as ``StreamingPipeline.step`` does.

    Attributes:
        alpha: gyro blend weight in [0, 1]. 0 passes the instantaneous
            measurement through; 1 integrates the gyro only.
        dt: sample period in seconds.
        gimbal_guard_deg: |pitch| beyond which yaw holds its
            gyro-integrated value (tilt compensation ill-conditioned).
        initial: None, or three finite numbers: the (pitch, roll, yaw)
            the first sample advances from.
    """

    alpha: float = DEFAULT_ALPHA
    dt: float = 1.0 / 60.0
    gimbal_guard_deg: float = DEFAULT_GIMBAL_GUARD_DEG
    sensor_id: int = 0
    initial: tuple[float, float, float] | None = None

    def __post_init__(self) -> None:
        _check_filter_params(self.alpha, self.gimbal_guard_deg)
        if not (_real_in(self.dt, 0.0, math.inf) and self.dt > 0):
            raise ValidationError(f"dt must be a finite positive number, got {self.dt!r}")
        # The tick entry's arrays for one sensor: the last row, NaN until
        # the first row bootstraps (zeros when ``initial`` is given, so the
        # first row advances from it); the raw (pitch, roll, yaw); the bits.
        self._last = np.full((1, 9), np.nan)
        self._state = np.zeros((1, 3))
        self._bits = np.zeros(1, dtype=np.uint8)
        initial = self.initial
        if initial is not None:
            if not (isinstance(initial, Sized) and len(initial) == 3
                    and all(_real_in(v, -math.inf, math.inf) for v in initial)):
                raise ValidationError(
                    f"initial must be None or three finite numbers, got {initial!r}"
                )
            self._last[0] = 0.0
            self._state[0] = initial

    def __copy__(self) -> "ComplementaryFilter":
        """A filter at this one's state that steps on its own: a shallow
        copy holds copies of the state arrays, not the arrays themselves."""
        twin = object.__new__(type(self))
        twin.__dict__.update(self.__dict__)
        twin._last, twin._state, twin._bits = (
            self._last.copy(), self._state.copy(), self._bits.copy())
        return twin

    def step(self, tick: int, acc, gyro, mag) -> OrientationFrame:
        """Advance the filter by one sample and return the fused frame.

        A zero accelerometer falls back to pure gyro integration for
        pitch/roll this tick (flagged); a zero magnetometer does the same
        for yaw. Pitch is clamped to [-90, 90], roll/yaw wrapped.

        Raises:
            ValidationError: the 9 values are not all finite real
                numbers; the filter is left as it was before the call.
        """
        row = (acc[0], acc[1], acc[2], gyro[0], gyro[1], gyro[2], mag[0], mag[1], mag[2])
        bits = _kernel.tick([row], self._last, self._state, self._bits, self.alpha, self.dt,
                            self.gimbal_guard_deg, None, *_NO_RINGS, 0)
        if bits < 0:
            raise ValidationError(
                f"sensor {self.sensor_id} at tick {tick}: expected 9 finite numbers, got {row!r}"
            )
        pitch, roll, yaw = self._state[0].tolist()
        return OrientationFrame(self.sensor_id, tick, pitch, roll, yaw, FLAG_SETS[bits])


def circular_mean_deg(angles: Sequence[float]) -> float:
    """Mean of angles in degrees on the circle, wrapped to (-180, 180]."""
    if len(angles) == 0:
        raise CalibrationError("no angles to average")
    s = sum(math.sin(math.radians(a)) for a in angles)
    c = sum(math.cos(math.radians(a)) for a in angles)
    return wrap_deg(math.degrees(math.atan2(s, c)))


def calibrate_neutral(
    angles_by_sensor: Sequence[Sequence[Sequence[float]]],
    calib_ticks: int = DEFAULT_CALIB_TICKS,
) -> np.ndarray:
    """Estimate per-sensor neutral offsets from angles held at rest.

    ``angles_by_sensor`` holds each sensor's fused angles, one
    (pitch, roll, yaw) row per tick: an (n, 3) array or a list of rows.
    Uses the per-angle circular mean over the first ``calib_ticks`` rows
    of each sensor, summed over Python floats in tick order.

    Returns:
        (S, 3) float64 offsets, one row per sensor in the given order.

    Raises:
        CalibrationError: if any sensor has fewer than ``calib_ticks``
            rows.
    """
    if calib_ticks < 1:
        raise CalibrationError(f"calib_ticks must be >= 1, got {calib_ticks}")
    offsets = np.empty((len(angles_by_sensor), 3))
    for si, angles in enumerate(angles_by_sensor):
        if len(angles) < calib_ticks:
            raise CalibrationError(
                f"sensor index {si}: {len(angles)} rows < {calib_ticks} required"
            )
        columns = np.asarray(angles[:calib_ticks], dtype=np.float64).T.tolist()
        offsets[si] = [circular_mean_deg(column) for column in columns]
    return offsets


@dataclass(frozen=True)
class FusionConfig:
    """Knobs for the fusion stage. Config keys: ``fusion.alpha``,
    ``fusion.calib_ticks``, ``fusion.pitch_gimbal_guard_deg``."""

    alpha: float = DEFAULT_ALPHA
    calib_ticks: int = DEFAULT_CALIB_TICKS
    gimbal_guard_deg: float = DEFAULT_GIMBAL_GUARD_DEG

    def __post_init__(self) -> None:
        _check_filter_params(self.alpha, self.gimbal_guard_deg)
        if (not isinstance(self.calib_ticks, numbers.Integral)
                or isinstance(self.calib_ticks, bool) or self.calib_ticks < 0):
            raise ValidationError(
                f"calib_ticks must be an integer >= 0, got {self.calib_ticks!r}"
            )


@dataclass
class FusedSequence:
    """Batch fusion output for one sequence.

    ``angles`` holds calibrated (offset-subtracted) pitch/roll/yaw per
    tick and sensor, shape (T, S, 3); ``gyro`` the matching raw rates.
    ``offset`` is the (S, 3) neutral offset subtracted, in sensor order.
    ``flags[si][t]`` is the degradation flag tuple of sensor ``si`` at
    tick ``t``, the same tuple the filter kernel gives online.
    Windowing starts at ``calib_ticks`` so streaming and offline paths
    see identical data.
    """

    angles: np.ndarray
    gyro: np.ndarray
    offset: np.ndarray
    calib_ticks: int
    flags: tuple[tuple[Flags, ...], ...]


def fuse_sequence(
    samples: np.ndarray,
    sample_rate_hz: float,
    config: FusionConfig = FusionConfig(),
) -> FusedSequence:
    """Fuse and calibrate one sequence of raw samples.

    Runs the filter kernel's run entry over each sensor's whole column in
    one call. ``ComplementaryFilter.step`` advances the same bootstrap and
    advance one tick at a time through the tick entry, so the result
    equals stepping a filter per sensor bit for bit.

    Args:
        samples: (T, S, 9) array, sensors in layout order (the first is
            the primary sensor), each row acc_xyz, gyro_xyz, mag_xyz.
        sample_rate_hz: sampling rate; dt = 1 / rate.
        config: fusion parameters.

    Returns:
        FusedSequence with calibrated angles for every tick. The neutral
        offset is the circular mean of the first ``config.calib_ticks``
        fused frames per sensor (the rest pose); with ``calib_ticks`` 0
        no offset is subtracted.

    Raises:
        ShapeError: ``samples`` is not a (T, S, 9) array.
        ValidationError: it is not of reals, or holds a NaN or an infinity
            (its first row, by tick then sensor, is named), as the stream does.
    """
    dt = _sample_period(sample_rate_hz)
    samples = np.asarray(samples)
    if samples.ndim != 3 or samples.shape[2] != 9:
        raise ShapeError(f"samples must be a (T, S, 9) array, got shape {samples.shape}")
    if samples.dtype.kind not in "iuf":
        raise ValidationError(f"samples must be real numbers, got dtype {samples.dtype}")
    samples = np.ascontiguousarray(samples, dtype=np.float64)
    n_ticks, n_sensors = samples.shape[:2]
    raw_angles = np.empty((n_ticks, n_sensors, 3), dtype=np.float64)
    # Each sensor's flags, or the first tick its row is not finite.
    flags = [_kernel.run(samples, si, config.alpha, dt, config.gimbal_guard_deg, raw_angles,
                         FLAG_SETS) for si in range(n_sensors)]
    refused = [(t, si) for si, t in enumerate(flags) if type(t) is int]
    if refused:
        t, si = min(refused)
        raise ValidationError(f"sensor index {si} at tick {t}: expected 9 finite numbers, "
                              f"got {samples[t, si].tolist()!r}")

    if config.calib_ticks > 0:
        offset = calibrate_neutral(raw_angles.swapaxes(0, 1), config.calib_ticks)
    else:
        offset = np.zeros((n_sensors, 3))

    angles = wrap_deg(raw_angles - offset)
    gyro = samples[:, :, 3:6].copy()
    return FusedSequence(angles, gyro, offset, config.calib_ticks, tuple(flags))
