"""Sliding windows, feature vectors, and proportional amplitude.

Windows are 8 samples long with a 7-sample overlap by default, so one
window is emitted per tick once the first is full. Three feature vectors
are supported:

* ``fv1``: per-sample orientation angles: pitch/roll/yaw from the
  primary sensor plus pitch/roll from every other sensor.
* ``fv2``: fv1 plus the raw gyro components of every sensor.
* ``fv3``: the window split into two half-windows; minimum, maximum,
  mean, and absolute sum of every fv2 channel in each half.

Per-sample vectors are flattened sample-major (all channels of tick 0,
then tick 1, ...). fv3 is channel-major, half-window-minor, with the
four statistics innermost.

Offline windows live in one array-backed set, ``Windows``: the per-tick
fused streams plus each window's first row and label. Features start from
per-tick channels (T, C). fv1 and fv2 are those channels gathered per
window. fv3 comes from half rows: ``half_stats`` turns (..., 4, C) half
blocks into (..., C, 4) rows of the four statistics, and is the only fv3
arithmetic. ``extract_matrix`` takes one half row per start tick, so each
half block is computed once, and builds window i from half rows
``rows[i]`` and ``rows[i] + 4``; ``extract`` runs it on the two halves of
one window. Amplitude is one per-tick function, ``tick_gamma``, averaged
over each window.

The streaming pipeline does not call ``extract``. For every kind it keeps a
ring of the same per-tick channels, so an fv1 or fv2 window vector is a
view of it; fv3 adds a ring of half rows. It also keeps a ring of per-tick
amplitudes, equal to ``tick_gamma`` bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Iterator, Mapping, Sequence as SequenceT

import numpy as np

from .errors import (
    CoverageError,
    DegenerateRangeError,
    LayoutError,
    ShapeError,
    ValidationError,
)
from .fusion import _real_in

DEFAULT_WINDOW = 8
DEFAULT_OVERLAP = 7
# Ticks in each fv3 half-window.
HALF = DEFAULT_WINDOW // 2

FEATURE_KINDS = ("fv1", "fv2", "fv3")


@dataclass(frozen=True)
class FeatureLayout:
    """Channel ordering for feature extraction.

    The first sensor id is the primary sensor (contributes yaw in fv1).
    """

    sensor_ids: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.sensor_ids:
            raise LayoutError("feature layout needs at least one sensor")
        if len(set(self.sensor_ids)) != len(self.sensor_ids):
            raise LayoutError(f"duplicate sensor ids: {self.sensor_ids}")

    @property
    def n_sensors(self) -> int:
        return len(self.sensor_ids)

    def angle_channels(self) -> list[tuple[int, int]]:
        """(sensor index, angle index) pairs: primary p/r/y, others p/r."""
        channels = [(0, 0), (0, 1), (0, 2)]
        for si in range(1, self.n_sensors):
            channels.extend([(si, 0), (si, 1)])
        return channels


def feature_dim(kind: str, n_sensors: int, window: int = DEFAULT_WINDOW) -> int:
    """Closed-form feature dimension for a given kind and sensor count."""
    angle_ch = 3 + 2 * (n_sensors - 1)
    if kind == "fv1":
        return window * angle_ch
    if kind == "fv2":
        return window * (angle_ch + 3 * n_sensors)
    if kind == "fv3":
        return 2 * 4 * (angle_ch + 3 * n_sensors)
    raise ValidationError(f"unknown feature kind {kind!r}")


@dataclass(frozen=True)
class Window:
    """One window of a set, as a view: angles and gyro have shape
    (length, S, 3); label is None when the window spans a label change."""

    start_tick: int
    angles: np.ndarray
    gyro: np.ndarray
    label: int | None

    @property
    def length(self) -> int:
        return self.angles.shape[0]

    @property
    def end_tick(self) -> int:
        return self.start_tick + self.length - 1


@dataclass(frozen=True)
class Windows:
    """A set of fixed-length windows over per-tick fused streams.

    angles and gyro are (T, S, 3) per-tick arrays (angle axes pitch,
    roll, yaw and gyro axes x, y, z, both in layout sensor order); pooled
    streams are concatenated along T. Window i covers rows
    ``rows[i] : rows[i] + length``; its label is the label of its last
    tick when all of its ticks carry it, -1 when it spans a label change.
    Indexing with an int gives that window as a ``Window`` view; a slice
    or mask gives the subset over the same per-tick arrays.
    """

    angles: np.ndarray
    gyro: np.ndarray
    rows: np.ndarray
    labels: np.ndarray
    start_ticks: np.ndarray
    length: int

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i):
        if isinstance(i, (int, np.integer)):
            r, label = self.rows[i], int(self.labels[i])
            return Window(
                start_tick=int(self.start_ticks[i]),
                angles=self.angles[r:r + self.length],
                gyro=self.gyro[r:r + self.length],
                label=None if label < 0 else label,
            )
        return replace(
            self, rows=self.rows[i], labels=self.labels[i], start_ticks=self.start_ticks[i]
        )

    def __iter__(self) -> Iterator[Window]:
        return (self[i] for i in range(len(self)))

    def gather(self, per_tick: np.ndarray) -> np.ndarray:
        """(N, length, ...) windows of a (T, ...) per-tick array."""
        return per_tick[self.rows[:, None] + np.arange(self.length)]


def check_geometry(window, overlap) -> None:
    """Raise ShapeError unless windows of ``window`` ticks can overlap by
    ``overlap``: Python ints with 0 <= overlap < window, so the stride
    window - overlap is at least 1."""
    if type(window) is not int or type(overlap) is not int or not 0 <= overlap < window:
        raise ShapeError(f"bad window geometry window={window!r} overlap={overlap!r}")


def make_windows(
    angles: np.ndarray,
    gyro: np.ndarray,
    labels: np.ndarray | None,
    start_tick: int = 0,
    size: int = DEFAULT_WINDOW,
    overlap: int = DEFAULT_OVERLAP,
) -> Windows:
    """Slice a fused stream into overlapping windows.

    Gives T - size + 1 windows for stride 1 (none when T < size; not an
    error). The set shares the input arrays.

    Args:
        angles: (T, S, 3) calibrated angles.
        gyro: (T, S, 3) raw angular rates.
        labels: (T,) per-tick labels, or None for unlabeled streams.
        start_tick: tick index of the first row.
        size, overlap: window geometry; stride is size - overlap.

    Raises:
        ShapeError: the geometry fails ``check_geometry``.
    """
    check_geometry(size, overlap)
    rows = np.arange(0, len(angles) - size + 1, size - overlap)
    per_tick = np.full(len(angles), -1) if labels is None else labels
    chunks = per_tick[rows[:, None] + np.arange(size)]
    last = chunks[:, -1]
    same = (chunks == last[:, None]).all(axis=1)
    return Windows(angles, gyro, rows, np.where(same, last, -1), start_tick + rows, size)


def pool_windows(sets: SequenceT[Windows]) -> Windows:
    """One set over several streams' windows; no window straddles two."""
    offsets = np.cumsum([0] + [len(s.angles) for s in sets[:-1]])
    return Windows(
        angles=np.concatenate([s.angles for s in sets]),
        gyro=np.concatenate([s.gyro for s in sets]),
        rows=np.concatenate([s.rows + offset for s, offset in zip(sets, offsets)]),
        labels=np.concatenate([s.labels for s in sets]),
        start_ticks=np.concatenate([s.start_ticks for s in sets]),
        length=sets[0].length,
    )


@lru_cache(maxsize=32)
def angle_index(layout: FeatureLayout) -> np.ndarray:
    """Positions of the layout's angle channels in a per-tick row of 3S
    angles (sensor-major, then pitch/roll/yaw)."""
    index = np.array([3 * si + ai for si, ai in layout.angle_channels()])
    index.flags.writeable = False
    return index


def _channels(
    kind: str, angles: np.ndarray, gyro: np.ndarray, layout: FeatureLayout
) -> np.ndarray:
    """(..., C) per-tick channels of (..., S, 3) angles and gyro: the
    layout's angle channels, gathered in one indexing, then every sensor's
    gyro x/y/z unless the kind is fv1."""
    if kind not in FEATURE_KINDS:
        raise ValidationError(f"unknown feature kind {kind!r}")
    if angles.shape[-2] != layout.n_sensors:
        raise LayoutError(
            f"windows have {angles.shape[-2]} sensors, layout expects {layout.n_sensors}"
        )
    row = angles.shape[:-2] + (3 * layout.n_sensors,)
    picked = angles.reshape(row)[..., angle_index(layout)]
    if kind == "fv1":
        return picked
    return np.concatenate((picked, gyro.reshape(row)), axis=-1)


def check_window(kind: str, length: int) -> None:
    """Raise ShapeError when ``kind`` cannot use windows of ``length``
    ticks (fv3 needs two half-windows of HALF ticks)."""
    if kind == "fv3" and length != 2 * HALF:
        raise ShapeError(f"fv3 requires windows of length {2 * HALF}, got {length}")


def half_stats(blocks: np.ndarray) -> np.ndarray:
    """(..., C, 4) fv3 half rows of (..., HALF, C) half blocks: the minimum,
    maximum, mean and sum of absolute values of each channel.

    Every statistic folds the block's rows left to right (on a tie of
    signed zeros the later row wins), so one window, a window set and the
    streaming half ring all give the same bits."""
    r0, r1, *rest = (blocks[..., i, :] for i in range(HALF))
    out = np.empty(blocks.shape[:-2] + (blocks.shape[-1], 4))
    lo, hi, mean, abs_sum = (out[..., j] for j in range(4))
    np.minimum(r0, r1, out=lo)
    np.maximum(r0, r1, out=hi)
    np.add(r0, r1, out=mean)
    np.abs(r0, out=abs_sum)
    abs_sum += np.abs(r1)
    for x in rest:
        np.minimum(lo, x, out=lo)
        np.maximum(hi, x, out=hi)
        mean += x
        abs_sum += np.abs(x)
    mean /= HALF
    return out


def extract(
    kind: str, angles: np.ndarray, gyro: np.ndarray, layout: FeatureLayout
) -> np.ndarray:
    """Feature vector of one window of (L, S, 3) angles and gyro; ``kind``
    is one of FEATURE_KINDS."""
    check_window(kind, len(angles))
    m = _channels(kind, angles, gyro, layout)
    if kind != "fv3":
        return m.reshape(-1)
    return half_stats(m.reshape(2, HALF, -1)).swapaxes(0, 1).reshape(-1)


def extract_matrix(kind: str, windows: Windows, layout: FeatureLayout) -> np.ndarray:
    """(N, d) feature matrix of a window set.

    fv3 takes one half row per start tick of the per-tick channels, so each
    half block is computed once; window i is half rows ``rows[i]`` and
    ``rows[i] + HALF``, written straight into the output."""
    check_window(kind, windows.length)
    m = _channels(kind, windows.angles, windows.gyro, layout)
    n, c = len(windows), m.shape[-1]
    if kind != "fv3":
        return windows.gather(m).reshape(n, windows.length * c)
    out = np.empty((n, c, 2, 4))
    if n:  # an empty set may span fewer than HALF ticks
        blocks = np.lib.stride_tricks.sliding_window_view(m, HALF, axis=0)
        halves = half_stats(blocks.swapaxes(-1, -2))
        # Every index is in range; mode="clip" lets take write into out
        # without a buffer.
        for i, first in enumerate((windows.rows, windows.rows + HALF)):
            np.take(halves, first, axis=0, out=out[:, :, i], mode="clip")
    return out.reshape(n, 2 * 4 * c)


# ---------------------------------------------------------------------------
# Amplitude indicator and proportional output


def tick_gamma(angles: np.ndarray) -> np.ndarray:
    """Per-tick amplitude: the Euclidean norm of calibrated pitch/roll/yaw
    along the last axis. Callers average it over a window; the mean
    (rather than the max) damps short spikes from involuntary motion."""
    return np.sqrt((angles ** 2).sum(axis=-1))


@dataclass
class AmplitudeRange:
    """Per-class motion amplitude ranges captured during training.

    ranges maps class -> (gamma_min, gamma_max) in degrees;
    class_sensor maps class -> sensor id whose angles are measured.
    """

    ranges: dict[int, tuple[float, float]]
    class_sensor: dict[int, int]
    mode: str = "minmax"

    def __post_init__(self) -> None:
        for cls, (lo, hi) in self.ranges.items():
            if not (_real_in(lo, 0.0, math.inf) and _real_in(hi, 0.0, math.inf)):
                raise ValidationError(
                    f"class {cls}: amplitude bounds must be finite and >= 0, got ({lo}, {hi})"
                )
            if hi <= lo:
                raise DegenerateRangeError(
                    f"class {cls}: gamma_max {hi} <= gamma_min {lo}"
                )


def learn_ranges(
    windows: Windows,
    layout: FeatureLayout,
    classes: SequenceT[int],
    class_sensor: Mapping[int, int] | None = None,
    mode: str = "minmax",
) -> AmplitudeRange:
    """Learn per-class amplitude ranges from labeled training windows.

    Args:
        windows: training windows (mixed-label windows are ignored).
        layout: sensor layout of the windows.
        classes: non-neutral classes that must be covered.
        class_sensor: class -> sensor id carrying that motion; defaults
            to the primary sensor for every class.
        mode: "minmax" takes the exact extremes of per-window mean
            amplitude; "percentile" takes their 5th and 95th percentiles.

    Raises:
        CoverageError: a class has no windows.
        DegenerateRangeError: a class's range has zero width.
    """
    if mode not in ("minmax", "percentile"):
        raise ValidationError(f"unknown amplitude mode {mode!r}")
    sensor_index = {sid: i for i, sid in enumerate(layout.sensor_ids)}
    mapping = {
        int(c): (class_sensor or {}).get(int(c), layout.sensor_ids[0])
        for c in classes
        if int(c) != 0
    }
    of_class = {cls: windows[windows.labels == cls] for cls in mapping}
    for cls, sid in mapping.items():
        if len(of_class[cls]) and sid not in sensor_index:
            raise LayoutError(
                f"class {cls} mapped to sensor {sid} "
                f"not present in layout {layout.sensor_ids}"
            )
    uncovered = sorted(cls for cls, ws in of_class.items() if not len(ws))
    if uncovered:
        raise CoverageError(f"classes {uncovered} have no training windows")
    gamma = tick_gamma(windows.angles)
    ranges: dict[int, tuple[float, float]] = {}
    for cls, ws in of_class.items():
        values = ws.gather(gamma[:, sensor_index[mapping[cls]]]).mean(axis=1)
        if mode == "minmax":
            lo, hi = float(values.min()), float(values.max())
        else:
            lo = float(np.percentile(values, 5.0))
            hi = float(np.percentile(values, 95.0))
        if hi <= lo:
            raise DegenerateRangeError(
                f"class {cls}: amplitude range degenerate at {lo}"
            )
        ranges[cls] = (lo, hi)
    return AmplitudeRange(ranges=ranges, class_sensor=mapping, mode=mode)


def prop_output(gamma: float, cls: int, ranges: AmplitudeRange) -> float:
    """Normalized proportional output in [0, 1] for one class.

    |gamma - gamma_min| / (gamma_max - gamma_min), clipped to [0, 1];
    motion beyond the trained maximum saturates at 1.
    """
    if cls == 0:
        return 0.0
    try:
        lo, hi = ranges.ranges[cls]
    except KeyError:
        raise CoverageError(f"class {cls} has no learned amplitude range") from None
    if hi <= lo:
        raise DegenerateRangeError(f"class {cls}: degenerate range ({lo}, {hi})")
    nu = abs(gamma - lo) / (hi - lo)
    return min(1.0, max(0.0, nu))
