"""Sliding windows, feature vectors, and proportional amplitude.

Windows are 8 samples long with a 7-sample overlap by default, so one
window is emitted per tick once the first is full. Three feature vectors
are supported:

* ``fv1``: per-sample orientation angles: pitch/roll/yaw from the
  primary sensor plus pitch/roll from every other sensor.
* ``fv2``: fv1 plus the raw gyro components of every sensor.
* ``fv3``: the window split into two half-windows; minimum, maximum,
  mean, and absolute sum of every fv2 channel in each half.

``channel_index`` states that channel order and count once, for the
offline channels, ``feature_dim`` and the streaming pipeline.

Per-sample vectors are flattened sample-major (all channels of tick 0,
then tick 1, ...). fv3 is channel-major, half-window-minor, with the
four statistics innermost.

Offline windows live in one array-backed set, ``Windows``: the per-tick
fused streams plus each window's first row and label, which
``window_labels`` gives (``replay`` reads it too). Features start from
per-tick channels (T, C). fv1 and fv2 are those channels gathered per
window. fv3 is the compiled kernel's ``fv3`` entry (``_fuse.c``), the only
fv3 arithmetic: ``extract_matrix`` calls it once with every window's first
row, and it writes each window's (C, 2, 4) statistics. Its bits are those
of numpy's ``minimum``, ``maximum`` and ``add`` reduces over each half
block. ``extract`` is the row ``extract_matrix`` gives for a set holding
one window. Amplitude is one per-tick function, ``tick_gamma``, averaged
over each window.

The streaming pipeline does not call ``extract``. For every kind it keeps a
ring of the same per-tick channels, so an fv1 or fv2 window vector is a
view of it. For fv3, when a window is emitted, one ``fv3`` call on the
ring with the window's first row writes the vector. It also keeps a ring
of per-tick amplitudes, equal to ``tick_gamma`` bit for bit.
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
from .fusion import _kernel, _real_in

DEFAULT_WINDOW = 8
DEFAULT_OVERLAP = 7
# Ticks in each fv3 half-window.
HALF = DEFAULT_WINDOW // 2

FEATURE_KINDS = ("fv1", "fv2", "fv3")


@dataclass(frozen=True)
class FeatureLayout:
    """The worn sensors in feature order.

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


@lru_cache(maxsize=32)
def channel_index(kind: str, n_sensors: int) -> np.ndarray:
    """Positions of ``kind``'s channels in a tick's row of 3S angles, then
    3S gyro values (both sensor-major): the primary sensor's pitch, roll
    and yaw, every other sensor's pitch and roll, then every sensor's gyro
    unless the kind is fv1."""
    if kind not in FEATURE_KINDS:
        raise ValidationError(f"unknown feature kind {kind!r}")
    index = [0, 1, 2] + [3 * si + ai for si in range(1, n_sensors) for ai in (0, 1)]
    if kind != "fv1":
        index += range(3 * n_sensors, 6 * n_sensors)
    index = np.array(index)
    index.flags.writeable = False
    return index


def feature_dim(kind: str, n_sensors: int, window: int = DEFAULT_WINDOW) -> int:
    """Feature dimension for a given kind and sensor count."""
    return len(channel_index(kind, n_sensors)) * (2 * 4 if kind == "fv3" else window)


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


def window_labels(labels: np.ndarray, size: int) -> np.ndarray:
    """Label of the window of ``size`` ticks at each start tick of a (T,)
    label stream: its last tick's when every tick carries it (no label
    change between its first and last tick), else -1."""
    changes = np.cumsum(np.diff(labels, prepend=labels[:1]) != 0)
    last = labels[size - 1:]
    return np.where(changes[size - 1:] == changes[:len(last)], last, -1)


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
        ShapeError: the geometry fails ``check_geometry``, angles and gyro
            do not share one (T, S, 3) shape, or the labels are not (T,).
    """
    check_geometry(size, overlap)
    shape = np.shape(angles)
    if len(shape) != 3 or shape[2] != 3 or np.shape(gyro) != shape:
        raise ShapeError(f"angles and gyro must share one (T, S, 3) shape, "
                         f"got {shape} and {np.shape(gyro)}")
    if labels is not None and np.shape(labels) != shape[:1]:
        raise ShapeError(f"labels must have shape {shape[:1]}, got {np.shape(labels)}")
    rows = np.arange(0, len(angles) - size + 1, size - overlap)
    labels = window_labels(np.full(len(angles), -1) if labels is None else labels, size)
    return Windows(angles, gyro, rows, labels[rows], start_tick + rows, size)


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


def check_window(kind: str, length: int) -> None:
    """Raise ShapeError when ``kind`` cannot use windows of ``length``
    ticks (fv3 needs two half-windows of HALF ticks)."""
    if kind == "fv3" and length != 2 * HALF:
        raise ShapeError(f"fv3 requires windows of length {2 * HALF}, got {length}")


def extract(
    kind: str, angles: np.ndarray, gyro: np.ndarray, layout: FeatureLayout
) -> np.ndarray:
    """Feature vector of one window of (L, S, 3) angles and gyro, ``kind``
    one of FEATURE_KINDS: the row ``extract_matrix`` gives for a set that
    holds only this window."""
    first = np.zeros(1, dtype=np.intp)
    one = Windows(angles, gyro, rows=first, labels=first - 1, start_ticks=first,
                  length=len(angles))
    return extract_matrix(kind, one, layout)[0]


def extract_matrix(kind: str, windows: Windows, layout: FeatureLayout) -> np.ndarray:
    """(N, d) feature matrix of a window set.

    fv3 is one call of the compiled kernel over the per-tick channels,
    with every window's first row."""
    check_window(kind, windows.length)
    index = channel_index(kind, layout.n_sensors)
    angles, gyro = windows.angles, windows.gyro
    if angles.shape[-2] != layout.n_sensors:
        raise LayoutError(
            f"windows have {angles.shape[-2]} sensors, layout expects {layout.n_sensors}"
        )
    # (T, C) per-tick channels, taken straight into one array from the
    # angles and then the gyro (the index lists angle channels first): a
    # (T, 6S) copy of both would raise the offline peak memory.
    n, c = len(windows), len(index)
    flat = (len(angles), 3 * layout.n_sensors)
    k = np.count_nonzero(index < flat[1])
    m = np.empty((flat[0], c), dtype=np.result_type(angles, gyro))
    np.take(angles.reshape(flat), index[:k], axis=1, out=m[:, :k], mode="clip")
    np.take(gyro.reshape(flat), index[k:] - flat[1], axis=1, out=m[:, k:], mode="clip")
    if kind != "fv3":
        return windows.gather(m).reshape(n, windows.length * c)
    out = np.empty((n, c, 2, 4))
    _kernel.fv3(np.ascontiguousarray(m, dtype=np.float64),
                np.ascontiguousarray(windows.rows, dtype=np.intp), out)
    return out.reshape(n, 2 * 4 * c)


# ---------------------------------------------------------------------------
# Amplitude indicator and proportional output


def tick_gamma(angles: np.ndarray) -> np.ndarray:
    """Per-tick amplitude: the Euclidean norm of calibrated pitch/roll/yaw
    along the last axis. Callers average it over a window; the mean
    (rather than the max) damps short spikes from involuntary motion."""
    return np.sqrt((angles ** 2).sum(axis=-1))


AMPLITUDE_MODES = ("minmax", "percentile")


def _check_amplitude_mode(mode: str) -> None:
    if mode not in AMPLITUDE_MODES:
        raise ValidationError(f"unknown amplitude mode {mode!r}")


@dataclass
class AmplitudeRange:
    """Per-class motion amplitude ranges captured during training.

    ranges maps class -> (gamma_min, gamma_max) in degrees;
    class_sensor maps class -> sensor id whose angles are measured;
    mode is the ``learn_ranges`` mode that took them.
    """

    ranges: dict[int, tuple[float, float]]
    class_sensor: dict[int, int]
    mode: str = "minmax"

    def __post_init__(self) -> None:
        _check_amplitude_mode(self.mode)
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
    _check_amplitude_mode(mode)
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
