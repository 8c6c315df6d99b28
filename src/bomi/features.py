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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence as SequenceT

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    CoverageError,
    DegenerateRangeError,
    LayoutError,
    ShapeError,
    ValidationError,
)

DEFAULT_WINDOW = 8
DEFAULT_OVERLAP = 7

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
    """One fixed-length slice of the fused stream.

    angles and gyro have shape (length, S, 3); angle axes are pitch,
    roll, yaw and gyro axes x, y, z, both in layout sensor order. label
    is the label of the last tick when all ticks agree, None when the
    window spans a label change. origin names the source stream so
    train/test provenance stays auditable.
    """

    start_tick: int
    angles: np.ndarray
    gyro: np.ndarray
    label: int | None
    origin: str | None = None

    @property
    def length(self) -> int:
        return self.angles.shape[0]

    @property
    def end_tick(self) -> int:
        return self.start_tick + self.length - 1


def window_count(n_ticks: int, size: int = DEFAULT_WINDOW, overlap: int = DEFAULT_OVERLAP) -> int:
    stride = size - overlap
    if n_ticks < size:
        return 0
    return (n_ticks - size) // stride + 1


def make_windows(
    angles: np.ndarray,
    gyro: np.ndarray,
    labels: np.ndarray | None,
    start_tick: int = 0,
    size: int = DEFAULT_WINDOW,
    overlap: int = DEFAULT_OVERLAP,
    origin: str | None = None,
) -> Iterator[Window]:
    """Slice a fused stream into overlapping windows.

    Yields N - size + 1 windows for stride 1 (empty when N < size; not
    an error). Window arrays are views into the input.

    Args:
        angles: (N, S, 3) calibrated angles.
        gyro: (N, S, 3) raw angular rates.
        labels: (N,) per-tick labels, or None for unlabeled streams.
        start_tick: tick index of the first row (recorded in windows).
        size, overlap: window geometry; stride is size - overlap.
        origin: provenance tag copied onto every window.
    """
    if size < 1 or not 0 <= overlap < size:
        raise ValidationError(f"bad window geometry size={size} overlap={overlap}")
    n = angles.shape[0]
    stride = size - overlap
    starts = range(0, n - size + 1, stride)
    if labels is None or not starts:
        window_labels: list[int | None] = [None] * len(starts)
    else:
        # Every window's label at once: its last tick's label when all
        # of its ticks carry it.
        chunks = sliding_window_view(labels, size)[::stride]
        last = chunks[:, -1]
        same = (chunks == last[:, None]).all(axis=1)
        window_labels = [
            int(lab) if ok else None for lab, ok in zip(last.tolist(), same.tolist())
        ]
    for start, label in zip(starts, window_labels):
        end = start + size
        yield Window(
            start_tick=start_tick + start,
            angles=angles[start:end],
            gyro=gyro[start:end],
            label=label,
            origin=origin,
        )


def _check_windows(
    angles: np.ndarray, layout: FeatureLayout, kind: str
) -> None:
    if angles.shape[2] != layout.n_sensors:
        raise LayoutError(
            f"windows have {angles.shape[2]} sensors, layout expects {layout.n_sensors}"
        )
    if kind == "fv3" and angles.shape[1] != DEFAULT_WINDOW:
        raise ShapeError(f"fv3 requires windows of length 8, got {angles.shape[1]}")


def _channels(
    kind: str, angles: np.ndarray, gyro: np.ndarray, layout: FeatureLayout
) -> np.ndarray:
    """(N, L, C) per-sample channels: the layout's angle channels, then
    every sensor's gyro x/y/z unless the kind is fv1."""
    cols = [angles[:, :, si, ai] for si, ai in layout.angle_channels()]
    if kind != "fv1":
        for si in range(layout.n_sensors):
            cols.extend(gyro[:, :, si, ai] for ai in range(3))
    return np.stack(cols, axis=2)


def _batch(
    kind: str, angles: np.ndarray, gyro: np.ndarray, layout: FeatureLayout
) -> np.ndarray:
    """Feature matrix for stacked windows of shape (N, L, S, 3)."""
    if kind not in FEATURE_KINDS:
        raise ValidationError(f"unknown feature kind {kind!r}")
    _check_windows(angles, layout, kind)
    n = angles.shape[0]
    m = _channels(kind, angles, gyro, layout)
    if kind != "fv3":
        return m.reshape(n, -1)
    half = m.shape[1] // 2
    out = np.empty((n, 2 * 4 * m.shape[2]))
    for si, sub in enumerate((m[:, :half], m[:, half:])):
        # Fixed left-to-right arithmetic keeps single-window and batch
        # extraction bit-identical.
        total = sub[:, 0].copy()
        abs_total = np.abs(sub[:, 0])
        for t in range(1, half):
            total = total + sub[:, t]
            abs_total = abs_total + np.abs(sub[:, t])
        out[:, si * 4 + 0::8] = sub.min(axis=1)
        out[:, si * 4 + 1::8] = sub.max(axis=1)
        out[:, si * 4 + 2::8] = total / half
        out[:, si * 4 + 3::8] = abs_total
    return out


def extract(kind: str, w: Window, layout: FeatureLayout) -> np.ndarray:
    """Feature vector of one window; ``kind`` is one of FEATURE_KINDS."""
    return _batch(kind, w.angles[None], w.gyro[None], layout)[0]


def extract_matrix(
    kind: str, windows: SequenceT[Window], layout: FeatureLayout
) -> np.ndarray:
    """Stack feature vectors for many windows into an (N, d) matrix."""
    if not windows:
        return np.empty((0, feature_dim(kind, layout.n_sensors)))
    angles = np.stack([w.angles for w in windows])
    gyro = np.stack([w.gyro for w in windows])
    return _batch(kind, angles, gyro, layout)


# ---------------------------------------------------------------------------
# Amplitude indicator and proportional output


def window_gamma(w: Window, sensor_index: int) -> float:
    """Mean per-tick amplitude of one sensor over a window.

    A tick's amplitude gamma is the Euclidean norm of its calibrated
    pitch/roll/yaw. The mean (rather than the max) damps short spikes
    from involuntary motion.
    """
    return float(np.sqrt((w.angles[:, sensor_index, :] ** 2).sum(axis=-1)).mean())


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
            if lo < 0 or hi < 0:
                raise ValidationError(f"class {cls}: negative amplitude bound")
            if hi <= lo:
                raise DegenerateRangeError(
                    f"class {cls}: gamma_max {hi} <= gamma_min {lo}"
                )


def learn_ranges(
    windows: SequenceT[Window],
    layout: FeatureLayout,
    classes: SequenceT[int],
    class_sensor: Mapping[int, int] | None = None,
    mode: str = "minmax",
    percentiles: tuple[float, float] = (5.0, 95.0),
) -> AmplitudeRange:
    """Learn per-class amplitude ranges from labeled training windows.

    Args:
        windows: training windows (mixed-label windows are ignored).
        layout: sensor layout of the windows.
        classes: non-neutral classes that must be covered.
        class_sensor: class -> sensor id carrying that motion; defaults
            to the primary sensor for every class.
        mode: "minmax" takes the exact extremes of per-window mean
            amplitude; "percentile" takes the given percentiles instead.

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
    gammas: dict[int, list[float]] = {c: [] for c in mapping}
    for w in windows:
        if w.label is None or w.label == 0 or w.label not in mapping:
            continue
        si = sensor_index.get(mapping[w.label])
        if si is None:
            raise LayoutError(
                f"class {w.label} mapped to sensor {mapping[w.label]} "
                f"not present in layout {layout.sensor_ids}"
            )
        gammas[w.label].append(window_gamma(w, si))
    uncovered = sorted(cls for cls, values in gammas.items() if not values)
    if uncovered:
        raise CoverageError(f"classes {uncovered} have no training windows")
    ranges: dict[int, tuple[float, float]] = {}
    for cls, values in gammas.items():
        arr = np.asarray(values)
        if mode == "minmax":
            lo, hi = float(arr.min()), float(arr.max())
        else:
            lo = float(np.percentile(arr, percentiles[0]))
            hi = float(np.percentile(arr, percentiles[1]))
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
