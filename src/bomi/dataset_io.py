"""Labeled multi-sensor IMU recordings: schema, file I/O, splits, synthesis.

A recording is a *session* of several *sequences*. Within a sequence each
motion class is held for about five seconds, three times, separated by
returns to the neutral pose (class 0). Per-tick labels mark the
instructed class.

Canonical formats:

* JSON: ``{sample_rate_hz, class_count, sensor_layout: [{id, location}],
  sequences: [{labels: [...], sensors: {"<id>": [[9 floats] ...]}}],
  meta: {...}}``
* CSV: header ``tick,sensor_id,acc_x,acc_y,acc_z,gyro_x,gyro_y,gyro_z,
  mag_x,mag_y,mag_z,label,sequence``: one row per tick per sensor, in
  any order, UTF-8, LF, ``.`` decimal point.

Units are physical: acceleration in g, angular rate in degrees/second,
magnetometer in normalized (unit-free) gauss. An import mapping config
adapts foreign CSVs (column renames, raw-count scale factors, or a
fused-angles column mode).
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Mapping, Sequence as SequenceT

import numpy as np

from .errors import (
    AlignmentError,
    ParseError,
    SchemaError,
    SplitSpecError,
    ValidationError,
)
from .fusion import _sample_period, wrap_deg

MAX_SENSORS = 6
MAX_CLASSES = 9  # neutral plus up to eight motion classes
NEUTRAL = 0
_REPS = 3  # repetitions of each motion class per sequence

CSV_HEADER = [
    "tick", "sensor_id",
    "acc_x", "acc_y", "acc_z",
    "gyro_x", "gyro_y", "gyro_z",
    "mag_x", "mag_y", "mag_z",
    "label", "sequence",
]

# World magnetic field used when synthesizing magnetometer readings:
# unit vector toward magnetic north with a 30-degree downward dip.
MAG_WORLD = (math.cos(math.radians(30.0)), 0.0, -math.sin(math.radians(30.0)))

_DEFAULT_LOCATIONS = (
    "head", "right_shoulder", "left_shoulder",
    "right_wrist", "left_wrist", "right_ankle",
)


@dataclass(frozen=True)
class SensorInfo:
    """A sensor id plus a body-location tag."""

    id: int
    location: str = "unknown"


@dataclass
class Sequence:
    """One pass of the recording protocol.

    samples maps sensor id to a (T, 9) float array with columns
    acc_xyz, gyro_xyz, mag_xyz; labels is a (T,) int array.
    """

    samples: dict[int, np.ndarray]
    labels: np.ndarray

    @property
    def n_ticks(self) -> int:
        return len(self.labels)

    def tick_samples(self, tick: int) -> dict[int, list[float]]:
        """A fresh dict of each sensor's row at ``tick`` as 9 Python floats,
        the input ``StreamingPipeline.step`` takes."""
        return {sid: block[tick].tolist() for sid, block in self.samples.items()}


@dataclass
class SessionRecording:
    """A labeled multi-sensor recording session."""

    sample_rate_hz: float
    class_count: int
    sensor_layout: list[SensorInfo]
    sequences: list[Sequence]
    meta: dict = field(default_factory=dict)

    @property
    def sensor_ids(self) -> tuple[int, ...]:
        return tuple(s.id for s in self.sensor_layout)


@dataclass(frozen=True)
class SplitSpec:
    """Which 1-based sequence indices go to train and test."""

    train: frozenset[int] = frozenset({1, 2})
    test: frozenset[int] = frozenset({3})

    def validate(self, n_sequences: int) -> None:
        if self.train & self.test:
            raise SplitSpecError(
                f"train and test sequences overlap: {sorted(self.train & self.test)}"
            )
        for idx in self.train | self.test:
            if not 1 <= idx <= n_sequences:
                raise SplitSpecError(
                    f"sequence index {idx} out of range [1, {n_sequences}]"
                )


def split_session(
    rec: SessionRecording, spec: SplitSpec | None = None
) -> tuple[list[Sequence], list[Sequence]]:
    """Split a session into train and test sequences.

    The default spec trains on sequences 1 and 2 and tests on sequence 3.
    """
    spec = spec or SplitSpec()
    spec.validate(len(rec.sequences))
    train = [rec.sequences[i - 1] for i in sorted(spec.train)]
    test = [rec.sequences[i - 1] for i in sorted(spec.test)]
    return train, test


def label_runs(labels: np.ndarray) -> list[tuple[int, int, int]]:
    """Maximal constant-label runs as (label, start, end) with end exclusive."""
    labels = np.asarray(labels)
    if len(labels) == 0:
        return []
    bounds = [0, *(np.flatnonzero(labels[1:] != labels[:-1]) + 1).tolist(), len(labels)]
    return [(int(labels[a]), a, b) for a, b in zip(bounds, bounds[1:])]


# ---------------------------------------------------------------------------
# Validation


def protocol_issues(
    seq: Sequence,
    sample_rate_hz: float,
    class_count: int,
    motion_s: float = 5.0,
) -> list[str]:
    """Check that a sequence roughly follows the recording protocol.

    Motion runs should last ``motion_s`` seconds within ±50%, be
    separated by neutral runs, and each non-neutral class should appear
    three times. Returns a list of human-readable issues; empty means
    conforming.
    """
    issues: list[str] = []
    runs = label_runs(seq.labels)
    lo = motion_s * 0.5 * sample_rate_hz
    hi = motion_s * 1.5 * sample_rate_hz
    counts = {c: 0 for c in range(1, class_count)}
    prev_label = None
    for lab, start, end in runs:
        if lab != NEUTRAL:
            counts[lab] = counts.get(lab, 0) + 1
            if not lo <= end - start <= hi:
                issues.append(
                    f"class {lab} run at tick {start} lasts {end - start} ticks, "
                    f"expected about {motion_s * sample_rate_hz:.0f}"
                )
            if prev_label is not None and prev_label != NEUTRAL:
                issues.append(
                    f"classes {prev_label} and {lab} adjacent at tick {start} "
                    "without a neutral run between them"
                )
        prev_label = lab
    for cls, n in counts.items():
        if n != _REPS:
            issues.append(f"class {cls} appears {n} times, expected {_REPS}")
    return issues


def validate_recording(
    rec: SessionRecording,
    protocol: str = "warn",
    motion_s: float = 5.0,
) -> None:
    """Validate structural invariants of a recording.

    Args:
        rec: recording to check.
        protocol: "strict" raises on protocol-shape deviations, "warn"
            emits warnings (human recordings drift), "none" skips the
            check.
        motion_s: nominal protocol run length for the shape check.

    Raises:
        ValidationError / AlignmentError / SchemaError on violations.
    """
    if not 2 <= rec.class_count <= MAX_CLASSES:
        raise ValidationError(
            f"class_count must be in [2, {MAX_CLASSES}], got {rec.class_count}"
        )
    if not rec.sensor_layout:
        raise ValidationError("empty sensor layout")
    ids = [s.id for s in rec.sensor_layout]
    if len(set(ids)) != len(ids):
        raise ValidationError(f"duplicate sensor ids in layout: {ids}")
    for sid in ids:
        if not 1 <= sid <= MAX_SENSORS:
            raise ValidationError(f"sensor id {sid} outside [1, {MAX_SENSORS}]")
    if not rec.sequences:
        raise ValidationError("recording has no sequences")
    _sample_period(rec.sample_rate_hz)

    for qi, seq in enumerate(rec.sequences, start=1):
        n = seq.n_ticks
        if n == 0:
            raise ValidationError(f"sequence {qi} is empty")
        if set(seq.samples) != set(ids):
            raise AlignmentError(
                f"sequence {qi}: sensors {sorted(seq.samples)} do not match "
                f"layout {sorted(ids)}"
            )
        for sid, arr in seq.samples.items():
            if arr.shape != (n, 9):
                raise AlignmentError(
                    f"sequence {qi} sensor {sid}: shape {arr.shape}, "
                    f"expected ({n}, 9)"
                )
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"sequence {qi} sensor {sid}: non-finite samples")
        labs = np.asarray(seq.labels)
        if labs.min() < 0 or labs.max() >= rec.class_count:
            raise SchemaError(
                f"sequence {qi}: label outside [0, {rec.class_count - 1}]"
            )
        if protocol != "none":
            issues = protocol_issues(seq, rec.sample_rate_hz, rec.class_count, motion_s)
            if issues:
                msg = f"sequence {qi} deviates from protocol: " + "; ".join(issues[:4])
                if protocol == "strict":
                    raise ValidationError(msg)
                warnings.warn(msg, stacklevel=2)


# ---------------------------------------------------------------------------
# Import mapping


def key_value_lines(path: str | Path) -> Iterator[tuple[int, str, str]]:
    """Yield (line number, key, value) for each line of a flat ``key=value``
    file: blank and ``#`` lines are skipped, the line is split on its first
    ``=``, and both sides are stripped.

    Raises:
        ParseError: the file is not UTF-8 text, or a line has no ``=``.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"expected key=value, got {line!r}", line=lineno)
        key, _, value = line.partition("=")
        yield lineno, key.strip(), value.strip()


@dataclass
class ImportMapping:
    """Adapter config for foreign CSV files.

    Flat ``key=value`` file. Keys:
        ``column.<canonical>=<actual>`` renames a column;
        ``scale.acc|scale.gyro|scale.mag=<f>`` multiplies raw counts into
        physical units; ``mode=raw|angles`` selects the import path
        (``angles`` expects pitch/roll/yaw columns and resynthesizes raw
        streams consistent with them); ``sample_rate_hz=<f>``.
    """

    columns: dict[str, str] = field(default_factory=dict)
    scale_acc: float = 1.0
    scale_gyro: float = 1.0
    scale_mag: float = 1.0
    mode: str = "raw"
    sample_rate_hz: float | None = None

    @classmethod
    def from_file(cls, path: str | Path) -> "ImportMapping":
        m = cls()
        for lineno, key, value in key_value_lines(path):
            if key.startswith("column."):
                m.columns[key[len("column."):]] = value
            elif key in ("scale.acc", "scale.gyro", "scale.mag", "sample_rate_hz"):
                try:
                    number = float(value)
                except ValueError:
                    raise ParseError(f"{key} must be a number, got {value!r}", lineno) from None
                setattr(m, key.replace(".", "_"), number)
            elif key == "mode":
                if value not in ("raw", "angles"):
                    raise ParseError(f"mode must be raw or angles, got {value!r}", lineno)
                m.mode = value
            else:
                raise ParseError(f"unknown mapping key {key!r}", line=lineno)
        return m

    def actual(self, canonical: str) -> str:
        return self.columns.get(canonical, canonical)


def angles_to_raw(angles_deg: np.ndarray, sample_rate_hz: float) -> np.ndarray:
    """Synthesize raw 9-axis samples consistent with an angle trajectory.

    Inverse of the fusion stage: given absolute (pitch, roll, yaw) per
    tick, emits the gravity vector the accelerometer would read, the
    world field rotated into the body frame, and per-tick finite-
    difference angular rates. Feeding the result back through the
    complementary filter reproduces the input angles to float precision.

    Args:
        angles_deg: (T, 3) array of [pitch, roll, yaw] in degrees.
        sample_rate_hz: sampling rate for the rate computation.

    Returns:
        (T, 9) array with columns acc_xyz, gyro_xyz, mag_xyz.
    """
    angles_deg = np.asarray(angles_deg, dtype=np.float64)
    pitch = np.radians(angles_deg[:, 0])
    roll = np.radians(angles_deg[:, 1])
    yaw = np.radians(angles_deg[:, 2])
    cp, sp = np.cos(pitch), np.sin(pitch)
    cr, sr = np.cos(roll), np.sin(roll)
    cy, sy = np.cos(yaw), np.sin(yaw)

    out = np.empty((len(angles_deg), 9), dtype=np.float64)
    # Gravity (0, 0, 1) seen from the body frame.
    out[:, 0] = -sp
    out[:, 1] = cp * sr
    out[:, 2] = cp * cr
    # World field through Rx(roll)^T Ry(pitch)^T Rz(yaw)^T.
    mN, _, mD = MAG_WORLD
    m1x, m1y, m1z = cy * mN, -sy * mN, mD
    m2x = cp * m1x - sp * m1z
    m2y = m1y
    m2z = sp * m1x + cp * m1z
    out[:, 6] = m2x
    out[:, 7] = cr * m2y + sr * m2z
    out[:, 8] = -sr * m2y + cr * m2z
    # Angular rates from wrapped backward differences.
    d = wrap_deg(np.diff(angles_deg, axis=0))
    rates = np.zeros_like(angles_deg)
    rates[1:] = d * sample_rate_hz
    out[:, 3] = rates[:, 1]  # gyro_x tracks roll
    out[:, 4] = rates[:, 0]  # gyro_y tracks pitch
    out[:, 5] = rates[:, 2]  # gyro_z tracks yaw
    return out


# ---------------------------------------------------------------------------
# JSON / CSV I/O


def _rec_to_dict(rec: SessionRecording) -> dict:
    return {
        "sample_rate_hz": rec.sample_rate_hz,
        "class_count": rec.class_count,
        "sensor_layout": [
            {"id": s.id, "location": s.location} for s in rec.sensor_layout
        ],
        "sequences": [
            {
                "labels": [int(x) for x in seq.labels],
                "sensors": {
                    str(sid): seq.samples[sid].tolist() for sid in sorted(seq.samples)
                },
            }
            for seq in rec.sequences
        ],
        "meta": rec.meta,
    }


def _int_field(value, name: str) -> int:
    """``value`` if it is a JSON integer (not a bool); SchemaError naming
    ``name`` otherwise, so a fraction is never truncated."""
    if type(value) is not int:
        raise SchemaError(f"{name} must be an integer, got {value!r}")
    return value


def _rec_from_dict(obj: dict) -> SessionRecording:
    try:
        layout = [
            SensorInfo(_int_field(s["id"], "sensor_layout id"),
                       str(s.get("location", "unknown")))
            for s in obj["sensor_layout"]
        ]
        sequences = []
        for qi, seq_obj in enumerate(obj["sequences"], start=1):
            labels = seq_obj["labels"]
            if set(map(type, labels)) - {int}:
                bad = next(v for v in labels if type(v) is not int)
                raise SchemaError(f"sequence {qi} labels must be integers, got {bad!r}")
            labels = np.asarray(labels, dtype=np.int64)
            samples = {
                int(sid): np.asarray(rows, dtype=np.float64)
                for sid, rows in seq_obj["sensors"].items()
            }
            sequences.append(Sequence(samples=samples, labels=labels))
        return SessionRecording(
            sample_rate_hz=float(obj["sample_rate_hz"]),
            class_count=_int_field(obj["class_count"], "class_count"),
            sensor_layout=layout,
            sequences=sequences,
            meta=obj.get("meta", {}),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"malformed recording JSON: {exc}") from exc


def _detect_format(path: Path) -> str:
    suffix = path.suffix.lower().lstrip(".")
    if suffix in ("csv", "json"):
        return suffix
    raise SchemaError(f"cannot infer format from {path.name!r}: expected .json or .csv")


def save_recording(rec: SessionRecording, path: str | Path) -> None:
    """Write a recording to disk in the canonical JSON or CSV format.

    JSON round-trips bit-exactly; CSV preserves values to full float
    precision but drops layout locations and meta.
    """
    path = Path(path)
    fmt = _detect_format(path)
    validate_recording(rec, protocol="none")
    if fmt == "json":
        path.write_text(json.dumps(_rec_to_dict(rec)), encoding="utf-8")
        return
    # Every field is an int or a float repr, so none needs quoting.
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(CSV_HEADER) + "\n")
        for qi, seq in enumerate(rec.sequences, start=1):
            sids = sorted(seq.samples)
            blocks = [seq.samples[sid].tolist() for sid in sids]
            fh.write("".join(
                f"{t},{sid},{','.join(map(repr, block[t]))},{lab},{qi}\n"
                for t, lab in enumerate(seq.labels.tolist())
                for sid, block in zip(sids, blocks)
            ))


# Integer CSV columns, parsed ahead of the value columns in this order.
_CSV_KEYS = ("sequence", "tick", "sensor_id", "label")


def _data_rows(path: Path):
    """Yield (physical line, fields) for each CSV data row; blank lines
    hold no row, as for ``np.loadtxt``."""
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        for row in reader:
            if row:
                yield reader.line_num, row


def _row_line(path: Path, i: int) -> int:
    """Physical line of data row ``i`` (0-based)."""
    return next(itertools.islice(_data_rows(path), i, None))[0]


def _check_number(text: str, integer: bool) -> None:
    """Raise ValueError where ``np.loadtxt`` rejects a field: what int() or
    float() reject, non-ASCII text, ``_`` digit grouping, ints past int64."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"could not convert {text!r} to a number")
    if not integer:
        float(text)
    elif not -2**63 <= int(text) < 2**63:
        raise ValueError(f"{text!r} is outside the int64 range")


def _parse_failure(
    path: Path, usecols: list[int], n_fields: int, exc: ValueError
) -> ParseError:
    """The ParseError for the first data row ``np.loadtxt`` could not parse."""
    for line, row in _data_rows(path):
        if len(row) <= max(usecols):
            return ParseError(
                f"malformed row: expected {n_fields} fields, got {len(row)}", line=line
            )
        for k, col in enumerate(usecols):
            try:
                _check_number(row[col], integer=k < len(_CSV_KEYS))
            except ValueError as err:
                return ParseError(f"malformed row: {err}", line=line)
    return ParseError(f"malformed row: {exc}")


def _label_conflict(path: Path, rows: np.ndarray) -> ParseError:
    """The first row, in file order, whose label differs from an earlier row
    of the same sequence and tick."""
    first: dict[tuple[int, int], int] = {}
    keys = zip(rows["sequence"].tolist(), rows["tick"].tolist(), rows["label"].tolist())
    for i, (qi, tick, lab) in enumerate(keys):
        prev = first.setdefault((qi, tick), lab)
        if prev != lab:
            return ParseError(
                f"conflicting labels {prev} and {lab} for tick {tick}", line=_row_line(path, i)
            )
    raise AssertionError("no conflicting labels")


def _load_csv(path: Path, mapping: ImportMapping | None) -> SessionRecording:
    mapping = mapping or ImportMapping()
    # Test for None, not falsiness: a rate of 0 must reach the rate check.
    rate = 60.0 if mapping.sample_rate_hz is None else mapping.sample_rate_hz
    values = ("pitch", "roll", "yaw") if mapping.mode == "angles" else CSV_HEADER[2:11]
    width = len(values)

    try:
        with path.open("r", encoding="utf-8", newline="") as fh:
            header = next(csv.reader(fh), None)
            if header is None:
                raise ParseError("empty CSV file", line=1)
            # A repeated column name means its last column, as in csv.DictReader.
            index = {name: i for i, name in enumerate(header)}
            actual = [mapping.actual(c) for c in (*_CSV_KEYS, *values)]
            missing = [a for a in actual if a not in index]
            if missing:
                raise SchemaError(f"missing CSV columns: {missing}")
            usecols = [index[a] for a in actual]
            dtype = np.dtype(
                [(k, np.int64) for k in _CSV_KEYS] + [("values", np.float64, (width,))]
            )
            try:
                with warnings.catch_warnings():
                    warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                    rows = np.loadtxt(
                        fh, delimiter=",", usecols=usecols, dtype=dtype,
                        quotechar='"', comments=None, ndmin=1,
                    )
            except ValueError as exc:
                raise _parse_failure(path, usecols, len(header), exc) from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"unreadable CSV: {exc}") from exc

    if len(rows) == 0:
        raise ParseError("CSV contains no data rows", line=2)

    # Sorted by (sequence, tick, sensor); stable, so equal keys keep file order.
    order = np.lexsort((rows["sensor_id"], rows["tick"], rows["sequence"]))
    seq, tick, sensor, lab = (rows[k][order] for k in _CSV_KEYS)
    same_tick = (seq[1:] == seq[:-1]) & (tick[1:] == tick[:-1])
    if (same_tick & (lab[1:] != lab[:-1])).any():
        raise _label_conflict(path, rows)
    repeat = same_tick & (sensor[1:] == sensor[:-1])
    if repeat.any():
        i = int(order[1:][repeat].min())
        raise AlignmentError(
            f"line {_row_line(path, i)}: duplicate row for sequence {rows['sequence'][i]} "
            f"tick {rows['tick'][i]} sensor {rows['sensor_id'][i]}"
        )

    sensor_ids = np.unique(sensor).tolist()
    n_sensors = len(sensor_ids)
    tick_heads = np.flatnonzero(np.r_[True, ~same_tick])  # first row of each tick
    seq_bounds = np.flatnonzero(np.r_[True, seq[1:] != seq[:-1], True])
    sequences = []
    for lo, hi in zip(seq_bounds[:-1].tolist(), seq_bounds[1:].tolist()):
        qi = int(seq[lo])
        heads = tick_heads[np.searchsorted(tick_heads, lo):np.searchsorted(tick_heads, hi)]
        n = len(heads)
        if tick[heads[0]] != 0 or tick[heads[-1]] != n - 1:
            raise AlignmentError(
                f"sequence {qi}: ticks are not consecutive from 0"
            )
        if hi - lo != n * n_sensors:
            sizes = np.diff(np.r_[heads, hi])
            t = int(np.flatnonzero(sizes < n_sensors)[0])
            present = sensor[heads[t]:heads[t] + sizes[t]].tolist()
            missing_ids = sorted(set(sensor_ids) - set(present))
            raise AlignmentError(
                f"sequence {qi} tick {t}: missing sensors {missing_ids}"
            )
        labels = lab[heads]
        by_tick = order[lo:hi].reshape(n, n_sensors)
        arrays = {sid: rows["values"][by_tick[:, j]] for j, sid in enumerate(sensor_ids)}
        if mapping.mode == "angles":
            samples = {
                sid: angles_to_raw(arrays[sid], rate) for sid in sensor_ids
            }
        else:
            samples = {}
            for sid in sensor_ids:
                arr = arrays[sid]
                arr[:, 0:3] *= mapping.scale_acc
                arr[:, 3:6] *= mapping.scale_gyro
                arr[:, 6:9] *= mapping.scale_mag
                samples[sid] = arr
        sequences.append(Sequence(samples=samples, labels=labels))

    layout = [SensorInfo(sid, f"s{sid}") for sid in sensor_ids]
    return SessionRecording(
        sample_rate_hz=rate,
        class_count=int(max(seq.labels.max() for seq in sequences)) + 1,
        sensor_layout=layout,
        sequences=sequences,
    )


def load_recording(
    path: str | Path,
    mapping: ImportMapping | None = None,
    validate: str = "warn",
) -> SessionRecording:
    """Load a recording from the canonical JSON/CSV formats.

    JSON carries its sample rate and class count. A CSV takes its rate
    from ``mapping`` (60 Hz when unset) and its class count from its
    highest label.

    Args:
        path: file to read; a ``.json`` or ``.csv`` suffix names the format.
        mapping: optional ImportMapping for foreign CSVs.
        validate: protocol check mode ("strict", "warn", "none").

    Raises:
        ParseError / SchemaError / AlignmentError on malformed input.
    """
    path = Path(path)
    if _detect_format(path) == "json":
        try:
            obj = json.loads(path.read_text(encoding="utf-8"))
        except UnicodeDecodeError as exc:
            raise ParseError(f"recording is not UTF-8 text: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno) from exc
        rec = _rec_from_dict(obj)
    else:
        rec = _load_csv(path, mapping)
    validate_recording(rec, protocol=validate)
    return rec


# ---------------------------------------------------------------------------
# Synthetic sessions


def _default_layout(sensor_count: int) -> list[SensorInfo]:
    if not 1 <= sensor_count <= MAX_SENSORS:
        raise ValidationError(
            f"sensor_count must be in [1, {MAX_SENSORS}], got {sensor_count}"
        )
    return [
        SensorInfo(i + 1, _DEFAULT_LOCATIONS[i]) for i in range(sensor_count)
    ]


def _class_targets(
    class_count: int,
    sensor_ids: SequenceT[int],
    amplitude_deg: float,
) -> tuple[dict[int, dict[int, np.ndarray]], dict[int, int]]:
    """Distinct relative-angle targets per class.

    The first six motion classes exercise one signed axis each on the
    primary sensor; later classes move secondary sensors, falling back to
    diagonal combinations when only one sensor is worn. Returns
    (targets, class_sensor) where targets[class][sensor] is a 3-vector of
    degrees and class_sensor names the sensor carrying the motion.
    """
    primary = sensor_ids[0]
    axis_dirs = [
        (1, 0, 0), (-1, 0, 0),
        (0, 1, 0), (0, -1, 0),
        (0, 0, 1), (0, 0, -1),
    ]
    extras = [
        (0.7071067811865476, 0.7071067811865476, 0.0),
        (0.7071067811865476, -0.7071067811865476, 0.0),
    ]
    targets: dict[int, dict[int, np.ndarray]] = {}
    class_sensor: dict[int, int] = {}
    for cls in range(1, class_count):
        per_sensor = {sid: np.zeros(3) for sid in sensor_ids}
        if cls <= 6:
            sid = primary
            direction = np.asarray(axis_dirs[cls - 1], dtype=np.float64)
        else:
            extra_idx = cls - 7  # 0 or 1
            if len(sensor_ids) > 1 + extra_idx:
                sid = sensor_ids[1 + extra_idx]
                direction = np.asarray(axis_dirs[0], dtype=np.float64)
            elif len(sensor_ids) > 1:
                sid = sensor_ids[1]
                direction = np.asarray(axis_dirs[2 + extra_idx], dtype=np.float64)
            else:
                sid = primary
                direction = np.asarray(extras[extra_idx], dtype=np.float64)
        per_sensor[sid] = direction * amplitude_deg
        targets[cls] = per_sensor
        class_sensor[cls] = sid
    return targets, class_sensor


def _rotation_about_random_axis(rng: np.random.Generator, angle_deg: float) -> np.ndarray:
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    a = math.radians(angle_deg)
    k = np.array([
        [0, -axis[2], axis[1]],
        [axis[2], 0, -axis[0]],
        [-axis[1], axis[0], 0],
    ])
    return np.eye(3) + math.sin(a) * k + (1 - math.cos(a)) * (k @ k)


def _spasm_profile(
    rng: np.random.Generator,
    length: int,
    sample_rate_hz: float,
) -> np.ndarray:
    """Continuous band-limited modulation in [-1, 1] modelling involuntary
    motion: low-pass filtered noise rescaled so its extremes touch the
    requested amplitude."""
    kernel_len = max(3, int(0.4 * sample_rate_hz))
    kernel = np.hanning(kernel_len)
    kernel /= kernel.sum()
    white = rng.normal(size=length + kernel_len)
    u = np.convolve(white, kernel, mode="same")[:length]
    peak = np.abs(u).max()
    if peak > 0:
        u = u / peak * rng.uniform(0.85, 1.0)
    return np.clip(u, -1.0, 1.0)


def synth_session(
    class_count: int = 9,
    sensor_count: int = 3,
    noise_deg: float = 0.5,
    spasm_deg: float = 0.0,
    seed: int = 0,
    spasm_class: int = 1,
    amplitudes: SequenceT[float] | None = None,
    amplitude_deg: float = 20.0,
    class_scale: Mapping[int, float] | None = None,
    target_rotation_deg: float = 0.0,
    target_bias_deg: float = 0.0,
    rotation_seed: int | None = None,
    shuffle_test_seq: bool = False,
    n_sequences: int = 3,
    sample_rate_hz: float = 60.0,
    motion_s: float = 5.0,
    transition_s: float = 0.5,
) -> SessionRecording:
    """Generate a protocol-shaped synthetic session with known ground truth.

    Raw acc/gyro/mag streams are synthesized to be exactly consistent
    with piecewise-constant per-class orientation targets joined by
    smooth cosine transitions centered on each label boundary, so the
    fusion stage reproduces the generated angle trajectories to float
    precision. Deterministic for a fixed seed.

    Args:
        class_count: total classes including neutral, in [2, 9].
        sensor_count: worn sensors, in [1, 6].
        noise_deg: std of Gaussian angle noise added per tick.
        spasm_deg: peak amplitude modulation, in degrees, applied along
            the motion direction during ``spasm_class`` runs.
        amplitudes: per-repetition amplitude factors (e.g. (0.4, 1.0,
            1.6) for a multi-amplitude session); None keeps 1.0.
        class_scale: optional per-class target scaling (low-range motion).
        target_rotation_deg: rotate every class target by a random small
            rotation of this magnitude (sensor-placement drift).
        target_bias_deg: shift every class target by a constant vector of
            this magnitude along a stable random direction
            (motion-execution drift; unlike a rotation it changes each
            class's distance to neutral).
        rotation_seed: seed the drift direction separately so a series of
            sessions can drift cumulatively along one axis; None draws
            the direction from the main stream.
        shuffle_test_seq: randomize the class/repetition order of the
            last sequence (held-out random-motion test recording).
        motion_s / transition_s: run length and total ramp duration.

    Returns:
        SessionRecording whose meta carries the ground truth: class
        targets, class->sensor map, seed, and tick counts.
    """
    if not 2 <= class_count <= MAX_CLASSES:
        raise ValidationError(
            f"class_count must be in [2, {MAX_CLASSES}] (neutral plus at most "
            f"{MAX_CLASSES - 1} motions), got {class_count}"
        )
    if n_sequences < 1:
        raise ValidationError(f"n_sequences must be >= 1, got {n_sequences}")
    if noise_deg < 0 or spasm_deg < 0:
        raise ValidationError("noise_deg and spasm_deg must be >= 0")
    if amplitudes is not None and len(amplitudes) != _REPS:
        raise ValidationError(
            f"amplitudes needs one factor per repetition ({_REPS}), got {len(amplitudes)}"
        )
    layout = _default_layout(sensor_count)
    sensor_ids = [s.id for s in layout]

    rng = np.random.default_rng(seed)
    motion_ticks = int(round(motion_s * sample_rate_hz))
    ramp = int(round(transition_s * sample_rate_hz))
    half = ramp // 2
    if motion_ticks < 2 * half + 2:
        raise ValidationError("motion runs too short for the transition length")

    targets, class_sensor = _class_targets(class_count, sensor_ids, amplitude_deg)
    if class_scale:
        for cls, factor in class_scale.items():
            for sid in targets.get(int(cls), {}):
                targets[int(cls)][sid] = targets[int(cls)][sid] * float(factor)
    if target_rotation_deg or target_bias_deg:
        rot_rng = rng if rotation_seed is None else np.random.default_rng(rotation_seed)
        if target_rotation_deg:
            rot = _rotation_about_random_axis(rot_rng, target_rotation_deg)
            for cls in targets:
                for sid in targets[cls]:
                    targets[cls][sid] = rot @ targets[cls][sid]
        if target_bias_deg:
            direction = rot_rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            for cls in targets:
                sid = class_sensor[cls]
                targets[cls][sid] = targets[cls][sid] + direction * target_bias_deg

    base = {
        sid: np.array([
            rng.uniform(-5.0, 5.0),
            rng.uniform(-5.0, 5.0),
            rng.uniform(-60.0, 60.0),
        ])
        for sid in sensor_ids
    }
    amp_by_rep = list(amplitudes) if amplitudes is not None else [1.0] * _REPS

    sequences: list[Sequence] = []
    for qi in range(n_sequences):
        slots = [(cls, rep) for cls in range(1, class_count) for rep in range(_REPS)]
        if shuffle_test_seq and qi == n_sequences - 1:
            rng.shuffle(slots)
        runs: list[tuple[int, int, float]] = [(NEUTRAL, motion_ticks, 1.0)]
        for cls, rep in slots:
            runs.append((cls, motion_ticks, amp_by_rep[rep]))
            runs.append((NEUTRAL, motion_ticks, 1.0))
        n_ticks = sum(r[1] for r in runs)

        labels = np.empty(n_ticks, dtype=np.int64)
        rel = {sid: np.zeros((n_ticks, 3)) for sid in sensor_ids}
        boundaries: list[int] = []
        pos = 0
        for cls, length, amp in runs:
            labels[pos:pos + length] = cls
            if cls != NEUTRAL:
                for sid in sensor_ids:
                    rel[sid][pos:pos + length] = targets[cls][sid] * amp
            if pos > 0:
                boundaries.append(pos)
            pos += length

        # Cosine ramps centered on each label boundary; the first tick of
        # the incoming run sits just past the halfway point.
        for b in boundaries:
            for sid in sensor_ids:
                before = rel[sid][b - half - 1].copy()
                after = rel[sid][b + half].copy()
                for i in range(2 * half):
                    w = 0.5 * (1.0 - math.cos(math.pi * (i + 0.5) / (2 * half)))
                    rel[sid][b - half + i] = before + w * (after - before)

        if spasm_deg > 0:
            for cls, start, end in label_runs(labels):
                if cls != spasm_class:
                    continue
                sid = class_sensor[cls]
                direction = targets[cls][sid]
                norm = np.linalg.norm(direction)
                if norm == 0:
                    continue
                direction = direction / norm
                lo, hi = start + half, end - half
                if hi <= lo:
                    continue
                u = _spasm_profile(rng, hi - lo, sample_rate_hz)
                rel[sid][lo:hi] += np.outer(u * spasm_deg, direction)

        samples: dict[int, np.ndarray] = {}
        for sid in sensor_ids:
            absolute = rel[sid] + base[sid]
            if noise_deg > 0:
                absolute = absolute + rng.normal(0.0, noise_deg, absolute.shape)
            samples[sid] = angles_to_raw(absolute, sample_rate_hz)
        sequences.append(Sequence(samples=samples, labels=labels))

    meta = {
        "source": "synthetic",
        "seed": int(seed),
        "noise_deg": float(noise_deg),
        "spasm_deg": float(spasm_deg),
        "spasm_class": int(spasm_class),
        "amplitude_deg": float(amplitude_deg),
        "amplitudes": [float(a) for a in amp_by_rep],
        "ticks_per_sequence": int(sequences[0].n_ticks),
        "motion_ticks": motion_ticks,
        "class_targets": {
            str(cls): {str(sid): [float(v) for v in vec] for sid, vec in per.items()}
            for cls, per in targets.items()
        },
        "class_sensors": {str(cls): int(sid) for cls, sid in class_sensor.items()},
        "base_orientation": {
            str(sid): [float(v) for v in vec] for sid, vec in base.items()
        },
    }
    rec = SessionRecording(
        sample_rate_hz=sample_rate_hz,
        class_count=class_count,
        sensor_layout=layout,
        sequences=sequences,
        meta=meta,
    )
    validate_recording(rec, protocol="strict", motion_s=motion_s)
    return rec
