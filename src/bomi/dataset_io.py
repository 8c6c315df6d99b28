"""Labeled multi-sensor IMU recordings: schema, file I/O, splits, synthesis.

A recording is a *session* of several *sequences*. Within a sequence each
motion class is held for about five seconds, three times, separated by
returns to the neutral pose (class 0). Per-tick labels mark the
instructed class.

Canonical formats:

* JSON: ``{sample_rate_hz, class_count, sensor_layout: [{id, location}],
  sequences: [{labels: [...], sensors: {"<id>": [[9 floats] ...]}}],
  meta: {...}}``, written compact by orjson, sensor keys in id order; its
  ``sequences`` read by the compiled kernel's ``read_json``, the rest (or
  all the kernel refuses) by orjson, and json.loads what orjson refuses.
* CSV: header ``tick,sensor_id,acc_x,acc_y,acc_z,gyro_x,gyro_y,gyro_z,
  mag_x,mag_y,mag_z,label,sequence``: one row per tick per sensor, in
  any order, UTF-8, LF, ``.`` decimal point. It holds no sample rate and
  no layout, so it loads with its sensors in id order. Its rows are read
  by the compiled kernel's ``read_csv`` (``np.loadtxt`` reads what it
  refuses).

Both writers spell a float as orjson does: the shortest text that reads
back exactly.

Units are physical: acceleration in g, angular rate in degrees/second,
magnetometer in normalized (unit-free) gauss. An import mapping config
adapts foreign CSVs (column renames, raw-count scale factors, or a
fused-angles column mode).
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import numbers
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Collection, Iterator, Mapping, Sequence as SequenceT

import numpy as np
import orjson

from .errors import (
    AlignmentError,
    ParseError,
    SchemaError,
    SplitSpecError,
    ValidationError,
)
from .fusion import _kernel, _real_in, _sample_period, wrap_deg

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

# The protocol's rate: every synthetic session's, and the rate a CSV loads
# at when its import mapping names none.
_RATE_HZ = 60.0

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

    sensor_ids names the sensors in layout order; samples is one (T, S, 9)
    array in that order (C-contiguous float64 from the loaders and
    ``synth_session``), each row acc_xyz, gyro_xyz, mag_xyz; labels is a
    (T,) int array.
    """

    sensor_ids: tuple[int, ...]
    samples: np.ndarray
    labels: np.ndarray

    @property
    def n_ticks(self) -> int:
        return len(self.labels)

    def tick_samples(self, tick: int) -> dict[int, list[float]]:
        """A fresh dict of each sensor's row at ``tick`` as 9 Python floats,
        in layout order: the input ``StreamingPipeline.step`` takes."""
        return dict(zip(self.sensor_ids, self.samples[tick].tolist()))


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
        check_sequence_indices(self.train | self.test, n_sequences)


def check_sequence_indices(indices: Collection[int], n_sequences: int) -> None:
    """Raise SplitSpecError unless every 1-based index is an int in
    [1, n_sequences] and none repeats (its sequence would count twice)."""
    for idx in indices:
        if not isinstance(idx, numbers.Integral) or isinstance(idx, bool):
            raise SplitSpecError(f"sequence index {idx!r} is not an integer")
        if not 1 <= idx <= n_sequences:
            raise SplitSpecError(f"sequence index {idx} out of range [1, {n_sequences}]")
    if len(set(indices)) < len(indices):
        raise SplitSpecError(f"sequence indices {list(indices)} repeat an index")


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
    ids = rec.sensor_ids
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
        if tuple(seq.sensor_ids) != ids:
            raise AlignmentError(
                f"sequence {qi}: sensor ids {tuple(seq.sensor_ids)} are not the layout's {ids}"
            )
        if seq.samples.shape != (n, len(ids), 9):
            raise AlignmentError(
                f"sequence {qi}: samples of shape {seq.samples.shape}, "
                f"expected ({n}, {len(ids)}, 9)"
            )
        finite = np.isfinite(seq.samples)
        if not finite.all():
            sid = ids[finite.all(axis=(0, 2)).argmin()]
            raise ValidationError(f"sequence {qi} sensor {sid}: non-finite samples")
        labs = np.asarray(seq.labels)
        if labs.dtype.kind not in "iu":
            raise SchemaError(f"sequence {qi}: labels must be integers, got dtype {labs.dtype}")
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
    """Synthesize raw 9-axis samples consistent with angle trajectories.

    Inverse of the fusion stage: given absolute (pitch, roll, yaw) per
    tick, emits the gravity vector the accelerometer would read, the
    world field rotated into the body frame, and per-tick finite-
    difference angular rates. Feeding the result back through the
    complementary filter reproduces the input angles to float precision.

    Args:
        angles_deg: (T, ..., 3) array of [pitch, roll, yaw] in degrees.
        sample_rate_hz: sampling rate for the rate computation.

    Returns:
        (T, ..., 9) C-contiguous array with columns acc_xyz, gyro_xyz, mag_xyz.
    """
    angles_deg = np.asarray(angles_deg, dtype=np.float64)
    pitch = np.radians(angles_deg[..., 0])
    roll = np.radians(angles_deg[..., 1])
    yaw = np.radians(angles_deg[..., 2])
    cp, sp = np.cos(pitch), np.sin(pitch)
    cr, sr = np.cos(roll), np.sin(roll)
    cy, sy = np.cos(yaw), np.sin(yaw)

    out = np.empty(angles_deg.shape[:-1] + (9,), dtype=np.float64)
    # Gravity (0, 0, 1) seen from the body frame.
    out[..., 0] = -sp
    out[..., 1] = cp * sr
    out[..., 2] = cp * cr
    # World field through Rx(roll)^T Ry(pitch)^T Rz(yaw)^T.
    mN, _, mD = MAG_WORLD
    m1x, m1y, m1z = cy * mN, -sy * mN, mD
    m2x = cp * m1x - sp * m1z
    m2y = m1y
    m2z = sp * m1x + cp * m1z
    out[..., 6] = m2x
    out[..., 7] = cr * m2y + sr * m2z
    out[..., 8] = -sr * m2y + cr * m2z
    # Angular rates from wrapped backward differences.
    d = wrap_deg(np.diff(angles_deg, axis=0))
    rates = np.zeros_like(angles_deg)
    rates[1:] = d * sample_rate_hz
    out[..., 3] = rates[..., 1]  # gyro_x tracks roll
    out[..., 4] = rates[..., 0]  # gyro_y tracks pitch
    out[..., 5] = rates[..., 2]  # gyro_z tracks yaw
    return out


# ---------------------------------------------------------------------------
# JSON / CSV I/O


def _rec_to_dict(rec: SessionRecording) -> dict:
    """The JSON object of ``rec``, its labels and per-sensor sample blocks
    as int64 and C-contiguous float64 arrays for ``orjson.OPT_SERIALIZE_NUMPY``."""
    return {
        "sample_rate_hz": rec.sample_rate_hz,
        "class_count": rec.class_count,
        "sensor_layout": [
            {"id": s.id, "location": s.location} for s in rec.sensor_layout
        ],
        "sequences": [
            {
                "labels": np.asarray(seq.labels, dtype=np.int64),
                "sensors": {
                    str(sid): np.ascontiguousarray(seq.samples[:, j], dtype=np.float64)
                    for sid, j in sorted((sid, j) for j, sid in enumerate(seq.sensor_ids))
                },
            }
            for seq in rec.sequences
        ],
        "meta": rec.meta,
    }


def _check_meta(meta) -> None:
    """ValidationError naming ``meta`` unless it is JSON data that loads
    back equal: str keys; str, int within 64 bits, finite float, bool or
    None values; nested in dicts, lists or tuples. orjson would write a
    NaN as ``null`` and json.dumps would spell it ``NaN``."""
    stack = [meta]
    while stack:
        value = stack.pop()
        if isinstance(value, dict):
            for key in value:
                if not isinstance(key, str):
                    raise ValidationError(f"meta key {key!r} is not a string")
            stack.extend(value.values())
        elif isinstance(value, (list, tuple)):
            stack.extend(value)
        elif isinstance(value, float):
            if not math.isfinite(value):
                raise ValidationError(f"meta holds a non-finite number {value!r}")
        elif isinstance(value, int):
            if not -2**63 <= value < 2**64:
                raise ValidationError(f"meta integer {value} does not fit in 64 bits")
        elif not (value is None or isinstance(value, str)):
            raise ValidationError(
                f"meta holds a {type(value).__name__}, which is not JSON data"
            )


def _int_field(value, name: str) -> int:
    """``value`` if it is a JSON integer (not a bool); SchemaError naming
    ``name`` otherwise, so a fraction is never truncated."""
    if type(value) is not int:
        raise SchemaError(f"{name} must be an integer, got {value!r}")
    return value


def _number_field(value, name: str) -> float:
    """``value`` as a float if it is a JSON number (an int or a float, not
    a bool); SchemaError naming ``name`` otherwise."""
    if type(value) not in (int, float):
        raise SchemaError(f"{name} must be a number, got {value!r}")
    return float(value)


def _decimal_key(key: str, name: str, what: str) -> int:
    """The integer a JSON object key spells in canonical decimal; a
    SchemaError naming the ``name`` key otherwise, so ``"+0_2"`` and
    ``" 2"`` are not 2."""
    try:
        value = int(key)
    except ValueError:
        value = None
    if value is None or str(value) != key:
        raise SchemaError(f"{name} key {key!r} is not a decimal {what}")
    return value


def _labels(value, qi: int) -> np.ndarray:
    """A sequence's labels as an int64 array: the compiled reader's array as
    it is, a parsed list when every item is a JSON integer within 64 bits."""
    if isinstance(value, np.ndarray):
        return value
    if set(map(type, value)) - {int}:
        bad = next(v for v in value if type(v) is not int)
        raise SchemaError(f"sequence {qi} labels must be integers, got {bad!r}")
    try:
        return np.asarray(value, dtype=np.int64)
    except OverflowError:
        bad = next(v for v in value if not -2**63 <= v < 2**63)
        raise SchemaError(f"sequence {qi} labels must fit in 64 bits, got {bad}") from None


def _check_numbers(rows, name: str) -> None:
    """SchemaError naming ``name`` if parsed rows of JSON values hold a
    bool or a string, which float() would take as a number."""
    if {type(v) for row in rows for v in row} & {bool, str}:
        bad = next(v for row in rows for v in row if type(v) in (bool, str))
        raise SchemaError(f"{name} must be numbers, got {bad!r}")


def _block(rows, qi: int, sid: int, n: int) -> np.ndarray:
    """A sensor's (n, 9) float64 sample block: the compiled reader's array,
    or parsed rows of JSON numbers (see ``_check_numbers``); AlignmentError
    for any other shape."""
    block = np.asarray(rows, dtype=np.float64)
    if block.shape != (n, 9):
        raise AlignmentError(f"sequence {qi} sensor {sid}: shape {block.shape}, "
                             f"expected ({n}, 9)")
    if not isinstance(rows, np.ndarray):
        _check_numbers(rows, f"sequence {qi} sensor {sid} samples")
    return block


def _rec_from_dict(obj: dict) -> SessionRecording:
    """The recording of a JSON object, read by either route of
    ``_read_json``: its sequences' labels and blocks are arrays or parsed
    lists, every other value as JSON parses it. Each sequence's (T, 9)
    blocks fill one (T, S, 9) array in layout order, else an
    AlignmentError."""
    try:
        layout = [
            SensorInfo(_int_field(s["id"], "sensor_layout id"),
                       str(s.get("location", "unknown")))
            for s in obj["sensor_layout"]
        ]
        ids = tuple(s.id for s in layout)
        sequences = []
        for qi, seq_obj in enumerate(obj["sequences"], start=1):
            labels = _labels(seq_obj["labels"], qi)
            blocks = {_decimal_key(key, f"sequence {qi} sensor", "sensor id"): rows
                      for key, rows in seq_obj["sensors"].items()}
            if set(blocks) != set(ids):
                raise AlignmentError(
                    f"sequence {qi}: sensors {sorted(blocks)} do not match layout {sorted(ids)}"
                )
            samples = np.empty((len(labels), len(ids), 9))
            for j, sid in enumerate(ids):
                samples[:, j] = _block(blocks[sid], qi, sid, len(labels))
            sequences.append(Sequence(ids, samples, labels))
        meta = obj.get("meta", {})
        if type(meta) is not dict:
            raise SchemaError(f"meta must be a JSON object, got {meta!r}")
        return SessionRecording(
            sample_rate_hz=_number_field(obj["sample_rate_hz"], "sample_rate_hz"),
            class_count=_int_field(obj["class_count"], "class_count"),
            sensor_layout=layout,
            sequences=sequences,
            meta=meta,
        )
    except (KeyError, TypeError, ValueError, OverflowError, AttributeError) as exc:
        raise SchemaError(f"malformed recording JSON: {exc}") from exc


# A recording nests six levels (object, sequences, sequence, sensors, block,
# row) plus what its meta holds. orjson 3.8 parses without a depth limit and
# overflows the C stack near a million levels, so deeper text is refused
# before it parses; json.loads at the default recursion limit reads no deeper.
_MAX_JSON_DEPTH = 1000
_NOT_BRACKET_OR_QUOTE = bytes(c for c in range(256) if c not in b'[]{}"')
_DEPTH_STEP = np.zeros(256, dtype=np.int8)
_DEPTH_STEP[list(b"[{")] = 1
_DEPTH_STEP[list(b"]}")] = -1


def _json_depth(data: bytes) -> int:
    """How deep arrays and objects nest in the JSON text ``data``, brackets
    inside strings not counted."""
    if b"\\" in data:
        # Drop the escape pairs, so every quote left opens or closes a string.
        data = data.replace(b"\\\\", b"").replace(b'\\"', b"")
    marks = np.frombuffer(data.translate(None, _NOT_BRACKET_OR_QUOTE), dtype=np.uint8)
    steps = _DEPTH_STEP[marks]
    steps[np.cumsum(marks == ord('"')) % 2 == 1] = 0
    return int(np.cumsum(steps, dtype=np.int64).max(initial=0))


def _parse_json(data: bytes):
    """The JSON value of ``data``, read by orjson, else by json.loads: it
    reads the ``NaN`` and ``Infinity`` literals and lone surrogates orjson
    refuses, and gives the error, with the line of the text read as a file
    (universal newlines), for text both refuse (bad UTF-8 or syntax)."""
    if _json_depth(data) > _MAX_JSON_DEPTH:
        raise ParseError(f"JSON nested deeper than {_MAX_JSON_DEPTH} levels")
    try:
        return orjson.loads(data)
    except orjson.JSONDecodeError:
        pass
    try:
        return json.loads(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read())
    except UnicodeDecodeError as exc:
        raise ParseError(f"recording is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno) from exc
    except RecursionError as exc:
        raise ParseError("JSON nested deeper than the recursion limit") from exc


def _read_json(data: bytes):
    """The JSON value of a recording's bytes. The kernel's ``read_json``
    reads the ``sequences`` value of the shape ``save_recording`` writes,
    in one pass with no Python object per number: each sequence's labels
    into an int64 array, each sensor block into a (T, 9) float64 array,
    every value the double orjson and ``np.asarray`` give its token.
    ``_parse_json`` reads the rest, that value replaced by ``[]``, or the
    whole text when the kernel refuses it."""
    taken = _kernel.read_json(data)
    if taken is None:
        return _parse_json(data)
    sequences, start, end = taken
    try:
        obj = _parse_json(data[:start] + b"[]" + data[end:])
    except ParseError:
        # Parsed again whole, so the error names the line in the file.
        return _parse_json(data)
    obj["sequences"] = [
        {"labels": np.frombuffer(labels, dtype=np.int64),
         "sensors": {key: np.frombuffer(block).reshape(-1, 9) for key, block in blocks.items()}}
        for labels, blocks in sequences
    ]
    return obj


def _detect_format(path: Path) -> str:
    suffix = path.suffix.lower().lstrip(".")
    if suffix in ("csv", "json"):
        return suffix
    raise SchemaError(f"cannot infer format from {path.name!r}: expected .json or .csv")


def _row_texts(block: np.ndarray) -> list[bytes]:
    """Each row of a C-contiguous 2-D int64 or float64 array as its
    comma-separated numbers, spelled as orjson spells them in JSON."""
    return orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY)[2:-2].split(b"],[")


def save_recording(rec: SessionRecording, path: str | Path) -> None:
    """Write a recording to disk in the canonical JSON or CSV format.

    JSON round-trips bit-exactly, meta included. CSV keeps every sample
    and label bit for bit but drops layout locations, meta and the sample
    rate. Its rows run tick by tick, sensors in id order within a tick.
    Both formats spell a float the shortest way that reads back exactly
    (``1e-7``, ``0.000015``, ``1e16``). A CSV of a recording whose rate is
    not 60 Hz emits a UserWarning naming the mapping line
    (``sample_rate_hz=<rate>``) that loads it back at its rate. A CSV loads
    back with its highest label + 1 classes: when that differs from
    ``rec.class_count`` a UserWarning says so, and when it is below 2 the
    save raises ValidationError. Nothing is written when the recording or
    its meta fails a check.
    """
    path = Path(path)
    fmt = _detect_format(path)
    validate_recording(rec, protocol="none")
    if fmt == "json":
        _check_meta(rec.meta)
        try:
            text = orjson.dumps(_rec_to_dict(rec), option=orjson.OPT_SERIALIZE_NUMPY)
        except orjson.JSONEncodeError as exc:
            raise ValidationError(f"cannot write the recording as JSON: {exc}") from exc
        path.write_bytes(text)
        return
    classes = max(int(seq.labels.max()) for seq in rec.sequences) + 1
    if classes < 2:
        raise ValidationError("every label is 0, so a CSV of this recording would load back "
                              "with 1 class (a CSV's class count is its highest label + 1)")
    if classes != rec.class_count:
        warnings.warn(f"a CSV holds no class count: this {rec.class_count}-class recording "
                      f"loads back with {classes} classes", stacklevel=2)
    rate = float(rec.sample_rate_hz)
    if rate != _RATE_HZ:
        warnings.warn(
            f"a CSV holds no sample rate: this {rate:g} Hz recording loads back at "
            f"{_RATE_HZ:g} Hz unless its import mapping has the line sample_rate_hz={rate!r}",
            stacklevel=2,
        )
    # Every field is an integer or a JSON number, so none needs quoting.
    with path.open("wb") as fh:
        fh.write(",".join(CSV_HEADER).encode() + b"\n")
        for qi, seq in enumerate(rec.sequences, start=1):
            by_id = np.argsort(seq.sensor_ids)
            n, s = seq.n_ticks, len(by_id)
            values = np.ascontiguousarray(seq.samples[:, by_id], dtype=np.float64).reshape(n * s, 9)
            heads = np.stack([np.repeat(np.arange(n), s), np.tile(np.sort(seq.sensor_ids), n)],
                             axis=1, dtype=np.int64)
            tails = np.stack([np.repeat(seq.labels, s), np.full(n * s, qi)],
                             axis=1, dtype=np.int64)
            rows = zip(_row_texts(heads), _row_texts(values), _row_texts(tails))
            fh.write(b"\n".join(map(b",".join, rows)) + b"\n")


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


def _csv_fields(mapping: ImportMapping) -> tuple[list[str], np.dtype]:
    """The header names of the key and value columns under ``mapping``, and
    the dtype of a data row: the int64 keys, then the (9,) float64 values
    ((3,) pitch, roll and yaw in angles mode)."""
    values = ("pitch", "roll", "yaw") if mapping.mode == "angles" else CSV_HEADER[2:11]
    names = [mapping.actual(c) for c in (*_CSV_KEYS, *values)]
    dtype = np.dtype(
        [(k, np.int64) for k in _CSV_KEYS] + [("values", np.float64, (len(values),))]
    )
    return names, dtype


def _usecols(header: list[str], names: list[str]) -> list[int]:
    """The column of each of ``names`` in ``header``; a repeated column name
    means its last column, as in csv.DictReader. SchemaError naming the
    missing names."""
    index = {name: i for i, name in enumerate(header)}
    missing = [a for a in names if a not in index]
    if missing:
        raise SchemaError(f"missing CSV columns: {missing}")
    return [index[a] for a in names]


# The bytes of a header line the compiled route splits at its commas, as
# csv.reader splits it: printable ASCII but the quote.
_PLAIN_HEADER = bytes(range(0x20, 0x7F)).replace(b'"', b"")


def _read_csv_compiled(data: bytes, mapping: ImportMapping | None = None) -> np.ndarray | None:
    """The data rows of the recording CSV ``data`` as the kernel's
    ``read_csv`` reads them, or None when it refuses the text.

    The rows are the structured array ``np.loadtxt`` gives for the file,
    bit for bit, in file order, read in one pass with no Python object per
    field. The route takes a header line of printable ASCII but the quote,
    naming every column ``mapping`` reads, and then only the shape
    ``save_recording`` writes, in any row order, with LF or CRLF line
    ends, blank lines, no final newline and unquoted extra columns."""
    mapping = mapping or ImportMapping()
    end = data.find(b"\n")
    start = len(data) if end < 0 else end + 1
    line = data[:start].removesuffix(b"\n").removesuffix(b"\r")
    if not line or line.translate(None, _PLAIN_HEADER):
        return None
    names, dtype = _csv_fields(mapping)
    try:
        usecols = _usecols(line.decode("ascii").split(","), names)
    except SchemaError:
        return None
    keys = len(_CSV_KEYS)
    rows = _kernel.read_csv(data, start, usecols[:keys], usecols[keys:])
    return None if rows is None else np.frombuffer(rows, dtype=dtype)


def _loadtxt_rows(path: Path, mapping: ImportMapping) -> np.ndarray:
    """The data rows of the CSV at ``path`` as ``np.loadtxt`` reads them,
    quoted fields included, its header read by csv.reader; a ParseError
    naming the physical line of the first row it cannot parse."""
    names, dtype = _csv_fields(mapping)
    try:
        with path.open("r", encoding="utf-8", newline="") as fh:
            header = next(csv.reader(fh), None)
            if header is None:
                raise ParseError("empty CSV file", line=1)
            usecols = _usecols(header, names)
            try:
                with warnings.catch_warnings():
                    warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                    return np.loadtxt(
                        fh, delimiter=",", usecols=usecols, dtype=dtype,
                        quotechar='"', comments=None, ndmin=1,
                    )
            except ValueError as exc:
                raise _parse_failure(path, usecols, len(header), exc) from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"unreadable CSV: {exc}") from exc


def _load_csv(path: Path, mapping: ImportMapping | None) -> SessionRecording:
    """The recording of the CSV at ``path``: its rows read by
    ``_read_csv_compiled`` when it takes the text, else by
    ``np.loadtxt``, which gives the same values and the errors and line
    numbers of malformed text; then grouped by sequence, tick and sensor
    and scaled (or turned from angles into raw samples) by ``mapping``."""
    mapping = mapping or ImportMapping()
    # Test for None, not falsiness: a rate of 0 must reach the rate check.
    rate = _RATE_HZ if mapping.sample_rate_hz is None else mapping.sample_rate_hz
    # The file's bytes are a temporary, dropped before the rows are grouped.
    rows = _read_csv_compiled(path.read_bytes(), mapping)
    if rows is None:
        rows = _loadtxt_rows(path, mapping)

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

    sensor_ids = tuple(np.unique(sensor).tolist())
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
        samples = rows["values"][order[lo:hi].reshape(n, n_sensors)]
        if mapping.mode == "angles":
            samples = angles_to_raw(samples, rate)
        else:
            samples[..., 0:3] *= mapping.scale_acc
            samples[..., 3:6] *= mapping.scale_gyro
            samples[..., 6:9] *= mapping.scale_mag
        sequences.append(Sequence(sensor_ids, samples, lab[heads]))

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

    A JSON's ``sequences`` are read by the compiled kernel's ``read_json``
    in one pass when they have the shape ``save_recording`` writes (any
    whitespace, any other top-level keys), and the rest by orjson, which
    reads all the kernel refuses; json.loads reads what orjson refuses.
    Each gives the same values bit for bit. A sample that is a bool or a
    string, or a ``meta`` that is not an object, is a SchemaError.

    A CSV is read as bytes once, and its rows by the compiled kernel's
    ``read_csv`` in one pass when the text has the shape
    ``save_recording`` writes (any row order, LF or CRLF, blank lines,
    unquoted extra columns), else by ``np.loadtxt``, which gives the
    same values bit for bit and names the line of a row it cannot parse.

    Args:
        path: file to read; a ``.json`` or ``.csv`` suffix names the format.
        mapping: optional ImportMapping for foreign CSVs.
        validate: protocol check mode ("strict", "warn", "none").

    Raises:
        ParseError / SchemaError / AlignmentError on malformed input.
    """
    path = Path(path)
    if _detect_format(path) == "json":
        rec = _rec_from_dict(_read_json(path.read_bytes()))
    else:
        rec = _load_csv(path, mapping)
    validate_recording(rec, protocol=validate)
    return rec


# ---------------------------------------------------------------------------
# Synthetic sessions


def _default_layout(sensor_count: int) -> list[SensorInfo]:
    if not (isinstance(sensor_count, numbers.Integral) and 1 <= sensor_count <= MAX_SENSORS):
        raise ValidationError(
            f"sensor_count must be an integer in [1, {MAX_SENSORS}], got {sensor_count!r}"
        )
    return [
        SensorInfo(i + 1, _DEFAULT_LOCATIONS[i]) for i in range(sensor_count)
    ]


# Unit directions: one signed axis per class 1-6, then the pitch-roll
# diagonals that classes 7-8 move along when only one sensor is worn.
_AXIS_DIRS = np.array([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)],
                      dtype=np.float64)
_DIAGONALS = np.array([(0.7071067811865476, 0.7071067811865476, 0.0),
                       (0.7071067811865476, -0.7071067811865476, 0.0)])


def _class_targets(
    class_count: int, n_sensors: int, amplitude_deg: float
) -> tuple[np.ndarray, np.ndarray]:
    """Distinct relative-angle targets per class.

    The first six motion classes exercise one signed axis each on the
    primary sensor; later classes move secondary sensors, falling back to
    diagonal combinations when only one sensor is worn. Returns a
    (class_count, S, 3) table of degrees, whose row 0 (neutral) is zero,
    and per class the index of the sensor carrying the motion.
    """
    table = np.zeros((class_count, n_sensors, 3))
    carrier = np.zeros(class_count, dtype=np.int64)
    for cls in range(1, class_count):
        extra = cls - 7  # 0 or 1 for the classes past the six axes
        if cls <= 6:
            j, direction = 0, _AXIS_DIRS[cls - 1]
        elif n_sensors > 1 + extra:
            j, direction = 1 + extra, _AXIS_DIRS[0]
        elif n_sensors > 1:
            j, direction = 1, _AXIS_DIRS[2 + extra]
        else:
            j, direction = 0, _DIAGONALS[extra]
        table[cls, j] = direction * amplitude_deg
        carrier[cls] = j
    return table, carrier


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


def _spasm_profile(rng: np.random.Generator, length: int) -> np.ndarray:
    """Continuous band-limited modulation in [-1, 1] modelling involuntary
    motion: low-pass filtered noise rescaled so its extremes touch the
    requested amplitude."""
    kernel_len = int(0.4 * _RATE_HZ)
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
    motion_s: float = 5.0,
    transition_s: float = 0.5,
) -> SessionRecording:
    """Generate a protocol-shaped synthetic 60 Hz session with known ground
    truth.

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
        spasm_class: the motion class, in [1, class_count - 1], that
            ``spasm_deg`` modulates.
        amplitudes: per-repetition amplitude factors (e.g. (0.4, 1.0,
            1.6) for a multi-amplitude session); None keeps 1.0.
        class_scale: optional per-class target scaling (low-range
            motion), keyed by motion class in [1, class_count - 1].
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

    Raises:
        ValidationError: an argument is out of range or not finite; the
            message names it and its value.
    """
    if not (isinstance(class_count, numbers.Integral) and 2 <= class_count <= MAX_CLASSES):
        raise ValidationError(
            f"class_count must be an integer in [2, {MAX_CLASSES}] (neutral plus at most "
            f"{MAX_CLASSES - 1} motions), got {class_count!r}"
        )
    if not (isinstance(n_sequences, numbers.Integral) and n_sequences >= 1):
        raise ValidationError(f"n_sequences must be an integer >= 1, got {n_sequences!r}")
    if not all(isinstance(v, numbers.Integral) and v >= 0 for v in (seed, rotation_seed or 0)):
        raise ValidationError("seed and rotation_seed must be integers >= 0, "
                              f"got {seed!r} and {rotation_seed!r}")
    amp_by_rep = [1.0] * _REPS if amplitudes is None else list(amplitudes)
    if len(amp_by_rep) != _REPS:
        raise ValidationError(
            f"amplitudes needs one factor per repetition ({_REPS}), got {len(amp_by_rep)}"
        )
    class_scale = dict(class_scale or {})
    for name, value, floor in (
        ("noise_deg", noise_deg, 0.0), ("spasm_deg", spasm_deg, 0.0),
        ("motion_s", motion_s, 0.0), ("transition_s", transition_s, 0.0),
        ("amplitude_deg", amplitude_deg, -math.inf),
        ("target_rotation_deg", target_rotation_deg, -math.inf),
        ("target_bias_deg", target_bias_deg, -math.inf),
        *((f"amplitudes[{i}]", a, -math.inf) for i, a in enumerate(amp_by_rep)),
        *((f"class_scale[{c!r}]", f, -math.inf) for c, f in class_scale.items()),
    ):
        if not _real_in(value, floor, math.inf):
            at_least = " >= 0" if floor == 0.0 else ""
            raise ValidationError(f"{name} must be a finite number{at_least}, got {value!r}")
    for name, cls in ((f"spasm_class {spasm_class!r}", spasm_class),
                      *((f"class_scale entry {c!r}:{f!r}", c) for c, f in class_scale.items())):
        if cls not in range(1, class_count):
            raise ValidationError(f"{name} names no motion class in [1, {class_count - 1}]")
    layout = _default_layout(sensor_count)
    sensor_ids = tuple(s.id for s in layout)

    rng = np.random.default_rng(seed)
    motion_ticks = int(round(motion_s * _RATE_HZ))
    half = int(round(transition_s * _RATE_HZ)) // 2  # ramp ticks on each side
    if motion_ticks < 2 * half + 2:
        raise ValidationError("motion runs too short for the transition length")

    table, carrier = _class_targets(class_count, sensor_count, amplitude_deg)
    for cls, factor in class_scale.items():
        table[int(cls)] *= float(factor)
    if target_rotation_deg or target_bias_deg:
        rot_rng = rng if rotation_seed is None else np.random.default_rng(rotation_seed)
        if target_rotation_deg:
            rot = _rotation_about_random_axis(rot_rng, target_rotation_deg)
            # One product per vector: a batched matmul rounds differently.
            for vec in table[1:].reshape(-1, 3):
                vec[:] = rot @ vec
        if target_bias_deg:
            direction = rot_rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            table[np.arange(1, class_count), carrier[1:]] += direction * target_bias_deg

    base = np.array([
        [rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0), rng.uniform(-60.0, 60.0)]
        for _ in sensor_ids
    ])
    # Motion slots in protocol order; each run is one slot or a neutral run.
    slot_class = np.repeat(np.arange(1, class_count), _REPS)
    slot_amp = np.tile(amp_by_rep, class_count - 1)
    n_runs = 2 * len(slot_class) + 1
    # Cosine ramps centered on each label boundary; the first tick of the
    # incoming run sits just past the halfway point.
    weights = np.array([0.5 * (1.0 - math.cos(math.pi * (i + 0.5) / (2 * half)))
                        for i in range(2 * half)])
    bounds = np.arange(1, n_runs) * motion_ticks
    ramp_ticks = bounds[:, None] + np.arange(-half, half)

    sequences: list[Sequence] = []
    for qi in range(n_sequences):
        order = np.arange(len(slot_class))
        if shuffle_test_seq and qi == n_sequences - 1:
            rng.shuffle(order)
        run_class = np.zeros(n_runs, dtype=np.int64)
        run_class[1::2] = slot_class[order]
        run_amp = np.ones(n_runs)
        run_amp[1::2] = slot_amp[order]
        labels = np.repeat(run_class, motion_ticks)
        rel = table[labels]
        rel *= np.repeat(run_amp, motion_ticks)[:, None, None]
        before, after = rel[bounds - half - 1], rel[bounds + half]
        rel[ramp_ticks] = before[:, None] + weights[:, None, None] * (after - before)[:, None]

        j = carrier[spasm_class]
        norm = np.linalg.norm(table[spasm_class, j])
        if spasm_deg > 0 and norm > 0:
            for run in np.flatnonzero(run_class == spasm_class):
                lo, hi = run * motion_ticks + half, (run + 1) * motion_ticks - half
                u = _spasm_profile(rng, hi - lo)
                rel[lo:hi, j] += np.outer(u * spasm_deg, table[spasm_class, j] / norm)

        absolute = rel + base
        if noise_deg > 0:
            # Drawn sensor by sensor, as S draws of (T, 3) would be.
            absolute += rng.normal(0.0, noise_deg, (sensor_count, len(labels), 3)).swapaxes(0, 1)
        sequences.append(Sequence(sensor_ids, angles_to_raw(absolute, _RATE_HZ), labels))

    meta = {
        "source": "synthetic",
        "seed": int(seed),
        "noise_deg": float(noise_deg),
        "spasm_deg": float(spasm_deg),
        "spasm_class": int(spasm_class),
        "amplitude_deg": float(amplitude_deg),
        "amplitudes": [float(a) for a in amp_by_rep],
        "ticks_per_sequence": n_runs * motion_ticks,
        "motion_ticks": motion_ticks,
        "class_targets": {
            str(cls): {str(sid): table[cls, j].tolist() for j, sid in enumerate(sensor_ids)}
            for cls in range(1, class_count)
        },
        "class_sensors": {str(cls): sensor_ids[j]
                          for cls, j in enumerate(carrier.tolist()) if cls},
        "base_orientation": {str(sid): base[j].tolist() for j, sid in enumerate(sensor_ids)},
    }
    rec = SessionRecording(
        sample_rate_hz=_RATE_HZ,
        class_count=class_count,
        sensor_layout=layout,
        sequences=sequences,
        meta=meta,
    )
    validate_recording(rec, protocol="strict", motion_s=motion_s)
    return rec
