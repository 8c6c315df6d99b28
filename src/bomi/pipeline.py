"""Real-time streaming engine: samples in, device commands out.

One pipeline instance consumes tick-aligned samples from all worn
sensors, fuses them, keeps rings of per-tick feature channels and
amplitudes, and emits one classified, amplitude-scaled command
per window once a window is full (the default 8-tick window with a
7-tick overlap makes the window rate equal the sample rate). The first
``calib_ticks`` ticks are consumed to estimate the neutral offset and
produce no output.

The pipeline is single-threaded and deterministic: one producer feeds
``step``; downstream consumers receive immutable CommandOutput records.
"""

from __future__ import annotations

import csv
import math
import time
from collections import Counter, deque
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence as SequenceT

import numpy as np

from .dataset_io import SessionRecording, check_sequence_indices
from .errors import LayoutError, MappingError, ValidationError
# The stream does not call extract. The name stays because the traced
# benchmark run (perfbench/tracing.py) wraps bomi.pipeline.extract.
from .features import channel_index, extract, prop_output, window_labels  # noqa: F401
from .fusion import (
    FLAG_GAP,
    FLAG_SETS,
    _kernel,
    _real_in,
    _sample_period,
    calibrate_neutral,
)
from .lda import LdaModel, predict

DEFAULT_V_MAX_CM_S = 20.0


class Command(str, Enum):
    """Joystick-style device commands."""

    F = "F"
    B = "B"
    R = "R"
    L = "L"
    RR = "Rr"
    LR = "Lr"
    B1 = "B1"
    B2 = "B2"
    NEUTRAL = "NEUTRAL"


BUTTONS = (Command.B1, Command.B2)

# End-effector displacement direction per axis command (unit vectors).
DIRECTIONS: dict[Command, tuple[float, float, float]] = {
    Command.F: (0.0, -1.0, 0.0),
    Command.B: (0.0, 1.0, 0.0),
    Command.R: (-1.0, 0.0, 0.0),
    Command.L: (1.0, 0.0, 0.0),
    Command.RR: (0.0, 0.0, 1.0),
    Command.LR: (0.0, 0.0, -1.0),
}

_DEFAULT_ORDER = (
    Command.F, Command.B, Command.R, Command.L,
    Command.RR, Command.LR, Command.B1, Command.B2,
)


@dataclass
class CommandMapping:
    """Class-to-command table plus speed scaling.

    Must cover every class the model can predict; the neutral class maps
    to NEUTRAL. Buttons are edge-triggered (one event per entry into the
    class); axis commands are level-triggered and scale with nu * v_max.
    """

    table: dict[int, Command]
    v_max: float = DEFAULT_V_MAX_CM_S

    def __post_init__(self) -> None:
        if self.table.get(0, Command.NEUTRAL) is not Command.NEUTRAL:
            raise MappingError("class 0 must map to NEUTRAL")
        self.table.setdefault(0, Command.NEUTRAL)
        if not (_real_in(self.v_max, 0.0, math.inf) and self.v_max > 0):
            raise ValidationError(
                f"v_max must be a finite positive number, got {self.v_max!r}"
            )

    def command_for(self, cls: int) -> Command:
        try:
            return self.table[cls]
        except KeyError:
            raise MappingError(f"class {cls} has no command mapping") from None

    def validate_classes(self, classes: Iterable[int]) -> None:
        missing = [c for c in classes if c not in self.table]
        if missing:
            raise MappingError(f"classes {missing} have no command mapping")

    @staticmethod
    def default(classes: Iterable[int], v_max: float = DEFAULT_V_MAX_CM_S) -> "CommandMapping":
        """c1..c8 onto F, B, R, L, Rr, Lr, B1, B2; c0 onto NEUTRAL."""
        table: dict[int, Command] = {0: Command.NEUTRAL}
        for cls in sorted(int(c) for c in classes):
            if cls == 0:
                continue
            if cls > len(_DEFAULT_ORDER):
                raise MappingError(f"no default command for class {cls}")
            table[cls] = _DEFAULT_ORDER[cls - 1]
        return CommandMapping(table=table, v_max=v_max)


class CommandOutput(NamedTuple):
    """One pipeline emission: prediction, amplitude, device command.

    The command is NEUTRAL exactly when the predicted class is neutral.
    Button commands report their held state every window; button_event
    is True only on entry into the class (the click edge).
    """

    tick: int
    label: int
    nu: float
    command: Command
    velocity: float
    latency_ms: float
    timestamp_ms: float
    button_event: bool = False
    flags: tuple[str, ...] = ()


def map_command(
    cls: int,
    nu: float,
    mapping: CommandMapping,
    previous_cls: int | None = None,
) -> tuple[Command, float, bool]:
    """Resolve a prediction to (command, velocity, button_event).

    Axis commands are level-triggered and carry velocity nu * v_max
    while the class holds. Button commands carry zero velocity and raise
    button_event only on entry into the class (``previous_cls``
    differs), like clicking rather than holding a joystick button.
    """
    command = mapping.command_for(cls)
    if command is Command.NEUTRAL:
        return command, 0.0, False
    if command in BUTTONS:
        return command, 0.0, previous_cls != cls
    return command, nu * mapping.v_max, False


class _MajoritySmoother:
    """Mode of the last k predictions; ties keep the previous output."""

    def __init__(self, k: int):
        if k < 1:
            raise ValidationError(f"majority window must be >= 1, got {k}")
        self.k = k
        self._recent: deque[int] = deque(maxlen=k)
        self._last: int | None = None

    def push(self, cls: int) -> int:
        self._recent.append(cls)
        counts = Counter(self._recent).most_common()
        best = counts[0][1]
        tied = sorted(c for c, n in counts if n == best)
        if len(tied) > 1 and self._last in tied:
            out = self._last
        else:
            out = tied[0]
        self._last = out
        return out


def make_smoother(policy: str) -> Callable[[int], int]:
    """Build a per-prediction smoothing function.

    policy is "none" (identity, the default) or "majority:k".
    """
    if policy == "none":
        return lambda cls: cls
    if policy.startswith("majority:"):
        try:
            k = int(policy.split(":", 1)[1])
        except ValueError:
            raise ValidationError(
                f"smoothing policy {policy!r}: majority window must be an integer"
            ) from None
        return _MajoritySmoother(k).push
    raise ValidationError(f"unknown smoothing policy {policy!r}")


def max_consecutive_disagreements(
    predictions: SequenceT[int], reference: SequenceT[int]
) -> int:
    """Longest run of predictions that disagree with the reference."""
    if len(predictions) != len(reference):
        raise ValidationError(f"stream lengths differ: {len(predictions)} vs {len(reference)}")
    # Runs of disagreement start at the even edges and end at the odd ones.
    wrong = np.asarray(predictions) != np.asarray(reference)
    edges = np.flatnonzero(np.diff(wrong, prepend=False, append=False))
    return int((edges[1::2] - edges[::2]).max(initial=0))


@dataclass
class StreamStats:
    """Throughput and agreement statistics for one replayed stream, counted
    by ``add``; only the latencies (for exact percentiles) grow with it."""

    windows: int = 0
    dropped_ticks: int = 0
    latencies_ms: list[float] = field(default_factory=list)
    mixed_windows: int = 0
    correct_unmixed: int = 0
    total_unmixed: int = 0
    run: int = 0
    longest_run: int = 0
    wall_time_s: float = 0.0
    sample_rate_hz: float = 60.0

    def add(self, label: int, reference: int, mixed: bool, latency_ms: float) -> None:
        """Count one emission: class, label at its tick, mixedness, latency."""
        agree = label == reference
        self.windows += 1
        self.latencies_ms.append(latency_ms)
        self.run = 0 if agree else self.run + 1
        self.longest_run = max(self.longest_run, self.run)
        self.mixed_windows += bool(mixed)
        self.total_unmixed += not mixed
        self.correct_unmixed += bool(agree and not mixed)

    def latency_mean_ms(self) -> float:
        return float(np.mean(self.latencies_ms)) if self.latencies_ms else 0.0

    def latency_percentile_ms(self, q: float) -> float:
        return float(np.percentile(self.latencies_ms, q)) if self.latencies_ms else 0.0

    def accuracy(self) -> float | None:
        if self.total_unmixed == 0:
            return None
        return 100.0 * self.correct_unmixed / self.total_unmixed

    def max_run(self) -> int:
        return self.longest_run

    def max_run_ms(self) -> float:
        return self.max_run() * 1000.0 / self.sample_rate_hz

    def to_dict(self) -> dict:
        return {
            "windows": self.windows,
            "dropped_ticks": self.dropped_ticks,
            "mixed_windows": self.mixed_windows,
            "accuracy_pct": self.accuracy(),
            "max_consecutive_misclassifications": self.max_run(),
            "max_consecutive_misclassifications_ms": self.max_run_ms(),
            "latency_mean_ms": self.latency_mean_ms(),
            "latency_p50_ms": self.latency_percentile_ms(50),
            "latency_p99_ms": self.latency_percentile_ms(99),
            "latency_max_ms": max(self.latencies_ms) if self.latencies_ms else 0.0,
            "wall_time_s": self.wall_time_s,
        }


class StreamingPipeline:
    """Fusion -> window -> features -> classifier -> command, per tick.

    Feed ``step`` one tick at a time with 9 real numbers per worn sensor
    (acc, gyro, mag xyz). A missing sensor repeats its previous row and
    flags the output (wireless gap policy); ``dropped_ticks`` counts the
    ticks with such a gap. Outputs begin once calibration and the window
    buffer are complete. Fusion settings and window geometry are the model's.

    A tick is one call of the C kernel's ``tick`` entry: it checks every
    row, advances each sensor's filter, and once calibration is done
    writes the tick's wrapped angles, gyro values and amplitudes into the
    rings. Python keeps calibration, the emission decision, ``fv3``,
    ``predict``, the amplitude mean, ``prop_output`` and ``map_command``.
    """

    def __init__(
        self,
        model: LdaModel,
        mapping: CommandMapping | None = None,
        sample_rate_hz: float = 60.0,
        smoothing: str = "none",
    ):
        self.model = model
        self.mapping = mapping or CommandMapping.default(model.classes)
        self.mapping.validate_classes(int(c) for c in model.classes)
        self.layout = model.layout
        fusion = model.fusion
        self._filter = (fusion.alpha, _sample_period(sample_rate_hz), fusion.gimbal_guard_deg)
        self.sample_rate_hz = sample_rate_hz
        self.window = window = model.window
        self.stride = window - model.overlap
        n_sensors = self.layout.n_sensors
        # Per sensor, as the kernel keeps them: the last row seen (NaN
        # before the first), which a gap repeats; the filter's raw
        # (pitch, roll, yaw), before the offset; and the tick's flag bits.
        self._last = np.full((n_sensors, 9), np.nan)
        self._state = np.zeros((n_sensors, 3))
        self._bits = np.zeros(n_sensors, dtype=np.uint8)
        # The raw angles of the calibration ticks, (calib_ticks, S, 3);
        # None once calibrated.
        calib_ticks = fusion.calib_ticks
        self._calib = np.empty((calib_ticks, n_sensors, 3)) if calib_ticks else None
        self._calibrated = 0
        # (S, 3) neutral offsets; None while calibrating.
        self.offset: np.ndarray | None = None if calib_ticks else np.zeros((n_sensors, 3))
        # Rings written once per tick to rows k and k + window, so rows
        # k + 1 .. k + window are the window, oldest first. _channels holds
        # the feature channels that _pick selects from a tick's 3S angles
        # followed by its 3S gyro values, so an fv1 or fv2 window vector is
        # a view of it. _gamma holds each sensor's amplitude.
        self._pick = channel_index(model.feature_kind, n_sensors)
        self._channels = np.zeros((2 * window, len(self._pick)))
        self._gamma = np.zeros((2 * window, n_sensors))
        self._written = 0
        # fv3 writes each emitted window's (C, 2, 4) vector here, from
        # _channels with the window's first row in _fv3_row.
        self._fv3 = (np.zeros((1, len(self._pick), 2, 4))
                     if model.feature_kind == "fv3" else None)
        self._fv3_row = np.zeros(1, dtype=np.intp)
        self._smoother = make_smoother(smoothing)
        self._previous_cls: int | None = None
        self.dropped_ticks = 0

    def step(self, tick: int, samples: Mapping[int, SequenceT[float]]) -> CommandOutput | None:
        """Consume one tick of rows; emit a command once warmed up.

        Raises:
            ValidationError: a row is not 9 finite real numbers; the
                pipeline is left as it was before the call.
            LayoutError: a sensor has no row at stream start.
        """
        t0 = time.perf_counter()
        sensor_ids = self.layout.sensor_ids
        rows = list(map(samples.get, sensor_ids))
        offset = self.offset
        w = self.window
        k = self._written % w
        bits = _kernel.tick(rows, self._last, self._state, self._bits, *self._filter, offset,
                            self._pick, self._channels, self._gamma, k)
        if bits < 0:
            # -1 - si: sensor si's row was refused and nothing changed.
            sid, row = sensor_ids[~bits], rows[~bits]
            if row is None:
                raise LayoutError(f"no sample for sensor {sid} at stream start")
            raise ValidationError(
                f"sensor {sid} at tick {tick}: expected 9 finite numbers, got {row!r}"
            )
        if bits & _GAP_BIT:
            self.dropped_ticks += 1

        if offset is None:
            calib = self._calib
            calib[self._calibrated] = self._state
            self._calibrated += 1
            if self._calibrated == len(calib):
                self.offset = calibrate_neutral(calib.swapaxes(0, 1), len(calib))
                self._calib = None
            return None

        self._written += 1
        if self._written < w or (self._written - w) % self.stride:
            return None

        # The same values in the same order as extract gives.
        x = self._channels[k + 1:k + 1 + w]
        if self._fv3 is not None:
            self._fv3_row[0] = k + 1
            _kernel.fv3(self._channels, self._fv3_row, self._fv3)
            x = self._fv3
        cls = self._smoother(predict(self.model, x.reshape(-1)))

        nu = 0.0
        if cls != 0 and self.model.ranges is not None and cls in self.model.ranges.ranges:
            sid = self.model.ranges.class_sensor.get(cls, sensor_ids[0])
            si = sensor_ids.index(sid)
            # The window mean of tick_gamma: numpy's sum, then one division.
            gamma = float(np.add.reduce(self._gamma[k + 1:k + 1 + w, si]) / w)
            nu = prop_output(gamma, cls, self.model.ranges)
        command, velocity, button_event = map_command(
            cls, nu, self.mapping, self._previous_cls
        )
        self._previous_cls = cls
        latency_ms = (time.perf_counter() - t0) * 1000.0
        return CommandOutput(
            tick=tick,
            label=cls,
            nu=nu,
            command=command,
            velocity=velocity,
            latency_ms=latency_ms,
            timestamp_ms=tick * 1000.0 / self.sample_rate_hz,
            button_event=button_event,
            flags=_tick_flags(self._bits) if bits else (),
        )


# The kernel's flag bits per sensor: FLAG_SETS's three, and a gap.
_GAP_BIT = 8
_SENSOR_FLAGS: tuple[tuple[str, ...], ...] = tuple(
    (FLAG_GAP,) * bool(bits & _GAP_BIT) + FLAG_SETS[bits & 7] for bits in range(16)
)


def _tick_flags(bits: np.ndarray) -> tuple[str, ...]:
    """A tick's flags from each sensor's bits: sensors in layout order, a
    gap before that sensor's filter flags, each flag where it first occurs."""
    return tuple(dict.fromkeys(chain.from_iterable(map(_SENSOR_FLAGS.__getitem__,
                                                       bits.tolist()))))


class VirtualDevice:
    """Command sink integrating axis velocities into a 3-D position log."""

    def __init__(self, sample_rate_hz: float = 60.0):
        self.dt = _sample_period(sample_rate_hz)
        self.position: tuple[float, float, float] = (0.0, 0.0, 0.0)
        self.trajectory: list[tuple[int, float, float, float]] = []
        self.button_events: list[tuple[int, Command]] = []

    def send(self, out: CommandOutput) -> None:
        d = DIRECTIONS.get(out.command)
        if d is not None:
            step = out.velocity * self.dt
            x, y, z = self.position
            self.position = (x + d[0] * step, y + d[1] * step, z + d[2] * step)
        elif out.button_event:
            self.button_events.append((out.tick, out.command))
        self.trajectory.append((out.tick, *self.position))

    def write_log(self, path: str | Path) -> None:
        with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["tick", "x_cm", "y_cm", "z_cm"])
            writer.writerows(self.trajectory)


def write_command_log(outputs: SequenceT[CommandOutput], path: str | Path) -> None:
    """Write the per-window command log CSV."""
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["tick", "timestamp_ms", "class", "nu", "command", "velocity", "latency_ms"]
        )
        for o in outputs:
            writer.writerow(
                [o.tick, repr(o.timestamp_ms), o.label, repr(o.nu),
                 o.command.value, repr(o.velocity), repr(o.latency_ms)]
            )


def replay(
    recording: SessionRecording,
    model: LdaModel,
    mapping: CommandMapping | None = None,
    sequence_indices: SequenceT[int] | None = None,
    pace_hz: float = 0.0,
    smoothing: str = "none",
    log_path: str | Path | None = None,
    device: VirtualDevice | None = None,
) -> tuple[list[CommandOutput], StreamStats]:
    """Drive the streaming pipeline over a recorded session.

    Each selected sequence (1-based ``sequence_indices``, default all)
    runs through a fresh pipeline (per-sequence calibration).
    ``pace_hz`` > 0 sleeps to replay in real time; 0 replays as fast as
    possible; predictions are identical either way. Statistics compare
    each emitted class against the label at its emission tick; accuracy
    additionally excludes windows that span a label change.

    Raises:
        LayoutError: recording sensors do not match the model layout.
        SplitSpecError: a sequence index is out of range or repeats.
        ValidationError: ``pace_hz`` is not a finite number >= 0.
    """
    if not _real_in(pace_hz, 0.0, math.inf):
        raise ValidationError(f"pace must be a finite rate >= 0 Hz, got {pace_hz!r}")
    if tuple(recording.sensor_ids) != tuple(model.layout.sensor_ids):
        raise LayoutError(
            f"recording sensors {recording.sensor_ids} do not match model "
            f"layout {model.layout.sensor_ids}"
        )
    sequences = recording.sequences
    if sequence_indices is not None:
        check_sequence_indices(sequence_indices, len(sequences))
        sequences = [sequences[i - 1] for i in sequence_indices]

    stats = StreamStats(sample_rate_hz=recording.sample_rate_hz)
    outputs: list[CommandOutput] = []
    started = time.perf_counter()
    period = 1.0 / pace_hz if pace_hz > 0 else 0.0
    for seq in sequences:
        pipe = StreamingPipeline(
            model,
            mapping,
            sample_rate_hz=recording.sample_rate_hz,
            smoothing=smoothing,
        )
        # The window emitted at tick t starts at tick t - window + 1.
        labels = seq.labels.tolist()
        mixed = (window_labels(seq.labels, pipe.window) < 0).tolist()
        seq_start = time.perf_counter()
        for t in range(seq.n_ticks):
            out = pipe.step(t, seq.tick_samples(t))
            if out is not None:
                outputs.append(out)
                stats.add(out.label, labels[t], mixed[t - pipe.window + 1], out.latency_ms)
                if device is not None:
                    device.send(out)
            if period:
                next_due = seq_start + (t + 1) * period
                delay = next_due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
        stats.dropped_ticks += pipe.dropped_ticks
    stats.wall_time_s = time.perf_counter() - started
    if log_path is not None:
        write_command_log(outputs, log_path)
    return outputs, stats
