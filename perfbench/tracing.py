"""Span tracing for the traced benchmark run.

Each public bomi function a layer exposes is wrapped at the name its
callers look up (a module global such as ``bomi.experiments.fuse_sequence``
or a class attribute such as ``ComplementaryFilter.step``). A wrapper
records one span: name, start, end, parent span, and the id of the
operation it belongs to (spans opened while no other span is open start a
new operation). Spans live in flat arrays in memory and are written to an
``.npz`` file at the end. A layer's number is its self time: the span's
duration minus the durations of its child spans.
"""

from __future__ import annotations

import os
import time
from array import array

import numpy as np

# Offline fusion calls ComplementaryFilter.step once per tick and sensor;
# those calls belong to the fusion layer already timed by the enclosing
# fuse_sequence span, so they are not recorded separately. Only streaming
# filter steps (parent pipeline.step) become fusion.step spans.
FUSE = "fusion.fuse_sequence"
FILTER_STEP = "fusion.step"


class Tracer:
    """In-memory span recorder plus per-span counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._ops = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, nid: int) -> int:
        i = len(self.start)
        stack = self._stack
        if stack:
            self.parent.append(stack[-1])
            self.op.append(self.op[stack[-1]])
        else:
            self._ops += 1
            self.parent.append(-1)
            self.op.append(self._ops)
        self.name.append(nid)
        self.end.append(0)
        stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    def inside(self, nid: int) -> bool:
        return bool(self._stack) and self.name[self._stack[-1]] == nid

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def wrap(self, fn, name: str, count=None):
        """Return ``fn`` wrapped so each call records a span named ``name``.

        ``count(tracer, args, kwargs, result)`` runs after the call, outside
        the span, to add per-call counters.
        """
        nid = self.name_id(name)
        begin, finish = self.begin, self.finish

        def traced(*args, **kwargs):
            i = begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(i)
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return traced

    def wrap_filter_step(self, fn):
        """Like ``wrap`` for ComplementaryFilter.step, skipping offline calls."""
        traced = self.wrap(fn, FILTER_STEP)
        fuse = self.name_id(FUSE)
        inside = self.inside

        def step(*args, **kwargs):
            if inside(fuse):
                return fn(*args, **kwargs)
            return traced(*args, **kwargs)

        return step

    def summary(self, clock) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, self seconds.

        ``clock`` maps ``perf_counter`` seconds to the seconds reported.
        """
        n = len(self.start)
        out: dict[str, dict[str, float]] = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names
        }
        if n == 0:
            return out
        dur = (clock(np.frombuffer(self.end, dtype=np.int64) / 1e9)
               - clock(np.frombuffer(self.start, dtype=np.int64) / 1e9))
        parent = np.frombuffer(self.parent, dtype=np.int64)
        names = np.frombuffer(self.name, dtype=np.int32)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=self_time, minlength=k)
        for j, name in enumerate(self.names):
            out[name] = {
                "calls": int(calls[j]),
                "total_s": float(total[j]),
                "self_s": float(own[j]),
            }
        return out

    def write(self, path: str | os.PathLike) -> None:
        """Write every span to ``path`` as a NumPy ``.npz`` archive."""
        np.savez(
            path,
            names=np.asarray(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int64),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )


# ---------------------------------------------------------------------------
# Counters attached to wrappers


def _bytes_read(tr, args, kwargs, result):
    tr.add("bytes_read", os.path.getsize(args[0]))


def _bytes_written(tr, args, kwargs, result):
    tr.add("bytes_written", os.path.getsize(args[1]))


def _sensor_samples(tr, args, kwargs, result):
    tr.add("sensor_samples", result.angles.shape[0] * result.angles.shape[1])


def _windows(tr, args, kwargs, result):
    tr.add("windows", len(result))


def _extract_rows(tr, args, kwargs, result):
    tr.add("extract_rows", len(result))


def _fit_rows(tr, args, kwargs, result):
    tr.add("fit_rows", len(args[0]))


def _predict_many_rows(tr, args, kwargs, result):
    tr.add("predict_many_rows", len(result))


def _emitted(tr, args, kwargs, result):
    if result is not None:
        tr.add("emitted", 1)


def install(tracer: Tracer, bomi) -> list[tuple[object, str, object]]:
    """Wrap every traced bomi name; return what ``uninstall`` needs to undo it.

    The benchmark marks its own operations (a CLI command, one wearer's
    tick) by calling through ``tracer.wrap``, so they become root spans.
    """
    cli, ex = bomi.cli, bomi.experiments
    targets = [
        (cli, "load_recording", "dataset_io.load", _bytes_read),
        (ex, "load_recording", "dataset_io.load", _bytes_read),
        (cli, "save_recording", "dataset_io.save", _bytes_written),
        (cli, "synth_session", "dataset_io.synth", None),
        (bomi.dataset_io.Sequence, "tick_samples", "dataset_io.tick_samples", None),
        (ex, "fuse_sequence", FUSE, _sensor_samples),
        (cli, "sequence_windows", "features.windows", _windows),
        (ex, "sequence_windows", "features.windows", _windows),
        (ex, "extract_matrix", "features.extract_matrix", _extract_rows),
        (ex, "learn_ranges", "features.learn_ranges", None),
        (bomi.pipeline, "extract", "features.extract", None),
        (ex, "fit", "lda.fit", _fit_rows),
        (ex, "predict_many", "lda.predict_many", _predict_many_rows),
        (cli, "serialize", "lda.serialize", None),
        (cli, "deserialize", "lda.deserialize", None),
        (bomi.pipeline, "predict", "lda.predict", None),
        (bomi.pipeline.StreamingPipeline, "step", "pipeline.step", _emitted),
        (bomi.pipeline.VirtualDevice, "send", "pipeline.device_send", None),
        (cli, "train_session", "experiments.train_session", None),
        (ex, "train_session", "experiments.train_session", None),
        (cli, "evaluate", "experiments.evaluate", None),
        (ex, "evaluate", "experiments.evaluate", None),
        (cli, "run_all", "experiments.run_all", None),
    ]
    saved = []
    for owner, attr, name, count in targets:
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(original, name, count))
    filt = bomi.fusion.ComplementaryFilter
    saved.append((filt, "step", filt.__dict__["step"]))
    filt.step = tracer.wrap_filter_step(filt.__dict__["step"])
    return saved


def uninstall(saved: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Per-layer metrics


def layer_metrics(tracer: Tracer, clock) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of one traced round: name -> (value, unit).

    Times are taken on ``clock``, as in ``Tracer.summary``.
    """
    s = tracer.summary(clock)
    c = tracer.counts

    def self_s(name):
        return s.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return s.get(name, {}).get("calls", 0)

    def per_call_us(name):
        n = calls(name)
        return self_s(name) / n * 1e6 if n else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    load_s = self_s("dataset_io.load")
    bytes_read = c.get("bytes_read", 0.0)
    fuse_s = self_s(FUSE)
    extract_s = self_s("features.extract_matrix")
    steps = calls("pipeline.step")
    emitted = c.get("emitted", 0.0)
    return {
        "dataset_io.load_s": (load_s, "s"),
        "dataset_io.load_mb_per_s": (ratio(bytes_read / 1e6, load_s), "MB/s"),
        "dataset_io.bytes_read": (bytes_read, "bytes"),
        "dataset_io.save_s": (self_s("dataset_io.save"), "s"),
        "dataset_io.bytes_written": (c.get("bytes_written", 0.0), "bytes"),
        "dataset_io.synth_s": (self_s("dataset_io.synth"), "s"),
        "dataset_io.tick_samples_us": (per_call_us("dataset_io.tick_samples"), "us"),
        "fusion.fuse_calls": (calls(FUSE), "count"),
        "fusion.fuse_s": (fuse_s, "s"),
        "fusion.us_per_sensor_sample": (ratio(fuse_s * 1e6, c.get("sensor_samples", 0.0)), "us"),
        "fusion.step_calls": (calls(FILTER_STEP), "count"),
        "fusion.step_us": (per_call_us(FILTER_STEP), "us"),
        "features.windows_s": (self_s("features.windows"), "s"),
        "features.windows": (c.get("windows", 0.0), "count"),
        "features.extract_matrix_s": (extract_s, "s"),
        "features.us_per_window": (ratio(extract_s * 1e6, c.get("extract_rows", 0.0)), "us"),
        "features.learn_ranges_s": (self_s("features.learn_ranges"), "s"),
        "features.extract_us": (per_call_us("features.extract"), "us"),
        "lda.fit_calls": (calls("lda.fit"), "count"),
        "lda.fit_rows": (c.get("fit_rows", 0.0), "count"),
        "lda.fit_s": (self_s("lda.fit"), "s"),
        "lda.predict_many_s": (self_s("lda.predict_many"), "s"),
        "lda.predict_many_rows": (c.get("predict_many_rows", 0.0), "count"),
        "lda.serialize_s": (self_s("lda.serialize"), "s"),
        "lda.deserialize_s": (self_s("lda.deserialize"), "s"),
        "lda.predict_us": (per_call_us("lda.predict"), "us"),
        "pipeline.steps": (steps, "count"),
        "pipeline.emitted": (emitted, "count"),
        "pipeline.emit_ratio": (ratio(emitted, steps), "ratio"),
        "pipeline.step_self_us": (per_call_us("pipeline.step"), "us"),
        "pipeline.device_send_us": (per_call_us("pipeline.device_send"), "us"),
        "experiments.train_session_calls": (calls("experiments.train_session"), "count"),
        "experiments.train_session_self_s": (self_s("experiments.train_session"), "s"),
        "experiments.evaluate_calls": (calls("experiments.evaluate"), "count"),
        "experiments.evaluate_self_s": (self_s("experiments.evaluate"), "s"),
        "experiments.run_all_self_s": (self_s("experiments.run_all"), "s"),
        "cli.self_s": (self_s("cli.main"), "s"),
    }
