"""Print SHA-256 digests of bomi's deterministic outputs.

Run it on two checkouts and diff the output to show that a refactor left
every result bit-identical:

    PYTHONPATH=src python3 tools/hash_outputs.py --seed 1 > after.txt

Each line is ``<part> <digest>``. The parts cover:

* ``synth/*``: raw sample arrays, labels and meta (as sorted-key JSON) of
  ``synth_session`` for the test-suite fixtures, for sessions that reach
  its other branches and for the benchmark's sessions;
* ``model/*``: every array of the model trained on each session
  (``trained_at`` and other metadata are left out); the factor and the
  weights take no BLAS route, so these do not depend on the BLAS thread
  count (``OPENBLAS_NUM_THREADS``);
* ``windows/*``: offline windows of the held-out sequence (angles, gyro,
  labels, start ticks) and ``predict_many`` on them;
* ``scores/*``: the ``predict_scores`` bits, which pin the model's
  weights and biases where ``model/*`` pins its factor and means: as
  ``scores/wearer*`` on the ``extract_matrix`` of each wearer model's
  held-out windows, and as ``scores/cli_*`` for each quickstart model
  that ``deserialize`` loads, on the single-label windows ``bomi eval``
  scores it on;
* ``eval/*``: ``evaluate(...).to_dict()`` on those windows (accuracy,
  counts, confusion matrix and error structure), as sorted-key JSON;
* ``replay/*``: the ``StreamStats.to_dict()`` fields of ``replay`` over
  every sequence that do not depend on timing (all but the latencies and
  the wall time), as sorted-key JSON;
* ``features/extract_*``: ``extract`` of each feature kind on the first
  held-out windows, one window at a time;
* ``stream/*``: every ``(tick, label, nu, velocity, flags)`` the
  ``StreamingPipeline`` emits on the held-out sequence, and as
  ``stream/fv3_vectors_*`` every vector it scores there for each fv3
  wearer;
* ``stream-degraded/*``: every emitted ``(tick, label, nu, command,
  velocity, button_event, flags)``, ``dropped_ticks`` and the
  ``VirtualDevice`` trajectory when the held-out sequence has zero-accel
  and zero-mag spans, pitch past the gimbal guard and dropped sensors;
  each wearer with ``smoothing="majority:3"``, the fv1/fv2 wearers
  again with a model trained on ``window=6, overlap=4``, and the fv3
  wearers again with one trained on ``window=8, overlap=4`` (each stream
  takes its geometry from its model);
* ``filter/*``: every frame (angles, sensor id, tick and flags) of a
  ``ComplementaryFilter`` stepped over each sensor of the quickstart JSON
  session's held-out sequence, degraded as for ``stream-degraded/*``,
  from its bootstrap (``filter/bootstrap``) and from an ``initial`` state
  (``filter/initial``); and over the same rows ``accel_angles``
  (``filter/accel_angles``) and ``mag_yaw`` at the row's
  ``accel_angles``, or at (0, 0) where the accelerometer is zero
  (``filter/mag_yaw``), a zero vector's error read as None;
* ``cli/*``: the files ``bomi synth``, ``bomi train`` and ``bomi eval``
  write for each quickstart session (the model without its metadata and
  its stored fusion settings and window geometry, as a version-1 file),
  and as ``cli/recording_values_*`` what ``load_recording`` reads back
  from the synthesized file (arrays, layout, rate, class count and meta),
  which stays put when only the file's spelling changes;
* ``studies/*``: every file ``run_all`` writes (``report.json``, the
  tables, the confusion CSVs) for the studies recordings;
* ``fit/*``: as ``model/*`` digests them, the models ``run_all`` fits
  there, named ``<session>_<kind>``: P1 and P4 under fv1, fv2 and fv3,
  P1_mae and P1_sae, and day1 to day3 under fv3 (caught by wrapping
  ``bomi.experiments.train_on_windows``); the reports pin only their
  accuracies;
* ``csv/*``: every array, the sensor ids and the class count of
  ``load_recording`` on each quickstart session written as CSV, on a
  copy with its rows shuffled, on a copy with CRLF line ends and a blank
  line between rows (``csv/*_crlf``), on a foreign copy (renamed columns,
  an extra quoted text column, ``scale.*`` factors through
  ``ImportMapping``) and on an angles-mode file of its fused angles. The
  compiled CSV reader takes every file but the foreign one, whose quotes
  make it refuse the text, so ``np.loadtxt`` reads it; the tool stops if
  a file takes the other route;
* ``json/*``: what ``load_recording`` reads (as ``cli/recording_values_*``
  digests it) from the quickstart JSON session and from P4, each saved
  compact, which the compiled JSON reader reads, and as
  ``json/*_respelled`` from a respelled copy with ``json.dumps`` spacing
  and float spelling (``1e-07``), the top-level keys in reverse order and
  the ``meta`` key written with a ``\\u`` escape, and as
  ``json/*_extra_key`` from the compact file with one more top-level key.
  The compiled reader takes the spacing, float spelling and key order; the
  escape alone makes it refuse the copy, so only the general route
  (orjson) reads it, and the tool stops if the compiled reader takes it.
  The extra key sends the file to orjson in checkouts whose reader knows
  only the schema's top-level keys, and not in later ones. All three
  digests of a session must agree.

The sessions are the four stream-hub wearers, the two quickstart
sessions and the seven studies recordings of ``perfbench/worker.py`` for
``--seed``. The tool reads a ``Sequence`` as one (T, S, 9) sample array
and calls ``fuse_sequence`` without sensor ids, so it runs against a
checkout's ``src`` on ``PYTHONPATH`` from that API on. A recording digest
covers one (T, 9) block per sensor, in layout order, and a window digest
the stacked windows, as the per-sensor dict and the ``Window`` views gave
them, so the digests compare with those of earlier checkouts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np

import bomi.experiments
import bomi.fusion
import bomi.pipeline
from bomi.cli import main as bomi_main
from bomi.dataset_io import (
    ImportMapping,
    Sequence,
    load_recording,
    save_recording,
    synth_session,
)
from bomi.experiments import (
    evaluate,
    extract_matrix,
    predict_many,
    run_all,
    sequence_windows,
    train_session,
)
from bomi.features import extract
from bomi.errors import UndefinedAttitudeError, UndefinedHeadingError
from bomi.fusion import ComplementaryFilter, accel_angles, fuse_sequence, mag_yaw
from bomi.lda import deserialize, predict_scores
from bomi.pipeline import StreamingPipeline, VirtualDevice, replay

try:
    from bomi.dataset_io import _read_csv_compiled
except ImportError:  # a checkout from before the compiled CSV reader
    _read_csv_compiled = None

# (sensor count, feature kind) per stream-hub wearer, seeds seed .. seed+3.
WEARERS = ((3, "fv3"), (2, "fv1"), (4, "fv2"), (6, "fv3"))

# The models ``run_all`` fits on the studies recordings, in its order: each
# participant under each feature kind, the amplitude pair's multi- then
# single-amplitude model, then each day's.
STUDY_FITS = ([f"{p}_{kind}" for p in ("P1", "P4") for kind in ("fv1", "fv2", "fv3")]
              + ["P1_mae_fv3", "P1_sae_fv3"] + [f"day{day}_fv3" for day in range(1, 4)])

# Held-out windows per wearer that ``features/extract_*`` runs ``extract`` on.
EXTRACT_WINDOWS = 256

# Keyword arguments of the synthetic sessions the test suite builds.
TEST_SESSIONS = {
    "synth9": dict(class_count=9, sensor_count=3, noise_deg=0.5, seed=42),
    "spasm9": dict(class_count=9, sensor_count=3, noise_deg=0.5, spasm_deg=10.0,
                   spasm_class=1, class_scale={1: 0.55}, seed=42),
    "small_noiseless": dict(class_count=4, sensor_count=1, noise_deg=0.0, seed=3),
    "small_noisy": dict(class_count=3, sensor_count=2, noise_deg=0.5, seed=9),
    "sae7": dict(class_count=7, seed=13),
    "mae7": dict(class_count=7, amplitudes=(0.5, 0.75, 1.0), seed=5),
    "day3": dict(class_count=9, amplitude_deg=12.0, noise_deg=1.0, seed=13,
                 target_bias_deg=3.0, rotation_seed=321, shuffle_test_seq=True),
    # Classes 7 and 8 on the diagonals of a single sensor, rotated.
    "diagonal9": dict(class_count=9, sensor_count=1, target_rotation_deg=8.0, seed=2),
    "spasm_class8": dict(class_count=9, sensor_count=2, spasm_deg=10.0, spasm_class=8,
                         seed=3),
    "short6": dict(motion_s=1.0, transition_s=0.25, n_sequences=1, sensor_count=6,
                   class_scale={2: -1.0}, seed=10),
}


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def hash_recording(rec) -> str:
    parts = []
    for seq in rec.sequences:
        parts.append(seq.labels)
        parts.extend(seq.samples.swapaxes(0, 1))  # one (T, 9) block per sensor
    return digest(*parts)


def hash_synth(rec) -> str:
    return hashlib.sha256(
        (hash_recording(rec) + json.dumps(rec.meta, sort_keys=True)).encode()).hexdigest()


def hash_model(model) -> str:
    h = hashlib.sha256(digest(model.classes, model.means, model.chol_lower,
                              model.log_priors).encode())
    ranges = model.ranges
    if ranges is not None:
        h.update(json.dumps([sorted(ranges.ranges.items()),
                             sorted(ranges.class_sensor.items()),
                             ranges.mode]).encode())
    h.update(json.dumps([model.feature_kind, list(model.layout.sensor_ids),
                         model.shrinkage]).encode())
    return h.hexdigest()


def window_ticks(windows) -> np.ndarray:
    """The (N, length) per-tick rows each window of a ``Windows`` set covers."""
    return windows.rows[:, None] + np.arange(windows.length)


def hash_windows(model, windows) -> tuple[str, str]:
    ticks = window_ticks(windows)
    wins = digest(windows.angles[ticks], windows.gyro[ticks], windows.labels,
                  windows.start_ticks)
    X = extract_matrix(model.feature_kind, windows, model.layout)
    return wins, digest(X, predict_many(model, X))


def hash_loaded(rec) -> str:
    """Digest of everything ``load_recording`` gives: arrays, rate, class
    count, layout and meta."""
    return hashlib.sha256((
        hash_recording(rec)
        + repr((rec.sample_rate_hz, rec.class_count, rec.sensor_layout))
        + json.dumps(rec.meta, sort_keys=True)).encode()).hexdigest()


def hash_json(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def hash_replay_stats(rec, model) -> str:
    """Digest of the stats of ``replay`` over every sequence, less timings."""
    _, stats = replay(rec, model)
    return hash_json({k: v for k, v in stats.to_dict().items()
                      if not k.startswith("latency_") and k != "wall_time_s"})


def hash_extract(kind: str, layout, windows) -> str:
    ticks = window_ticks(windows)
    return digest(np.stack([extract(kind, angles, gyro, layout) for angles, gyro
                            in zip(windows.angles[ticks], windows.gyro[ticks])]))


def hash_stream(rec, model, seq_index: int) -> str:
    seq = rec.sequences[seq_index - 1]
    pipe = StreamingPipeline(model, sample_rate_hz=rec.sample_rate_hz)
    h = hashlib.sha256()
    for t in range(seq.n_ticks):
        out = pipe.step(t, seq.tick_samples(t))
        if out is not None:
            h.update(repr((out.tick, out.label, out.nu, out.velocity,
                           out.flags)).encode())
    return h.hexdigest()


def hash_stream_vectors(rec, model, seq_index: int) -> str:
    """Digest of every vector the stream scores on a sequence, each as a
    (d,) vector, caught by wrapping the ``score`` entry of the kernel that
    ``bomi.pipeline`` calls."""
    seq = rec.sequences[seq_index - 1]
    pipe = StreamingPipeline(model, sample_rate_hz=rec.sample_rate_hz)
    kernel = bomi.pipeline._kernel
    h = hashlib.sha256()

    class Spy:
        def __getattr__(self, name):
            return getattr(kernel, name)

        def score(self, weights, biases, classes, X, scores, labels):
            h.update(digest(X.reshape(-1)).encode())
            return kernel.score(weights, biases, classes, X, scores, labels)

    bomi.pipeline._kernel = Spy()
    try:
        for t in range(seq.n_ticks):
            pipe.step(t, seq.tick_samples(t))
    finally:
        bomi.pipeline._kernel = kernel
    return h.hexdigest()


def degraded(seq):
    """The sequence with degraded input, and the sensors dropped per tick.

    The first sensor loses accel for 40 ticks and has its pitch rate
    driven past the gimbal guard to the clamp; the last sensor loses mag,
    then both vectors. One sensor in turn is dropped every 500 ticks,
    every sensor on tick 4002.
    """
    ids = seq.sensor_ids
    rows = seq.samples.copy()
    first, last = rows[:, 0], rows[:, -1]
    first[2000:2040, 0:3] = 0.0
    last[3000:3040, 6:9] = 0.0
    first[5000:5060, 4] = 200.0
    last[7000:7020, 0:3] = 0.0
    last[7000:7020, 6:9] = 0.0
    drops = {t: (ids[t // 500 % len(ids)],) for t in range(250, seq.n_ticks, 500)}
    drops[4002] = ids
    return Sequence(ids, rows, seq.labels), drops


def hash_degraded_stream(rec, model, seq_index: int, smoothing: str = "none") -> str:
    seq, drops = degraded(rec.sequences[seq_index - 1])
    pipe = StreamingPipeline(model, sample_rate_hz=rec.sample_rate_hz, smoothing=smoothing)
    device = VirtualDevice(rec.sample_rate_hz)
    h = hashlib.sha256()
    for t in range(seq.n_ticks):
        samples = seq.tick_samples(t)
        for sid in drops.get(t, ()):
            del samples[sid]
        out = pipe.step(t, samples)
        if out is not None:
            device.send(out)
            h.update(repr((out.tick, out.label, out.nu, out.command.value, out.velocity,
                           out.button_event, out.flags)).encode())
    h.update(repr(pipe.dropped_ticks).encode())
    h.update(digest(np.asarray(device.trajectory)).encode())
    return h.hexdigest()


def filter_steps(seed: int, emit) -> None:
    """The per-tick filter and its measurements on every sensor of the
    degraded held-out sequence of the quickstart JSON session."""
    rec = synth_session(class_count=9, sensor_count=3, noise_deg=0.5, seed=seed)
    seq, _ = degraded(rec.sequences[-1])
    dt = 1.0 / rec.sample_rate_hz
    for part, initial in (("bootstrap", None), ("initial", (80.0, 170.0, -179.0))):
        h = hashlib.sha256()
        for si, sid in enumerate(seq.sensor_ids):
            filt = ComplementaryFilter(dt=dt, sensor_id=sid, initial=initial)
            frames = [filt.step(t, r[0:3], r[3:6], r[6:9])
                      for t, r in enumerate(seq.samples[:, si].tolist())]
            h.update(digest(np.array([(f.pitch, f.roll, f.yaw) for f in frames])).encode())
            h.update(repr([(f.sensor_id, f.tick, f.flags) for f in frames]).encode())
        emit(f"filter/{part}", h.hexdigest())

    def measured(fn, *args):
        try:
            return fn(*args)
        except (UndefinedAttitudeError, UndefinedHeadingError):
            return None

    angles, headings = [], []
    for r in seq.samples.reshape(-1, 9).tolist():
        pitch_roll = measured(accel_angles, r[0:3])
        angles.append(pitch_roll)
        headings.append(measured(mag_yaw, r[6:9], *(pitch_roll or (0.0, 0.0))))
    emit("filter/accel_angles", hashlib.sha256(repr(angles).encode()).hexdigest())
    emit("filter/mag_yaw", hashlib.sha256(repr(headings).encode()).hexdigest())


def quickstart(seed: int, work: Path, emit) -> None:
    """The README quick start on both benchmark sessions, through the CLI."""
    sessions = (
        ("a", "json", ["--classes", "9", "--sensors", "3", "--noise", "0.5",
                       "--seed", str(seed)]),
        ("b", "csv", ["--classes", "6", "--sensors", "2", "--spasm", "10",
                      "--seed", str(seed + 1)]),
    )
    for name, fmt, synth_args in sessions:
        rec, model, report = (work / f"session_{name}.{fmt}", work / f"model_{name}.json",
                              work / f"report_{name}")
        for argv in (["synth", *synth_args, "--out", str(rec)],
                     ["train", "--recording", str(rec), "--fv", "fv3", "--out", str(model)],
                     ["eval", "--model", str(model), "--recording", str(rec),
                      "--out", str(report)]):
            with redirect_stdout(StringIO()):
                if bomi_main(argv) != 0:
                    raise SystemExit(f"bomi {argv[0]} failed on session {name}")
        payload = json.loads(model.read_text(encoding="utf-8"))
        payload.pop("meta")
        # Less its stored chain (the defaults here), a model file is the
        # version-1 file older checkouts write.
        for key in ("fusion", "window", "overlap"):
            payload.pop(key, None)
        payload["version"] = 1
        emit(f"cli/recording_{name}", hashlib.sha256(rec.read_bytes()).hexdigest())
        emit(f"cli/model_{name}", hashlib.sha256(json.dumps(payload).encode()).hexdigest())
        emit(f"cli/report_{name}", hashlib.sha256(
            (report / "accuracy.json").read_bytes()
            + (report / "confusion.csv").read_bytes()).hexdigest())
        recording = load_recording(rec)
        emit(f"cli/recording_values_{name}", hash_loaded(recording))
        loaded = deserialize(model)
        emit(f"stream/quickstart_{name}",
             hash_stream(recording, loaded, len(recording.sequences)))
        windows = sequence_windows(recording, recording.sequences[-1], fusion=loaded.fusion,
                                   window=loaded.window, overlap=loaded.overlap)
        usable = windows[windows.labels >= 0]
        emit(f"scores/cli_{name}", digest(predict_scores(
            loaded, extract_matrix(loaded.feature_kind, usable, loaded.layout))))


def studies(seed: int, work: Path, emit) -> None:
    """``run_all`` over the recordings of the benchmark's studies workload."""
    # The parameters of Studies.setup in perfbench/worker.py (which follow
    # ``bomi demo-data``); keep them in step with it.
    sessions = {
        "P1": synth_session(seed=seed),
        "P4": synth_session(class_count=6, sensor_count=2, spasm_deg=10.0,
                            spasm_class=1, class_scale={1: 0.55}, seed=seed + 3),
        "P1_sae": synth_session(class_count=7, seed=seed + 5),
        "P1_mae": synth_session(class_count=7, amplitudes=(0.5, 0.75, 1.0), seed=seed + 6),
    }
    for day in range(1, 4):
        sessions[f"day{day}"] = synth_session(
            seed=seed + 10 + day, amplitude_deg=12.0, noise_deg=1.0,
            target_bias_deg=1.5 * (day - 1), rotation_seed=321,
            shuffle_test_seq=True,
        )
    data, out = work / "dataset", work / "reports"
    data.mkdir()
    for stem, rec in sessions.items():
        save_recording(rec, data / f"{stem}.json")
    fitted = []
    train = bomi.experiments.train_on_windows

    def spy(*args, **kwargs):
        fitted.append(train(*args, **kwargs))
        return fitted[-1]

    bomi.experiments.train_on_windows = spy
    try:
        run_all(data, out)
    finally:
        bomi.experiments.train_on_windows = train
    for path in sorted(out.iterdir()):
        emit(f"studies/{path.name}", hashlib.sha256(path.read_bytes()).hexdigest())
    kinds = [name.rsplit("_", 1)[1] for name in STUDY_FITS]
    if [model.feature_kind for model in fitted] != kinds:
        raise RuntimeError(f"run_all fitted {[m.feature_kind for m in fitted]}, not {kinds}")
    for name, model in zip(STUDY_FITS, fitted):
        emit(f"fit/{name}", hash_model(model))


def kernel_takes_json(data: bytes) -> bool:
    """Whether the kernel's ``read_json`` takes the recording JSON ``data``.
    Earlier checkouts' entry also took a depth limit, and those from
    before the compiled JSON reader have none."""
    read = getattr(bomi.fusion._kernel, "read_json", None)
    if read is None:
        return False
    try:
        return read(data) is not None
    except TypeError:
        return read(data, 1000) is not None


def respell(path: Path, out: Path) -> None:
    """Write the recording JSON of ``path`` to ``out`` as ``json.dumps``
    spells it, top-level keys reversed and the ``meta`` key spelled
    ``"me\\u0074a"``: the same values. The escaped key is what makes the
    compiled reader refuse the text, so only the general route reads it."""
    obj = json.loads(path.read_bytes())
    text = json.dumps(dict(reversed(obj.items())))
    if text.count('"meta": ') != 1:
        raise RuntimeError(f"{path}: no single meta key to escape")
    data = text.replace('"meta": ', '"me\\u0074a": ').encode()
    if kernel_takes_json(data):
        raise RuntimeError(f"{out}: the compiled reader takes the respelled text")
    out.write_bytes(data)


def json_loads(seed: int, work: Path, emit) -> None:
    """The JSON loader on the quickstart JSON session and P4, each read from
    its compact file, from a respelled copy and from a copy with one more
    top-level key."""
    sessions = {
        "a": synth_session(class_count=9, sensor_count=3, noise_deg=0.5, seed=seed),
        "P4": synth_session(class_count=6, sensor_count=2, spasm_deg=10.0,
                            spasm_class=1, class_scale={1: 0.55}, seed=seed + 3),
    }
    for name, rec in sessions.items():
        path, respelled = work / f"{name}.json", work / f"{name}_respelled.json"
        extra_key = work / f"{name}_extra_key.json"
        save_recording(rec, path)
        respell(path, respelled)
        extra_key.write_bytes(path.read_bytes()[:-1] + b',"source":"hash_outputs"}')
        for part, source in ((name, path), (f"{name}_respelled", respelled),
                             (f"{name}_extra_key", extra_key)):
            emit(f"json/{part}", hash_loaded(load_recording(source, validate="none")))


def csv_loads(seed: int, work: Path, emit) -> None:
    """The CSV loader on the quickstart sessions and on variants of their files."""
    sessions = {
        "a": synth_session(class_count=9, sensor_count=3, noise_deg=0.5, seed=seed),
        "b": synth_session(class_count=6, sensor_count=2, spasm_deg=10.0, seed=seed + 1),
    }
    foreign = ImportMapping(
        columns={"tick": "sample", "sensor_id": "node", "acc_x": "ax", "gyro_z": "gz"},
        scale_acc=9.81, scale_gyro=0.0175, scale_mag=1e-3,
    )

    def emit_load(part: str, path: Path, mapping=None, compiled: bool = True) -> None:
        if (_read_csv_compiled is not None
                and (_read_csv_compiled(path.read_bytes(), mapping) is not None) != compiled):
            raise RuntimeError(f"{path}: the compiled CSV reader "
                               f"{'refuses' if compiled else 'takes'} the text")
        rec = load_recording(path, mapping=mapping, validate="none")
        layout = repr((rec.sensor_ids, rec.class_count, rec.sample_rate_hz))
        emit(f"csv/{part}", hashlib.sha256(
            (hash_recording(rec) + layout).encode()).hexdigest())

    for name, rec in sessions.items():
        path = work / f"session_{name}.csv"
        save_recording(rec, path)
        emit_load(name, path)
        header, *rows = path.read_text(encoding="utf-8").splitlines()
        order = np.random.default_rng(seed).permutation(len(rows))
        shuffled = work / f"shuffled_{name}.csv"
        shuffled.write_text("\n".join([header, *(rows[i] for i in order)]) + "\n",
                            encoding="utf-8")
        emit_load(f"{name}_shuffled", shuffled)
        crlf = work / f"crlf_{name}.csv"
        crlf.write_bytes(("\r\n\r\n".join([header, *rows]) + "\r\n").encode())
        emit_load(f"{name}_crlf", crlf)
        renamed = ",".join(foreign.actual(c) for c in header.split(","))
        mapped = work / f"foreign_{name}.csv"
        mapped.write_text("\n".join([f"{renamed},note", *(
            f'{row},"take {i % 7}, left side"' for i, row in enumerate(rows))]) + "\n",
            encoding="utf-8")
        emit_load(f"{name}_foreign", mapped, foreign, compiled=False)
        angles = work / f"angles_{name}.csv"
        lines = ["tick,sensor_id,pitch,roll,yaw,label,sequence"]
        for qi, seq in enumerate(rec.sequences, start=1):
            fused = fuse_sequence(seq.samples, rec.sample_rate_hz).angles
            for t, (label, per_sensor) in enumerate(zip(seq.labels.tolist(), fused.tolist())):
                for sid, (pitch, roll, yaw) in zip(rec.sensor_ids, per_sensor):
                    lines.append(f"{t},{sid},{pitch!r},{roll!r},{yaw!r},{label},{qi}")
        angles.write_text("\n".join(lines) + "\n", encoding="utf-8")
        emit_load(f"{name}_angles", angles, ImportMapping(mode="angles"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1, help="benchmark seed")
    args = parser.parse_args(argv)

    def emit(part: str, value: str) -> None:
        print(part, value, flush=True)

    for name, kwargs in TEST_SESSIONS.items():
        emit(f"synth/{name}", hash_synth(synth_session(**kwargs)))
    for i, (sensors, kind) in enumerate(WEARERS):
        name = f"wearer{i}"
        rec = synth_session(class_count=9, sensor_count=sensors, seed=args.seed + i)
        class_sensor = {int(c): int(s) for c, s in rec.meta["class_sensors"].items()}
        model, test_windows = train_session(rec, feature_kind=kind,
                                            class_sensor=class_sensor)
        emit(f"synth/{name}", hash_synth(rec))
        emit(f"model/{name}", hash_model(model))
        wins, preds = hash_windows(model, test_windows)
        emit(f"windows/{name}", wins)
        emit(f"predictions/{name}", preds)
        X = extract_matrix(model.feature_kind, test_windows, model.layout)
        emit(f"scores/{name}", digest(predict_scores(model, X)))
        emit(f"eval/{name}", hash_json(evaluate(model, test_windows).to_dict()))
        emit(f"replay/{name}", hash_replay_stats(rec, model))
        for fv in ("fv1", "fv2", "fv3"):
            emit(f"features/extract_{fv}_{name}",
                 hash_extract(fv, model.layout, test_windows[:EXTRACT_WINDOWS]))
        emit(f"stream/{name}", hash_stream(rec, model, len(rec.sequences)))
        if kind == "fv3":
            emit(f"stream/fv3_vectors_{name}",
                 hash_stream_vectors(rec, model, len(rec.sequences)))
        emit(f"stream-degraded/{name}", hash_degraded_stream(
            rec, model, len(rec.sequences), smoothing="majority:3"))
        if kind != "fv3":
            short, _ = train_session(rec, feature_kind=kind, class_sensor=class_sensor,
                                     window=6, overlap=4)
            emit(f"stream-degraded/{name}_w6", hash_degraded_stream(
                rec, short, len(rec.sequences)))
        else:
            strided, _ = train_session(rec, feature_kind=kind, class_sensor=class_sensor,
                                       window=8, overlap=4)
            emit(f"stream-degraded/{name}_o4", hash_degraded_stream(
                rec, strided, len(rec.sequences)))
    filter_steps(args.seed, emit)
    with tempfile.TemporaryDirectory() as work:
        quickstart(args.seed, Path(work), emit)
    with tempfile.TemporaryDirectory() as work:
        studies(args.seed, Path(work), emit)
    with tempfile.TemporaryDirectory() as work:
        csv_loads(args.seed, Path(work), emit)
    with tempfile.TemporaryDirectory() as work:
        json_loads(args.seed, Path(work), emit)
    return 0


if __name__ == "__main__":
    sys.exit(main())
