"""Offline evaluation harness: feature-vector comparison, amplitude and
multi-day studies, and misclassification structure.

Training pools the first two sequences of a session and testing uses the
third unless a split is given. Windows spanning a label change are
excluded from accuracy (their ground truth is ambiguous); exclusion
counts are reported.

Each study fits and scores windowed sessions: a recording loaded, fused
and windowed once (``_Windowed``). ``run_all`` builds them in a pool of
forked processes, one job per recording and at most one process per
available CPU, and does every fit, evaluation, warning and file write
itself in a fixed order, so its reports do not depend on the pool. The
public study functions window their sessions in-process and share the
same fit-and-score routines.

While the pool runs, ``run_all`` holds numpy's OpenBLAS at one thread
and restores the old count after: idle BLAS threads of this process
would otherwise spin on the cores the workers need. A fit's bits do not
depend on the thread count (``bomi.lda``), so neither do the reports. A
worker that dies fails every unfinished job; ``run_all`` then raises
``PoolError`` naming each of their files.
"""

from __future__ import annotations

import ctypes
import json
import multiprocessing
import numbers
import os
import warnings
from collections import deque
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence as SequenceT

import numpy as np

from .dataset_io import (
    SessionRecording,
    Sequence,
    SplitSpec,
    load_recording,
    split_session,
)
from .errors import CoverageError, DataError, PoolError, TrainingDataError, ValidationError
from .features import (
    DEFAULT_OVERLAP,
    DEFAULT_WINDOW,
    FEATURE_KINDS,
    AmplitudeRange,
    FeatureLayout,
    Windows,
    extract_matrix,
    learn_ranges,
    make_windows,
    pool_windows,
)
from .fusion import FusionConfig, fuse_sequence
from .lda import DEFAULT_SHRINKAGE, LdaModel, fit, predict_many
from .pipeline import max_consecutive_disagreements


def sequence_windows(
    recording: SessionRecording,
    *seqs: Sequence,
    fusion: FusionConfig = FusionConfig(),
    window: int = DEFAULT_WINDOW,
    overlap: int = DEFAULT_OVERLAP,
) -> Windows:
    """Fuse, calibrate, and window sequences of a session into one set
    (the offline path); no window straddles two sequences.

    Windowing starts after the calibration ticks so offline windows line
    up one-to-one with streaming emissions.
    """
    # The empty set seeds the pool, so no sequences give an empty set.
    empty = np.empty((0, len(recording.sensor_ids), 3))
    sets = [make_windows(empty, empty, None, size=window, overlap=overlap)]
    for seq in seqs:
        fused = fuse_sequence(seq.samples, recording.sample_rate_hz, fusion)
        c = fused.calib_ticks
        sets.append(make_windows(
            fused.angles[c:], fused.gyro[c:], seq.labels[c:],
            start_tick=c, size=window, overlap=overlap,
        ))
    return pool_windows(sets)


def train_on_windows(
    windows: Windows,
    layout: FeatureLayout,
    feature_kind: str = "fv3",
    shrinkage: float = DEFAULT_SHRINKAGE,
    priors: str = "empirical",
    learn_amplitude: bool = True,
    class_sensor: Mapping[int, int] | None = None,
    amplitude_mode: str = "minmax",
    meta: dict | None = None,
    fusion: FusionConfig = FusionConfig(),
    overlap: int = DEFAULT_OVERLAP,
) -> LdaModel:
    """Fit a model (and optionally amplitude ranges) on labeled windows;
    the model stores the ``fusion`` and ``overlap`` they were built with
    and their length."""
    usable = windows[windows.labels >= 0]
    if not usable:
        raise TrainingDataError("no single-label windows to train on")
    X = extract_matrix(feature_kind, usable, layout)
    ranges: AmplitudeRange | None = None
    if learn_amplitude:
        classes = [int(c) for c in np.unique(usable.labels) if c != 0]
        ranges = learn_ranges(
            usable, layout, classes, class_sensor=class_sensor, mode=amplitude_mode
        )
    core = fit(X, usable.labels, shrinkage=shrinkage, priors=priors)
    return LdaModel(
        classes=core.classes,
        means=core.means,
        chol_lower=core.chol_lower,
        shrinkage=core.shrinkage,
        log_priors=core.log_priors,
        meta={**core.meta, **(meta or {})},
        feature_kind=feature_kind,
        layout=layout,
        ranges=ranges,
        fusion=fusion,
        window=windows.length,
        overlap=overlap,
        _fitted=core,
    )


def split_windows(
    recording: SessionRecording,
    split: SplitSpec | None = None,
    fusion: FusionConfig = FusionConfig(),
    window: int = DEFAULT_WINDOW,
    overlap: int = DEFAULT_OVERLAP,
) -> tuple[Windows, Windows]:
    """Window a session's training and test sequences, each fused once.

    Raises:
        CoverageError: a class has no training window.
    """
    split = split or SplitSpec()
    train_seqs, test_seqs = split_session(recording, split)
    train = sequence_windows(recording, *train_seqs, fusion=fusion, window=window, overlap=overlap)
    test = sequence_windows(recording, *test_seqs, fusion=fusion, window=window, overlap=overlap)
    missing = sorted(set(range(recording.class_count)) - set(train.labels.tolist()))
    if missing:
        raise CoverageError(
            f"classes {missing} have no training windows in sequences "
            f"{sorted(split.train)}"
        )
    return train, test


def _layout_meta(recording: SessionRecording) -> dict:
    return {"sensor_layout": [[s.id, s.location] for s in recording.sensor_layout]}


def train_session(
    recording: SessionRecording,
    split: SplitSpec | None = None,
    feature_kind: str = "fv3",
    fusion: FusionConfig = FusionConfig(),
    shrinkage: float = DEFAULT_SHRINKAGE,
    priors: str = "empirical",
    learn_amplitude: bool = True,
    class_sensor: Mapping[int, int] | None = None,
    amplitude_mode: str = "minmax",
    window: int = DEFAULT_WINDOW,
    overlap: int = DEFAULT_OVERLAP,
) -> tuple[LdaModel, Windows]:
    """Train on a session's training split; return (model, test windows)."""
    train_windows, test_windows = split_windows(recording, split, fusion, window, overlap)
    model = train_on_windows(
        train_windows, FeatureLayout(sensor_ids=recording.sensor_ids),
        feature_kind=feature_kind,
        shrinkage=shrinkage,
        priors=priors,
        learn_amplitude=learn_amplitude,
        class_sensor=class_sensor,
        amplitude_mode=amplitude_mode,
        meta=_layout_meta(recording),
        fusion=fusion,
        overlap=overlap,
    )
    return model, test_windows


# ---------------------------------------------------------------------------
# Evaluation


@dataclass
class ConfusionMatrix:
    """Square count matrix with rows as true classes."""

    labels: list[int]
    counts: np.ndarray

    def row_percent(self) -> np.ndarray:
        totals = self.counts.sum(axis=1, keepdims=True)
        with np.errstate(invalid="ignore", divide="ignore"):
            pct = 100.0 * self.counts / totals
        return np.nan_to_num(pct)

    def accuracy(self) -> float:
        total = self.counts.sum()
        if total == 0:
            raise DataError("empty confusion matrix")
        return 100.0 * np.trace(self.counts) / total

    def diagonal_percent(self) -> dict[int, float]:
        pct = self.row_percent()
        return {lab: float(pct[i, i]) for i, lab in enumerate(self.labels)}

    def write_csv(self, path: str | Path) -> None:
        pct = self.row_percent()
        with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
            fh.write("true\\pred," + ",".join(f"c{l}" for l in self.labels) + "\n")
            for lab, row in zip(self.labels, pct):
                fh.write(f"c{lab}," + ",".join(f"{v:.2f}" for v in row) + "\n")

    def to_dict(self) -> dict:
        return {
            "labels": self.labels,
            "counts": self.counts.tolist(),
            "row_percent": self.row_percent().round(4).tolist(),
        }


@dataclass
class MisclassStructure:
    """How a prediction stream fails against its reference."""

    neutral_fraction: float | None
    max_run: int
    pairs: list[tuple[int, int, int]]  # (true, predicted, count), worst first

    def to_dict(self) -> dict:
        return {
            "neutral_fraction": self.neutral_fraction,
            "max_run": self.max_run,
            "pairs": [list(p) for p in self.pairs],
        }


def _score(y_true, y_pred, classes=()) -> tuple[ConfusionMatrix, MisclassStructure]:
    """The confusion matrix of a stream over the sorted union of both
    sides' labels and ``classes``, and the error structure from its counts."""
    max_run = max_consecutive_disagreements(y_pred, y_true)  # checks the lengths
    labels = np.union1d(np.union1d(y_true, y_pred), classes).astype(np.int64)
    k = len(labels)
    cells = np.searchsorted(labels, y_true) * k + np.searchsorted(labels, y_pred)
    counts = np.bincount(cells, minlength=k * k).reshape(k, k)
    wrong = counts * ~np.eye(k, dtype=bool)
    true, pred = np.nonzero(wrong)
    n = wrong[true, pred]
    order = np.lexsort((pred, true, -n))
    errors = int(n.sum())
    return ConfusionMatrix(labels=labels.tolist(), counts=counts), MisclassStructure(
        neutral_fraction=int(wrong[:, labels == 0].sum()) / errors if errors else None,
        max_run=max_run,
        pairs=list(zip(*(a[order].tolist() for a in (labels[true], labels[pred], n)))),
    )


def misclassification_structure(
    predictions: SequenceT[int], labels: SequenceT[int]
) -> MisclassStructure:
    """Neutral-error fraction, worst error run, and top confused pairs.

    neutral_fraction is the share of all errors whose prediction is the
    neutral class (None when there are no errors). Both it and the pairs
    come from the cell counts ``evaluate`` makes: pairs are the error
    cells, most frequent first, then by true and by predicted class.

    Raises:
        ValidationError: a label or prediction is a bool or not an
            integer, or the two streams differ in length.
    """
    return _score(_int_labels(labels, "labels"), _int_labels(predictions, "predictions"))[1]


def _int_labels(values: SequenceT[int], name: str) -> np.ndarray:
    """``values`` as int64, refusing what an int64 cast would truncate."""
    for v in values:
        if isinstance(v, bool) or not isinstance(v, numbers.Integral):
            raise ValidationError(f"{name} must be integers, got {v!r}")
    return np.asarray(values, dtype=np.int64)


@dataclass
class EvalResult:
    """Accuracy plus diagnostics for one model on one window set."""

    accuracy: float
    confusion: ConfusionMatrix
    n_windows: int
    n_mixed_excluded: int
    structure: MisclassStructure

    def to_dict(self) -> dict:
        return {
            "accuracy_pct": self.accuracy,
            "n_windows": self.n_windows,
            "n_mixed_excluded": self.n_mixed_excluded,
            "confusion": self.confusion.to_dict(),
            "structure": self.structure.to_dict(),
        }


def evaluate(model: LdaModel, windows: Windows) -> EvalResult:
    """Window-level accuracy and confusion matrix on labeled windows.

    Mixed-label windows are excluded and counted. Rows of the confusion
    matrix are true classes.
    """
    usable = windows[windows.labels >= 0]
    if not usable:
        raise DataError("no single-label windows to evaluate")
    X = extract_matrix(model.feature_kind, usable, model.layout)
    confusion, structure = _score(usable.labels, predict_many(model, X), model.classes)
    return EvalResult(
        accuracy=confusion.accuracy(),
        confusion=confusion,
        n_windows=len(usable),
        n_mixed_excluded=len(windows) - len(usable),
        structure=structure,
    )


# ---------------------------------------------------------------------------
# Studies


@dataclass
class ExperimentReport:
    """Per-participant, per-feature-kind accuracy with diagnostics."""

    accuracies: dict[str, dict[str, float]] = field(default_factory=dict)
    details: dict[str, EvalResult] = field(default_factory=dict)
    skipped: list[str] = field(default_factory=list)

    def table(self) -> str:
        kinds = sorted({k for row in self.accuracies.values() for k in row})
        width = max([len("Participant"), *map(len, self.accuracies)])
        lines = ["Participant".ljust(width) + "".join(f"{k:>10}" for k in kinds)]
        for participant in sorted(self.accuracies):
            row = self.accuracies[participant]
            cells = "".join(
                f"{row[k]:>9.2f}%" if k in row else " " * 10 for k in kinds
            )
            lines.append(participant.ljust(width) + cells)
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "accuracies": self.accuracies,
            "details": {p: r.to_dict() for p, r in self.details.items()},
            "skipped": self.skipped,
        }


class _Windowed(NamedTuple):
    """A session fused and windowed once, as the studies fit and score it."""

    sensor_ids: tuple[int, ...]
    meta: dict  # the model meta train_session writes: the sensor layout
    train: Windows
    test: Windows


def _windowed(recording: SessionRecording, split: SplitSpec | None = None) -> _Windowed:
    """Window a session for the studies: the default chain, each sequence fused once.

    Raises:
        CoverageError: a class has no training window.
    """
    train, test = split_windows(recording, split)
    return _Windowed(recording.sensor_ids, _layout_meta(recording), train, test)


def _window_job(path: Path, split: SplitSpec | None = None) -> _Windowed | DataError:
    """Load and window one recording file (one ``run_all`` pool job).

    A load fault is returned, not raised, so the caller can tell it from
    a fault in windowing: ``run_all`` skips an unloadable participant
    file but not one that loads and then fails.
    """
    try:
        recording = load_recording(path, validate="none")
    except DataError as exc:
        return exc
    return _windowed(recording, split)


def _train(session: _Windowed, feature_kind: str = "fv3") -> LdaModel:
    """A model of the default chain, without amplitude ranges, on a session's training windows."""
    return train_on_windows(
        session.train, FeatureLayout(sensor_ids=session.sensor_ids),
        feature_kind=feature_kind, learn_amplitude=False, meta=session.meta,
    )


def _participant_paths(root: Path) -> list[Path]:
    return sorted(
        p for p in list(root.glob("[Pp]*.json")) + list(root.glob("[Pp]*.csv"))
        if not any(tag in p.stem.lower() for tag in ("_sae", "_mae"))
    )


def _fv_comparison(
    paths: SequenceT[Path],
    sessions: Iterable[_Windowed | DataError],
    feature_kinds: SequenceT[str],
) -> ExperimentReport:
    """Score each participant session (given in ``paths`` order, or the
    load fault of its file) under each feature kind."""
    report = ExperimentReport()
    for path, session in zip(paths, sessions):
        name = path.stem
        if isinstance(session, DataError):
            # stacklevel 3: the caller of the public entry point
            warnings.warn(f"skipping {path.name}: {session}", stacklevel=3)
            report.skipped.append(name)
            continue
        report.accuracies[name] = {}
        for kind in feature_kinds:
            result = evaluate(_train(session, kind), session.test)
            report.accuracies[name][kind] = result.accuracy
            report.details[name] = result
    return report


def run_fv_comparison(
    dataset_root: str | Path,
    feature_kinds: SequenceT[str] = FEATURE_KINDS,
) -> ExperimentReport:
    """Train/test every participant session under each feature kind.

    Participant sessions are ``<root>/P*.json`` or ``.csv`` (``p`` too);
    unloadable files are skipped with a warning. Details (confusion,
    structure) are kept for the last feature kind evaluated.
    """
    paths = _participant_paths(Path(dataset_root))
    return _fv_comparison(paths, map(_window_job, paths), feature_kinds)


@dataclass
class AmplitudeStudy:
    """Single- vs multi-amplitude training on a varying-amplitude test."""

    sae_accuracy: float
    mae_accuracy: float
    sae_structure: MisclassStructure
    mae_structure: MisclassStructure

    def to_dict(self) -> dict:
        return {
            "sae_accuracy_pct": self.sae_accuracy,
            "mae_accuracy_pct": self.mae_accuracy,
            "sae_structure": self.sae_structure.to_dict(),
            "mae_structure": self.mae_structure.to_dict(),
        }


def _amplitude_study(sae: _Windowed, mae: _Windowed) -> AmplitudeStudy:
    mae_model = _train(mae)
    sae_model = _train(sae)
    sae_result = evaluate(sae_model, mae.test)
    mae_result = evaluate(mae_model, mae.test)
    return AmplitudeStudy(
        sae_accuracy=sae_result.accuracy,
        mae_accuracy=mae_result.accuracy,
        sae_structure=sae_result.structure,
        mae_structure=mae_result.structure,
    )


# The single-amplitude session trains on all of its sequences.
_SAE_SPLIT = SplitSpec(test=frozenset())


def run_amplitude_experiment(
    sae: SessionRecording,
    mae: SessionRecording,
) -> AmplitudeStudy:
    """Compare models trained on fixed vs varied motion amplitude.

    Both models are evaluated on the multi-amplitude session's test
    sequence. Error structure records how far misclassifications stay
    inside the harmless neutral class.
    """
    # Windowed first, so its fault is the one raised when both fail, as in run_all.
    mae_session = _windowed(mae)
    return _amplitude_study(_windowed(sae, _SAE_SPLIT), mae_session)


@dataclass
class MultidayStudy:
    """Day-1 model vs per-day models across consecutive recording days."""

    day1_model_accuracy: list[float]
    dday_model_accuracy: list[float]

    def to_dict(self) -> dict:
        return {
            "day1_model_accuracy_pct": self.day1_model_accuracy,
            "dday_model_accuracy_pct": self.dday_model_accuracy,
        }

    def table(self) -> str:
        days = len(self.day1_model_accuracy)
        header = "Model      " + "".join(f"{f'day{d + 1}':>9}" for d in range(days))
        row1 = "day1 model " + "".join(f"{a:>8.2f}%" for a in self.day1_model_accuracy)
        row2 = "d-day model" + "".join(f"{a:>8.2f}%" for a in self.dday_model_accuracy)
        return "\n".join([header, row1, row2])


def _multiday_study(days: Iterable[_Windowed]) -> MultidayStudy:
    """Each day's model is fitted as its session arrives."""
    models, tests = [], []
    for day in days:
        models.append(_train(day))
        tests.append(day.test)
    day1 = [evaluate(models[0], t).accuracy for t in tests]
    dday = day1[:1] + [evaluate(m, t).accuracy for m, t in zip(models[1:], tests[1:])]
    return MultidayStudy(day1_model_accuracy=day1, dday_model_accuracy=dday)


def run_multiday_experiment(
    day_sessions: SequenceT[SessionRecording],
) -> MultidayStudy:
    """Evaluate model staleness across consecutive days.

    Each day's session trains on its first two sequences and tests on
    its last. The day-1 model is evaluated on every day's test
    recording; each d-day model is evaluated on its own day (day 1's
    result is shared by both rows).
    """
    if not day_sessions:
        raise DataError("no day sessions given")
    return _multiday_study(_windowed(rec) for rec in day_sessions)


# ---------------------------------------------------------------------------
# Run-all orchestration


def _blas_threads():
    """The thread-count getter and setter of numpy's OpenBLAS, or None
    when numpy's extension module exports neither."""
    core = getattr(np, "_core", None) or np.core  # numpy 2.x, else 1.x
    try:
        lib = ctypes.CDLL(core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return None
    for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
        get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
        set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
        if get is not None and set_ is not None:
            get.restype, get.argtypes = ctypes.c_int, []
            set_.restype, set_.argtypes = None, [ctypes.c_int]
            return get, set_
    return None


@contextmanager
def _one_blas_thread() -> Iterator[None]:
    """Hold numpy's OpenBLAS at one thread for the body, then restore the
    old count, also when the body raises; a no-op without OpenBLAS."""
    found = _blas_threads()
    if found is None:
        yield
        return
    get, set_ = found
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def _note_lost(future: Future, name: str, lost: list[str]) -> None:
    """A pool job's done callback: append ``name`` to ``lost`` when a dead
    worker failed the job."""
    if not future.cancelled() and isinstance(future.exception(), BrokenProcessPool):
        lost.append(name)


def _sessions(futures: SequenceT[Future], load_order: Iterable[int]) -> Iterator[_Windowed]:
    """Yield one study's windowed sessions in job order as they arrive.

    On a fault, fail as loading all of the study's files before windowing
    any would: on the first load fault in ``load_order``, else on the
    first windowing fault or dead worker.
    """
    for f in futures:
        if f.exception() is None and not isinstance(f.result(), DataError):
            yield f.result()
            continue
        for i in load_order:
            if futures[i].exception() is None and isinstance(futures[i].result(), DataError):
                raise futures[i].result()
        f.result()  # raises the windowing fault or BrokenProcessPool


def run_all(dataset_root: str | Path, out_dir: str | Path) -> dict:
    """Run every study the dataset directory supports; write reports.

    Looks for participant sessions (``P*.json``), amplitude pairs
    (``*_sae.json`` + ``*_mae.json``), and day sessions (``day<n>.json``).
    Writes ``report.json``, a text table, and per-participant confusion
    CSVs into ``out_dir``; returns the combined report dict. Every study
    trains the default chain: ``FusionConfig()``, 8-tick windows
    overlapping by 7, and ``DEFAULT_SHRINKAGE``.

    Each recording is loaded, fused and windowed in a pool of forked
    processes, at most one per available CPU. This process fits, scores,
    warns and writes in a fixed order, so the reports are those of the
    public study functions, byte for byte. No pool process outlives the
    call, whether it returns or raises. While the pool runs, numpy's
    OpenBLAS runs on one thread; the old count is restored on the way out.

    Raises:
        PoolError: a worker process died; names every file whose job had
            not finished then (the pool fails them all), in job order.
    """
    root = Path(dataset_root)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    participants = _participant_paths(root)
    pairs = []  # (single-amplitude file, its multi-amplitude file or None)
    for sae in sorted(root.glob("*_sae.json")):
        mae = sae.with_name(sae.name.replace("_sae", "_mae"))
        pairs.append((sae, mae if mae.exists() else None))
    day_paths = sorted(root.glob("day*.json"), key=lambda p: p.stem)
    jobs = [(path, None) for path in participants]
    for sae, mae in pairs:
        if mae:
            jobs += [(mae, None), (sae, _SAE_SPLIT)]
    jobs += [(path, None) for path in day_paths]
    lost: list[str] = []  # the files whose jobs a dead worker failed, in job order

    # With fork, the first submit forks every worker from this thread
    # before the executor starts a thread of its own. A pool given no job
    # starts no process.
    workers = min(len(os.sched_getaffinity(0)), len(jobs)) or 1
    with _one_blas_thread():
        pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
        try:
            # Popped as they are read, so a read session is freed after its study.
            futures: deque[Future] = deque()
            for path, split in jobs:
                futures.append(pool.submit(_window_job, path, split))
                futures[-1].add_done_callback(partial(_note_lost, name=path.name, lost=lost))
            combined: dict = {}

            report = _fv_comparison(
                participants, (futures.popleft().result() for _ in participants), FEATURE_KINDS
            )
            if report.accuracies:
                combined["fv_comparison"] = report.to_dict()
                (out / "fv_table.txt").write_text(report.table() + "\n", encoding="utf-8")
                for name, result in report.details.items():
                    result.confusion.write_csv(out / f"confusion_{name}.csv")

            for sae_path, mae_path in pairs:
                if not mae_path:
                    warnings.warn(f"{sae_path.name} has no matching multi-amplitude session")
                    continue
                # The single-amplitude file loads first, then the multi-amplitude one.
                mae, sae = _sessions([futures.popleft(), futures.popleft()], load_order=(1, 0))
                combined.setdefault("amplitude", {})[sae_path.stem.replace("_sae", "")] = (
                    _amplitude_study(sae, mae).to_dict()
                )

            if day_paths:
                days = [futures.popleft() for _ in day_paths]
                study = _multiday_study(_sessions(days, load_order=range(len(days))))
                combined["multiday"] = study.to_dict()
                (out / "multiday_table.txt").write_text(study.table() + "\n", encoding="utf-8")
        except BrokenProcessPool as exc:
            pool.shutdown()  # joins the thread that fails the jobs, so ``lost`` is whole
            raise PoolError(f"a worker process died; the jobs for {', '.join(lost)} "
                            "did not finish") from exc
        finally:
            pool.shutdown(cancel_futures=True)

    (out / "report.json").write_text(
        json.dumps(combined, indent=2), encoding="utf-8"
    )
    return combined
