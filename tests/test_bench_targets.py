"""The traced benchmark run wraps bomi names; each one must still exist."""

import sys
from pathlib import Path

import bomi
import bomi.cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402


def test_trace_targets_install_and_uninstall():
    # install raises KeyError for a traced name that no longer exists.
    saved = tracing.install(tracing.Tracer(), bomi)
    try:
        assert all(owner.__dict__[attr] is not original for owner, attr, original in saved)
    finally:
        tracing.uninstall(saved)
    assert saved
    assert all(owner.__dict__[attr] is original for owner, attr, original in saved)


def test_window_api_the_stream_hub_workload_uses(small_noisy):
    # perfbench/worker.py checks its stream-hub setup with exactly these calls.
    from bomi import evaluate, train_session
    from bomi.experiments import extract_matrix, predict_many

    model, test_windows = train_session(small_noisy)
    assert len(test_windows) > 0
    first = test_windows[0]
    assert first.start_tick is not None
    assert len(first.angles) == 8
    ends = [tw.start_tick + len(tw.angles) - 1 for tw in test_windows]
    assert len(ends) == len(test_windows)
    X = extract_matrix(model.feature_kind, test_windows, model.layout)
    assert len(predict_many(model, X)) == len(ends)
    assert evaluate(model, test_windows).n_windows > 0


def test_fit_rows_counts_the_usable_training_windows(small_noisy):
    # lda.fit_rows adds len(args[0]) per traced bomi.experiments.fit call,
    # so training must pass X positionally, one row per usable window.
    from bomi.experiments import split_windows

    tracer = tracing.Tracer()
    saved = tracing.install(tracer, bomi)
    try:
        bomi.experiments.train_session(small_noisy)
    finally:
        tracing.uninstall(saved)
    train, _ = split_windows(small_noisy)
    assert tracer.counts["fit_rows"] == (train.labels >= 0).sum() > 0
