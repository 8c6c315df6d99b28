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
