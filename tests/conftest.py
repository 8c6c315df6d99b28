import hashlib
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import settings

import bomi.experiments
from bomi.dataset_io import synth_session
from bomi.experiments import train_session

# Property tests draw the same examples on every run, with no time limit
# per example; each test sets only how many examples it draws.
settings.register_profile("bomi", derandomize=True, deadline=None)
settings.load_profile("bomi")


@pytest.fixture
def run_python():
    """Run Python code in a fresh interpreter that imports this bomi,
    with extra environment variables; return its standard output."""
    src = str(Path(bomi.experiments.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def run(code: str, **env: str) -> str:
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path, **env}, timeout=300)
        assert done.returncode == 0, done.stderr
        return done.stdout

    return run


def _gamma_sensors(rec):
    return {int(k): int(v) for k, v in rec.meta["class_sensors"].items()}


@pytest.fixture(scope="session")
def synth9():
    """Nine classes, three sensors, mild angle noise."""
    return synth_session(class_count=9, sensor_count=3, noise_deg=0.5, seed=42)


@pytest.fixture(scope="session")
def spasm9():
    """Like synth9 but class 1 carries involuntary amplitude modulation
    comparable to its (reduced) motion range."""
    return synth_session(
        class_count=9, sensor_count=3, noise_deg=0.5,
        spasm_deg=10.0, spasm_class=1, class_scale={1: 0.55}, seed=42,
    )


@pytest.fixture(scope="session")
def small_noiseless():
    """Four classes, one sensor, zero noise: exactly separable."""
    return synth_session(class_count=4, sensor_count=1, noise_deg=0.0, seed=3)


@pytest.fixture(scope="session")
def small_noisy():
    """Small session for fast pipeline/CLI tests."""
    return synth_session(class_count=3, sensor_count=2, noise_deg=0.5, seed=9)


@pytest.fixture(scope="session")
def model9(synth9):
    model, test_windows = train_session(
        synth9, class_sensor=_gamma_sensors(synth9), learn_amplitude=True
    )
    return model, test_windows


@pytest.fixture(scope="session")
def small_model(small_noisy):
    model, test_windows = train_session(
        small_noisy, class_sensor=_gamma_sensors(small_noisy), learn_amplitude=True
    )
    return model, test_windows


@pytest.fixture(scope="session")
def sae7():
    """Single-amplitude session recorded at the user's full range."""
    return synth_session(class_count=7, seed=13)


@pytest.fixture(scope="session")
def mae7():
    """Multi-amplitude session: minimum, intermediate, maximum range."""
    return synth_session(class_count=7, amplitudes=(0.5, 0.75, 1.0), seed=5)


@pytest.fixture(scope="session")
def days5():
    """Five consecutive-day sessions with cumulative execution drift."""
    return [
        synth_session(
            class_count=9,
            amplitude_deg=12.0,
            noise_deg=1.0,
            seed=10 + day,
            target_bias_deg=1.5 * (day - 1),
            rotation_seed=321,
            shuffle_test_seq=True,
        )
        for day in range(1, 6)
    ]


class FuseCounts:
    """How often the offline path fused each sequence, keyed by its raw data.

    Each call appends its key to a log file, so calls made in forked
    ``run_all`` pool workers count too. It compares equal to a mapping
    of key to call count.
    """

    def __init__(self, log: Path) -> None:
        self.log = log

    @staticmethod
    def key(samples) -> str:
        return hashlib.sha256(samples.tobytes()).hexdigest()

    def add(self, key: str) -> None:
        with self.log.open("a", encoding="ascii") as fh:
            fh.write(key + "\n")

    def counts(self) -> Counter:
        return Counter(self.log.read_text(encoding="ascii").split()) if self.log.exists() else Counter()

    def __eq__(self, other) -> bool:
        return self.counts() == other

    __hash__ = None

    def __repr__(self) -> str:
        return f"FuseCounts({dict(self.counts())!r})"


@pytest.fixture
def fuse_counts(monkeypatch, tmp_path):
    """Count ``fuse_sequence`` calls made through ``bomi.experiments``,
    in this process or in processes forked from it."""
    counts = FuseCounts(tmp_path / "fuse_calls.log")
    original = bomi.experiments.fuse_sequence

    def counting(samples, *args, **kwargs):
        counts.add(counts.key(samples))
        return original(samples, *args, **kwargs)

    monkeypatch.setattr(bomi.experiments, "fuse_sequence", counting)
    return counts
