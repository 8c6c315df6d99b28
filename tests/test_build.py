"""Building the kernels: concurrent builds, stale builds and a missing compiler."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import bomi
from bomi import _build

# Waits for a line on stdin, so that both processes build at once, then
# builds into argv[1] and prints the module file and the bits of a run.
BUILD_AND_RUN = """
import sys
from pathlib import Path
import numpy as np
from bomi import _build
print("ready", flush=True)
sys.stdin.readline()
kernel = _build.load(Path(sys.argv[1]))
samples = np.random.default_rng(5).normal(size=(300, 2, 9))
raw, bits = np.empty((300, 2, 3)), np.empty((300, 2), dtype=np.uint8)
refused = kernel.run(samples, 0.98, 1 / 60, 85.0, raw, bits)
print(kernel.__file__, raw.tobytes().hex(), bits.tobytes().hex(), refused)
"""


def test_two_processes_build_into_an_empty_directory(tmp_path):
    src = str(Path(bomi.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    procs = [subprocess.Popen([sys.executable, "-c", BUILD_AND_RUN, str(tmp_path)],
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, env=env)
             for _ in range(2)]
    for proc in procs:
        assert proc.stdout.readline() == "ready\n"
    outputs = [proc.communicate("\n", timeout=300) for proc in procs]
    for proc, (_, err) in zip(procs, outputs):
        assert proc.returncode == 0, err
    assert outputs[0][0] == outputs[1][0]
    target = _build.artifact(tmp_path)
    assert outputs[0][0].split()[0] == str(target)
    assert [p.name for p in tmp_path.iterdir()] == [target.name]


def test_a_build_of_another_source_is_not_loaded(tmp_path):
    text = _build.SOURCE.read_text()
    assert text.count("< 1e-24") == 1
    source = tmp_path / "_fuse.c"
    # A kernel that takes every accelerometer reading for a zero vector.
    source.write_text(text.replace("< 1e-24", "< 1e300"))
    stale = _build.build(tmp_path, source)
    # Neither another interpreter's build nor a build in progress is stale.
    kept = [tmp_path / "_fuse.0123456789abcdef.cpython-39-x86_64-linux-gnu.so",
            tmp_path / f".tmp-x{stale.suffix}"]
    for path in kept:
        path.write_bytes(b"")
    source.write_text(text)
    kernel = _build.load(tmp_path, source)
    assert Path(kernel.__file__) == _build.artifact(tmp_path, source) != stale
    # The new build removes the stale one.
    assert sorted(tmp_path.iterdir()) == sorted([source, Path(kernel.__file__), *kept])
    assert kernel.measure(0.0, 0.0, 1.0) is not None


def test_a_missing_compiler_fails_the_import_naming_the_command(tmp_path, monkeypatch):
    monkeypatch.setattr(_build, "compiler", lambda: ["bomi-no-such-cc"])
    with pytest.raises(ImportError) as info:
        _build.load(tmp_path)
    message = str(info.value)
    assert "bomi-no-such-cc" in message
    assert all(flag in message for flag in _build.FLAGS)
    assert isinstance(info.value.__cause__, OSError)
    assert list(tmp_path.iterdir()) == []
