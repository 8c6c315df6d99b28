"""Compile and load bomi's kernels, ``_fuse.c``, when bomi.fusion is imported.

The one extension holds the complementary filter (entries ``run`` and
``tick``) and its measurements, the fv3 statistics, the LDA class
moments (``moments``), the LDA scores with their labels, the readers of
recording JSON and CSV (which convert each number by multiplying its
digits by a table of 128-bit powers of five) and their writers
(``write_json`` and ``write_csv``, which spell each double in its
shortest digits by Ryū, with tables of 125-bit multipliers of powers of
five). Both kinds of table are built when the module is created, with
GCC's and Clang's ``unsigned __int128``.
It is built with the C compiler the interpreter was built with
(sysconfig's ``CC``) into ``__pycache__`` beside this file. Its file name
carries a hash of the source, the compile options and the interpreter's
extension suffix, so a changed source or flag set never loads a stale
build. Each build writes a temporary file in the same directory and
renames it into place, so processes that import at once (a test run, a
pool of workers) each load a complete file; it then removes the builds of
other sources for the same suffix, so the directory keeps one build per
interpreter. There is no pure-Python fallback: without a compiler the
import fails.

FLAGS keep the kernel's bits equal to CPython's own float arithmetic:
``-ffp-contract=off`` forbids fused multiply-adds and ``-fno-fast-math``
keeps IEEE semantics, and ``-fno-builtin-sin -fno-builtin-cos`` keeps
``sin`` and ``cos`` two C-library calls, as ``math.sin`` and
``math.cos`` make them, where the compiler would merge them into one
``sincos`` call.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import re
import shlex
import subprocess
import sysconfig
import tempfile
from pathlib import Path
from types import ModuleType

SOURCE = Path(__file__).with_name("_fuse.c")
BUILD_DIR = Path(__file__).with_name("__pycache__")
FLAGS = ("-O2", "-ffp-contract=off", "-fno-fast-math", "-fno-builtin-sin", "-fno-builtin-cos",
         "-shared", "-fPIC")
MODULE = "bomi._fuse"


def compiler() -> list[str]:
    """The interpreter's C compiler command, as sysconfig names it."""
    return shlex.split(sysconfig.get_config_var("CC") or "cc")


def _options() -> list[str]:
    """The compiler, its flags and the include directory."""
    return [*compiler(), *FLAGS, "-I", sysconfig.get_paths()["include"]]


def _suffix() -> str:
    """The interpreter's extension module suffix."""
    return sysconfig.get_config_var("EXT_SUFFIX")


def artifact(build_dir: Path, source: Path = SOURCE) -> Path:
    """Where the build of ``source`` with these options and this interpreter goes."""
    suffix = _suffix()
    key = hashlib.sha256(b"\0".join(
        [source.read_bytes(), *(a.encode() for a in _options()), suffix.encode()]
    )).hexdigest()[:16]
    return build_dir / f"_fuse.{key}{suffix}"


def build(build_dir: Path, source: Path = SOURCE) -> Path:
    """Compile ``source`` unless its build exists; return the build's path.

    A new build removes the other ``_fuse.*`` builds in ``build_dir`` for
    this interpreter's suffix; temporary files of builds in progress stay.

    Raises:
        ImportError: the compiler is missing or fails; the message names
            the command.
    """
    target = artifact(build_dir, source)
    if target.exists():
        return target
    command = [*_options(), str(source)]
    tmp = None
    try:
        build_dir.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=".tmp-", suffix=target.suffix, dir=build_dir)
        os.close(fd)
        done = subprocess.run([*command, "-o", tmp], capture_output=True, text=True)
        if done.returncode != 0:
            raise ImportError(f"building {MODULE} failed ({shlex.join(command)}):\n"
                              f"{done.stderr.strip()}")
        os.replace(tmp, target)
        _prune(build_dir, target)
    except OSError as exc:
        raise ImportError(f"cannot build {MODULE} into {build_dir} with {shlex.join(command)}: "
                          f"{exc}; bomi compiles its kernels when it is imported, "
                          "with a C compiler and the Python headers") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
    return target


def _prune(build_dir: Path, target: Path) -> None:
    """Remove the builds in ``build_dir`` of other sources or options for
    this interpreter's suffix (a bare ``.so`` suffix must not take another
    interpreter's builds, hence the exact name form)."""
    name = re.compile(r"_fuse\.[0-9a-f]{16}" + re.escape(_suffix()))
    for stale in build_dir.iterdir():
        if stale != target and name.fullmatch(stale.name):
            try:
                stale.unlink()
            except FileNotFoundError:  # another process pruned it first
                pass


def load(build_dir: Path = BUILD_DIR, source: Path = SOURCE) -> ModuleType:
    """Build ``source`` if needed and import it as ``bomi._fuse``."""
    spec = importlib.util.spec_from_file_location(MODULE, build(build_dir, source))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
