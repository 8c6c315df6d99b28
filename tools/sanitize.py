"""Run test files against a copy of bomi whose kernel is built with
AddressSanitizer and UndefinedBehaviorSanitizer.

    python3 tools/sanitize.py tests/test_lda.py tests/test_fusion.py [pytest options]

It copies ``src/bomi`` into a temporary directory and compiles the copy's
``_fuse.c`` there with the options ``bomi._build`` uses plus
``-fsanitize=address,undefined -fno-sanitize-recover=undefined``. The
build goes where ``bomi._build`` looks for the copy's build, so the copy
loads it as it is; neither ``bomi._build`` nor any runtime option
changes. Then pytest runs the given files, and any other arguments, with
the copy first on ``PYTHONPATH`` and the compiler's libasan and libubsan
preloaded (the interpreter itself is not instrumented). A memory fault
or undefined behaviour in the kernel aborts the process it happens in.
The sanitizers write their reports to files, since pytest captures the
standard error of a test that dies, and the tool prints each report after
the run. Leak checks are off: CPython keeps memory until exit by design.
The exit status is pytest's, or 1 when there is a report.

It needs GCC or Clang with the sanitizer runtimes, and it is slow; the
tier-1 suite does not run it.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SANITIZE = ("-fsanitize=address,undefined", "-fno-sanitize-recover=undefined",
            "-fno-omit-frame-pointer", "-g")


def runtime(compiler: list[str], name: str) -> str:
    """The path of the compiler's sanitizer runtime ``name``."""
    done = subprocess.run([*compiler, f"-print-file-name={name}"], capture_output=True,
                          text=True, check=True)
    path = done.stdout.strip()
    if not os.path.isabs(path):
        raise SystemExit(f"{compiler[0]} has no {name}")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tests", nargs="+", help="test files; other arguments go to pytest")
    args, pytest_args = parser.parse_known_args(argv)
    with tempfile.TemporaryDirectory(prefix="bomi-sanitize-") as work:
        package = Path(work) / "src" / "bomi"
        shutil.copytree(ROOT / "src" / "bomi", package,
                        ignore=shutil.ignore_patterns("__pycache__"))
        # The copy's build module alone: importing the package would build the kernel.
        spec = importlib.util.spec_from_file_location("bomi_sanitize_build",
                                                      package / "_build.py")
        build = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(build)
        target = build.artifact(build.BUILD_DIR)
        target.parent.mkdir()
        command = [*build._options(), *SANITIZE, str(build.SOURCE), "-o", str(target)]
        if subprocess.run(command).returncode != 0:
            print(f"building failed: {' '.join(command)}", file=sys.stderr)
            return 1
        compiler = build.compiler()
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [str(package.parent),
                                                        os.environ.get("PYTHONPATH")])),
            "LD_PRELOAD": " ".join([runtime(compiler, "libasan.so"),
                                    runtime(compiler, "libubsan.so")]),
            "ASAN_OPTIONS": f"detect_leaks=0:log_path={work}/asan",
            "UBSAN_OPTIONS": f"print_stacktrace=1:log_path={work}/ubsan",
        }
        status = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                                 *args.tests, *pytest_args], cwd=ROOT, env=env).returncode
        reports = sorted([*Path(work).glob("asan.*"), *Path(work).glob("ubsan.*")])
        for report in reports:
            print(f"== {report.name}\n{report.read_text(errors='replace')}", file=sys.stderr)
        return status or (1 if reports else 0)


if __name__ == "__main__":
    sys.exit(main())
