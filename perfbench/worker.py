"""Run one bomi benchmark workload in this process and report it.

``run.py`` starts one worker process per workload run; run it directly
only to debug a workload:

    python3 perfbench/worker.py --workload stream-hub --seed 1 --seconds 14 --trace 0

The worker imports bomi from ``src/`` of the checkout it sits in, sets up
the workload ``SETUP_REPEATS`` times (the median is ``setup_s``), then repeats the
workload's round until ``--seconds`` have passed (always at least one
round) and checks every output. A speed probe (``speed.py``) runs all the
while; every reported time is in its reference seconds, and the raw wall
times go to ``info["raw"]``. It prints one JSON line: ``correct``,
``attempted``, ``failed``, ``metrics`` (name -> value and unit) and
``info``. With ``--trace 1`` it alternates untraced and traced rounds and
reports the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import shutil
import statistics
import sys
import time
import traceback
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import speed
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

SETUP_REPEATS = 2

# Held-out accuracy floors in percent. Every session here is synthetic, so
# its labels are ground truth. Each floor is 3 points under the lowest
# accuracy seen on seeds 1-20, 101, 1001, 7919 and 123456 (rounded down),
# so a broken classifier fails the check while seed-to-seed variation
# does not.
QUICKSTART_FLOORS = {"a": 97.0, "b": 97.0}
STUDIES_FLOORS = {
    "fv_P1": 97.0,
    "fv_P4": 96.0,
    "mae": 96.0,
    "sae": 85.0,
    "multiday": 96.0,
}
STREAM_FLOOR = 97.0

# (sensor count, feature kind) per wearer served by the stream hub.
WEARERS = ((3, "fv3"), (2, "fv1"), (4, "fv2"), (6, "fv3"))
HELD_OUT = 3  # 1-based sequence replayed by each wearer


def import_bomi():
    """Import bomi from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "bomi" / "__init__.py").is_file():
        raise SystemExit(f"error: no bomi sources under {src}")
    sys.path.insert(0, str(src))
    import bomi
    import bomi.cli

    if Path(bomi.__file__).resolve().parent != (src / "bomi").resolve():
        raise SystemExit(f"error: imported bomi from {bomi.__file__}, not {src}")
    return bomi


class Failures:
    """Attempted and failed operation counts; failures are logged to stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)
        return ok

    def add(self, other: "Failures") -> None:
        self.attempted += other.attempted
        self.failed += other.failed


def untraced(fn, name):
    """Stand-in for ``Tracer.wrap`` in untraced rounds: no span, no cost."""
    return fn


def run_cli(bomi, argv: list[str], wrap=untraced) -> tuple[float, float, bool]:
    """Call ``bomi.cli.main(argv)``; return (start, end, exit code was 0)."""
    main = wrap(bomi.cli.main, "cli.main")
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:
        traceback.print_exc()
        code = None
    return t0, time.perf_counter(), code == 0


def read_json(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


@dataclass
class Round:
    """One round of a workload: when it ran, its checked operations, timed parts.

    Every time is a ``time.perf_counter()`` stamp, converted to durations
    only once the run is over.
    """

    start: float
    end: float
    ops: Failures
    # (metric, start, end) of every CLI command the round ran
    commands: list[tuple[str, float, float]] = field(default_factory=list)
    # start and end of every stream step
    steps: tuple[np.ndarray, np.ndarray] | None = None


class Quickstart:
    """The README quick start twice: a JSON session and a CSV session.

    Each session runs ``bomi synth``, ``bomi train --fv fv3`` and
    ``bomi eval`` through ``bomi.cli.main``.
    """

    name = "quickstart"

    def __init__(self, bomi, seed: int, work: Path) -> None:
        self.bomi = bomi
        self.work = work
        self.seed = seed
        self.sessions = (
            ("a", "json", ["--classes", "9", "--sensors", "3", "--noise", "0.5",
                           "--seed", str(seed)]),
            ("b", "csv", ["--classes", "6", "--sensors", "2", "--spasm", "10",
                          "--seed", str(seed + 1)]),
        )

    def setup(self) -> None:
        """Warm up: the three commands once on a small 2-class, 1-sensor session."""
        warm = self.work / "warmup"
        shutil.rmtree(warm, ignore_errors=True)
        warm.mkdir(parents=True)
        rec, model = str(warm / "w.json"), str(warm / "m.json")
        for argv in (
            ["synth", "--classes", "2", "--sensors", "1", "--seed", str(self.seed + 2),
             "--out", rec],
            ["train", "--recording", rec, "--fv", "fv3", "--out", model],
            ["eval", "--model", model, "--recording", rec, "--out", str(warm / "r")],
        ):
            if not run_cli(self.bomi, argv)[2]:
                raise RuntimeError(f"warm-up command failed: {argv[0]}")

    def check_setup(self) -> Failures:
        return Failures()

    def round(self, wrap=untraced) -> Round:
        ops = Failures()
        commands = []
        evaluated = []
        for name, _, _ in self.sessions:
            shutil.rmtree(self.work / f"report_{name}", ignore_errors=True)
        t0 = time.perf_counter()
        for name, fmt, synth_args in self.sessions:
            rec = str(self.work / f"session_{name}.{fmt}")
            model = str(self.work / f"model_{name}.json")
            report = self.work / f"report_{name}"
            for metric, argv in (
                ("cmd_synth_s", ["synth", *synth_args, "--out", rec]),
                ("cmd_train_s", ["train", "--recording", rec, "--fv", "fv3", "--out", model]),
                ("cmd_eval_s", ["eval", "--model", model, "--recording", rec,
                                "--out", str(report)]),
            ):
                start, end, ok = run_cli(self.bomi, argv, wrap)
                commands.append((metric, start, end))
                if ok and argv[0] == "eval":
                    evaluated.append((name, report))  # judged once the clock stops
                elif not ops.record(ok, f"bomi {argv[0]} (session {name}) exit code"):
                    break
        t1 = time.perf_counter()
        for name, report in evaluated:
            result = read_json(report / "accuracy.json")
            floor = QUICKSTART_FLOORS[name]
            ok = result is not None and result.get("accuracy_pct", -1.0) >= floor
            ops.record(ok, f"session {name}: accuracy.json missing or accuracy below {floor}%")
        return Round(t0, t1, ops, commands)


class Studies:
    """``bomi experiments run-all`` over a directory in the demo-data layout."""

    name = "studies"

    def __init__(self, bomi, seed: int, work: Path) -> None:
        self.bomi = bomi
        self.seed = seed
        self.data = work / "dataset"
        self.reports = work / "reports"

    def setup(self) -> None:
        """Write P1, P4, the P1_sae/P1_mae pair and day1-day3 as JSON.

        The parameters follow ``bomi demo-data`` for the same file names.
        """
        from bomi.dataset_io import save_recording, synth_session

        s = self.seed
        shutil.rmtree(self.data, ignore_errors=True)
        self.data.mkdir(parents=True)
        sessions = {
            "P1": synth_session(seed=s),
            "P4": synth_session(class_count=6, sensor_count=2, spasm_deg=10.0,
                                spasm_class=1, class_scale={1: 0.55}, seed=s + 3),
            "P1_sae": synth_session(class_count=7, seed=s + 5),
            "P1_mae": synth_session(class_count=7, amplitudes=(0.5, 0.75, 1.0), seed=s + 6),
        }
        for day in range(1, 4):
            sessions[f"day{day}"] = synth_session(
                seed=s + 10 + day, amplitude_deg=12.0, noise_deg=1.0,
                target_bias_deg=1.5 * (day - 1), rotation_seed=321,
                shuffle_test_seq=True,
            )
        for stem, rec in sessions.items():
            save_recording(rec, self.data / f"{stem}.json")

    def check_setup(self) -> Failures:
        return Failures()

    def round(self, wrap=untraced) -> Round:
        ops = Failures()
        shutil.rmtree(self.reports, ignore_errors=True)
        t0, t1, ok = run_cli(self.bomi, ["experiments", "run-all", "--data", str(self.data),
                                         "--out", str(self.reports)], wrap)
        if not ok:
            ops.record(False, "bomi experiments run-all exit code")
            return Round(t0, t1, ops)
        report = read_json(self.reports / "report.json")
        ops.record(report is not None and self._accurate(report),
                   "report.json missing, incomplete, or an accuracy below its floor")
        return Round(t0, t1, ops)

    @staticmethod
    def _accurate(report: dict) -> bool:
        try:
            fv = report["fv_comparison"]["accuracies"]
            amp = report["amplitude"]["P1"]
            days = report["multiday"]
            checks = [
                (fv["P1"][k], STUDIES_FLOORS["fv_P1"]) for k in ("fv1", "fv2", "fv3")
            ] + [
                (fv["P4"][k], STUDIES_FLOORS["fv_P4"]) for k in ("fv1", "fv2", "fv3")
            ] + [
                (amp["mae_accuracy_pct"], STUDIES_FLOORS["mae"]),
                (amp["sae_accuracy_pct"], STUDIES_FLOORS["sae"]),
            ] + [
                (a, STUDIES_FLOORS["multiday"])
                for a in days["day1_model_accuracy_pct"] + days["dday_model_accuracy_pct"]
            ]
        except (KeyError, TypeError):
            return False
        return len(days["day1_model_accuracy_pct"]) == 3 and all(
            a >= floor for a, floor in checks
        )


class StreamHub:
    """One hub serving four wearers round-robin, one tick each, closed loop.

    Each wearer replays its held-out sequence through its own
    ``StreamingPipeline``; every command goes to that wearer's
    ``VirtualDevice``. A step's latency covers building the tick's samples,
    ``step`` and ``send``.
    """

    name = "stream-hub"

    def __init__(self, bomi, seed: int, work: Path) -> None:
        self.bomi = bomi
        self.seed = seed
        self.wearers: list = []

    def setup(self) -> None:
        """Synthesize each wearer's session and train its model on sequences 1-2."""
        from bomi import synth_session, train_session

        self.wearers = []
        for i, (sensors, kind) in enumerate(WEARERS):
            rec = synth_session(class_count=9, sensor_count=sensors, seed=self.seed + i)
            class_sensor = {int(c): int(s) for c, s in rec.meta["class_sensors"].items()}
            model, test_windows = train_session(rec, feature_kind=kind,
                                                class_sensor=class_sensor)
            self.wearers.append((rec, model, test_windows))

    def check_setup(self) -> Failures:
        """Held-out accuracy per model; keep offline predictions for the equivalence check."""
        from bomi import evaluate
        from bomi.experiments import extract_matrix, predict_many

        ops = Failures()
        self.reference = []
        for w, (rec, model, test_windows) in enumerate(self.wearers):
            acc = evaluate(model, test_windows).accuracy
            ops.record(acc >= STREAM_FLOOR, f"wearer {w}: accuracy {acc:.2f}% < {STREAM_FLOOR}%")
            X = extract_matrix(model.feature_kind, test_windows, model.layout)
            ends = [tw.start_tick + len(tw.angles) - 1 for tw in test_windows]
            self.reference.append(dict(zip(ends, predict_many(model, X).tolist())))
        return ops

    def round(self, wrap=untraced) -> Round:
        from bomi import StreamingPipeline, VirtualDevice

        pipes, devices, seqs = [], [], []
        for rec, model, _ in self.wearers:
            pipes.append(StreamingPipeline(model, sample_rate_hz=rec.sample_rate_hz))
            devices.append(VirtualDevice(rec.sample_rate_hz))
            seqs.append(rec.sequences[HELD_OUT - 1])
        n_ticks = min(seq.n_ticks for seq in seqs)
        k = len(pipes)
        emitted: list[list[tuple[int, int]]] = [[] for _ in range(k)]
        starts, ends = array("d"), array("d")
        errors = 0
        serve = wrap(serve_tick, "stream.tick")
        clock = time.perf_counter
        start = clock()
        for t in range(n_ticks):
            for w in range(k):
                t0 = clock()
                try:
                    out = serve(pipes[w], devices[w], seqs[w], t)
                except Exception:
                    if not errors:
                        traceback.print_exc()
                    errors += 1
                    out = None
                ends.append(clock())
                starts.append(t0)
                if out is not None:
                    emitted[w].append((out.tick, out.label))
        end = clock()

        ops = Failures()
        steps = n_ticks * k
        ops.attempted += steps
        ops.failed += errors
        for w in range(k):
            ref = self.reference[w]
            got = dict(emitted[w])
            wrong = sum(got.get(tick) != label for tick, label in ref.items())
            wrong += sum(tick not in ref for tick in got)
            if wrong:
                ops.failed += wrong
                print(f"FAILED: wearer {w}: {wrong} emitted labels differ from "
                      f"offline predict_many", file=sys.stderr)
        return Round(start, end, ops, steps=(np.frombuffer(starts), np.frombuffer(ends)))


def serve_tick(pipe, device, seq, t: int):
    """One wearer's tick: its samples into ``step``, any command to its device."""
    out = pipe.step(t, seq.tick_samples(t))
    if out is not None:
        device.send(out)
    return out


WORKLOADS = {w.name: w for w in (Quickstart, Studies, StreamHub)}
COMMAND_METRICS = ("cmd_synth_s", "cmd_train_s", "cmd_eval_s")


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an already sorted sequence."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def end_to_end(setups: list[tuple[float, float]], rounds: list[Round],
               clock) -> dict[str, tuple[float, str]]:
    """Every end-to-end metric, with durations taken on ``clock`` (stamp -> seconds)."""

    def dur(a, b) -> float:
        return float(clock(b) - clock(a))

    metrics = {
        "setup_s": (statistics.median(dur(a, b) for a, b in setups), "s"),
        "wall_s": (statistics.median(dur(r.start, r.end) for r in rounds), "s"),
    }
    if rounds[0].commands:
        for name in COMMAND_METRICS:
            metrics[name] = (statistics.median(
                sum(dur(a, b) for m, a, b in r.commands if m == name) for r in rounds
            ), "s")
    if rounds[0].steps is not None:
        metrics["stream_ticks_per_s"] = (statistics.median(
            len(r.steps[0]) / dur(r.start, r.end) for r in rounds
        ), "1/s")
        pooled = np.sort(np.concatenate([clock(e) - clock(s) for s, e in
                                         (r.steps for r in rounds)]))
        metrics["step_p50_us"] = (float(percentile(pooled, 50)) * 1e6, "us")
        metrics["step_p99_us"] = (float(percentile(pooled, 99)) * 1e6, "us")
    return metrics


def wall_clock(t):
    return np.asarray(t)


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ[k] for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"
        ) if k in os.environ},
    }


def blas_threads() -> dict[str, int]:
    """Threads of each OpenBLAS library numpy and scipy loaded (Linux only)."""
    found: dict[str, int] = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return found
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                found[os.path.basename(path)] = fn()
                break
    return found


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    t0 = time.perf_counter()
    bomi = import_bomi()
    import_s = time.perf_counter() - t0
    work = OUT_DIR / f"work-{workload_name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    probe = speed.Probe()
    probe.start()
    try:
        workload = WORKLOADS[workload_name](bomi, seed, work)
        setups = []
        for _ in range(1 if trace else SETUP_REPEATS):
            t0 = time.perf_counter()
            workload.setup()
            setups.append((t0, time.perf_counter()))
        ops = workload.check_setup()

        untraced: list[Round] = []
        traced: list[tuple[Round, tracing.Tracer]] = []
        start = time.perf_counter()
        while (not untraced or (trace and not traced)
               or time.perf_counter() - start < seconds):
            if trace and len(traced) < len(untraced):
                tracer = tracing.Tracer()
                saved = tracing.install(tracer, bomi)
                try:
                    r = workload.round(tracer.wrap)
                finally:
                    tracing.uninstall(saved)
                traced.append((r, tracer))
            else:
                r = workload.round()
                untraced.append(r)
            ops.add(r.ops)
    finally:
        probe.stop()
        shutil.rmtree(work, ignore_errors=True)

    ref = probe.clock()
    kernel = probe.kernel_s()
    info = {
        "import_s": import_s,
        "setup_samples_s": [float(ref(b) - ref(a)) for a, b in setups],
        "round_wall_s": [float(ref(r.end) - ref(r.start)) for r in untraced],
        "raw": {
            "setup_samples_s": [b - a for a, b in setups],
            "round_wall_s": [r.end - r.start for r in untraced],
        },
        "probe": {
            "samples": len(kernel),
            "kernel_p50_s": float(np.median(kernel)),
            "kernel_p10_p90_s": np.percentile(kernel, [10, 90]).tolist(),
            "ref_kernel_s": speed.REF_KERNEL_S,
        },
        "failed_frac": ops.failed / ops.attempted,
        "env": environment(),
    }
    if trace:
        spans = OUT_DIR / f"spans-{workload_name}.npz"
        traced[-1][1].write(spans)
        info["spans_file"] = str(spans.relative_to(ROOT))
        info["traced_wall_s"] = [float(ref(r.end) - ref(r.start)) for r, _ in traced]
        layers = [tracing.layer_metrics(tr, ref) for _, tr in traced]
        metrics = {
            name: (statistics.median(m[name][0] for m in layers), unit)
            for name, (_, unit) in layers[0].items()
        }
        overhead = (statistics.median(info["traced_wall_s"])
                    / statistics.median(info["round_wall_s"]) - 1.0)
        metrics["trace.overhead_frac"] = (overhead, "ratio")
    else:
        metrics = end_to_end(setups, untraced, ref)
        info["raw"]["metrics"] = {
            k: v for k, (v, _) in end_to_end(setups, untraced, wall_clock).items()
        }
    return {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "info": info,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
