"""bomi benchmark: run workloads, print their metrics, write a results file.

Run from the root of a checkout:

    python3 perfbench/run.py --workload stream-hub --seed 1 --seconds 14 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --runs 10 --out perfbench/out/base.json

Each workload run happens in its own worker process (``worker.py``), one
at a time; this process measures the worker's peak resident memory from
outside. ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics from a traced run. ``--runs N`` repeats every workload
on seeds ``seed .. seed+N-1``. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
for a single run the metrics are exactly the ones ``BENCHMARK.json``
lists for that trace mode. Every run is also written, with the machine
and the commit, to a results file that ``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("quickstart", "studies", "stream-hub")
# Every run must end within 180 s; the worker gets what is left of that.
RUN_LIMIT_S = 170.0


def git_commit() -> dict:
    """Commit and dirty flag when the checkout is a git repository."""
    if not (ROOT / ".git").exists():
        return {"commit": None, "dirty": None}
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=30, check=True)
        status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"],
                                capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return {"commit": None, "dirty": None}
    return {"commit": commit.stdout.strip(), "dirty": bool(status.stdout.strip())}


def run_worker(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """Run one workload in a child process; add its peak RSS to the result."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    log = OUT_DIR / f"worker-{workload}.out"
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    deadline = time.monotonic() + RUN_LIMIT_S
    with log.open("w", encoding="utf-8") as out:
        proc = subprocess.Popen(cmd, stdout=out, cwd=ROOT)
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.05)
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = log.read_text(encoding="utf-8").splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} worker exited with {proc.returncode}")
    result = json.loads(lines[-1])
    if not trace:
        # ru_maxrss is in KiB on Linux.
        result["metrics"]["peak_rss_mb"] = {"value": usage.ru_maxrss / 1024.0, "unit": "MB"}
    result.update(workload=workload, seed=seed, seconds=seconds, trace=trace)
    return result


def print_run(r: dict) -> None:
    print(f"== {r['workload']} seed {r['seed']} trace {r['trace']}: "
          f"attempted {r['attempted']}, failed {r['failed']}, "
          f"failed_frac {r['info']['failed_frac']:g}")
    for name, m in r["metrics"].items():
        print(f"   {name:36s} {m['value']:14.6g} {m['unit']}")


def contract_line(runs: list[dict], listed: dict[int, list[str]]) -> dict:
    """Final JSON line; a single run reports exactly the listed metrics."""
    line = {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
    }
    if len(runs) == 1:
        r = runs[0]
        line["metrics"] = {name: r["metrics"][name] for name in listed[r["trace"]]}
    else:
        line["metrics"] = {
            f"{r['workload']}.seed{r['seed']}.{name}": m
            for r in runs for name, m in r["metrics"].items()
        }
    return line


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run the bomi benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measured seconds per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1, help="seeds per workload")
    parser.add_argument("--out", default=None, help="results file (JSON)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bomi" / "__init__.py").is_file():
        print(f"error: {ROOT} has no src/bomi to benchmark", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = {0: [m["name"] for m in bench["end_to_end"]],
              1: [m["name"] for m in bench["per_layer"]]}
    seconds = args.seconds or bench["run_seconds"]
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)

    runs = []
    try:
        for i in range(args.runs):
            for workload in workloads:
                r = run_worker(workload, args.seed + i, seconds, args.trace)
                missing = set(listed[args.trace]) - set(r["metrics"])
                if missing:
                    raise RuntimeError(f"{workload} did not report {sorted(missing)}")
                print_run(r)
                runs.append(r)
    except (RuntimeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    out = Path(args.out) if args.out else OUT_DIR / (
        f"results-{args.workload}-seed{args.seed}-trace{args.trace}"
        f"{f'-runs{args.runs}' if args.runs > 1 else ''}.json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    record = {
        "git": git_commit(),
        "env": runs[0]["info"]["env"],
        "argv": sys.argv[1:],
        "runs": runs,
    }
    out.write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(f"results written to {out}")
    print(json.dumps(contract_line(runs, listed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
