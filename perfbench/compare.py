"""Compare two bomi benchmark results files, workload by workload.

    python3 perfbench/compare.py perfbench/out/base.json perfbench/out/change.json

Each file is what ``run.py --runs N --out FILE`` writes; make both with the
same benchmark code, ``--seconds`` and seeds, on the same machine. For
every workload and end-to-end metric this prints the median and quartiles
of each side and one verdict:

- ``better``: the change wins at least nine tenths of the runs paired by
  seed (ties count for neither), there are at least ten pairs, and the
  medians differ by more than the base's quartile spread;
- ``worse``: the change's median is worse than the base's by more than
  the metric's bound;
- ``unresolved``: either side's quartile spread, as a share of its median,
  is wider than the bound, and not every change run beats every base run;
- ``unchanged``: otherwise.

A gain claimed on the development seeds must also hold on the
confirmation seeds (``--seed CONFIRM_SEED --runs 10``), which no change
uses while it is being written.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

DEV_SEED = 1
CONFIRM_SEED = 7919
MIN_PAIRS = 10
WIN_SHARE = 0.9

# Metrics that run.py reports on only some workloads, so BENCHMARK.json
# (which needs every metric on every workload) does not list them. Their
# bound matches wall_s: run-to-run spreads of 3-11% (in reference seconds)
# were measured for them on the 2-core machine the baseline comes from.
# name -> (better, bound)
WORKLOAD_METRICS = {
    "cmd_synth_s": ("lower", 0.25),
    "cmd_train_s": ("lower", 0.25),
    "cmd_eval_s": ("lower", 0.25),
    "stream_ticks_per_s": ("higher", 0.25),
    "step_p50_us": ("lower", 0.25),
    "step_p99_us": ("lower", 0.25),
}


def load_runs(path: Path) -> tuple[dict, dict[str, list[dict]]]:
    record = json.loads(path.read_text(encoding="utf-8"))
    by_workload: dict[str, list[dict]] = {}
    for run in record["runs"]:
        if run["trace"] == 0:
            by_workload.setdefault(run["workload"], []).append(run)
    return record, by_workload


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: dict[int, float], new: dict[int, float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0  # positive gain = improvement
    b_vals, n_vals = list(base.values()), list(new.values())
    bq1, bmed, bq3 = quartiles(b_vals)
    nq1, nmed, nq3 = quartiles(n_vals)
    seeds = sorted(set(base) & set(new))
    wins = sum(1 for s in seeds if sign * (base[s] - new[s]) > 0)
    if (len(seeds) >= MIN_PAIRS and wins >= WIN_SHARE * len(seeds)
            and abs(nmed - bmed) > bq3 - bq1):
        return "better"
    spread = max((bq3 - bq1) / abs(bmed) if bmed else 0.0,
                 (nq3 - nq1) / abs(nmed) if nmed else 0.0)
    every_run_better = all(sign * (b - n) > 0 for b in b_vals for n in n_vals)
    if spread > bound and not every_run_better:
        return "unresolved"
    worse_by = sign * (nmed - bmed) / abs(bmed) if bmed else 0.0
    return "worse" if worse_by > bound else "unchanged"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Compare two bomi benchmark results files.")
    parser.add_argument("base")
    parser.add_argument("change")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rules = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
    rules.update(WORKLOAD_METRICS)

    base_rec, base = load_runs(Path(args.base))
    new_rec, new = load_runs(Path(args.change))
    for key in ("cpu_model", "nproc", "python", "numpy", "scipy"):
        if base_rec["env"].get(key) != new_rec["env"].get(key):
            print(f"warning: {key} differs: {base_rec['env'].get(key)} vs "
                  f"{new_rec['env'].get(key)}")
    print(f"base   {args.base} (commit {base_rec['git']['commit']})")
    print(f"change {args.change} (commit {new_rec['git']['commit']})")
    header = (f"{'workload':11s} {'metric':19s} {'unit':5s} {'base median [q1, q3]':>32s} "
              f"{'change median [q1, q3]':>32s} {'delta':>8s}  verdict")
    print(header)
    worse = 0
    for workload in sorted(set(base) & set(new)):
        b_runs, n_runs = base[workload], new[workload]
        b_failed = sum(r["failed"] for r in b_runs)
        n_failed = sum(r["failed"] for r in n_runs)
        names = [n for n in b_runs[0]["metrics"] if n in n_runs[0]["metrics"]]
        for name in names:
            better, bound = rules[name]
            b = {r["seed"]: r["metrics"][name]["value"] for r in b_runs}
            n = {r["seed"]: r["metrics"][name]["value"] for r in n_runs}
            bq1, bmed, bq3 = quartiles(list(b.values()))
            nq1, nmed, nq3 = quartiles(list(n.values()))
            v = verdict(b, n, better, bound)
            worse += v == "worse"
            delta = (nmed - bmed) / bmed if bmed else 0.0
            unit = b_runs[0]["metrics"][name]["unit"]
            print(f"{workload:11s} {name:19s} {unit:5s} "
                  f"{bmed:12.5g} [{bq1:8.5g}, {bq3:8.5g}] "
                  f"{nmed:12.5g} [{nq1:8.5g}, {nq3:8.5g}] {delta:+8.2%}  {v}")
        failed_verdict = "worse" if n_failed > b_failed else "unchanged"
        worse += failed_verdict == "worse"
        print(f"{workload:11s} {'failed_frac':19s} {'ratio':5s} "
              f"{b_failed / sum(r['attempted'] for r in b_runs):>32.3g} "
              f"{n_failed / sum(r['attempted'] for r in n_runs):>32.3g} {'':8s}  {failed_verdict}")
    print(f"development seeds start at {DEV_SEED}; confirm a claimed gain on seeds "
          f"{CONFIRM_SEED}..{CONFIRM_SEED + MIN_PAIRS - 1} "
          f"(run.py --workload all --seed {CONFIRM_SEED} --runs {MIN_PAIRS})")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
