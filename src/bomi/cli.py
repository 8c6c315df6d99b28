"""Command-line front end.

Subcommands: ``synth``, ``train``, ``eval``, ``replay``,
``experiments run-all``, and ``demo-data``. All outputs are files;
stdout carries a short summary. Exit codes: 0 success, 2 input/data
error, 3 numerical error, 4 a worker process that died. Every
subcommand is deterministic given its inputs and seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .dataset_io import (
    ImportMapping,
    SplitSpec,
    check_sequence_indices,
    load_recording,
    save_recording,
    synth_session,
)
from .errors import DataError, NumericalError, ParseError, PoolError
from .experiments import (
    evaluate,
    run_all,
    sequence_windows,
    train_session,
)
from .features import FEATURE_KINDS
from .fusion import FusionConfig
from .lda import deserialize, serialize
from .pipeline import CommandMapping, VirtualDevice, replay


def _parse_list(flag: str, text: str, item=int) -> list:
    """The comma-separated items of a flag's value, each parsed by ``item``."""
    try:
        return [item(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise ParseError(f"{flag}: cannot parse {text!r}") from None


def _class_pair(part: str) -> tuple[int, float]:
    """``class:value`` as (int, float)."""
    key, _, value = part.partition(":")
    return int(key), float(value)


def _fusion_config(args, file_cfg) -> FusionConfig:
    return FusionConfig(
        alpha=cfgmod.resolve("fusion.alpha", args.alpha, file_cfg),
        calib_ticks=cfgmod.resolve("fusion.calib_ticks", args.calib_ticks, file_cfg),
        gimbal_guard_deg=cfgmod.resolve(
            "fusion.pitch_gimbal_guard_deg", args.gimbal_guard, file_cfg
        ),
    )


def _window_geometry(args, file_cfg) -> tuple[int, int]:
    """Window length and overlap; an overlap set by neither flag nor file is
    window - 1, one window per tick."""
    window = cfgmod.resolve("features.window", args.window, file_cfg)
    if args.overlap is None and "features.overlap" not in file_cfg:
        return window, window - 1
    overlap = cfgmod.resolve("features.overlap", args.overlap, file_cfg)
    return window, overlap


def _file_cfg(args) -> dict[str, str]:
    return cfgmod.load_config(args.config) if args.config else {}


def cmd_synth(args) -> int:
    amplitudes = _parse_list("--amplitudes", args.amplitudes, float) if args.amplitudes else None
    class_scale = (
        dict(_parse_list("--class-scale", args.class_scale, _class_pair))
        if args.class_scale else None
    )
    rec = synth_session(
        class_count=args.classes,
        sensor_count=args.sensors,
        noise_deg=args.noise,
        spasm_deg=args.spasm,
        spasm_class=args.spasm_class,
        seed=args.seed,
        amplitudes=amplitudes,
        class_scale=class_scale,
        target_rotation_deg=args.target_rotation,
        shuffle_test_seq=args.shuffle_test,
        n_sequences=args.sequences,
    )
    save_recording(rec, args.out)
    print(
        f"wrote {args.out}: {args.sequences} sequences x "
        f"{rec.meta['ticks_per_sequence']} ticks, {args.classes} classes, "
        f"{args.sensors} sensors, seed {args.seed}"
    )
    return 0


def cmd_train(args) -> int:
    file_cfg = _file_cfg(args)
    fusion = _fusion_config(args, file_cfg)
    kind = cfgmod.resolve("features.kind", args.fv, file_cfg)
    shrinkage = cfgmod.resolve("lda.shrinkage", args.shrinkage, file_cfg)
    priors = cfgmod.resolve("lda.priors", args.priors, file_cfg)
    amp_mode = cfgmod.resolve("amplitude.mode", args.amplitude_mode, file_cfg)

    mapping = ImportMapping.from_file(args.mapping) if args.mapping else None
    rec = load_recording(args.recording, mapping=mapping, validate="warn")
    gamma_sensors = (
        {k: int(v) for k, v in _parse_list("--gamma-sensors", args.gamma_sensors, _class_pair)}
        if args.gamma_sensors else None
    )
    if gamma_sensors is None and rec.meta.get("class_sensors"):
        gamma_sensors = {int(k): int(v) for k, v in rec.meta["class_sensors"].items()}

    # Only --holdout-seq2 evaluates a test split; the others fuse none.
    if args.holdout_seq2:
        split = SplitSpec(train=frozenset({1}), test=frozenset({2}))
    elif args.train_seqs:
        split = SplitSpec(train=frozenset(_parse_list("--train-seqs", args.train_seqs)),
                          test=frozenset())
    else:
        # The default split still requires its test sequence to exist.
        SplitSpec().validate(len(rec.sequences))
        split = SplitSpec(test=frozenset())

    window, overlap = _window_geometry(args, file_cfg)
    model, holdout = train_session(
        rec,
        split=split,
        feature_kind=kind,
        fusion=fusion,
        shrinkage=shrinkage,
        priors=priors,
        learn_amplitude=True,
        class_sensor=gamma_sensors,
        amplitude_mode=amp_mode,
        window=window,
        overlap=overlap,
    )
    serialize(model, args.out)

    cov = model.chol_lower @ model.chol_lower.T
    cond = float(np.linalg.cond(cov))
    counts = model.meta.get("class_counts", {})
    print(f"wrote model {args.out}")
    print(f"feature kind {kind}, dim {model.dim}, classes {model.classes.tolist()}")
    print(f"training windows per class: {counts}")
    print(f"covariance condition number {cond:.3e} (shrinkage {shrinkage:g})")
    if args.holdout_seq2 and holdout:
        result = evaluate(model, holdout)
        print(f"held-out sequence 2 accuracy: {result.accuracy:.2f}%")
    return 0


def cmd_eval(args) -> int:
    model = deserialize(args.model)
    rec = load_recording(args.recording, validate="warn")
    if tuple(rec.sensor_ids) != tuple(model.layout.sensor_ids):
        raise DataError(
            f"recording sensors {rec.sensor_ids} do not match model layout "
            f"{model.layout.sensor_ids}"
        )
    seq_indices = _parse_list("--seqs", args.seqs) if args.seqs else [len(rec.sequences)]
    check_sequence_indices(seq_indices, len(rec.sequences))
    windows = sequence_windows(
        rec, *(rec.sequences[qi - 1] for qi in seq_indices),
        fusion=model.fusion, window=model.window, overlap=model.overlap,
    )
    result = evaluate(model, windows)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "accuracy.json").write_text(
        json.dumps(result.to_dict(), indent=2), encoding="utf-8"
    )
    result.confusion.write_csv(out_dir / "confusion.csv")
    print(
        f"accuracy {result.accuracy:.2f}% over {result.n_windows} windows "
        f"({result.n_mixed_excluded} mixed excluded)"
    )
    print(
        f"errors predicting neutral: "
        f"{'-' if result.structure.neutral_fraction is None else f'{100 * result.structure.neutral_fraction:.1f}%'}"
        f", max consecutive misclassifications: {result.structure.max_run}"
    )
    return 0


def cmd_replay(args) -> int:
    v_max = cfgmod.resolve("pipeline.v_max_cm_s", args.v_max, _file_cfg(args))
    model = deserialize(args.model)
    rec = load_recording(args.recording, validate="warn")
    mapping = CommandMapping.default(model.classes, v_max=v_max)
    device = VirtualDevice(rec.sample_rate_hz) if args.device_log else None
    outputs, stats = replay(
        rec, model,
        mapping=mapping,
        sequence_indices=None if args.seq is None else [args.seq],
        pace_hz=args.pace,
        smoothing=args.smooth,
        log_path=args.log,
        device=device,
    )
    if device is not None:
        device.write_log(args.device_log)
    summary = stats.to_dict()
    print(json.dumps(summary, indent=2))
    return 0


def cmd_experiments(args) -> int:
    combined = run_all(args.data, args.out)
    ran = sorted(combined)
    print(f"wrote reports to {args.out} ({', '.join(ran) if ran else 'nothing to run'})")
    return 0


def cmd_demo_data(args) -> int:
    """Synthesize a dataset exercising every study in ``experiments run-all``."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    seed = args.seed
    # Three clean recordings, one with involuntary-motion bursts, one with
    # a low-range class: the usual spread of motion abilities.
    save_recording(synth_session(seed=seed), out / "P1.json")
    save_recording(synth_session(seed=seed + 1), out / "P2.json")
    save_recording(synth_session(seed=seed + 2), out / "P3.json")
    save_recording(
        synth_session(class_count=6, sensor_count=2, spasm_deg=10.0,
                      spasm_class=1, class_scale={1: 0.55}, seed=seed + 3),
        out / "P4.json",
    )
    save_recording(
        synth_session(class_count=6, sensor_count=2, class_scale={3: 0.05},
                      seed=seed + 4),
        out / "P5.json",
    )
    save_recording(
        synth_session(class_count=7, seed=seed + 5), out / "P1_sae.json"
    )
    save_recording(
        synth_session(class_count=7, amplitudes=(0.5, 0.75, 1.0), seed=seed + 6),
        out / "P1_mae.json",
    )
    for day in range(1, 6):
        save_recording(
            synth_session(
                seed=seed + 10 + day,
                amplitude_deg=12.0,
                noise_deg=1.0,
                target_bias_deg=1.5 * (day - 1),
                rotation_seed=321,
                shuffle_test_seq=True,
            ),
            out / f"day{day}.json",
        )
    print(f"wrote demo dataset to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bomi",
        description=(
            "Classify residual body motion from wearable IMU recordings into "
            "proportional device commands: synthesize data, train, evaluate, "
            "replay, and reproduce the evaluation studies."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic recording session")
    p.add_argument("--out", required=True, help="output .json or .csv path")
    p.add_argument("--classes", type=int, default=9,
                   help="total classes including neutral (2-9)")
    p.add_argument("--sensors", type=int, default=3, help="worn sensors (1-6)")
    p.add_argument("--noise", type=float, default=0.5, help="angle noise std, deg")
    p.add_argument("--spasm", type=float, default=0.0,
                   help="peak involuntary amplitude modulation, deg")
    p.add_argument("--spasm-class", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sequences", type=int, default=3)
    p.add_argument("--amplitudes", default=None,
                   help="per-repetition amplitude factors, e.g. 0.4,1.0,1.6")
    p.add_argument("--class-scale", default=None,
                   help="per-class target scaling, e.g. 3:0.25")
    p.add_argument("--target-rotation", type=float, default=0.0,
                   help="rotate class targets (sensor placement drift), deg")
    p.add_argument("--shuffle-test", action="store_true",
                   help="randomize motion order in the last sequence")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("train", help="fit a classifier on a recording")
    p.add_argument("--recording", required=True)
    p.add_argument("--out", default="model.json")
    p.add_argument("--fv", choices=FEATURE_KINDS, default=None)
    p.add_argument("--shrinkage", type=float, default=None)
    p.add_argument("--priors", choices=("empirical", "uniform"), default=None)
    p.add_argument("--train-seqs", default=None, help="e.g. 1,2 (default)")
    p.add_argument("--holdout-seq2", action="store_true",
                   help="train on sequence 1 only and report accuracy on 2")
    p.add_argument("--gamma-sensors", default=None,
                   help="class:sensor pairs for amplitude, e.g. 7:2,8:3")
    p.add_argument("--amplitude-mode", choices=("minmax", "percentile"), default=None)
    p.add_argument("--mapping", default=None, help="import mapping config for CSVs")
    # The fusion settings and window geometry are stored in the model;
    # eval and replay read them from there.
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--calib-ticks", type=int, default=None)
    p.add_argument("--gimbal-guard", type=float, default=None)
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--overlap", type=int, default=None)
    p.add_argument("--config", default=None)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a model on held-out sequences")
    p.add_argument("--model", required=True)
    p.add_argument("--recording", required=True)
    p.add_argument("--seqs", default=None, help="1-based sequence list (default: last)")
    p.add_argument("--out", default="eval_out")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("replay", help="stream a recording through the pipeline")
    p.add_argument("--model", required=True)
    p.add_argument("--recording", required=True)
    p.add_argument("--seq", type=int, default=None, help="1-based sequence (default: all)")
    p.add_argument("--pace", type=float, default=0.0,
                   help="replay rate in Hz; 0 = as fast as possible")
    p.add_argument("--log", default=None, help="command log CSV path")
    p.add_argument("--device-log", default=None,
                   help="virtual device position log CSV path")
    p.add_argument("--smooth", default="none", help="none or majority:k")
    p.add_argument("--v-max", type=float, default=None)
    p.add_argument("--config", default=None, help="sets pipeline.v_max_cm_s only")
    p.set_defaults(fn=cmd_replay)

    p = sub.add_parser("experiments", help="run the evaluation studies")
    p.add_argument("action", choices=("run-all",))
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="report output directory")
    p.set_defaults(fn=cmd_experiments)

    p = sub.add_parser("demo-data", help="synthesize a full demo dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(fn=cmd_demo_data)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PoolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
