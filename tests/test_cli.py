import inspect
import json

import pytest

from bomi.cli import main
from bomi.config import DEFAULTS
from bomi.dataset_io import load_recording, save_recording, synth_session
from bomi.experiments import evaluate, sequence_windows, train_session
from bomi.fusion import FusionConfig
from bomi.lda import deserialize
from bomi.pipeline import CommandMapping, StreamingPipeline

MISSING = object()


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def small_recording_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("rec") / "rec.json"
    rec = synth_session(class_count=4, sensor_count=3, noise_deg=0.5, seed=9)
    save_recording(rec, path)
    return path


@pytest.fixture(scope="module")
def trained_model_file(small_recording_file, tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "model.json"
    assert run("train", "--recording", small_recording_file, "--out", path) == 0
    return path


class TestSynth:
    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["synth", "--classes", "3", "--sensors", "1", "--seed", "7"]
        assert run(*args, "--out", a) == 0
        assert run(*args, "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_too_many_classes_exits_2(self, tmp_path, capsys):
        assert run("synth", "--classes", "12", "--out", tmp_path / "x.json") == 2
        assert "class_count" in capsys.readouterr().err

    def test_spasm_excursions_bounded(self, tmp_path):
        out = tmp_path / "spasm.json"
        assert run(
            "synth", "--classes", "3", "--sensors", "1", "--noise", "0",
            "--spasm", "10", "--seed", "3", "--out", out,
        ) == 0
        rec = load_recording(out)
        from bomi.dataset_io import label_runs
        from bomi.fusion import fuse_sequence
        import numpy as np

        target = np.asarray(rec.meta["class_targets"]["1"]["1"])
        for seq in rec.sequences:
            fused = fuse_sequence(seq.samples, rec.sensor_ids, 60.0)
            for cls, start, end in label_runs(seq.labels):
                if cls != 1:
                    continue
                dev = np.abs(fused.angles[start + 40:end - 40, 0, :] - target)
                assert dev.max() <= 10.0 + 1e-6

    def test_csv_output_supported(self, tmp_path):
        out = tmp_path / "rec.csv"
        assert run("synth", "--classes", "3", "--sensors", "1", "--out", out) == 0
        assert out.read_text().startswith("tick,sensor_id,acc_x")


class TestTrain:
    def test_writes_model_and_summary(self, small_recording_file, tmp_path, capsys):
        out = tmp_path / "model.json"
        code = run("train", "--recording", small_recording_file, "--fv", "fv3",
                   "--out", out)
        captured = capsys.readouterr().out
        assert code == 0
        assert out.exists()
        assert "dim 128" in captured  # fv3 with three sensors
        model = deserialize(out)
        assert model.feature_kind == "fv3"
        assert model.ranges is not None

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_missing_class_exits_2(self, tmp_path, capsys):
        rec = synth_session(class_count=3, sensor_count=1, noise_deg=0.5, seed=2)
        for seq in rec.sequences[:2]:
            seq.labels[seq.labels == 2] = 1
        path = tmp_path / "rec.json"
        save_recording(rec, path)
        assert run("train", "--recording", path, "--out", tmp_path / "m.json") == 2
        assert "training windows" in capsys.readouterr().err

    def test_zero_shrinkage_on_rank_deficient_exits_3(self, tmp_path):
        rec = synth_session(class_count=3, sensor_count=1, noise_deg=0.0, seed=2)
        path = tmp_path / "rec.json"
        save_recording(rec, path)
        code = run("train", "--recording", path, "--fv", "fv1",
                   "--shrinkage", "0", "--out", tmp_path / "m.json")
        assert code == 3

    @pytest.mark.parametrize("flags, fused", [((), (1, 2)), (("--train-seqs", "2"), (2,)),
                                               (("--holdout-seq2",), (1, 2))])
    def test_fuses_only_sequences_it_uses(self, small_recording_file, tmp_path, fuse_counts,
                                          flags, fused):
        assert run("train", "--recording", small_recording_file, *flags,
                   "--out", tmp_path / "m.json") == 0
        rec = load_recording(small_recording_file)
        assert fuse_counts == {fuse_counts.key(rec.sequences[q - 1].samples): 1 for q in fused}

    def test_default_split_still_requires_a_third_sequence(self, tmp_path, capsys):
        path = tmp_path / "rec.json"
        save_recording(synth_session(class_count=3, sensor_count=1, seed=2, n_sequences=2), path)
        assert run("train", "--recording", path, "--out", tmp_path / "m.json") == 2
        assert "out of range" in capsys.readouterr().err

    def test_holdout_seq2_reports_validation(self, small_recording_file, tmp_path, capsys):
        code = run("train", "--recording", small_recording_file, "--holdout-seq2",
                   "--out", tmp_path / "m.json")
        assert code == 0
        assert "held-out sequence 2 accuracy" in capsys.readouterr().out

    def test_config_file_with_flag_override(self, small_recording_file, tmp_path):
        cfg = tmp_path / "bomi.cfg"
        cfg.write_text("features.kind=fv1\nlda.shrinkage=0.01\n")
        out1 = tmp_path / "m1.json"
        assert run("train", "--recording", small_recording_file,
                   "--config", cfg, "--out", out1) == 0
        m1 = deserialize(out1)
        assert m1.feature_kind == "fv1"
        assert m1.shrinkage == 0.01
        out2 = tmp_path / "m2.json"
        assert run("train", "--recording", small_recording_file,
                   "--config", cfg, "--fv", "fv2", "--out", out2) == 0
        assert deserialize(out2).feature_kind == "fv2"  # flag wins

    def test_unparsable_config_value_exits_2(self, small_recording_file, tmp_path, capsys):
        cfg = tmp_path / "bomi.cfg"
        cfg.write_text("fusion.calib_ticks=abc\n")
        assert run("train", "--recording", small_recording_file,
                   "--config", cfg, "--out", tmp_path / "m.json") == 2
        assert "fusion.calib_ticks" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["scale.acc", "scale.gyro", "scale.mag", "sample_rate_hz"])
    def test_non_numeric_mapping_value_exits_2(self, small_recording_file, tmp_path, capsys,
                                               key):
        mapping = tmp_path / "m.cfg"
        mapping.write_text(f"column.tick=tick\n{key}=abc\n")
        out = tmp_path / "m.json"
        assert run("train", "--recording", small_recording_file, "--mapping", mapping,
                   "--out", out) == 2
        err = capsys.readouterr().err
        assert "line 2" in err and key in err
        assert not out.exists()

    @pytest.mark.parametrize("rate, spelling", [(float("nan"), "NaN"),
                                                 (float("inf"), "Infinity")])
    def test_non_finite_sample_rate_exits_2_without_a_model(self, small_recording_file,
                                                            tmp_path, capsys, rate, spelling):
        payload = json.loads(small_recording_file.read_text())
        payload["sample_rate_hz"] = rate
        path = tmp_path / "rec.json"
        path.write_text(json.dumps(payload))
        assert f'"sample_rate_hz": {spelling}' in path.read_text()
        out = tmp_path / "m.json"
        assert run("train", "--recording", path, "--out", out) == 2
        assert "sample_rate_hz" in capsys.readouterr().err
        assert not out.exists()

    def test_mapping_rate_of_zero_exits_2_without_a_model(self, small_recording_file,
                                                          tmp_path, capsys):
        path = tmp_path / "rec.csv"
        save_recording(load_recording(small_recording_file), path)
        mapping = tmp_path / "m.cfg"
        mapping.write_text("sample_rate_hz=0\n")
        out = tmp_path / "m.json"
        assert run("train", "--recording", path, "--mapping", mapping, "--out", out) == 2
        assert "sample_rate_hz must be a finite positive number, got 0.0" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_recording_exits_2(self, tmp_path):
        assert run("train", "--recording", tmp_path / "nope.json",
                   "--out", tmp_path / "m.json") == 2

    @pytest.mark.parametrize("geometry", [["--window", "6"], ["--config", "window6.cfg"]],
                             ids=["flag", "config"])
    def test_window_alone_takes_overlap_window_minus_one(
        self, small_recording_file, tmp_path, geometry
    ):
        (tmp_path / "window6.cfg").write_text("features.window=6\n")
        geometry = [tmp_path / g if g.endswith(".cfg") else g for g in geometry]
        for out, flags in (("r", geometry), ("explicit", ["--window", "6", "--overlap", "5"])):
            model = tmp_path / f"{out}.json"
            assert run("train", "--recording", small_recording_file, "--fv", "fv1",
                       *flags, "--out", model) == 0
            assert (deserialize(model).window, deserialize(model).overlap) == (6, 5)
            assert run("eval", "--model", model, "--recording", small_recording_file,
                       "--out", tmp_path / out) == 0
        report = (tmp_path / "r" / "accuracy.json").read_text()
        assert report == (tmp_path / "explicit" / "accuracy.json").read_text()

    @pytest.mark.parametrize("flags, message", [
        (["--alpha", "2"], "alpha"), (["--alpha", "nan"], "alpha"),
        (["--gimbal-guard", "nan"], "gimbal_guard_deg"),
        (["--gimbal-guard", "91"], "gimbal_guard_deg"),
        (["--calib-ticks", "-5"], "calib_ticks"), (["--config", "alpha.cfg"], "alpha"),
    ])
    def test_bad_fusion_settings_exit_2_without_a_model(self, small_recording_file, tmp_path,
                                                        capsys, flags, message):
        (tmp_path / "alpha.cfg").write_text("fusion.alpha=1.5\n")
        flags = [tmp_path / f if f.endswith(".cfg") else f for f in flags]
        out = tmp_path / "m.json"
        assert run("train", "--recording", small_recording_file, *flags, "--out", out) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_config_overlap_still_applies_with_flag_window(self, small_recording_file, tmp_path,
                                                           capsys):
        cfg = tmp_path / "bomi.cfg"
        cfg.write_text("features.overlap=7\n")
        assert run("train", "--recording", small_recording_file, "--fv", "fv1",
                   "--window", "6", "--config", cfg, "--out", tmp_path / "m.json") == 2
        assert "overlap=7" in capsys.readouterr().err


class TestEval:
    def test_reports_accuracy_and_writes_files(
        self, small_recording_file, trained_model_file, tmp_path, capsys
    ):
        out = tmp_path / "report"
        code = run("eval", "--model", trained_model_file,
                   "--recording", small_recording_file, "--out", out)
        assert code == 0
        printed = capsys.readouterr().out
        assert "accuracy" in printed
        assert (out / "accuracy.json").exists()
        assert (out / "confusion.csv").exists()
        payload = json.loads((out / "accuracy.json").read_text())
        assert payload["accuracy_pct"] > 95.0

    def test_layout_mismatch_exits_2(self, trained_model_file, tmp_path, capsys):
        other = tmp_path / "other.json"
        save_recording(synth_session(class_count=3, sensor_count=1, seed=4), other)
        assert run("eval", "--model", trained_model_file,
                   "--recording", other, "--out", tmp_path / "r") == 2
        assert "match model layout" in capsys.readouterr().err

    @pytest.mark.parametrize("seqs", ["0", "4", "1,9", "-1"])
    def test_sequence_out_of_range_exits_2(self, small_recording_file, trained_model_file,
                                           tmp_path, capsys, seqs):
        out = tmp_path / "r"
        assert run("eval", "--model", trained_model_file, "--recording", small_recording_file,
                   f"--seqs={seqs}", "--out", out) == 2
        assert "out of range [1, 3]" in capsys.readouterr().err
        assert not out.exists()


class TestModelChain:
    def test_eval_and_replay_take_the_chain_from_the_model(self, small_recording_file, tmp_path):
        model_path = tmp_path / "m.json"
        assert run("train", "--recording", small_recording_file, "--fv", "fv1",
                   "--alpha", "0.9", "--calib-ticks", "30", "--window", "6", "--overlap", "4",
                   "--out", model_path) == 0
        assert run("eval", "--model", model_path, "--recording", small_recording_file,
                   "--out", tmp_path / "r") == 0
        rec = load_recording(small_recording_file)
        windows = sequence_windows(rec, rec.sequences[-1],
                                   fusion=FusionConfig(alpha=0.9, calib_ticks=30),
                                   window=6, overlap=4)
        want = evaluate(deserialize(model_path), windows).to_dict()
        got = json.loads((tmp_path / "r" / "accuracy.json").read_text())
        assert got == json.loads(json.dumps(want))

        log = tmp_path / "log.csv"
        assert run("replay", "--model", model_path, "--recording", small_recording_file,
                   "--seq", "3", "--log", log) == 0
        ticks = [int(line.split(",")[0]) for line in log.read_text().splitlines()[1:]]
        assert ticks == [w.end_tick for w in windows]
        assert ticks[:2] == [30 + 5, 30 + 5 + 2]


class TestReplay:
    def test_stats_and_log(self, small_recording_file, trained_model_file, tmp_path, capsys):
        log = tmp_path / "log.csv"
        device_log = tmp_path / "device.csv"
        code = run("replay", "--model", trained_model_file,
                   "--recording", small_recording_file, "--seq", "3",
                   "--log", log, "--device-log", device_log)
        assert code == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["windows"] > 0
        assert stats["dropped_ticks"] == 0
        assert log.exists() and device_log.exists()

    def test_pace_zero_matches_paced(self, small_recording_file, trained_model_file, tmp_path):
        log_a, log_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("replay", "--model", trained_model_file,
                   "--recording", small_recording_file, "--seq", "3",
                   "--log", log_a) == 0
        assert run("replay", "--model", trained_model_file,
                   "--recording", small_recording_file, "--seq", "3",
                   "--pace", "600", "--log", log_b) == 0

        def classes(path):
            return [line.split(",")[2] for line in path.read_text().splitlines()[1:]]

        assert classes(log_a) == classes(log_b)

    def test_corrupt_model_exits_2(self, small_recording_file, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert run("replay", "--model", bad,
                   "--recording", small_recording_file) == 2

    @pytest.mark.parametrize("field, index, value, message", [
        pytest.param("chol_lower", (0, 0), 0.0, "positive diagonal", id="zero-diagonal"),
        pytest.param("chol_lower", (1, 1), -1.0, "positive diagonal", id="negative-diagonal"),
        pytest.param("chol_lower", (0, 1), 1.0, "lower-triangular", id="upper-triangle"),
        pytest.param("chol_lower", (2, 0), float("nan"), "non-finite", id="nan-chol"),
        pytest.param("means", (0, 0), float("nan"), "non-finite", id="nan-means"),
        pytest.param("log_priors", (0,), float("inf"), "non-finite", id="inf-prior"),
        pytest.param("feature_kind", None, "fv4", "unknown feature kind", id="unknown-kind"),
        pytest.param("feature_kind", None, "fv1", "does not fit fv1", id="kind-dim-mismatch"),
        pytest.param("window", None, 0, "window geometry", id="window-0"),
        pytest.param("window", None, -1, "window geometry", id="window-negative"),
        pytest.param("window", None, 8.0, "window geometry", id="window-float"),
        pytest.param("overlap", None, 8, "window geometry", id="overlap-equals-window"),
        pytest.param("overlap", None, -1, "window geometry", id="overlap-negative"),
        pytest.param("fusion", ("alpha",), 1.5, "alpha", id="alpha-1.5"),
        pytest.param("fusion", ("alpha",), "x", "alpha", id="alpha-text"),
        pytest.param("fusion", ("calib_ticks",), -1, "calib_ticks", id="calib-negative"),
        pytest.param("fusion", ("calib_ticks",), 2.5, "calib_ticks", id="calib-fraction"),
        pytest.param("fusion", ("gimbal_guard_deg",), MISSING, "gimbal_guard_deg",
                     id="fusion-key-missing"),
        pytest.param("fusion", None, MISSING, "fusion", id="version-2-without-fusion"),
        pytest.param("ranges", ("ranges", "1"), [float("nan")] * 2, "finite", id="nan-range"),
        pytest.param("ranges", ("class_sensor", "1"), 7, "outside the layout",
                     id="class-sensor-outside-layout"),
    ])
    def test_inconsistent_model_rejected_at_load(
        self, small_recording_file, trained_model_file, tmp_path, capsys, monkeypatch,
        field, index, value, message,
    ):
        steps = []
        monkeypatch.setattr(StreamingPipeline, "step", lambda *args: steps.append(args))
        payload = json.loads(trained_model_file.read_text())
        assert payload["version"] == 2
        *path, key = (field, *(index or ()))
        target = payload
        for i in path:
            target = target[i]
        if value is MISSING:
            del target[key]
        else:
            target[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert run("replay", "--model", bad,
                   "--recording", small_recording_file, "--seq", "3") == 2
        assert message in capsys.readouterr().err
        assert steps == []

    def test_fv1_window_misfit_rejected_at_load(self, small_recording_file, tmp_path, capsys,
                                                monkeypatch):
        steps = []
        monkeypatch.setattr(StreamingPipeline, "step", lambda *args: steps.append(args))
        model = tmp_path / "m.json"
        assert run("train", "--recording", small_recording_file, "--fv", "fv1",
                   "--window", "6", "--out", model) == 0
        payload = json.loads(model.read_text())
        payload["window"] = 7
        model.write_text(json.dumps(payload))
        assert run("replay", "--model", model, "--recording", small_recording_file) == 2
        assert "dimension 42 does not fit fv1 with 3 sensors and window 7" in (
            capsys.readouterr().err)
        assert steps == []

    @pytest.mark.parametrize("geometry, message", [
        pytest.param({"window": 6, "overlap": 5}, "fv3 requires windows of length 8",
                     id="default-overlap"),
        pytest.param({"window": 16, "overlap": 5}, "fv3 requires windows of length 8",
                     id="overlap-5"),
    ])
    def test_fv3_misfit_window_exits_2_before_streaming(
        self, small_recording_file, trained_model_file, monkeypatch, capsys, tmp_path,
        geometry, message,
    ):
        assert deserialize(trained_model_file).feature_kind == "fv3"
        payload = json.loads(trained_model_file.read_text())
        payload.update(geometry)
        model = tmp_path / "m.json"
        model.write_text(json.dumps(payload))
        steps = []
        monkeypatch.setattr(StreamingPipeline, "step", lambda *args: steps.append(args))
        assert run("replay", "--model", model, "--recording", small_recording_file) == 2
        assert steps == []
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--v-max", "nan"], ["--v-max", "inf"],
                                       ["--v-max", "0"], ["--config", "vmax.cfg"]],
                             ids=["flag-nan", "flag-inf", "flag-zero", "config-inf"])
    def test_bad_v_max_exits_2_before_streaming(self, small_recording_file, trained_model_file,
                                                monkeypatch, capsys, tmp_path, flags):
        (tmp_path / "vmax.cfg").write_text("pipeline.v_max_cm_s=inf\n")
        flags = [tmp_path / f if f.endswith(".cfg") else f for f in flags]
        steps = []
        monkeypatch.setattr(StreamingPipeline, "step", lambda *args: steps.append(args))
        device_log = tmp_path / "device.csv"
        assert run("replay", "--model", trained_model_file, "--recording", small_recording_file,
                   "--device-log", device_log, *flags) == 2
        assert "v_max must be a finite positive number" in capsys.readouterr().err
        assert steps == []
        assert not device_log.exists()

    @pytest.mark.parametrize("pace", ["-5", "nan", "inf"])
    def test_bad_pace_exits_2_before_streaming(self, small_recording_file, trained_model_file,
                                               monkeypatch, capsys, tmp_path, pace):
        steps = []
        monkeypatch.setattr(StreamingPipeline, "step", lambda *args: steps.append(args))
        log = tmp_path / "log.csv"
        assert run("replay", "--model", trained_model_file, "--recording", small_recording_file,
                   "--pace", pace, "--log", log) == 2
        assert "pace must be a finite rate >= 0 Hz" in capsys.readouterr().err
        assert steps == []
        assert not log.exists()

    @pytest.mark.parametrize("flags", [["--seq", "0"], ["--seq", "-1"], ["--seq", "4"]])
    def test_sequence_out_of_range_exits_2(self, small_recording_file, trained_model_file,
                                           monkeypatch, capsys, flags):
        steps = []
        monkeypatch.setattr(StreamingPipeline, "step", lambda *args: steps.append(args))
        assert run("replay", "--model", trained_model_file,
                   "--recording", small_recording_file, *flags) == 2
        assert "out of range [1, 3]" in capsys.readouterr().err
        assert steps == []


class TestExperimentsCommand:
    def test_run_all_on_small_dataset(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        save_recording(
            synth_session(class_count=3, sensor_count=1, noise_deg=0.5, seed=1),
            data / "P1.json",
        )
        out = tmp_path / "reports"
        assert run("experiments", "run-all", "--data", data, "--out", out) == 0
        assert (out / "report.json").exists()
        assert "fv_comparison" in capsys.readouterr().out


class TestArgumentHandling:
    @pytest.mark.parametrize("command, flag, value, named", [
        ("eval", "--seqs", "a", "--seqs"),
        ("train", "--train-seqs", "1,x", "--train-seqs"),
        ("train", "--gamma-sensors", "7", "--gamma-sensors"),
        ("synth", "--class-scale", "3", "--class-scale"),
        ("synth", "--amplitudes", "1,x", "--amplitudes"),
        ("synth", "--sequences", "0", "n_sequences"),
        ("synth", "--sequences", "-1", "n_sequences"),
        # The smoothing check lives in bomi.pipeline, which knows no flags.
        ("replay", "--smooth", "majority:x", "smoothing policy"),
    ])
    def test_malformed_list_flag_exits_2(self, small_recording_file, trained_model_file,
                                         tmp_path, capsys, command, flag, value, named):
        inputs = {
            "synth": [],
            "train": ["--recording", small_recording_file],
            "eval": ["--model", trained_model_file, "--recording", small_recording_file],
            "replay": ["--model", trained_model_file, "--recording", small_recording_file],
        }[command]
        out = [] if command == "replay" else ["--out", tmp_path / "out"]
        assert run(command, *inputs, flag, value, *out) == 2
        err = capsys.readouterr().err
        assert value in err and named in err

    @pytest.mark.parametrize("command, flag, fault", [
        ("train", "--config", "not-utf8"),
        ("train", "--mapping", "not-utf8"),
        ("train", "--recording", "not-utf8"),
        ("replay", "--model", "not-utf8"),
        ("train", "--recording", "directory"),
        ("train", "--config", "directory"),
    ])
    def test_unreadable_input_file_exits_2(self, small_recording_file, trained_model_file,
                                           tmp_path, capsys, command, flag, fault):
        bad = tmp_path / "input.json"
        if fault == "directory":
            bad.mkdir()
        else:
            bad.write_bytes(b"\xff\xfe{}\n")
        inputs = {
            "train": {"--recording": small_recording_file, "--out": tmp_path / "m.json"},
            "replay": {"--model": trained_model_file, "--recording": small_recording_file},
        }[command]
        inputs[flag] = bad
        assert run(command, *(a for pair in inputs.items() for a in pair)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_unknown_flag_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["synth", "--frobnicate", "--out", str(tmp_path / "x.json")])
        assert err.value.code == 2

    def test_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--help"])
        assert err.value.code == 0
        out = capsys.readouterr().out
        for name in ("synth", "train", "eval", "replay", "experiments", "demo-data"):
            assert name in out


def test_config_defaults_are_the_library_defaults():
    session = inspect.signature(train_session).parameters
    mapping = inspect.signature(CommandMapping.default).parameters
    library = {
        "fusion.alpha": FusionConfig().alpha,
        "fusion.calib_ticks": FusionConfig().calib_ticks,
        "fusion.pitch_gimbal_guard_deg": FusionConfig().gimbal_guard_deg,
        "features.kind": session["feature_kind"].default,
        "features.window": session["window"].default,
        "features.overlap": session["overlap"].default,
        "amplitude.mode": session["amplitude_mode"].default,
        "lda.shrinkage": session["shrinkage"].default,
        "lda.priors": session["priors"].default,
        "pipeline.v_max_cm_s": mapping["v_max"].default,
    }
    assert DEFAULTS == library
    assert all(type(DEFAULTS[key]) is type(value) for key, value in library.items())


def test_demo_data_and_run_all_full(tmp_path):
    data = tmp_path / "demo"
    out = tmp_path / "reports"
    assert run("demo-data", "--out", data) == 0
    assert run("experiments", "run-all", "--data", data, "--out", out) == 0
    report = json.loads((out / "report.json").read_text())
    assert {"fv_comparison", "amplitude", "multiday"} <= set(report)
    assert len(report["multiday"]["day1_model_accuracy_pct"]) == 5
