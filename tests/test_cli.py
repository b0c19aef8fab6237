"""CLI harness: exit codes, overwrite protection, run manifests, and a
small end-to-end artifact chain."""

import itertools
import json
import os
import re
import shutil
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import surgflow
from surgflow.cli import main
from surgflow.synthetic import SyntheticSpec, generate_corpus
from surgflow.serialization import (read_checkpoint, read_features,
                                    read_frame_grid, write_checkpoint,
                                    write_features, write_frame_grid)


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory, runner):
    """A tiny corpus taken through pretrain, features, and stage 2."""
    ws = tmp_path_factory.mktemp("cliws")
    steps = [
        ["gen-synth", "--out", str(ws / "corpus"), "--videos", "2",
         "--seed", "0"],
        ["pretrain", "--corpus", str(ws / "corpus"), "--out",
         str(ws / "stage1"), "--epochs", "1", "--max-steps", "2",
         "--batch-size", "4"],
        ["extract-features", "--corpus", str(ws / "corpus"), "--stage1",
         str(ws / "stage1"), "--out", str(ws / "features")],
        ["train-temporal", "--features", str(ws / "features"), "--corpus",
         str(ws / "corpus"), "--variant", "tcn", "--out", str(ws / "tcn"),
         "--epochs", "2"],
    ]
    for args in steps:
        result = runner.invoke(main, args)
        assert result.exit_code == 0, f"{args[0]}: {result.output}"
    return ws


class TestExitCodes:
    def test_missing_input_is_config_error(self, runner, tmp_path):
        result = runner.invoke(main, ["filter", "--video",
                                      str(tmp_path / "nope.wlfg"),
                                      "--out", str(tmp_path / "o.json")])
        assert result.exit_code == 2

    def test_unknown_option_is_usage_error(self, runner):
        result = runner.invoke(main, ["gen-synth", "--bogus"])
        assert result.exit_code == 2

    def test_refuses_overwrite_without_force(self, runner, tmp_path):
        out = tmp_path / "corpus"
        first = runner.invoke(main, ["gen-synth", "--out", str(out),
                                     "--videos", "1"])
        assert first.exit_code == 0
        second = runner.invoke(main, ["gen-synth", "--out", str(out),
                                      "--videos", "1"])
        assert second.exit_code == 2
        assert "--force" in second.output
        forced = runner.invoke(main, ["gen-synth", "--out", str(out),
                                      "--videos", "1", "--force"])
        assert forced.exit_code == 0

    def test_bad_fractions_is_config_error(self, runner, workspace):
        result = runner.invoke(main, [
            "ablate-subset", "--features", str(workspace / "features"),
            "--corpus", str(workspace / "corpus"), "--fractions", "0,1.0",
            "--out", str(workspace / "ablate.csv")])
        assert result.exit_code == 2

    @pytest.mark.parametrize("videos", ["0", "-3"])
    def test_no_videos_is_config_error(self, runner, tmp_path, videos):
        out = tmp_path / "corpus"
        result = runner.invoke(main, ["gen-synth", "--out", str(out),
                                      "--videos", videos])
        assert result.exit_code == 2
        assert f"need at least one video, got {videos}" in result.output
        assert not out.exists()

    def test_zero_epochs_is_config_error(self, runner, workspace, tmp_path):
        out = tmp_path / "stage1"
        args = ["pretrain", "--corpus", str(workspace / "corpus"), "--out",
                str(out), "--max-steps", "1", "--batch-size", "2"]
        result = runner.invoke(main, args + ["--epochs", "0"])
        assert result.exit_code == 2
        assert "epochs" in result.output
        assert not out.exists()  # a failed run leaves no new --out
        rerun = runner.invoke(main, args + ["--epochs", "1"])
        assert rerun.exit_code == 0, rerun.output
        assert (out / "stage1.wlcp").exists()

    def test_failed_force_run_keeps_existing_out(self, runner, workspace,
                                                 tmp_path):
        out = tmp_path / "stage1"
        out.mkdir()
        (out / "keep.txt").write_text("kept")
        result = runner.invoke(main, [
            "pretrain", "--corpus", str(workspace / "corpus"), "--out",
            str(out), "--epochs", "0", "--force"])
        assert result.exit_code == 2
        assert (out / "keep.txt").read_text() == "kept"

    def test_failed_pretrain_leaves_no_bundle_file(self, runner, workspace,
                                                   tmp_path):
        out = tmp_path / "stage1"
        out.mkdir()
        (out / "keep.txt").write_text("kept")
        result = runner.invoke(main, [
            "pretrain", "--corpus", str(workspace / "corpus"), "--out",
            str(out), "--max-steps", "2", "--batch-size", "2",
            "--lr-max", "nan", "--force"])
        assert result.exit_code == 1
        assert "step 1" in result.output
        assert sorted(p.name for p in out.iterdir()) == ["keep.txt"]

    def test_corrupt_artifact_is_runtime_error(self, runner, tmp_path):
        bad = tmp_path / "bad.wlfg"
        bad.write_bytes(b"not a frame grid")
        result = runner.invoke(main, ["filter", "--video", str(bad),
                                      "--out", str(tmp_path / "o.json")])
        assert result.exit_code == 1

    def test_truncated_feature_file_is_runtime_error(self, runner, tmp_path):
        features = tmp_path / "features"
        features.mkdir()
        write_features(features / "v0.wlft", np.ones((3, 2), np.float32))
        path = features / "v0.wlft"
        path.write_bytes(path.read_bytes()[:10])
        result = runner.invoke(main, ["pca-plot", "--features", str(features),
                                      "--out", str(tmp_path / "pca.svg")])
        assert result.exit_code == 1
        assert f"error: {path}: truncated" in result.output
        assert isinstance(result.exception, SystemExit)  # not a traceback

    def test_old_layout_corpus_is_runtime_error(self, runner, workspace,
                                                tmp_path):
        """A corpus whose videos are in the retired WLFG layout (magic and
        four u64 dims before the payload) is refused, naming the file."""
        corpus = tmp_path / "corpus"
        shutil.copytree(workspace / "corpus", corpus)
        videos = sorted((corpus / "videos").glob("*.wlfg"))
        for path in videos:
            frames = read_frame_grid(path)
            path.write_bytes(b"WLFG" + struct.pack("<4Q", *frames.shape)
                             + frames.tobytes())
        out = tmp_path / "features"
        result = runner.invoke(main, [
            "extract-features", "--corpus", str(corpus),
            "--stage1", str(workspace / "stage1"), "--out", str(out)])
        assert result.exit_code == 1
        assert f"error: {videos[0]}: bad magic" in result.output
        assert not out.exists()

    def test_float_frame_corpus_is_runtime_error(self, runner, workspace,
                                                 tmp_path):
        """A corpus whose frame grids hold float32 intensities, as written
        before frames were 8-bit, is refused, naming the first video."""
        corpus = tmp_path / "corpus"
        shutil.copytree(workspace / "corpus", corpus)
        videos = sorted((corpus / "videos").glob("*.wlfg"))
        for path in videos:
            frames = read_frame_grid(path)
            write_checkpoint(path, {"frames": frames / np.float32(255)})
        out = tmp_path / "features"
        result = runner.invoke(main, [
            "extract-features", "--corpus", str(corpus),
            "--stage1", str(workspace / "stage1"), "--out", str(out)])
        assert result.exit_code == 1
        assert f"error: {videos[0]}: frame grid holds float32" in result.output

    def test_nan_features_is_runtime_error(self, runner, workspace, tmp_path):
        meta = json.loads((workspace / "corpus" / "meta.json").read_text())
        vid = meta["video_ids"][0]
        features = tmp_path / "features"
        shutil.copytree(workspace / "features", features)
        rows = read_features(features / f"{vid}.wlft")
        rows[0] = np.nan
        write_features(features / f"{vid}.wlft", rows)
        result = runner.invoke(main, [
            "train-temporal", "--features", str(features), "--corpus",
            str(workspace / "corpus"), "--videos", vid, "--out",
            str(tmp_path / "tcn"), "--epochs", "1"])
        assert result.exit_code == 1
        assert "step 0" in result.output
        assert not (tmp_path / "tcn" / "temporal.wlcp").exists()

    @pytest.mark.parametrize("args", [
        ["train-temporal", "--epochs", "1"],
        ["ablate-subset", "--epochs", "1", "--fractions", "1.0",
         "--train", "{v0}", "--test", "{v1}"]])
    def test_unknown_timeline_label_is_runtime_error(self, runner, workspace,
                                                      tmp_path, args):
        """A ground-truth label outside the corpus's classes names the
        timeline file, the label and the classes."""
        corpus = tmp_path / "corpus"
        shutil.copytree(workspace / "corpus", corpus)
        meta = json.loads((corpus / "meta.json").read_text())
        v0, v1 = meta["video_ids"][:2]
        timeline = corpus / "timelines" / f"{v0}.json"
        payload = json.loads(timeline.read_text())
        payload["segments"][0]["label"] = "incison"
        timeline.write_text(json.dumps(payload))
        out = tmp_path / "out"
        result = runner.invoke(main, [
            a.format(v0=v0, v1=v1) for a in args] + [
            "--features", str(workspace / "features"), "--corpus",
            str(corpus), "--out", str(out)])
        assert result.exit_code == 1, result.output
        assert (f"error: {timeline}: label 'incison' is not one of the "
                f"classes {meta['class_names']}") in result.output
        assert not out.exists()

    def test_misspelled_held_out_label_is_runtime_error(self, runner,
                                                        workspace, tmp_path):
        """A held-out timeline is read by the rule training reads, so a
        label outside the classes fails instead of scoring as a miss."""
        corpus, features = tmp_path / "corpus", tmp_path / "features"
        for args in (["gen-synth", "--out", str(corpus), "--videos", "3",
                      "--seed", "3"],
                     ["extract-features", "--corpus", str(corpus),
                      "--stage1", str(workspace / "stage1"), "--out",
                      str(features)]):
            result = runner.invoke(main, args)
            assert result.exit_code == 0, result.output
        timeline = corpus / "timelines" / "video_001.json"
        payload = json.loads(timeline.read_text())
        payload["segments"][1]["label"] = "incison"
        timeline.write_text(json.dumps(payload))
        out = tmp_path / "ablate.csv"
        result = runner.invoke(main, [
            "ablate-subset", "--features", str(features), "--corpus",
            str(corpus), "--train", "video_000,video_002", "--test",
            "video_001", "--fractions", "1.0", "--epochs", "1", "--out",
            str(out)])
        assert result.exit_code == 1, result.output
        assert f"error: {timeline}: label 'incison'" in result.output
        assert not out.exists()

    def test_evaluate_length_mismatch_is_runtime_error(self, runner,
                                                       tmp_path):
        for name, end in (("pred", 50.0), ("gt", 5.0)):
            (tmp_path / f"{name}.json").write_text(json.dumps(
                {"video_id": "v0", "segments": [
                    {"start_s": 0.0, "end_s": end, "label": "a"}]}))
        result = runner.invoke(main, [
            "evaluate", "--pred", str(tmp_path / "pred.json"),
            "--gt", str(tmp_path / "gt.json")])
        assert result.exit_code == 1
        assert "v0" in result.output and "50" in result.output


class TestRunManifests:
    def test_manifest_written_with_hash_and_seed(self, runner, tmp_path):
        out = tmp_path / "corpus"
        runner.invoke(main, ["gen-synth", "--out", str(out), "--videos", "1",
                             "--seed", "3"])
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["command"] == "gen-synth"
        assert manifest["seed"] == 3
        assert len(manifest["config_hash"]) == 64
        assert manifest["wall_time_s"] >= 0

    def test_wall_time_ignores_clock_steps(self, runner, tmp_path,
                                           monkeypatch):
        """Each time.time() reading is an hour before the last, as after a
        clock step; the recorded duration stays non-negative."""
        readings = itertools.count(1e9, -3600.0)
        monkeypatch.setattr(time, "time", lambda: next(readings))
        out = tmp_path / "corpus"
        result = runner.invoke(main, ["gen-synth", "--out", str(out),
                                      "--videos", "1"])
        monkeypatch.undo()
        assert result.exit_code == 0, result.output
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert 0 <= manifest["wall_time_s"] < 3600

    def test_file_outputs_get_sidecar_manifest(self, runner, tmp_path):
        words = tmp_path / "words.json"
        words.write_text(json.dumps(
            [{"text": "a", "start_s": 0.0, "end_s": 1.0},
             {"text": "sentence.", "start_s": 1.0, "end_s": 3.0}]))
        out = tmp_path / "clips.json"
        result = runner.invoke(main, ["split-clips", "--words", str(words),
                                      "--out", str(out)])
        assert result.exit_code == 0
        assert (tmp_path / "clips.json.run.json").exists()
        clips = json.loads(out.read_text())
        assert [c["text"] for c in clips] == ["a sentence."]


VIDEO = "{ws}/corpus/videos/video_000.wlfg"

# Every command with --out: (seed recorded in its manifest, arguments).
OUT_COMMANDS = {
    "gen-synth": (3, ["--videos", "1", "--seed", "3"]),
    "filter": (2, ["--video", VIDEO, "--min-size", "8", "--seed", "2"]),
    "split-clips": (0, ["--words", "{ws}/inputs/words.json"]),
    "project-labels": (0, ["--records", "{ws}/inputs/records.jsonl",
                           "--template", "triplet"]),
    "pretrain": (4, ["--corpus", "{ws}/corpus", "--epochs", "1",
                     "--max-steps", "1", "--batch-size", "2", "--seed", "4"]),
    "finetune-lora": (5, ["--corpus", "{ws}/corpus", "--stage1",
                          "{ws}/stage1", "--rank", "2", "--epochs", "1",
                          "--max-steps", "1", "--batch-size", "2",
                          "--seed", "5"]),
    "extract-features": (0, ["--corpus", "{ws}/corpus", "--stage1",
                             "{ws}/stage1"]),
    "train-temporal": (6, ["--features", "{ws}/features", "--corpus",
                           "{ws}/corpus", "--epochs", "1", "--seed", "6"]),
    "segment": (0, ["--video", VIDEO, "--stage1", "{ws}/stage1",
                    "--temporal", "{ws}/tcn"]),
    "zeroshot": (0, ["--video", VIDEO, "--stage1", "{ws}/stage1",
                     "--prototypes", "{ws}/inputs/protos.json"]),
    "caption": (0, ["--video", VIDEO, "--stage1", "{ws}/stage1",
                    "--temporal", "{ws}/tcn"]),
    "ablate-subset": (7, ["--features", "{ws}/features", "--corpus",
                          "{ws}/corpus", "--train", "video_000", "--test",
                          "video_001", "--fractions", "1.0", "--epochs", "1",
                          "--seed", "7"]),
    "pca-plot": (0, ["--features", "{ws}/features"]),
}


@pytest.fixture(scope="module")
def out_inputs(workspace):
    """Input files for the commands that do not read the pipeline chain."""
    inputs = workspace / "inputs"
    inputs.mkdir(exist_ok=True)
    (inputs / "words.json").write_text(json.dumps(
        [{"text": "a", "start_s": 0.0, "end_s": 1.0},
         {"text": "sentence.", "start_s": 1.0, "end_s": 3.0}]))
    (inputs / "records.jsonl").write_text(json.dumps(
        {"tools": ["grasper"], "verb": "retract",
         "target": "gallbladder"}) + "\n")
    meta = json.loads((workspace / "corpus" / "meta.json").read_text())
    (inputs / "protos.json").write_text(json.dumps(meta["prototypes"]))
    return workspace


def _snapshot(path):
    if path.is_dir():
        return {p.relative_to(path): p.read_bytes()
                for p in sorted(path.rglob("*")) if p.is_file()}
    return path.read_bytes()


class TestRunWrapper:
    def test_every_out_command_is_covered(self):
        with_out = {name for name, cmd in main.commands.items()
                    if any(p.name == "out" for p in cmd.params)}
        assert set(OUT_COMMANDS) == with_out
        with_force = {name for name, cmd in main.commands.items()
                      if any(p.name == "force" for p in cmd.params)}
        assert with_force == with_out | {"evaluate"}

    @pytest.mark.parametrize("name", sorted(OUT_COMMANDS))
    def test_manifest_and_overwrite_refusal(self, runner, out_inputs,
                                            tmp_path, name):
        seed, template = OUT_COMMANDS[name]
        out = tmp_path / ("result" if name in {
            "gen-synth", "pretrain", "finetune-lora", "extract-features",
            "train-temporal"} else "result.out")
        args = [name] + [a.format(ws=out_inputs) for a in template] \
            + ["--out", str(out)]
        first = runner.invoke(main, args)
        assert first.exit_code == 0, first.output
        manifest_path = (out / "run_manifest.json" if out.is_dir()
                         else tmp_path / "result.out.run.json")
        manifest = json.loads(manifest_path.read_text())
        assert manifest["command"] == name
        assert manifest["seed"] == seed
        assert re.fullmatch(r"[0-9a-f]{64}", manifest["config_hash"])
        assert "force" not in manifest["config"]
        assert manifest["config"]["out"] == str(out)

        before = _snapshot(out)
        second = runner.invoke(main, args)
        assert second.exit_code == 2
        assert "--force" in second.output
        assert _snapshot(out) == before


class TestCorpusCommands:
    def test_gen_synth_deterministic(self, runner, tmp_path):
        for name in ("a", "b"):
            runner.invoke(main, ["gen-synth", "--out", str(tmp_path / name),
                                 "--videos", "1", "--seed", "5"])
        va = (tmp_path / "a" / "videos" / "video_000.wlfg").read_bytes()
        vb = (tmp_path / "b" / "videos" / "video_000.wlfg").read_bytes()
        assert va == vb

    def test_filter_reports_validity_and_crop(self, runner, tmp_path):
        frames = np.zeros((8, 32, 32, 3), np.uint8)
        frames[1::2] += 128  # alternating frames: everything moves
        video = tmp_path / "v.wlfg"
        write_frame_grid(video, frames)
        boxes = tmp_path / "boxes.json"
        boxes.write_text(json.dumps([[0, 0, 10, 32]]))
        out = tmp_path / "filter.json"
        result = runner.invoke(main, ["filter", "--video", str(video),
                                      "--out", str(out), "--boxes",
                                      str(boxes), "--min-size", "8"])
        assert result.exit_code == 0
        payload = json.loads(out.read_text())
        assert len(payload["valid"]) == 8
        assert payload["crop"] == [10, 0, 32, 32]

    def test_filter_reads_levels_as_intensities(self, runner, tmp_path,
                                                monkeypatch):
        """`filter` marks the same frames valid on a uint8 grid as on its
        float32 k / 255 twin: 5-level flicker stays below NOISE_DELTA
        (10/255) and 100-level flicker exceeds it."""
        frames = np.full((48, 8, 8, 3), 128, np.uint8)
        frames[1:24:2] += 5
        frames[25::2] = 28
        video = tmp_path / "v.wlfg"
        write_frame_grid(video, frames)

        def valid():
            out = tmp_path / "filter.json"
            result = runner.invoke(main, ["filter", "--video", str(video),
                                          "--out", str(out), "--force"])
            assert result.exit_code == 0, result.output
            return json.loads(out.read_text())["valid"]
        levels = valid()
        monkeypatch.setattr("surgflow.cli.read_frame_grid",
                            lambda path: frames / np.float32(255))
        assert valid() == levels
        assert True in levels and False in levels

    def test_project_labels_verbatim(self, runner, tmp_path):
        records = tmp_path / "records.jsonl"
        records.write_text(json.dumps(
            {"tools": ["grasper"], "verb": "retract",
             "target": "gallbladder"}) + "\n")
        out = tmp_path / "texts.jsonl"
        result = runner.invoke(main, ["project-labels", "--records",
                                      str(records), "--template", "triplet",
                                      "--out", str(out)])
        assert result.exit_code == 0
        row = json.loads(out.read_text().splitlines()[0])
        assert row["text"] == ("The surgeon is using a grasper to retract "
                               "the gallbladder.")

    def test_config_file_sets_defaults(self, runner, tmp_path):
        cfg = tmp_path / "defaults.json"
        cfg.write_text(json.dumps({"gen-synth": {"videos": 1, "seed": 9}}))
        out = tmp_path / "corpus"
        result = runner.invoke(main, ["--config", str(cfg), "gen-synth",
                                      "--out", str(out)])
        assert result.exit_code == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["n_videos"] == 1 and meta["seed"] == 9

    @pytest.mark.parametrize("suffix", [".json", ".toml"])
    @pytest.mark.parametrize("section, key, named", [
        ("pretrain", "epoch", "pretrain.epoch"),
        ("pretrian", "epochs", "pretrian")])
    def test_config_file_rejects_unknown_keys(self, runner, tmp_path, suffix,
                                              section, key, named):
        cfg = tmp_path / f"defaults{suffix}"
        cfg.write_text(json.dumps({section: {key: 0}}) if suffix == ".json"
                       else f"[{section}]\n{key} = 0\n")
        out = tmp_path / "corpus"
        result = runner.invoke(main, ["--config", str(cfg), "gen-synth",
                                      "--out", str(out), "--videos", "1"])
        assert result.exit_code == 2
        assert named in result.output and str(cfg) in result.output
        assert not out.exists()

    def test_toml_config_file_sets_defaults(self, runner, tmp_path):
        cfg = tmp_path / "defaults.toml"
        cfg.write_text('[gen-synth]\nvideos = 1\nseed = 7\n')
        out = tmp_path / "corpus"
        result = runner.invoke(main, ["--config", str(cfg), "gen-synth",
                                      "--out", str(out)])
        assert result.exit_code == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["n_videos"] == 1 and meta["seed"] == 7


class TestPipelineChain:
    def test_stage1_bundle_contents(self, workspace):
        stage1 = workspace / "stage1"
        for name in ("vocab.txt", "model.json", "stage1.wlcp", "curve.csv",
                     "run_manifest.json"):
            assert (stage1 / name).exists()
        cfg = json.loads((stage1 / "model.json").read_text())
        assert "feature_dim" not in cfg

    def test_features_one_file_per_video(self, workspace):
        meta = json.loads((workspace / "corpus" / "meta.json").read_text())
        for vid in meta["video_ids"]:
            feats = read_features(workspace / "features" / f"{vid}.wlft")
            assert feats.shape[1] == 64

    def test_segment_and_evaluate_round_trip(self, runner, workspace,
                                             tmp_path):
        meta = json.loads((workspace / "corpus" / "meta.json").read_text())
        vid = meta["video_ids"][0]
        out = tmp_path / "pred.json"
        result = runner.invoke(main, [
            "segment", "--video",
            str(workspace / "corpus" / "videos" / f"{vid}.wlfg"),
            "--stage1", str(workspace / "stage1"),
            "--temporal", str(workspace / "tcn"),
            "--fps", str(meta["fps"]), "--out", str(out)])
        assert result.exit_code == 0, result.output
        payload = json.loads(out.read_text())
        assert payload["video_id"] == vid
        assert all(s["label"] in meta["class_names"]
                   for s in payload["segments"])

        scored = runner.invoke(main, [
            "evaluate", "--pred", str(out),
            "--gt", str(workspace / "corpus" / "timelines" / f"{vid}.json")])
        assert scored.exit_code == 0, scored.output
        report = json.loads(scored.output)
        assert vid in report["per_video"]

    def test_evaluate_identity_scores_100(self, runner, workspace):
        gt_dir = workspace / "corpus" / "timelines"
        result = runner.invoke(main, ["evaluate", "--pred", str(gt_dir),
                                      "--gt", str(gt_dir)])
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        for name, value in report["aggregate"].items():
            assert value == pytest.approx(100.0), name

    def test_zeroshot_produces_timeline(self, runner, workspace, tmp_path):
        meta = json.loads((workspace / "corpus" / "meta.json").read_text())
        protos = tmp_path / "protos.json"
        protos.write_text(json.dumps(meta["prototypes"]))
        vid = meta["video_ids"][0]
        out = tmp_path / "zs.json"
        result = runner.invoke(main, [
            "zeroshot", "--video",
            str(workspace / "corpus" / "videos" / f"{vid}.wlfg"),
            "--stage1", str(workspace / "stage1"),
            "--prototypes", str(protos),
            "--fps", str(meta["fps"]), "--out", str(out)])
        assert result.exit_code == 0, result.output
        payload = json.loads(out.read_text())
        assert payload["segments"]

    def test_pca_plot(self, runner, workspace, tmp_path):
        out = tmp_path / "pca.svg"
        coords = tmp_path / "pca.csv"
        result = runner.invoke(main, ["pca-plot", "--features",
                                      str(workspace / "features"),
                                      "--out", str(out),
                                      "--coords-csv", str(coords)])
        assert result.exit_code == 0, result.output
        assert out.read_text().startswith("<svg")
        header = coords.read_text().splitlines()[0]
        assert header == "video,pc1,pc2"
        assert "explained variance ratios" in result.output

    def test_segment_rejects_checkpoint_with_extra_key(self, runner,
                                                       workspace, tmp_path):
        stage1 = tmp_path / "stage1"
        shutil.copytree(workspace / "stage1", stage1)
        state = read_checkpoint(stage1 / "stage1.wlcp")
        state["extra.weight"] = np.zeros(3, np.float32)
        write_checkpoint(stage1 / "stage1.wlcp", state)
        result = runner.invoke(main, [
            "segment", "--video",
            str(workspace / "corpus" / "videos" / "video_000.wlfg"),
            "--stage1", str(stage1), "--temporal", str(workspace / "tcn"),
            "--out", str(tmp_path / "pred.json")])
        assert result.exit_code == 1
        assert "extra.weight" in result.output

    @pytest.mark.parametrize("bundle,named", [
        ("model.json", ["model.json", "unexpected", "feature_dim"]),
        ("stage1.wlcp", ["bridge.proj.bias", "bridge.proj.weight"]),
        ("temporal.json", ["temporal.json", "missing", "hidden"]),
    ])
    def test_segment_rejects_old_bundle(self, runner, workspace, tmp_path,
                                        bundle, named):
        """An old bundle (a `feature_dim` key, `bridge.proj` weights) or a
        config that lacks a field exits 1 and names the offending keys."""
        stage1, tcn = tmp_path / "stage1", tmp_path / "tcn"
        shutil.copytree(workspace / "stage1", stage1)
        shutil.copytree(workspace / "tcn", tcn)
        if bundle == "model.json":
            cfg = json.loads((stage1 / bundle).read_text())
            (stage1 / bundle).write_text(json.dumps({**cfg, "feature_dim": 64}))
        elif bundle == "stage1.wlcp":
            state = read_checkpoint(stage1 / bundle)
            state["bridge.proj.weight"] = np.zeros((64, 64), np.float32)
            state["bridge.proj.bias"] = np.zeros(64, np.float32)
            write_checkpoint(stage1 / bundle, state)
        else:
            spec = json.loads((tcn / bundle).read_text())
            del spec["config"]["hidden"]
            (tcn / bundle).write_text(json.dumps(spec))
        result = runner.invoke(main, [
            "segment", "--video",
            str(workspace / "corpus" / "videos" / "video_000.wlfg"),
            "--stage1", str(stage1), "--temporal", str(tcn),
            "--out", str(tmp_path / "pred.json")])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # not a traceback
        assert all(name in result.output for name in named)

    @pytest.mark.parametrize("change", [-1, 1], ids=["fewer", "more"])
    def test_segment_rejects_class_count_mismatch(self, runner, workspace,
                                                  tmp_path, change):
        """temporal.json must name one class per num_classes; a list one
        short or one long exits 1 naming the file."""
        tcn = tmp_path / "tcn"
        shutil.copytree(workspace / "tcn", tcn)
        path = tcn / "temporal.json"
        spec = json.loads(path.read_text())
        n = spec["config"]["num_classes"]
        spec["classes"] = (spec["classes"][:-1] if change < 0
                           else spec["classes"] + ["extra"])
        path.write_text(json.dumps(spec))
        result = runner.invoke(main, [
            "segment", "--video",
            str(workspace / "corpus" / "videos" / "video_000.wlfg"),
            "--stage1", str(workspace / "stage1"), "--temporal", str(tcn),
            "--out", str(tmp_path / "pred.json")])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)  # not a traceback
        assert (f"error: {path}: {n + change} classes for num_classes {n}"
                in result.output)


FPS_COMMANDS = {
    "segment": ["--video", VIDEO, "--stage1", "{ws}/stage1", "--temporal",
                "{ws}/tcn"],
    "zeroshot": ["--video", VIDEO, "--stage1", "{ws}/stage1",
                 "--prototypes", "{ws}/inputs/protos.json"],
    "caption": ["--video", VIDEO, "--stage1", "{ws}/stage1", "--temporal",
                "{ws}/tcn"],
    "filter": ["--video", VIDEO],
    "evaluate": ["--pred", "{ws}/corpus/timelines", "--gt",
                 "{ws}/corpus/timelines"],
}

# Every command that reads a corpus's meta.json, and its other arguments.
META_COMMANDS = {
    "pretrain": ["--max-steps", "1"],
    "finetune-lora": ["--stage1", "{ws}/stage1", "--max-steps", "1"],
    "extract-features": ["--stage1", "{ws}/stage1"],
    "train-temporal": ["--features", "{ws}/features", "--epochs", "1"],
    "ablate-subset": ["--features", "{ws}/features", "--epochs", "1"],
    "segment": ["--stage1", "{ws}/stage1", "--temporal", "{ws}/tcn"],
}


class TestInputChecks:
    """Numeric options are refused while the command line is parsed (exit
    2, naming the option); malformed JSON inputs exit 1 naming the file,
    never with a traceback."""

    @pytest.mark.parametrize("name,option,value", [
        *[(name, "--fps", value) for name in sorted(FPS_COMMANDS)
          for value in ("0", "-1", "nan", "inf")],
        ("ablate-subset", "--fractions", "0.5,abc"),
        *[("split-clips", "--min-seconds", value)
          for value in ("-1", "nan", "inf")],
    ])
    def test_bad_number_is_usage_error(self, runner, out_inputs, tmp_path,
                                       name, option, value):
        args = {**FPS_COMMANDS,
                "ablate-subset": ["--features", "{ws}/features",
                                  "--corpus", "{ws}/corpus"],
                "split-clips": ["--words", "{ws}/inputs/words.json"]}[name]
        out = tmp_path / "out.json"
        result = runner.invoke(main, [name, option, value]
                               + [a.format(ws=out_inputs) for a in args]
                               + (["--out", str(out)] if name != "evaluate"
                                  else []))
        assert result.exit_code == 2, result.output
        assert f"Invalid value for '{option}'" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("name,payload", [
        ("model.json", "{not json"),
        ("boxes", [[0, 0, "10", 32]]),
        ("boxes", [[0, 0, 10]]),
        ("prototypes", {"incision": 3, "idle": "nothing happens"}),
        ("prototypes", ["a list", "of sentences"]),
        ("words", [{"text": "a", "start_s": 0.0}]),
        ("words", [{"text": "a", "start_s": True, "end_s": 1.0}]),
    ])
    def test_malformed_json_input_names_the_file(self, runner, out_inputs,
                                                 tmp_path, name, payload):
        ws, video = out_inputs, VIDEO.format(ws=out_inputs)
        stage1 = tmp_path / "stage1"
        shutil.copytree(ws / "stage1", stage1)
        path = (stage1 / name if name == "model.json"
                else tmp_path / f"{name}.json")
        path.write_text(payload if isinstance(payload, str)
                        else json.dumps(payload))
        args = {"model.json": ["segment", "--video", video, "--stage1",
                               str(stage1), "--temporal", str(ws / "tcn")],
                "boxes": ["filter", "--video", video, "--boxes", str(path),
                          "--min-size", "8"],
                "prototypes": ["zeroshot", "--video", video, "--stage1",
                               str(stage1), "--prototypes", str(path)],
                "words": ["split-clips", "--words", str(path)]}[name]
        result = runner.invoke(main, args + ["--out", str(tmp_path / "o.json")])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)  # not a traceback
        assert f"error: {path}: " in result.output

    @pytest.mark.parametrize("name,payload,named", [
        ("timeline", {"video_id": "v", "segments": 5},
         "segments must be a list, not 5"),
        ("timeline", [{"start_s": 0.0, "end_s": 1.0, "label": "a"}],
         "expected a JSON object, not list"),
        ("timeline", {"segments": [{"start_s": 0.0, "label": "a"}]},
         "segment 0: missing key 'end_s'"),
        ("timeline", {"segments": [{"start_s": 0.0, "end_s": "1",
                                    "label": "a"}]},
         "segment 0: end_s must be a number, not '1'"),
        ("timeline", {"segments": [{"start_s": 2.0, "end_s": 1.0,
                                    "label": "a"}]},
         "segment has non-positive span"),
        ("manifest", [1, 2], "1: expected a JSON object, not list"),
        ("manifest", {"video": "video_000", "start_s": 0.0, "end_s": 1.0},
         "1: missing key 'text'"),
        ("manifest", {"video": "video_000", "text": "a", "start_s": True,
                      "end_s": 1.0},
         "1: start_s must be a number, not True"),
    ])
    def test_malformed_record_names_the_file(self, runner, out_inputs,
                                             tmp_path, name, payload, named):
        """A timeline read by `evaluate` or a clip manifest read by
        `pretrain` that is not shaped as expected exits 1 naming the file
        (the manifest with its line) and the key."""
        ws = out_inputs
        if name == "timeline":
            path = tmp_path / "pred.json"
            path.write_text(json.dumps(payload))
            args = ["evaluate", "--pred", str(path), "--gt",
                    str(ws / "corpus" / "timelines" / "video_000.json")]
        else:
            corpus = tmp_path / "corpus"
            shutil.copytree(ws / "corpus", corpus)
            path = corpus / "manifest.jsonl"
            lines = path.read_text().splitlines(keepends=True)
            path.write_text(json.dumps(payload) + "\n" + "".join(lines[1:]))
            args = ["pretrain", "--corpus", str(corpus), "--max-steps", "1",
                    "--out", str(tmp_path / "stage1")]
        result = runner.invoke(main, args)
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)  # not a traceback
        sep = ":" if name == "manifest" else ": "
        assert f"error: {path}{sep}{named}" in result.output

    @pytest.mark.parametrize("key,value,named", [
        ("fps", None, "missing key 'fps'"),
        ("fps", "8", "fps must be a number, not '8'"),
        ("fps", 0, "fps must be a finite positive number, not 0"),
        ("video_ids", 5, "video_ids must be a list, not 5"),
        ("class_names", ["idle", 3],
         "class_names must be strings, not ['idle', 3]"),
        ("prototypes", {"idle": 3}, "prototypes must be strings, not "
         "{'idle': 3}"),
    ])
    @pytest.mark.parametrize("name", sorted(META_COMMANDS))
    def test_malformed_meta_names_the_file(self, runner, out_inputs,
                                           tmp_path, name, key, value, named):
        """Every command reads meta.json through pipeline.read_meta: a
        missing or mistyped value (None: the key deleted) exits 1 naming
        the file and the key, and leaves no output."""
        ws, corpus = out_inputs, tmp_path / "corpus"
        corpus.mkdir()
        for part in ("videos", "timelines", "manifest.jsonl"):
            (corpus / part).symlink_to(ws / "corpus" / part)
        meta = json.loads((ws / "corpus" / "meta.json").read_text())
        if value is None:
            del meta[key]
        else:
            meta[key] = value
        path = corpus / "meta.json"
        path.write_text(json.dumps(meta))
        where = (["--video", str(corpus / "videos" / "video_000.wlfg")]
                 if name == "segment" else ["--corpus", str(corpus)])
        out = tmp_path / "out"
        result = runner.invoke(main, [name, *where, "--out", str(out)]
                               + [a.format(ws=ws) for a in META_COMMANDS[name]])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)  # not a traceback
        assert f"error: {path}: {named}" in result.output
        assert not out.exists()

    def test_malformed_config_file_is_usage_error(self, runner, tmp_path):
        cfg = tmp_path / "defaults.json"
        cfg.write_text("{gen-synth")
        result = runner.invoke(main, ["--config", str(cfg), "gen-synth",
                                      "--out", str(tmp_path / "corpus")])
        assert result.exit_code == 2
        assert str(cfg) in result.output


@pytest.fixture(scope="module")
def lora_bundle(workspace, runner):
    """A rank-2 LoRA bundle fine-tuned on the workspace corpus."""
    out = workspace / "lora"
    result = runner.invoke(main, [
        "finetune-lora", "--corpus", str(workspace / "corpus"),
        "--stage1", str(workspace / "stage1"), "--out", str(out),
        "--rank", "2", "--epochs", "1", "--max-steps", "1",
        "--batch-size", "2"])
    assert result.exit_code == 0, result.output
    return out


class TestLoraBundle:
    """A LoRA bundle loads through the same strict rule as a stage-1
    checkpoint: every factor present, none extra, each of its shape."""

    def zeroshot(self, runner, ws, lora, tmp_path):
        return runner.invoke(main, [
            "zeroshot", "--video", VIDEO.format(ws=ws),
            "--stage1", str(ws / "stage1"), "--lora", str(lora),
            "--prototypes", str(ws / "inputs" / "protos.json"),
            "--out", str(tmp_path / "zs.json")])

    def test_bundle_files(self, lora_bundle):
        assert sorted(p.name for p in lora_bundle.iterdir()) == [
            "curve.csv", "lora.json", "lora.wlcp", "run_manifest.json"]

    def test_intact_bundle_loads(self, runner, out_inputs, lora_bundle,
                                 tmp_path):
        result = self.zeroshot(runner, out_inputs, lora_bundle, tmp_path)
        assert result.exit_code == 0, result.output

    @pytest.mark.parametrize("damage,named", [
        ("missing", "missing keys"),
        ("extra", "unexpected keys ['lora.extra.lora_a']"),
        ("shape", "wrong shapes"),
        ("rank", "missing keys ['rank']"),
    ])
    def test_damaged_bundle_names_the_file(self, runner, out_inputs,
                                           lora_bundle, tmp_path, damage,
                                           named):
        lora = tmp_path / "lora"
        shutil.copytree(lora_bundle, lora)
        state = read_checkpoint(lora / "lora.wlcp")
        first = next(iter(state))
        if damage == "missing":
            del state[first]
        elif damage == "extra":
            state["lora.extra.lora_a"] = np.zeros((2, 64), np.float32)
        elif damage == "shape":
            state[first] = np.zeros((1, 64), np.float32)
        write_checkpoint(lora / "lora.wlcp", state)
        path = lora / "lora.wlcp"
        if damage == "rank":
            path = lora / "lora.json"
            spec = json.loads(path.read_text())
            del spec["rank"]
            path.write_text(json.dumps(spec))
        result = self.zeroshot(runner, out_inputs, lora, tmp_path)
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)  # not a traceback
        assert f"error: {path}: {named}" in result.output


class TestBundleValueTypes:
    """Each value of model.json, temporal.json and lora.json is checked
    against its field's type (an int is a number, a bool is not an int),
    and lora.json's rank is at least 1; any other value exits 1 naming the
    file and the key, never with a traceback."""

    @pytest.mark.parametrize("bundle,key,value,named", [
        ("lora", "rank", "4", "rank must be an integer, not '4'"),
        ("lora", "rank", True, "rank must be an integer, not True"),
        ("lora", "rank", 0, "rank must be at least 1, not 0"),
        ("lora", "alpha", "8", "alpha must be a number, not '8'"),
        ("lora", "stage1", None, "stage1 must be a string, not None"),
        ("stage1", "dim", "64", "dim must be an integer, not '64'"),
        ("stage1", "n_heads", 4.0, "n_heads must be an integer, not 4.0"),
        ("tcn", "config.hidden", 64.5, "hidden must be an integer, not 64.5"),
        ("tcn", "config.smoothing_weight", "0.15",
         "smoothing_weight must be a number, not '0.15'"),
        ("tcn", "config", [], "config must be an object, not []"),
        ("tcn", "variant", 1, "variant must be a string, not 1"),
        ("tcn", "classes", [0, 1], "classes must be strings, not [0, 1]"),
        ("tcn", "config.smoothing_weight", 1, None),
        ("lora", "alpha", 2, None),
    ])
    def test_value_types(self, runner, out_inputs, lora_bundle, tmp_path,
                         bundle, key, value, named):
        ws = out_inputs
        dirs = {"stage1": ws / "stage1", "tcn": ws / "tcn",
                "lora": lora_bundle}
        for name, src in dirs.items():
            dirs[name] = tmp_path / name
            shutil.copytree(src, dirs[name])
        path = dirs[bundle] / {"stage1": "model.json", "tcn": "temporal.json",
                               "lora": "lora.json"}[bundle]
        spec = json.loads(path.read_text())
        *parents, leaf = key.split(".")
        target = spec
        for part in parents:
            target = target[part]
        target[leaf] = value
        path.write_text(json.dumps(spec))
        result = runner.invoke(main, [
            "segment", "--video", VIDEO.format(ws=ws),
            "--stage1", str(dirs["stage1"]), "--temporal", str(dirs["tcn"]),
            "--lora", str(dirs["lora"]), "--out", str(tmp_path / "pred.json")])
        if named is None:
            assert result.exit_code == 0, result.output
            return
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)  # not a traceback
        assert f"error: {path}: {named}" in result.output


class TestCorpusFrameRate:
    """A corpus video read at any rate but its corpus's is refused."""

    @pytest.fixture(scope="class")
    def corpus4(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("fps4") / "corpus"
        meta = generate_corpus(SyntheticSpec(seed=3, fps=4), 1, root)
        assert meta["fps"] == 4
        return root / "videos" / f"{meta['video_ids'][0]}.wlfg"

    @pytest.mark.parametrize("name", ["segment", "zeroshot", "caption",
                                      "filter"])
    def test_default_fps_is_rejected(self, runner, out_inputs, corpus4,
                                     tmp_path, name):
        args = {"segment": ["--stage1", "{ws}/stage1", "--temporal", "{ws}/tcn"],
                "zeroshot": ["--stage1", "{ws}/stage1",
                             "--prototypes", "{ws}/inputs/protos.json"],
                "caption": ["--stage1", "{ws}/stage1", "--temporal", "{ws}/tcn"],
                "filter": []}[name]
        out = tmp_path / "out.json"
        result = runner.invoke(main, [name, "--video", str(corpus4),
                                      "--out", str(out)]
                               + [a.format(ws=out_inputs) for a in args])
        assert result.exit_code == 2
        assert "--fps 8" in result.output and "frame rate 4" in result.output
        assert not out.exists()

    def test_corpus_fps_is_accepted(self, runner, workspace, corpus4,
                                    tmp_path):
        out = tmp_path / "pred.json"
        result = runner.invoke(main, [
            "segment", "--video", str(corpus4),
            "--stage1", str(workspace / "stage1"),
            "--temporal", str(workspace / "tcn"),
            "--fps", "4", "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert json.loads(out.read_text())["segments"]


class TestGradcheck:
    def test_f32_passes(self, runner):
        result = runner.invoke(main, ["gradcheck", "--mode", "f32"])
        assert result.exit_code == 0, result.output
        lines = result.output.splitlines()
        assert len(lines) == 7
        assert all(line.startswith("f32 ") and line.endswith(" ok")
                   for line in lines)

    def test_error_above_threshold_fails(self, runner, monkeypatch):
        from surgflow import diagnostics
        threshold = diagnostics.TOLERANCES["f32"][1]
        monkeypatch.setattr(diagnostics, "gradient_suite",
                            lambda dtype, seed: {"mga_loss": threshold / 2,
                                                 "mgc_loss": threshold * 2})
        result = runner.invoke(main, ["gradcheck", "--mode", "f32"])
        assert result.exit_code == 1
        mga, mgc = result.output.splitlines()
        assert mga.startswith("f32 mga_loss") and mga.endswith(" ok")
        assert mgc.startswith("f32 mgc_loss") and mgc.endswith(" FAIL")


class TestThreadDeterminism:
    """A seeded pretrain writes the same bytes whatever WL_THREADS is."""

    THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                   "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

    def pretrain(self, corpus, out, threads):
        env = {k: v for k, v in os.environ.items()
               if k not in self.THREAD_VARS}
        src = str(Path(surgflow.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p])
        env["WL_THREADS"] = str(threads)
        subprocess.run(
            [sys.executable, "-m", "surgflow.cli", "pretrain",
             "--corpus", str(corpus), "--out", str(out), "--max-steps", "4",
             "--epochs", "1", "--seed", "3"],
            env=env, check=True, capture_output=True, timeout=300)

    def test_pretrain_bytes_equal_across_thread_counts(self, tmp_path):
        generate_corpus(SyntheticSpec(seed=3), 4, tmp_path / "corpus")
        for threads in (1, 2):
            self.pretrain(tmp_path / "corpus", tmp_path / f"t{threads}",
                          threads)
        for name in ("stage1.wlcp", "curve.csv"):
            assert (tmp_path / "t1" / name).read_bytes() == \
                (tmp_path / "t2" / name).read_bytes(), name


class TestThreadCap:
    def test_wl_threads_overrides_thread_variables_already_set(self):
        env = dict(os.environ, OPENBLAS_NUM_THREADS="2", WL_THREADS="1")
        src = str(Path(surgflow.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p])
        names = TestThreadDeterminism.THREAD_VARS
        out = subprocess.run(
            [sys.executable, "-c",
             "import os, surgflow.cli; "
             f"print(*(os.environ[v] for v in {names!r}))"],
            env=env, check=True, capture_output=True, text=True, timeout=60)
        assert out.stdout.split() == ["1"] * len(names)
