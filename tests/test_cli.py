"""CLI harness: exit codes, overwrite protection, run manifests, and a
small end-to-end artifact chain."""

import json
import re
import shutil

import numpy as np
import pytest
from click.testing import CliRunner

from surgflow.cli import main
from surgflow.serialization import (read_checkpoint, read_features,
                                    write_checkpoint, write_frame_grid)


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

    def test_corrupt_artifact_is_runtime_error(self, runner, tmp_path):
        bad = tmp_path / "bad.wlfg"
        bad.write_bytes(b"not a frame grid")
        result = runner.invoke(main, ["filter", "--video", str(bad),
                                      "--out", str(tmp_path / "o.json")])
        assert result.exit_code == 1


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
    "pca-plot": (8, ["--features", "{ws}/features", "--seed", "8"]),
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
        frames = np.zeros((8, 32, 32, 3), np.float32)
        frames[1::2] += 0.5  # alternating frames: everything moves
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


class TestPipelineChain:
    def test_stage1_bundle_contents(self, workspace):
        stage1 = workspace / "stage1"
        for name in ("vocab.txt", "model.json", "stage1.wlcp", "curve.csv",
                     "run_manifest.json"):
            assert (stage1 / name).exists()
        cfg = json.loads((stage1 / "model.json").read_text())
        assert cfg["feature_dim"] == 64

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
