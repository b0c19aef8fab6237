"""The seeded CLI chain: every subcommand of `surgflow.cli.main` run once, in
process through click's CliRunner, on a tiny seeded corpus, each required to
exit 0.  It is the one command list for comparing a change's artifacts with
its parent's, and the traffic that tests/test_reach.py measures.

    python tests/chain.py --out DIR

writes every artifact of the chain under DIR (which must not exist yet),
with the standard output of each run in DIR/chain.log.  Paths are relative
to DIR, so two chains run in two directories compare byte for byte, except
the `wall_time_s` and `git_describe` fields of the run manifests.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

if __name__ == "__main__":  # a checkout's own sources, one BLAS thread
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    os.environ.setdefault("WL_THREADS", "1")

from click.testing import CliRunner  # noqa: E402

from surgflow.cli import main  # noqa: E402

VIDEO = "corpus/videos/video_003.wlfg"

# Each run's arguments, in order; a run reads only what earlier runs and
# `_write_inputs` wrote.  The first run makes the corpus the inputs need.
RUNS = [
    ["gen-synth", "--out", "corpus", "--videos", "4", "--seed", "3"],
    ["gen-synth", "--out", "shifted", "--videos", "3", "--seed", "3",
     "--shifted"],
    ["pretrain", "--corpus", "corpus", "--out", "stage1", "--max-steps", "3",
     "--batch-size", "4", "--seed", "3"],
    ["--config", "inputs/pretrain.json", "pretrain", "--corpus", "corpus",
     "--out", "stage1_config"],
    ["finetune-lora", "--corpus", "shifted", "--stage1", "stage1", "--out",
     "lora", "--rank", "2", "--max-steps", "2", "--batch-size", "4",
     "--seed", "3"],
    ["extract-features", "--corpus", "corpus", "--stage1", "stage1", "--out",
     "features"],
    ["extract-features", "--corpus", "corpus", "--stage1", "stage1", "--lora",
     "lora", "--out", "features_lora"],
    ["train-temporal", "--features", "features", "--corpus", "corpus",
     "--variant", "tcn", "--out", "tcn", "--epochs", "2", "--seed", "3"],
    ["train-temporal", "--features", "features", "--corpus", "corpus",
     "--variant", "asformer", "--videos", "video_000,video_001", "--out",
     "asformer", "--epochs", "1", "--seed", "3"],
    ["segment", "--video", VIDEO, "--stage1", "stage1", "--temporal", "tcn",
     "--out", "segment.json"],
    ["zeroshot", "--video", VIDEO, "--stage1", "stage1", "--prototypes",
     "inputs/prototypes.json", "--out", "zeroshot.json"],
    ["zeroshot", "--video", VIDEO, "--stage1", "stage1", "--prototypes",
     "inputs/prototypes.json", "--lora", "lora", "--out",
     "zeroshot_lora.json"],
    ["caption", "--video", VIDEO, "--stage1", "stage1", "--temporal", "tcn",
     "--out", "caption.json"],
    ["evaluate", "--pred", "segment.json", "--gt",
     "corpus/timelines/video_003.json", "--out-csv", "evaluate.csv",
     "--out-svg", "evaluate.svg"],
    ["ablate-subset", "--features", "features", "--corpus", "corpus",
     "--train", "video_000,video_001,video_002", "--test", "video_003",
     "--fractions", "0.5,1.0", "--epochs", "1", "--seed", "3", "--out",
     "ablate.csv"],
    ["pca-plot", "--features", "features", "--out", "pca.svg",
     "--coords-csv", "pca.csv"],
    ["filter", "--video", VIDEO, "--boxes", "inputs/boxes.json",
     "--min-size", "8", "--seed", "3", "--out", "filter.json"],
    ["split-clips", "--words", "inputs/words.json", "--out", "clips.json"],
    ["project-labels", "--records", "inputs/records.jsonl", "--template",
     "triplet", "--out", "labels.jsonl"],
    ["gradcheck", "--mode", "f32"],
]


def command_of(args: list) -> str:
    """The subcommand a run invokes: its first argument naming one."""
    return next(a for a in args if a in main.commands)


def _write_inputs(inputs: Path) -> None:
    """The hand-made inputs of the chain; the prototype sentences are the
    corpus's own."""
    inputs.mkdir()
    meta = json.loads(Path("corpus/meta.json").read_text())
    texts = {
        "prototypes.json": json.dumps(meta["prototypes"]),
        "pretrain.json": json.dumps({"pretrain": {
            "max_steps": 2, "batch_size": 4, "epochs": 1, "seed": 5}}),
        "boxes.json": json.dumps([[0, 0, 10, 32], [20, 4, 32, 12]]),
        "words.json": json.dumps([
            {"text": "open", "start_s": 0.0, "end_s": 1.0},
            {"text": "the", "start_s": 1.0, "end_s": 1.5},
            {"text": "port.", "start_s": 1.5, "end_s": 3.0},
            {"text": "Now", "start_s": 3.5, "end_s": 4.0},
            {"text": "cut.", "start_s": 4.0, "end_s": 6.5}]),
        "records.jsonl": "".join(json.dumps(r) + "\n" for r in [
            {"tools": ["grasper"], "verb": "retract", "target": "gallbladder"},
            {"tools": ["hook", "clipper"], "verb": "dissect",
             "target": "cystic duct"}]),
    }
    for name, text in texts.items():
        (inputs / name).write_text(text)


def run_chain(workdir) -> list:
    """Run RUNS in order with `workdir` (created here) as the working
    directory, writing the inputs after the first run.  Returns each run's
    (arguments, standard output); raises RuntimeError at the first run that
    exits other than 0."""
    workdir = Path(workdir)
    workdir.mkdir(parents=True)
    runner = CliRunner()
    results = []
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for i, args in enumerate(RUNS):
            if i == 1:
                _write_inputs(Path("inputs"))
            result = runner.invoke(main, args)
            if result.exit_code != 0:
                raise RuntimeError(f"{' '.join(args)} exited "
                                   f"{result.exit_code}:\n{result.output}")
            results.append((args, result.output))
    finally:
        os.chdir(cwd)
    return results


def calls_under(fn) -> tuple:
    """(what `fn()` returned, the set of code objects that ran a Python
    frame during it).  The hook is a global `sys.settrace` function that
    records each frame's code object and returns None, so no line event
    fires; the previous trace function is restored afterwards."""
    seen = set()

    def hook(frame, event, arg):
        seen.add(frame.f_code)

    outer = sys.gettrace()
    sys.settrace(hook)
    try:
        result = fn()
    finally:
        sys.settrace(outer)
    return result, seen


def _main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path,
                        help="Directory to create and write the chain into.")
    out = parser.parse_args(argv).out
    results = run_chain(out)
    (out / "chain.log").write_text("".join(
        f"$ surgflow {' '.join(args)}\n{output}" for args, output in results))
    print(f"{len(results)} runs, artifacts in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
