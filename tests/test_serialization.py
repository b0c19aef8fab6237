"""Artifact files: atomic writes, byte-exact round-trips of the one binary
format and corruption detection, and the single writer module."""

import ast
import builtins
import math
import re
import struct
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from conftest import make_tiny_model
from surgflow import serialization
from surgflow.errors import InputError
from surgflow.metrics import MetricReport
from surgflow.nn import Linear
from surgflow.rng import SessionRng
from surgflow.serialization import (read_checkpoint, read_features,
                                    read_frame_grid, read_video,
                                    write_checkpoint, write_csv, write_features,
                                    write_frame_grid, write_json, write_svg,
                                    write_text)
from surgflow.vocab import Vocabulary

WRITERS = {
    "checkpoint": lambda p: write_checkpoint(p, {"a": np.arange(6.0)}),
    "features": lambda p: write_features(p, np.ones((3, 2))),
    "frame_grid": lambda p: write_frame_grid(p, np.ones((2, 2, 2, 3), np.uint8),
                                             8.0),
    "json": lambda p: write_json(p, {"a": [1, 2, 3]}),
    "text": lambda p: write_text(p, "line one\nline two\n"),
    "csv": lambda p: write_csv(p, ["a", "b"], [[1, 2.5], ["x", ""]]),
    "vocab": lambda p: Vocabulary.build(["a clip of a phase"]).save(p),
    "metric_csv": lambda p: MetricReport(
        per_video={"v0": {"accuracy": 90.0}}, aggregate={"accuracy": 90.0},
        std={"accuracy": 0.0}).write_csv(p),
}


class _FullDisk:
    """A binary file whose first write stores half its bytes and then fails,
    as when the disk fills mid-write."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, data):
        self._fh.write(bytes(data)[:len(data) // 2])
        raise OSError("No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


class TestAtomicWrites:
    @pytest.mark.parametrize("writer", sorted(WRITERS))
    @pytest.mark.parametrize("previous", [b"previous artifact", None])
    def test_failed_write_leaves_target_untouched(self, tmp_path, monkeypatch,
                                                  writer, previous):
        target = tmp_path / "artifact"
        if previous is not None:
            target.write_bytes(previous)
        monkeypatch.setattr(serialization, "open", raising=False,
                            value=lambda *a, **k: _FullDisk(builtins.open(*a, **k)))
        with pytest.raises(OSError, match="No space"):
            WRITERS[writer](target)
        if previous is None:
            assert list(tmp_path.iterdir()) == []
        else:
            assert list(tmp_path.iterdir()) == [target]
            assert target.read_bytes() == previous

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_write_replaces_target(self, tmp_path, writer):
        target = tmp_path / "artifact"
        target.write_bytes(b"previous artifact")
        WRITERS[writer](target)
        fresh = tmp_path / "fresh"
        WRITERS[writer](fresh)
        assert target.read_bytes() == fresh.read_bytes()
        assert sorted(tmp_path.iterdir()) == [target, fresh]


class TestCsv:
    def test_keeps_crlf_line_endings(self, tmp_path):
        write_csv(tmp_path / "t.csv", ["a", "b"], [[1, 2.5], ["x,y", ""]])
        assert (tmp_path / "t.csv").read_bytes() == \
            b'a,b\r\n1,2.5\r\n"x,y",\r\n'


class TestSvg:
    def test_document_frames_the_elements(self, tmp_path):
        write_svg(tmp_path / "p.svg", 40, 30, ['<circle r="1"/>', "<g/>"])
        assert (tmp_path / "p.svg").read_text() == (
            '<svg xmlns="http://www.w3.org/2000/svg" width="40" height="30">\n'
            '<circle r="1"/>\n<g/>\n</svg>')

    def test_metric_chart_is_one_bar_per_metric(self, tmp_path):
        report = MetricReport(per_video={"v0": {"accuracy": 90.0}},
                              aggregate={"accuracy": 90.0, "edit": 80.0},
                              std={})
        report.write_svg(tmp_path / "m.svg")
        lines = (tmp_path / "m.svg").read_text().splitlines()
        assert lines[0] == ('<svg xmlns="http://www.w3.org/2000/svg" '
                            'width="420" height="68">')
        assert lines[1] == ('<rect x="140" y="10" width="225.0" height="18" '
                            'fill="#4878a8"/>')
        assert len(lines) == 2 + 3 * 2 and lines[-1] == "</svg>"


def _write_calls(tree):
    """Line numbers of the calls in `tree` that can write a file: open or
    Path.open with a mode containing w, a or x (or a mode that is not a
    string literal), .write_text, .write_bytes and json.dump."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn = node.func
        name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", "")
        if name == "open":
            at = 1 if isinstance(fn, ast.Name) else 0
            mode = next((k.value for k in node.keywords if k.arg == "mode"),
                        node.args[at] if len(node.args) > at else None)
            if mode is not None and not (isinstance(mode, ast.Constant)
                                         and isinstance(mode.value, str)
                                         and not set(mode.value) & set("wax")):
                yield node.lineno
        elif isinstance(fn, ast.Attribute) and (
                name in ("write_text", "write_bytes")
                or name == "dump" and isinstance(fn.value, ast.Name)
                and fn.value.id == "json"):
            yield node.lineno


class TestOneWriter:
    """Only `serialization` opens a file for writing; every other module
    goes through its atomic writers."""

    SRC = Path(serialization.__file__).parent

    def test_no_module_but_serialization_writes_files(self):
        found = [f"{path.name}:{line}"
                 for path in sorted(self.SRC.glob("*.py"))
                 if path.name != "serialization.py"
                 for line in _write_calls(ast.parse(path.read_text()))]
        assert found == []

    def test_checker_sees_each_kind_of_write(self):
        source = """
open(p, "w"); open(p, mode="ab"); open(p, "x"); open(p, m)
p.write_text(s); p.write_bytes(b); json.dump(d, fh); p.open("w")
open(p); open(p, "rb"); p.read_text(); json.dumps(d); p.open()
"""
        assert sorted(_write_calls(ast.parse(source))) == [2] * 4 + [3] * 4


BUNDLE_FILES = ("stage1.wlcp", "lora.wlcp", "temporal.wlcp", "model.json",
                "lora.json", "temporal.json", "vocab.txt", "curve.csv")


def _bundle_names(tree):
    """Line numbers of the string literals in `tree` that name a bundle file."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and any(name in node.value for name in BUNDLE_FILES)):
            yield node.lineno


class TestOneBundleOwner:
    """Only `pipeline` names the files of a stage-1, LoRA or temporal
    bundle; every other module saves and loads bundles through it."""

    SRC = Path(serialization.__file__).parent

    def test_no_module_but_pipeline_names_a_bundle_file(self):
        found = [f"{path.name}:{line}"
                 for path in sorted(self.SRC.glob("*.py"))
                 if path.name != "pipeline.py"
                 for line in _bundle_names(ast.parse(path.read_text()))]
        assert found == []

    def test_checker_sees_each_bundle_file(self):
        source = "\n".join(f'p = out / "{name}"' for name in BUNDLE_FILES)
        source += """
x = f"{out}/curve.csv"; y = "run_manifest.json"; z = "meta.json"
"""
        assert sorted(_bundle_names(ast.parse(source))) == \
            list(range(1, len(BUNDLE_FILES) + 1)) + [len(BUNDLE_FILES) + 1]


CORPUS_DIRS = ("videos", "timelines")
CORPUS_FILES = ("meta.json", "manifest.jsonl", ".wlft")


def _corpus_names(tree):
    """Line numbers of the string literals in `tree` that name a corpus
    directory (equal to it) or a corpus file (containing it)."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and (node.value in CORPUS_DIRS
                     or any(name in node.value for name in CORPUS_FILES))):
            yield node.lineno


class TestOneCorpusReader:
    """Only `pipeline` names the directories and files of a corpus, and
    `synthetic`, which writes one; every other module reads a corpus
    through `pipeline`."""

    SRC = Path(serialization.__file__).parent

    def test_no_module_but_pipeline_names_a_corpus_file(self):
        found = [f"{path.name}:{line}"
                 for path in sorted(self.SRC.glob("*.py"))
                 if path.name not in ("pipeline.py", "synthetic.py")
                 for line in _corpus_names(ast.parse(path.read_text()))]
        assert found == []

    def test_checker_sees_each_corpus_name(self):
        source = """
a = corpus / "videos"; b = corpus / "timelines"; c = "meta.json"
d = f"{corpus}/manifest.jsonl"; e = out / f"{vid}.wlft"; f = "*.wlft"
x = "--videos"; y = "videos/v.wlfg"; z = {"videos": 3}; w = "manifest"
"""
        assert sorted(_corpus_names(ast.parse(source))) == [2] * 3 + [3] * 3 + [4]


def _training_calls(tree):
    """Line numbers of the calls in `tree` that build an optimizer or a
    schedule or clip gradients: AdamW, CosineWarmupSchedule and
    clip_global_norm, by bare name or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            fn = node.func
            name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", "")
            if name in ("AdamW", "CosineWarmupSchedule", "clip_global_norm"):
                yield node.lineno


class TestOneTrainingLoop:
    """Only `optim.train` builds an optimizer or a schedule or clips
    gradients; every training command goes through it."""

    SRC = Path(serialization.__file__).parent

    def test_no_module_but_optim_runs_a_training_step(self):
        found = [f"{path.name}:{line}"
                 for path in sorted(self.SRC.glob("*.py"))
                 if path.name != "optim.py"
                 for line in _training_calls(ast.parse(path.read_text()))]
        assert found == []

    def test_checker_sees_each_training_call(self):
        source = """
AdamW(p); optim.AdamW(p, lr=1.0); CosineWarmupSchedule(1, 0, 1, 2)
clip_global_norm(p, 5.0); optim.clip_global_norm(p)
train(p, 1, 1, f, c, r); AdamW; opt.step(); schedule.lr(0)
"""
        assert sorted(_training_calls(ast.parse(source))) == [2] * 3 + [3] * 2


def _public_defs(tree):
    """Names of the public module-level functions and classes in `tree`,
    except click commands, which their decorator registers by name."""
    for node in tree.body:
        if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                or node.name.startswith("_")):
            continue
        calls = {getattr(d.func, "id", getattr(d.func, "attr", ""))
                 for d in node.decorator_list if isinstance(d, ast.Call)}
        if not calls & {"command", "group"}:
            yield node.name


def _dead_helpers(sources, other_text=""):
    """Public definitions in `sources` (module sources) whose name appears,
    as a whole word, nowhere but in its own definition across `sources`
    and `other_text`."""
    text = "\n".join(sources) + "\n" + other_text
    return sorted(name for source in sources
                  for name in _public_defs(ast.parse(source))
                  if len(re.findall(rf"\b{name}\b", text)) == 1)


# Public names nothing in the repo calls, each kept on purpose.
UNREFERENCED_API = {
    "set_enabled": "switches adapters off to compare with the base model",
}


class TestNoDeadHelpers:
    """Every public module-level function or class in `src/surgflow` is
    named somewhere else in `src/`, `perfbench/` or the README, or is
    listed with its reason in UNREFERENCED_API."""

    SRC = Path(serialization.__file__).parent
    ROOT = SRC.parent.parent

    def test_every_public_definition_is_used(self):
        sources = [p.read_text() for p in sorted(self.SRC.glob("*.py"))]
        others = [p.read_text() for p in sorted(
            (self.ROOT / "perfbench").rglob("*")) if p.suffix in (".py", ".md")]
        others.append((self.ROOT / "README.md").read_text())
        assert _dead_helpers(sources, "\n".join(others)) == sorted(
            UNREFERENCED_API)

    def test_checker_sees_each_unnamed_definition(self):
        source = """
import click
def dead(): pass
class Dead: pass
def used(): pass
def _private(): pass
@command("run")
def run_cmd(): pass
@click.group()
def main(): pass
@click.option("--x")
def decorated(): pass
x = used()
"""
        assert _dead_helpers([source], "Dead") == ["dead", "decorated"]


def _numpy_imports(tree):
    """Line numbers of the statements in `tree` that import NumPy or one of
    its submodules, as `import numpy...` or `from numpy... import`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(n == "numpy" or n.startswith("numpy.") for n in names):
            yield node.lineno


class TestThinCli:
    """The CLI does no array work: `cli.py` parses options, calls the
    library once per command and writes the result, without NumPy."""

    CLI = Path(serialization.__file__).parent / "cli.py"

    def test_cli_imports_no_numpy(self):
        assert list(_numpy_imports(ast.parse(self.CLI.read_text()))) == []

    def test_checker_sees_each_form_of_numpy_import(self):
        source = """
import numpy as np; import os, numpy; import numpy.linalg
from numpy import ndarray; from numpy.lib import stride_tricks as st
import numpyro; from .numpy import x; from numpy_helpers import y
import click
"""
        assert list(_numpy_imports(ast.parse(source))) == [2] * 3 + [3] * 2


TAPE_FIELDS = ("_backward", "_parents")
# the assignments by which Tensor.backward spends a node it has run
SPENDS = {("_parents", "()"), ("_backward", "_spent")}


def _scoped(tree, scope=""):
    """(scope, node) of each node under `tree`: scope is the dotted name of
    the enclosing classes and functions, "" at module level."""
    for node in ast.iter_child_nodes(tree):
        yield scope, node
        inner = scope
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = f"{scope}.{node.name}" if scope else node.name
        yield from _scoped(node, inner)


def _tape_writes(tree):
    """(scope, line) of each write to a tensor's `_backward` or `_parents`:
    an assignment to or deletion of the attribute, a setattr naming it, or
    a call passing it by keyword."""
    for scope, node in _scoped(tree):
        if (isinstance(node, ast.Attribute) and node.attr in TAPE_FIELDS
                and not isinstance(node.ctx, ast.Load)):
            yield scope, node.lineno
        elif isinstance(node, ast.Call) and (
                any(kw.arg in TAPE_FIELDS for kw in node.keywords)
                or getattr(node.func, "id", "") == "setattr" and any(
                    isinstance(a, ast.Constant) and a.value in TAPE_FIELDS
                    for a in node.args)):
            yield scope, node.lineno


def _recording_writes(tree):
    """The (scope, line) of `_tape_writes` outside `Tensor.__init__` and
    `_node`, less one per `<x>._parents = ()` or `<x>._backward = _spent`
    statement of `Tensor.backward` itself."""
    spends = Counter(
        (scope, node.lineno) for scope, node in _scoped(tree)
        if scope == "Tensor.backward" and isinstance(node, ast.Assign)
        and len(node.targets) == 1 and isinstance(node.targets[0], ast.Attribute)
        and (node.targets[0].attr, ast.unparse(node.value)) in SPENDS)
    writes = Counter(w for w in _tape_writes(tree)
                     if w[0] not in ("Tensor.__init__", "_node"))
    return sorted((writes - spends).elements())


class TestOneRecordingRule:
    """Only `autodiff._node` gives a tensor parents and a backward closure
    (through `Tensor.__init__`); every op hands its closure to it.  The one
    other write is `Tensor.backward` spending a node it has run: it sets
    `_parents = ()` and `_backward = _spent`."""

    SRC = Path(serialization.__file__).parent

    def test_no_code_but_node_records_a_tape_node(self):
        found = [f"{path.name}:{line} ({scope})"
                 for path in sorted(self.SRC.glob("*.py"))
                 for scope, line in _recording_writes(ast.parse(path.read_text()))]
        assert found == []

    def test_checker_sees_each_tape_write(self):
        source = """
out._backward = bwd; out._parents = (a,); t._backward += f
Tensor(d, _parents=p); Tensor(d, _backward=f); setattr(t, "_backward", f)
a, b._parents = 1, 2; del t._backward
t._backward(g); p = t._parents; Tensor(d, requires_grad=True); getattr(t, "_parents")
class Tensor:
    def __init__(self, _parents=()):
        self._parents = _parents
def _node(d, p, b):
    def bwd(g):
        out._backward = g
    return Tensor(d, _parents=p, _backward=b)
"""
        assert sorted(_tape_writes(ast.parse(source))) == sorted(
            [("", 2)] * 3 + [("", 3)] * 3 + [("", 4)] * 2
            + [("Tensor.__init__", 8), ("_node", 12), ("_node.bwd", 11)])

    def test_checker_admits_only_the_spends_of_backward(self):
        """A recording write in Tensor.backward, or a spend anywhere else,
        is still reported."""
        source = """
class Tensor:
    def backward(self):
        node._parents = (); node._backward = _spent
        node._backward = bwd
        node._parents = (a,); node._backward = _spent
        node._parents = node._backward = ()
        def inner():
            node._parents = ()
def _spend(node):
    node._parents = (); node._backward = _spent
"""
        assert _recording_writes(ast.parse(source)) == sorted(
            [("Tensor.backward", 5), ("Tensor.backward", 6)]
            + [("Tensor.backward", 7)] * 2
            + [("Tensor.backward.inner", 9)] + [("_spend", 11)] * 2)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = SessionRng(0)
        entries = {
            "scalar": np.float32(3.5),
            "vec": rng.normal(1.0, (7,)),
            "mat": rng.normal(1.0, (3, 4)),
            "cube": rng.normal(1.0, (2, 3, 4)),
        }
        path = tmp_path / "m.wlcp"
        write_checkpoint(path, entries)
        out = read_checkpoint(path)
        assert set(out) == set(entries)
        for name in entries:
            np.testing.assert_array_equal(out[name],
                                          np.asarray(entries[name], np.float32))

    def test_write_is_deterministic(self, tmp_path):
        entries = {"a": np.arange(6, dtype=np.float32).reshape(2, 3)}
        write_checkpoint(tmp_path / "x.wlcp", entries)
        write_checkpoint(tmp_path / "y.wlcp", entries)
        assert (tmp_path / "x.wlcp").read_bytes() == (tmp_path / "y.wlcp").read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.wlcp"
        path.write_bytes(b"NOPE" + b"\0" * 16)
        with pytest.raises(InputError):
            read_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "m.wlcp"
        write_checkpoint(path, {"a": np.zeros(2, np.float32)})
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(InputError):
            read_checkpoint(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "m.wlcp"
        write_checkpoint(path, {"a": np.zeros(2, np.float32)})
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(InputError):
            read_checkpoint(path)

    @pytest.mark.parametrize("dtype", [np.float32, np.uint8])
    @pytest.mark.parametrize("shape", [(), (1,), (2, 3, 1, 4)])
    def test_round_trip_keeps_rank_and_dtype(self, tmp_path, dtype, shape):
        arr = np.arange(math.prod(shape), dtype=dtype).reshape(shape) + 1
        path = tmp_path / "m.wlcp"
        write_checkpoint(path, {"a": arr})
        out = read_checkpoint(path)["a"]
        assert out.dtype == dtype and out.shape == shape
        np.testing.assert_array_equal(out, arr)

    def test_version_1_still_reads(self, tmp_path):
        """Version 1 has no dtype byte and holds float32 only."""
        w, s = np.arange(6, dtype="<f4").reshape(2, 3), np.float32(2.5)
        path = tmp_path / "v1.wlcp"
        path.write_bytes(b"WLCP" + struct.pack("<II", 1, 2)
                         + struct.pack("<I1sB2Q", 1, b"w", 2, 2, 3) + w.tobytes()
                         + struct.pack("<I1sB1Q", 1, b"s", 1, 1) + s.tobytes())
        out = read_checkpoint(path)
        assert list(out) == ["w", "s"]
        assert out["w"].dtype == np.float32 and out["s"].shape == (1,)
        np.testing.assert_array_equal(out["w"], w)
        np.testing.assert_array_equal(out["s"], [2.5])

    @pytest.mark.parametrize("at,value,message", [
        (4, 3, "unsupported format version 3"),
        (18, 2, "unknown dtype code 2"),  # after magic, version, count, name
    ])
    def test_unknown_version_or_dtype_refused(self, tmp_path, at, value,
                                              message):
        path = tmp_path / "m.wlcp"
        write_checkpoint(path, {"ab": np.zeros((1, 2), np.float32)})
        raw = bytearray(path.read_bytes())
        raw[at] = value
        path.write_bytes(bytes(raw))
        with pytest.raises(InputError, match=re.escape(f"{path}: ") + ".*"
                           + re.escape(message)):
            read_checkpoint(path)

    def test_corrupt_entry_names_the_file(self, tmp_path):
        """A name that is not UTF-8, and dims whose product overflows 64
        bits (once read as an empty payload that failed to reshape)."""
        path = tmp_path / "m.wlcp"
        write_checkpoint(path, {"ab": np.zeros((1, 2), np.float32)})
        good = path.read_bytes()
        name_at, dims_at = 16, 20  # after magic, version, count, name length
        for at, patch in ((name_at, b"\xff"),
                          (dims_at, struct.pack("<2Q", 2 ** 32, 2 ** 32))):
            path.write_bytes(good[:at] + patch + good[at + len(patch):])
            with pytest.raises(InputError, match=re.escape(str(path))):
                read_checkpoint(path)


class TestLoadStateDict:
    def layer(self):
        return Linear(3, 2, SessionRng(1))

    def test_round_trip(self):
        src = self.layer()
        dst = Linear(3, 2, SessionRng(2))
        dst.load_state_dict(src.state_dict())
        np.testing.assert_array_equal(dst.weight.data, src.weight.data)

    def test_missing_key_rejected(self):
        state = self.layer().state_dict()
        del state["bias"]
        with pytest.raises(InputError, match=r"state dict: missing.*'bias'"):
            self.layer().load_state_dict(state)

    def test_unexpected_key_rejected(self):
        state = self.layer().state_dict()
        state["extra"] = np.zeros(2, np.float32)
        with pytest.raises(InputError, match=r"state dict: unexpected.*'extra'"):
            self.layer().load_state_dict(state)

    def test_shape_mismatch_rejected(self):
        state = self.layer().state_dict()
        state["weight"] = np.zeros((2, 3), np.float32)
        with pytest.raises(InputError, match=r"state dict: wrong shapes: weight"):
            self.layer().load_state_dict(state)

    def test_failed_load_assigns_nothing(self):
        layer = self.layer()
        before = layer.state_dict()
        state = Linear(3, 2, SessionRng(2)).state_dict()
        state["bias"] = np.zeros(3, np.float32)
        with pytest.raises(InputError):
            layer.load_state_dict(state)
        np.testing.assert_array_equal(layer.weight.data, before["weight"])


class TestFeatures:
    def test_round_trip(self, tmp_path):
        feats = SessionRng(1).normal(1.0, (11, 5))
        path = tmp_path / "f.wlft"
        write_features(path, feats)
        np.testing.assert_array_equal(read_features(path), feats)

    def test_rank_enforced(self, tmp_path):
        with pytest.raises(InputError):
            write_features(tmp_path / "f.wlft", np.zeros((2, 2, 2), np.float32))

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "f.wlft"
        write_features(path, np.zeros((4, 3), np.float32))
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(InputError):
            read_features(path)


def levels(rng, shape):
    """Random 8-bit frame levels."""
    return rng.integers(0, 256, shape).astype(np.uint8)


class TestFrameGrid:
    def test_round_trip(self, tmp_path):
        frames = levels(SessionRng(2), (5, 4, 6, 3))
        path = tmp_path / "v.wlfg"
        write_frame_grid(path, frames, 8.0)
        out = read_frame_grid(path)
        assert out.dtype == np.uint8
        np.testing.assert_array_equal(out, frames)

    @given(frames=arrays(np.uint8, array_shapes(min_dims=4, max_dims=4,
                                                max_side=4)),
           fps=st.floats(0.0, exclude_min=True, allow_infinity=False,
                         width=32))
    def test_video_round_trip(self, tmp_path_factory, frames, fps):
        """Every non-empty uint8 grid and every positive rate that float32
        holds exactly come back from read_video as written."""
        path = tmp_path_factory.mktemp("grid") / "v.wlfg"
        write_frame_grid(path, frames, fps)
        out, rate = read_video(path)
        assert out.dtype == np.uint8 and type(rate) is float
        np.testing.assert_array_equal(out, frames)
        assert rate == fps

    @pytest.mark.parametrize("fps", [0, -1.0, math.nan, math.inf, 29.97])
    def test_bad_rate_refused_on_write(self, tmp_path, fps):
        """A rate that is not finite and positive, or that float32 does
        not hold exactly, is refused before anything is written."""
        path = tmp_path / "v.wlfg"
        with pytest.raises(InputError, match="fps must be a finite positive"):
            write_frame_grid(path, np.zeros((2, 2, 2, 3), np.uint8), fps)
        assert not path.exists()

    def test_grid_without_rate_refused(self, tmp_path):
        """A grid of uint8 frames alone, as older builds wrote, is refused
        naming the file and asking for the corpus to be regenerated."""
        path = tmp_path / "old.wlfg"
        write_checkpoint(path, {"frames": np.zeros((2, 2, 2, 3), np.uint8)})
        with pytest.raises(InputError, match=re.escape(
                f"{path}: frame grid holds no fps; regenerate the corpus")):
            read_video(path)

    @pytest.mark.parametrize("fps", [0.0, -8.0, math.nan])
    def test_bad_stored_rate_refused_on_read(self, tmp_path, fps):
        path = tmp_path / "v.wlfg"
        write_checkpoint(path, {"frames": np.zeros((2, 2, 2, 3), np.uint8),
                                "fps": np.float32(fps)})
        with pytest.raises(InputError, match=re.escape(
                f"{path}: frame grid fps must be a finite positive number")):
            read_video(path)

    def test_rank_enforced(self, tmp_path):
        with pytest.raises(InputError):
            write_frame_grid(tmp_path / "v.wlfg", np.zeros((2, 2, 2), np.uint8),
                             8.0)

    def test_float_grid_refused(self, tmp_path):
        """Frame grids hold 8-bit levels: a float grid is refused on write,
        and one written before (a float32 "frames" entry) on read, naming
        the file."""
        frames = np.zeros((2, 2, 2, 3), np.float32)
        with pytest.raises(InputError, match="uint8"):
            write_frame_grid(tmp_path / "v.wlfg", frames, 8.0)
        path = tmp_path / "old.wlfg"
        write_checkpoint(path, {"frames": frames})
        with pytest.raises(InputError,
                           match=re.escape(f"{path}: frame grid holds float32")):
            read_frame_grid(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "v.wlfg"
        path.write_bytes(b"XXXX" + b"\0" * 32)
        with pytest.raises(InputError):
            read_frame_grid(path)

    def test_empty_grid_refused_on_read(self, tmp_path):
        path = tmp_path / "v.wlfg"
        write_frame_grid(path, np.zeros((0, 4, 4, 3), np.uint8), 8.0)
        with pytest.raises(InputError, match=re.escape(
                f"{path}: frame grid holds no frames")):
            read_frame_grid(path)


def write_old_wlft(path, features):
    """A feature table in the retired WLFT layout: magic, u32 version,
    u64 length, u64 dim, then the payload."""
    features = np.asarray(features, "<f4")
    path.write_bytes(b"WLFT" + struct.pack("<IQQ", 1, *features.shape)
                     + features.tobytes())


def write_old_wlfg(path, frames):
    """A frame grid in the retired WLFG layout: magic, four u64 dims, then
    the payload."""
    frames = np.asarray(frames, "<f4")
    path.write_bytes(b"WLFG" + struct.pack("<4Q", *frames.shape)
                     + frames.tobytes())


class TestOneFormat:
    """A feature table is a WLCP file with one rank-2 entry "features", a
    frame grid one with a rank-4 entry "frames" and a 0-d entry "fps";
    anything else is refused with an InputError naming the file."""

    def test_feature_table_is_a_one_entry_checkpoint(self, tmp_path):
        feats = SessionRng(3).normal(1.0, (4, 5))
        path = tmp_path / "f.wlft"
        write_features(path, feats)
        out = read_checkpoint(path)
        assert list(out) == ["features"]
        np.testing.assert_array_equal(out["features"], feats)

    def test_frame_grid_is_a_two_entry_checkpoint(self, tmp_path):
        frames = levels(SessionRng(4), (3, 4, 4, 3))
        path = tmp_path / "v.wlfg"
        write_frame_grid(path, frames, 4)
        out = read_checkpoint(path)
        assert list(out) == ["frames", "fps"]
        np.testing.assert_array_equal(out["frames"], frames)
        assert out["fps"].dtype == np.float32 and out["fps"].shape == ()
        assert out["fps"] == 4.0

    @pytest.mark.parametrize("read", [read_features, read_frame_grid])
    def test_stage1_checkpoint_refused(self, tmp_path, read):
        path = tmp_path / "stage1.wlcp"
        write_checkpoint(path, make_tiny_model().state_dict())
        with pytest.raises(InputError, match=re.escape(f"{path}: expected one")):
            read(path)

    @pytest.mark.parametrize("read,entries", [
        (read_features, {"features": np.zeros((2, 3, 1), np.float32)}),
        (read_features, {"features": np.zeros(3, np.float32)}),
        (read_features, {"frames": np.zeros((2, 3), np.float32)}),
        (read_features, {}),
        (read_frame_grid, {"frames": np.zeros((2, 3), np.float32)}),
        (read_frame_grid, {"frames": np.zeros((1, 2, 2, 3), np.uint8),
                           "fps": np.float32(8.0),
                           "extra": np.zeros(1, np.float32)}),
    ])
    def test_wrong_entry_or_rank_refused(self, tmp_path, read, entries):
        path = tmp_path / "x.bin"
        write_checkpoint(path, entries)
        with pytest.raises(InputError, match=re.escape(f"{path}: expected one")):
            read(path)

    @pytest.mark.parametrize("write_old,read,shape", [
        (write_old_wlft, read_features, (3, 2)),
        (write_old_wlfg, read_frame_grid, (2, 2, 2, 3)),
    ])
    def test_old_layout_refused(self, tmp_path, write_old, read, shape):
        path = tmp_path / "old.bin"
        write_old(path, np.ones(shape))
        with pytest.raises(InputError, match=re.escape(f"{path}: bad magic")):
            read(path)


class TestTruncation:
    """Every proper prefix of a valid file of each binary kind is rejected
    with an InputError that names the file, never a struct.error or a
    bare ValueError."""

    FILES = {
        "wlcp": (lambda p: write_checkpoint(p, {"w.é": np.arange(6.0).reshape(2, 3),
                                                "s": np.float32(2.0)}),
                 read_checkpoint),
        "wlft": (lambda p: write_features(p, np.ones((3, 2))), read_features),
        "wlfg": (lambda p: write_frame_grid(p, np.ones((2, 2, 1, 3), np.uint8),
                                            8.0),
                 read_frame_grid),
    }

    @pytest.mark.parametrize("kind", sorted(FILES))
    def test_every_truncation_names_the_file(self, tmp_path, kind):
        write, read = self.FILES[kind]
        whole = tmp_path / f"whole.{kind}"
        write(whole)
        raw = whole.read_bytes()
        read(whole)
        cut = tmp_path / f"cut.{kind}"
        for n in range(len(raw)):
            cut.write_bytes(raw[:n])
            with pytest.raises(InputError, match=re.escape(str(cut))):
                read(cut)
