"""The reach ledger: every function, method and property in `src/surgflow`
runs in the seeded CLI chain (tests/chain.py), timed under a call-only
hook, or is listed in EXEMPT with a reason from a closed set, each checked.
An exempt definition that the chain does reach fails, so the list cannot go
stale."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import surgflow
from chain import RUNS, calls_under, command_of
from surgflow.cli import main

SRC = Path(surgflow.__file__).resolve().parent
ROOT = SRC.parent.parent
TESTS = Path(__file__).resolve().parent

# The closed set of reasons a definition may be unreached by the chain.
PERFBENCH = "perfbench uses it"
ACCEPTANCE = "tests/test_acceptance.py calls it"
IMPORT = "it runs at import time"
F64 = "the float64-only gradient-audit path"
REFUSAL = "a refusal that the named test reaches"

# Definitions the chain does not run: {name: (reason,)}, or for a refusal
# {name: (REFUSAL, "test_file.py::Class::test")}.
EXEMPT = {
    "__init__._pin_malloc_thresholds": (IMPORT,),
    "cli.command": (IMPORT,),
    "autodiff.erf": (F64,),
    "autodiff._spent": (REFUSAL, "test_autodiff.py::TestTapeLifetime::"
                        "test_second_backward_raises_and_keeps_the_grads"),
    "autodiff.stack": (PERFBENCH,),
    "nn.Module.load_state_dict": (PERFBENCH,),
    "serialization.read_frame_grid": (PERFBENCH,),
    "timeline.PhaseTimeline.fill_gaps": (PERFBENCH,),
    "timeline.merge_labels": (PERFBENCH,),
    "lora.adapter_parameter_count": (PERFBENCH,),
    "autodiff.Tensor.item": (ACCEPTANCE,),
    "lora.LoraLinear.merge": (ACCEPTANCE,),
    "lora.merge": (ACCEPTANCE,),
    "lora.set_enabled": (ACCEPTANCE,),
}

FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _first_line(node) -> int:
    """The line a definition's code object starts at: its first decorator's
    line when it has one."""
    return min([node.lineno] + [d.lineno for d in node.decorator_list])


def definitions(path: Path, module: str) -> dict:
    """{module.name: (path, first line)} of each module-level function and
    each method or property of a module-level class in the file `path`."""
    out = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, FUNCS):
            out[f"{module}.{node.name}"] = (path, _first_line(node))
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, FUNCS):
                    out[f"{module}.{node.name}.{item.name}"] = (
                        path, _first_line(item))
    return out


def src_definitions() -> dict:
    return {name: where for path in sorted(SRC.glob("*.py"))
            for name, where in definitions(path, path.stem).items()}


def ran(codes) -> set:
    """(resolved file, first line) of each code object in `codes`."""
    return {(Path(c.co_filename).resolve(), c.co_firstlineno) for c in codes}


def unreached(defs: dict, reached: set) -> list:
    return sorted(name for name, where in defs.items() if where not in reached)


def unexplained(defs: dict, reached: set, exempt: dict) -> list:
    """Definitions that did not run and are not exempt."""
    return sorted(set(unreached(defs, reached)) - set(exempt))


def stale(defs: dict, reached: set, exempt: dict) -> list:
    """Exempt names that ran, or that name no definition."""
    return sorted(set(exempt) - set(unreached(defs, reached)))


def _root(node):
    """The name an attribute chain starts from (`a` of `a.b(c)[d].e`), or
    None when it starts from another expression."""
    while isinstance(node, (ast.Attribute, ast.Call, ast.Subscript)):
        node = node.func if isinstance(node, ast.Call) else node.value
    return node.id if isinstance(node, ast.Name) else None


def uses(source: str) -> set:
    """The surgflow names a file uses: each attribute read whose chain does
    not start from a name imported from outside surgflow (so `np.stack` is
    not a use of `stack`), each name imported from surgflow, and each
    string in a tuple assigned to `OPS`, the autodiff op names perfbench
    wraps by getattr."""
    tree = ast.parse(source)
    foreign, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            foreign.update(a.asname or a.name.split(".")[0] for a in node.names
                           if a.name.split(".")[0] != "surgflow")
        elif isinstance(node, ast.ImportFrom):
            imported = {a.asname or a.name for a in node.names}
            if (node.module or "").split(".")[0] == "surgflow":
                names |= {a.name for a in node.names}
            else:
                foreign |= imported
        elif isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "OPS" for t in node.targets):
            names |= {c.value for c in ast.walk(node.value)
                      if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    return names | {node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute)
                    and _root(node) not in foreign}


def import_time_calls(source: str) -> set:
    """Names called while a module is imported: in its module-level
    statements and in the decorators of its module-level definitions."""
    found = set()
    for node in ast.parse(source).body:
        parts = (node.decorator_list
                 if isinstance(node, FUNCS + (ast.ClassDef,)) else [node])
        for call in (n for part in parts for n in ast.walk(part)):
            if isinstance(call, ast.Call):
                fn = call.func
                found.add(fn.id if isinstance(fn, ast.Name)
                          else getattr(fn, "attr", None))
    return found


def float64_only(source: str) -> dict:
    """{name: True when every call of it sits in the body of an `if` whose
    test names float64} for each name a module calls."""
    tree = ast.parse(source)
    guarded = {id(n) for node in ast.walk(tree) if isinstance(node, ast.If)
               and "float64" in ast.unparse(node.test)
               for stmt in node.body for n in ast.walk(stmt)}
    out = {}
    for n in ast.walk(tree):
        if isinstance(n, ast.Call):
            name = getattr(n.func, "id", getattr(n.func, "attr", None))
            out[name] = out.get(name, True) and id(n) in guarded
    return out


def _run_test(test_id: str) -> None:
    """Call the fixture-free test method `file.py::Class::test`."""
    file, cls, test = test_id.split("::")
    module = importlib.import_module(Path(file).stem)
    getattr(getattr(module, cls)(), test)()


def _files_uses(*paths) -> set:
    return set().union(*(uses(p.read_text()) for p in paths))


def reason_fails(name: str, entry: tuple, defs: dict) -> bool:
    """True when the recorded reason for exempt `name` does not hold."""
    reason, *detail = entry
    short = name.rsplit(".", 1)[1]
    if reason == PERFBENCH:
        return short not in _files_uses(*sorted((ROOT / "perfbench").glob("*.py")))
    if reason == ACCEPTANCE:
        return short not in _files_uses(TESTS / "test_acceptance.py")
    if reason == IMPORT:
        return short not in set().union(*(import_time_calls(p.read_text())
                                          for p in SRC.glob("*.py")))
    if reason == F64:
        found = [f[short] for f in map(float64_only, (
            p.read_text() for p in SRC.glob("*.py"))) if short in f]
        return not (found and all(found))
    if reason == REFUSAL:
        _, codes = calls_under(lambda: _run_test(*detail))
        return defs[name] not in ran(codes)
    return True  # not a reason of the closed set


@pytest.fixture(scope="module")
def reached(chain_run):
    """The code that ran in the seeded chain, as `ran` gives it."""
    return ran(chain_run[1])


class TestChain:
    def test_every_subcommand_is_in_the_chain(self):
        assert sorted({command_of(args) for args in RUNS}) == sorted(main.commands)


class TestLedger:
    def test_every_definition_runs_or_has_a_reason(self, reached):
        assert unexplained(src_definitions(), reached, EXEMPT) == []

    def test_no_exempt_definition_runs_or_is_gone(self, reached):
        assert stale(src_definitions(), reached, EXEMPT) == []

    def test_every_reason_holds(self):
        defs = src_definitions()
        assert [n for n, entry in EXEMPT.items()
                if n in defs and reason_fails(n, entry, defs)] == []


class TestLedgerChecks:
    """The ledger's own machinery on synthetic inputs."""

    MODULE = '''
import functools

def called():
    return Box().size

@functools.lru_cache
def decorated_and_called():
    return 1

def never():
    pass

class Box:
    @property
    def size(self):
        return decorated_and_called()

    def unused(self):
        pass
'''

    def test_an_unreached_function_is_reported(self, tmp_path, monkeypatch):
        path = tmp_path / "ledger_probe.py"
        path.write_text(self.MODULE)
        monkeypatch.syspath_prepend(str(tmp_path))
        module = importlib.import_module("ledger_probe")
        try:
            _, codes = calls_under(module.called)
        finally:
            del sys.modules["ledger_probe"]
        defs = definitions(path, "probe")
        assert unexplained(defs, ran(codes), {"probe.never": (IMPORT,)}) == [
            "probe.Box.unused"]

    def test_a_stale_exemption_fails(self, reached):
        exempt = dict(EXEMPT, **{"nn.Linear.__call__": (PERFBENCH,),
                                 "autodiff.gone": (PERFBENCH,)})
        assert stale(src_definitions(), reached, exempt) == [
            "autodiff.gone", "nn.Linear.__call__"]

    def test_a_use_through_numpy_is_not_a_use(self, tmp_path, monkeypatch):
        (tmp_path / "perfbench").mkdir()
        bench = tmp_path / "perfbench" / "workloads.py"
        monkeypatch.setattr(sys.modules[__name__], "ROOT", tmp_path)
        defs = src_definitions()
        for source, fails in [
                ("import numpy as np\nx = np.stack([a])\n", True),
                ("from numpy import linalg\nlinalg.stack\n", True),
                ('OPS = ("add", "stack")\n', False),
                ("from surgflow import autodiff as ad\nad.stack([a])\n", False)]:
            bench.write_text(source)
            assert reason_fails("autodiff.stack", (PERFBENCH,), defs) == fails

    def test_a_reason_that_does_not_hold_fails(self):
        defs = src_definitions()
        for reason in (PERFBENCH, ACCEPTANCE, IMPORT, F64, "used somewhere"):
            assert reason_fails("autodiff.sub", (reason,), defs)
        assert reason_fails("autodiff._spent", (
            REFUSAL, "test_autodiff.py::TestTapeLifetime::"
            "test_spent_nodes_drop_parents_and_closure"), defs)
        assert not reason_fails("autodiff.stack", (PERFBENCH,), defs)
