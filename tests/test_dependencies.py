"""What surgflow imports: no SciPy module at run time, and exactly the
third-party packages pyproject.toml declares."""

import ast
import subprocess
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "surgflow"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def test_no_scipy_module_is_loaded():
    """SciPy may be installed; importing every surgflow module, the CLI
    among them, must still leave no scipy module in sys.modules."""
    code = ("import sys\n"
            f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
            "import surgflow\n"
            + "".join(f"import surgflow.{name}\n" for name in MODULES)
            + "print(sorted(m for m in sys.modules\n"
              "             if m == 'scipy' or m.startswith('scipy.')))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert "cli" in MODULES
    assert out.stdout.strip() == "[]"


def _imported_packages() -> set:
    """The top-level names of every absolute import in src/surgflow."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def _declared_packages() -> set:
    """The names in pyproject.toml's [project].dependencies, without their
    version specifiers."""
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = set()
    for requirement in project["dependencies"]:
        name = requirement.split(";")[0]
        for mark in "<>=!~[ ":
            name = name.split(mark)[0]
        names.add(name.strip().lower().replace("-", "_"))
    return names


def test_third_party_imports_are_the_declared_dependencies():
    third_party = (_imported_packages() - set(sys.stdlib_module_names)
                   - {"surgflow"})
    assert third_party == _declared_packages()
