"""The runtime dependencies declared in pyproject.toml are exactly the
third-party modules the package imports: none undeclared, none unused.
Every lazily loaded public name is defined where the package looks it up."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bandtopsis

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    tomllib = pytest.importorskip("tomli")

ROOT = Path(__file__).resolve().parent.parent


def _third_party_imports() -> set[str]:
    found = set()
    for path in (ROOT / "src" / "bandtopsis").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found.update(n.split(".")[0] for n in names)
    return found - set(sys.stdlib_module_names)


def _declared_dependencies() -> set[str]:
    with open(ROOT / "pyproject.toml", "rb") as f:
        deps = tomllib.load(f)["project"]["dependencies"]
    return {re.split(r"[\s<>=!~;\[]", d, maxsplit=1)[0] for d in deps}


def test_declared_dependencies_equal_third_party_imports():
    assert _third_party_imports() == _declared_dependencies() == {"numpy"}


def _top_level_names(module: str) -> set[str]:
    tree = ast.parse((ROOT / "src" / "bandtopsis" / f"{module}.py").read_text(encoding="utf-8"))
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def test_every_lazy_name_is_defined_by_the_module_it_names():
    for module, names in bandtopsis._SOURCES.items():
        missing = set(names) - _top_level_names(module)
        assert not missing, f"bandtopsis.{module} does not define {sorted(missing)}"


def test_every_public_name_resolves_in_a_fresh_interpreter():
    code = "import bandtopsis\nfor name in bandtopsis.__all__: getattr(bandtopsis, name)\n"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr


def _file_writers() -> set[tuple[str, str]]:
    """(module, function) of every open() call in the package whose mode
    writes."""
    found = set()
    for path in (ROOT / "src" / "bandtopsis").glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open"):
                    continue
                modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
                if any(isinstance(m, ast.Constant) and "w" in str(m.value) for m in modes):
                    found.add((path.stem, func.name))
    return found


def test_each_output_file_has_one_writer():
    """Tables are written by io's row writer (summary.json by emit_tables),
    and figures only by the `plot` command."""
    assert _file_writers() == {("io", "_write_rows"), ("io", "emit_tables"), ("cli", "_cmd_plot")}
