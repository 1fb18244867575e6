"""The program needs numpy and the standard library only: no module under
src/identminer imports scipy, which the tests keep as an oracle. Nor does
any import dataclasses: every record of the package is a named tuple, so no
subcommand pays for loading that module."""
import ast
from pathlib import Path

import pytest

import identminer

PACKAGE = Path(identminer.__file__).resolve().parent


def import_lines(source: str, top: str) -> list[int]:
    """Line numbers of each `import top...` and `from top... import` in
    source, at any depth."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        if any(module.split(".")[0] == top for module in modules):
            lines.append(node.lineno)
    return lines


def imports_under_src(top: str) -> list[str]:
    """path:line of each import of top in a module under src/identminer."""
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 10
    return [f"{path.relative_to(PACKAGE)}:{line}" for path in modules
            for line in import_lines(path.read_text(encoding="utf-8"), top)]


def planted(statement: str) -> str:
    """A module's source with statement added, in a function, as its last
    line."""
    source = (PACKAGE / "models" / "unigram.py").read_text(encoding="utf-8")
    return f"{source}\n\ndef f():\n    {statement}\n"


def test_no_module_imports_scipy():
    assert imports_under_src("scipy") == []


@pytest.mark.parametrize("statement", [
    "import scipy", "import numpy, scipy.sparse as sp",
    "from scipy import sparse", "from scipy.sparse import csr_matrix"])
def test_a_planted_scipy_import_is_found(statement):
    source = planted(statement)
    assert import_lines(source, "scipy") == [source.count("\n")]


def test_no_module_imports_dataclasses():
    assert imports_under_src("dataclasses") == []


@pytest.mark.parametrize("statement", [
    "import dataclasses", "import typing, dataclasses as dc",
    "from dataclasses import dataclass", "from dataclasses import field"])
def test_a_planted_dataclasses_import_is_found(statement):
    source = planted(statement)
    assert import_lines(source, "dataclasses") == [source.count("\n")]


def test_runtime_dependencies_are_numpy_only():
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((PACKAGE.parents[1] / "pyproject.toml")
                              .read_text(encoding="utf-8"))["project"]
    assert pyproject["dependencies"] == ["numpy>=1.24"]
    assert any(requirement.startswith("scipy") for requirement
               in pyproject["optional-dependencies"]["test"])
