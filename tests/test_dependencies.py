"""The program needs numpy and the standard library only: no module under
src/identminer imports scipy, which the tests keep as an oracle."""
import ast
from pathlib import Path

import pytest

import identminer

PACKAGE = Path(identminer.__file__).resolve().parent


def scipy_import_lines(source: str) -> list[int]:
    """Line numbers of each `import scipy...` and `from scipy... import` in
    source, at any depth."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        if any(module.split(".")[0] == "scipy" for module in modules):
            lines.append(node.lineno)
    return lines


def test_no_module_imports_scipy():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 10
    found = [f"{path.relative_to(PACKAGE)}:{line}" for path in modules
             for line in scipy_import_lines(path.read_text(encoding="utf-8"))]
    assert found == []


@pytest.mark.parametrize("statement", [
    "import scipy", "import numpy, scipy.sparse as sp",
    "from scipy import sparse", "from scipy.sparse import csr_matrix"])
def test_a_planted_scipy_import_is_found(statement):
    source = (PACKAGE / "models" / "unigram.py").read_text(encoding="utf-8")
    planted = f"{source}\n\ndef f():\n    {statement}\n"
    assert scipy_import_lines(planted) == [planted.count("\n")]


def test_runtime_dependencies_are_numpy_only():
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((PACKAGE.parents[1] / "pyproject.toml")
                              .read_text(encoding="utf-8"))["project"]
    assert pyproject["dependencies"] == ["numpy>=1.24"]
    assert any(requirement.startswith("scipy") for requirement
               in pyproject["optional-dependencies"]["test"])
