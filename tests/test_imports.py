"""Every module-level import of a `mto1` module or a test file is used by
that file, and `mto1` imports only the standard library and numpy, its one
dependency in pyproject.toml."""

import ast
import sys
from pathlib import Path

import pytest

import mto1

MODULES = sorted(p for p in Path(mto1.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")
TESTS = sorted(Path(__file__).parent.glob("*.py"))


def unused_imports(source):
    """Names bound by the module's top-level imports that nothing reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def test_the_check_sees_an_unused_import():
    source = "import math\nimport re\nfrom x import a, b as c\nre.sub\nc()\n"
    assert unused_imports(source) == [(1, "math"), (3, "a")]


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: (
    p.name if p in MODULES else f"tests/{p.name}"))
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def foreign_imports(source, allowed=frozenset({"numpy"})):
    """Top-level packages that any import in the source names, other than
    the standard library's, the allowed ones and relative imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module)
    return sorted({name.split(".")[0] for name in names}
                  - sys.stdlib_module_names - allowed)


def test_the_check_sees_a_foreign_import():
    source = ("import json, numpy as np\nfrom . import cli\n"
              "from json.encoder import c_make_encoder\n"
              "def f():\n    import orjson\n    from scipy import linalg\n")
    assert foreign_imports(source) == ["orjson", "scipy"]


@pytest.mark.parametrize("path", MODULES + [Path(mto1.__file__)],
                         ids=lambda p: p.name)
def test_package_imports_only_the_stdlib_and_numpy(path):
    assert foreign_imports(path.read_text()) == []
