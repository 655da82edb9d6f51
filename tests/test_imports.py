"""Every module-level import of a `mto1` module or a test file is used by
that file."""

import ast
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
