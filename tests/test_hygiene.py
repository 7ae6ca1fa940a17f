"""Package hygiene: every public name resolves, and no module imports a name
it never uses."""

import ast
from pathlib import Path

import pytest

import qscocycle

PACKAGE = Path(qscocycle.__file__).parent


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no expression in ``source`` reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_public_names_resolve():
    assert [name for name in qscocycle.__all__ if not hasattr(qscocycle, name)] == []


def test_unused_import_is_found():
    assert unused_imports("import os\nfrom a import b, c as d\nd(b)\n") == ["os"]


@pytest.mark.parametrize(
    "module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
)
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []
