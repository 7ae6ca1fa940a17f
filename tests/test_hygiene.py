"""Package hygiene: every public name resolves, no module imports a name it
never uses, and no module reads another package module's private names."""

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


def private_reads(source: str) -> list[str]:
    """Underscore-prefixed names that ``source`` reads from other package
    modules: ``module._name`` after ``from . import module``, and
    ``from .module import _name``."""
    tree = ast.parse(source)
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level and node.module is None:
            modules |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level:
            found += [f"{node.module}.{a.name}" for a in node.names if a.name.startswith("_")]
    found += [
        f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules and node.attr.startswith("_")
    ]
    return found


def test_public_names_resolve():
    assert [name for name in qscocycle.__all__ if not hasattr(qscocycle, name)] == []


def test_unused_import_is_found():
    assert unused_imports("import os\nfrom a import b, c as d\nd(b)\n") == ["os"]


def test_private_read_is_found():
    source = "from . import a, b as c\nfrom .d import _e, f\na._x\nc._y\nc.z\nobj._w\n"
    assert private_reads(source) == ["d._e", "a._x", "c._y"]


@pytest.mark.parametrize(
    "module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
)
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_private_reads_across_modules(module):
    assert private_reads((PACKAGE / module).read_text()) == []
