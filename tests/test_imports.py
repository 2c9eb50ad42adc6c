"""No module of the package imports a private name from another."""

import ast
from pathlib import Path

import makerbreaker

PACKAGE = Path(makerbreaker.__file__).parent


def private_imports(path: Path) -> list:
    """``from .module import _name`` lines of ``path``, as ``file:line name``;
    dunder names such as ``__version__`` are not private."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        f"{path.name}:{node.lineno} {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]


def test_no_module_imports_a_private_name():
    found = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in private_imports(path)]
    assert found == []


def test_a_private_import_is_found(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "from __future__ import annotations\n"
        "from . import engine\n"
        "from .engine import (\n    MAKER,\n    _outcome,\n)\n"
        "from . import __version__\n"
        "from collections import _private\n"
    )
    assert private_imports(path) == ["mod.py:3 _outcome"]
