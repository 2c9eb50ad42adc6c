"""No module of the package imports a private name from another, or a
name it never uses, no library function builds a relabelled subgraph, and
the mask decompositions read no neighbour sets."""

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


def unused_imports(path: Path) -> list:
    """Names ``path`` imports at module level and never reads, as
    ``file:line name``; ``from __future__`` imports are exempt."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py imports in order to re-export
    paths = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert [hit for path in paths for hit in unused_imports(path)] == []


def test_an_unused_import_is_found(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "from __future__ import annotations\n"
        "import json\n"
        "import os.path\n"
        "from .graphs import (\n    Graph,\n    mask_bits,\n)\n"
        "from .errors import DomainError as Refused\n"
        "\n"
        "def f(g: Graph):\n"
        "    return os.path.join(json.dumps(g.n), 'x')\n"
    )
    assert unused_imports(path) == ["mod.py:4 mask_bits", "mod.py:8 Refused"]


def calls_of(path: Path, name: str) -> list:
    """One ``module.function`` per call of ``name`` in ``path``, bare or as
    an attribute, named by the innermost function around the call."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call):
            target = node.func
            called = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
            if called == name:
                found.append(f"{path.stem}.{where}")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "<module>")
    return found


def test_no_library_function_relabels():
    # every graph question reads a host's neighbour masks under a member mask;
    # the Graph forms stay for re-verification outside the library
    paths = sorted(PACKAGE.glob("*.py"))
    relabelling = ("induced_subgraph", "core_graph", "vertex_connectivity_at_least")
    found = [hit for path in paths for name in relabelling for hit in calls_of(path, name)]
    assert found == []


def test_a_new_relabelling_caller_is_found(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "from . import graphs\n"
        "from .graphs import induced_subgraph\n"
        "\n"
        "ALIAS = induced_subgraph\n"
        "\n"
        "def core(g, part):\n"
        "    def side(s):\n"
        "        return graphs.induced_subgraph(g, s)[0]\n"
        "    return induced_subgraph(g, part), side(part)\n"
    )
    assert calls_of(path, "induced_subgraph") == ["mod.side", "mod.core"]


def functions_within(path: Path, names) -> set:
    """``module.function`` for each function of ``path`` named in ``names``
    and every function defined inside one of them, as ``calls_of`` names
    them."""
    tree = ast.parse(path.read_text(), filename=str(path))
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, kinds) and node.name in names:
            found.update(f"{path.stem}.{inner.name}" for inner in ast.walk(node)
                         if isinstance(inner, kinds))
    return found


MASK_DECOMPOSITIONS = {
    "decompose.py": ("robust_partition", "_balanced_cut_search", "extract_bipartite_core"),
    "connectivity.py": ("unfriendly_partition",),
}


def test_the_mask_decompositions_read_no_neighbour_sets():
    # parts, sides and degrees are masks and popcounts, so neither a set
    # intersection per vertex nor a crossing edge list is built
    for name, functions in MASK_DECOMPOSITIONS.items():
        path = PACKAGE / name
        scope = functions_within(path, functions)
        assert scope >= {f"{path.stem}.{f}" for f in functions}
        for called in ("degree_into", "cut_edges", "neighbors"):
            assert [hit for hit in calls_of(path, called) if hit in scope] == []


def test_only_core_graph_builds_a_graph_in_decompose():
    assert calls_of(PACKAGE / "decompose.py", "Graph") == ["decompose.core_graph"]


def test_nested_helpers_are_in_scope(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "def outer(g):\n"
        "    def helper(v):\n"
        "        def deeper():\n"
        "            return g.degree_into(v, ())\n"
        "        return deeper()\n"
        "    return helper(0)\n"
        "\n"
        "def other(g):\n"
        "    return g.degree_into(0, ())\n"
    )
    scope = functions_within(path, ("outer",))
    assert scope == {"mod.outer", "mod.helper", "mod.deeper"}
    assert [hit for hit in calls_of(path, "degree_into") if hit in scope] == ["mod.deeper"]
