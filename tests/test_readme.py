"""README's ``python`` block runs as written against the library, and its
memo paragraph names every memo a module keeps."""

import ast
import re
from pathlib import Path

import makerbreaker

README = Path(__file__).resolve().parent.parent / "README.md"
PACKAGE = Path(makerbreaker.__file__).parent


def test_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    winner_line, cap_line = capsys.readouterr().out.splitlines()
    assert winner_line.startswith("maker OddCycleWitness(")
    assert cap_line == "119"


def memo_functions(path: Path) -> list:
    """Module-level functions of ``path`` decorated with ``functools.cache``
    or ``lru_cache``, bare or called, as ``module.name``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
                if name in ("cache", "lru_cache"):
                    found.append(f"{path.stem}.{node.name}")
    return found


def unnamed_memos(paths, paragraph: str) -> list:
    """The memo functions of ``paths`` that ``paragraph`` does not name in
    backquotes."""
    return [memo for path in paths for memo in memo_functions(path) if f"`{memo}`" not in paragraph]


def memo_paragraph() -> str:
    paragraphs = [p for p in README.read_text().split("\n\n") if "memos" in p]
    assert len(paragraphs) == 1
    return paragraphs[0]


def test_readme_names_every_module_memo():
    paths = sorted(PACKAGE.glob("*.py"))
    assert any(memo_functions(path) for path in paths)
    assert unnamed_memos(paths, memo_paragraph()) == []


def test_an_unnamed_memo_is_found(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "\n"
        "@functools.lru_cache(maxsize=1)\n"
        "def core_graph(g):\n"
        "    return g\n"
        "\n"
        "@cache\n"
        "def named(g):\n"
        "    return g\n"
        "\n"
        "@lru_cache\n"
        "def bare(g):\n"
        "    @cache\n"
        "    def inner():\n"
        "        return g\n"
        "    return inner\n"
        "\n"
        "def plain(g):\n"
        "    return functools.cache(lambda: g)\n"
    )
    assert memo_functions(path) == ["mod.core_graph", "mod.named", "mod.bare"]
    assert unnamed_memos([path], "keeps `mod.named` and mod.bare") == ["mod.core_graph", "mod.bare"]
