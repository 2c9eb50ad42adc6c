"""README's ``python`` block runs as written against the library."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    winner_line, cap_line = capsys.readouterr().out.splitlines()
    assert winner_line.startswith("maker OddCycleWitness(")
    assert cap_line == "119"
