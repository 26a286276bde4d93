"""README examples: each `$ jetcalc ...` example runs against the README's model files.

A trailing `...` line in an example's output means the shown lines are a prefix.
"""

import re
import shlex
from pathlib import Path

import pytest

from jetcalc.cli import run

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"```text\n(.*?)```", README, re.DOTALL)

# model file name -> text, from blocks whose first line is `# NAME.jet`
MODELS = {m.group(1): block for block in BLOCKS
          if (m := re.match(r"# (\w+\.jet)\n", block))}

EXAMPLES = [
    (command, output)
    for block in BLOCKS
    for command, *output in (chunk.splitlines() for chunk in block.strip().split("\n\n"))
    if command.startswith("$ jetcalc ")
]


def test_readme_has_models_and_examples():
    assert set(MODELS) == {"wave.jet", "so3.jet"}
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize("command, expected", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_example(command, expected, tmp_path, monkeypatch, capsys):
    for name, text in MODELS.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code = run(shlex.split(command)[2:])
    lines = capsys.readouterr().out.splitlines()
    if expected[-1] == "...":
        expected = expected[:-1]
        lines = lines[:len(expected)]
    assert lines == expected
    assert code == (1 if expected[0] == "fail" else 0)
