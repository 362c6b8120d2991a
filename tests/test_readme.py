"""The README's library example runs against the package as it is, so the
README cannot show a name the package no longer has."""
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def library_block():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 1
    return blocks[0]


def test_library_example_runs(capsys):
    exec(compile(library_block(), str(README), "exec"), {})
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) > 4
    assert all(row.endswith(",true") for row in rows)
