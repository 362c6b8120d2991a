"""The README's library example and CLI commands run against the package
as it is, so the README cannot show a name or an option the package no
longer has."""
import pathlib
import re
import shlex

import charmarch as cm
from charmarch import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _block(heading, language):
    text = README.read_text(encoding="utf-8")
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(rf"```{language}\n(.*?)```", section, re.S)
    assert len(blocks) == 1
    return blocks[0]


def cli_commands():
    """The argument lists of the CLI section's commands: continuations
    joined, comments dropped, the program name stripped."""
    commands = []
    for line in _block("CLI", "sh").replace("\\\n", " ").splitlines():
        words = shlex.split(line, comments=True)
        if words:
            assert words[0] == "charmarch", line
            commands.append(words[1:])
    return commands


def test_library_example_runs(capsys):
    exec(compile(_block("Library", "python"), str(README), "exec"), {})
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) > 4
    assert all(row.endswith(",true") for row in rows)


def test_cli_examples_run(capsys):
    commands = cli_commands()
    # one example of each command
    assert sorted(argv[0] for argv in commands) == sorted(cli._COMMANDS)
    for argv in commands:
        assert cli.main(argv) == cli.EXIT_OK, argv
        out = capsys.readouterr().out
        if argv[0] == "verify-estimate":
            header, *rows = out.splitlines()
            assert header == cm.EnergyReport.CSV_HEADER
            assert len(rows) > 4
            assert all(row.endswith(",true") for row in rows)
