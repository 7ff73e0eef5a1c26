"""The README's examples run as written: the Library block and each command
of the CLI block, so an API change that leaves the docs behind fails here."""

import re
import shlex
from pathlib import Path

import pytest

from vqt.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def first_block(section: str, language: str) -> str:
    """The first ``language`` code block under the ``## section`` heading."""
    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", body, re.S).group(1)


CLI_COMMANDS = [shlex.split(line)
                for line in first_block("CLI", "sh").replace("\\\n", " ").splitlines()]


def test_library_block_runs():
    exec(compile(first_block("Library", "python"), "README.md", "exec"), {})


def test_cli_block_has_its_four_commands():
    assert [argv[:2] for argv in CLI_COMMANDS] == [
        ["vqt", "solve"], ["vqt", "solve"], ["vqt", "validate"], ["vqt", "sweep"]]


@pytest.mark.parametrize("argv", CLI_COMMANDS, ids=lambda argv: argv[1])
def test_cli_command_exits_0(capsys, argv):
    code = main(argv[1:])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.out
