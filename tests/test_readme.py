"""The README's documented CLI workflow runs as written."""

import re
import shlex
from pathlib import Path

from radionet.cli import dispatch

README = Path(__file__).resolve().parent.parent / "README.md"


def cli_block_commands():
    """Each `radionet` command of the `## CLI` section's sh block, continuations joined."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line) for line in lines if line.startswith("radionet ")]


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = cli_block_commands()
    assert commands, "no radionet command in the CLI block"
    for argv in commands:
        assert dispatch(argv[1:]) == 0, (argv, capsys.readouterr().err)
