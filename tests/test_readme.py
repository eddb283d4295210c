"""The README's documented CLI workflow runs as written."""

import importlib
import re
import shlex
from pathlib import Path

import radionet
from radionet.cli import dispatch

README = Path(__file__).resolve().parent.parent / "README.md"
PACKAGE = Path(radionet.__file__).parent


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


def budget_constants():
    """(module, name, value) of every `MAX_*` constant and of ENUMERATION_BUDGET_BITS, where defined."""
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"radionet.{path.stem}")
        source = path.read_text(encoding="utf-8")
        for name in re.findall(r"^(MAX_\w+|ENUMERATION_BUDGET_BITS) = ", source, re.M):
            yield path.stem, name, getattr(module, name)


def test_readme_exit_codes_name_every_budget():
    paragraph = README.read_text(encoding="utf-8").split("Exit codes:", 1)[1].split("\n\n", 1)[0]
    written = {
        (module, name): int(base) ** int(power or 1)
        for module, name, base, power in re.findall(r"`(\w+)\.(\w+)` = (\d+)(?:\^(\d+))?", paragraph)
    }
    constants = {(module, name): value for module, name, value in budget_constants()}
    assert len(constants) >= 9
    assert {key: written.get(key) for key in constants} == constants
