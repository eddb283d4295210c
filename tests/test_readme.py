"""The README's documented CLI workflow runs as written, and its package map names what exists."""

import contextlib
import importlib
import io
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


def package_map_rows():
    """(module name, backticked identifiers) of each row of the `## Package map` table."""
    section = README.read_text(encoding="utf-8").split("\n## Package map\n", 1)[1].split("\n## ", 1)[0]
    for module, contents in re.findall(r"^\| `(\w+)` +\| (.*) \|$", section, re.M):
        yield module, re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)`", contents)


def is_subcommand(name):
    """Whether `radionet NAME --help` is a subcommand's help, not a usage error."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return dispatch([name, "--help"]) == 0


def test_package_map_names_what_exists():
    rows = list(package_map_rows())
    assert {module for module, _ in rows} == {path.stem for path in PACKAGE.glob("*.py")} - {"__init__", "errors"}
    missing = []
    for module, names in rows:
        for name in names:
            prefix, _, attribute = name.rpartition(".")
            if not hasattr(importlib.import_module(f"radionet.{prefix or module}"), attribute) and not is_subcommand(name):
                missing.append(f"{module}: {name}")
    assert missing == []
