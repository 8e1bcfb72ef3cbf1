"""The CLI against its golden table (tests/cli_golden.py), and the README's
CLI examples."""

import json
import re
import shlex
from pathlib import Path

import pytest

import cli_golden
from autqm.cli import COMMANDS

ROWS = json.loads(cli_golden.TABLE.read_text())
README = (Path(__file__).parent.parent / "README.md").read_text()


@pytest.fixture
def golden_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    cli_golden.write_files(tmp_path)
    return tmp_path


@pytest.mark.parametrize("row", ROWS, ids=[" ".join(row["argv"]) or "-" for row in ROWS])
def test_golden_row(golden_dir, row):
    expected = {key: row[key] for key in ("argv", "exit", "stdout", "stderr")}
    assert cli_golden.run(row["argv"]) == expected


def test_every_command_has_rows():
    # Each registered command has its --help row and a row that succeeds.
    argvs = [row["argv"] for row in ROWS]
    for path in COMMANDS:
        words = path.split()
        assert words + ["--help"] in argvs, path
        assert any(
            row["argv"][: len(words)] == words and row["exit"] == 0 and "--help" not in row["argv"]
            for row in ROWS
        ), path


def test_table_lists_the_parser_tree():
    # The parser has exactly the registered commands, in registration order.
    assert [" ".join(path) for path, _ in cli_golden.leaf_parsers()] == list(COMMANDS)


def readme_examples():
    """The `autqm ...` lines of the README's "CLI examples" block."""
    section = README.split("## CLI examples", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("autqm ")]


def readme_graph_files():
    """The graph files the README names and shows: `name.graph` ... block."""
    return dict(re.findall(r"`(\w+\.graph)`[^:]*:\n\n```\n(.*?)```", README, re.S))


@pytest.mark.parametrize("line", readme_examples())
def test_readme_example_runs(tmp_path, monkeypatch, line):
    monkeypatch.chdir(tmp_path)
    for name, text in readme_graph_files().items():
        (tmp_path / name).write_text(text)
    command, _, comment = line.partition(" # ")
    row = cli_golden.run(shlex.split(command)[1:])
    assert row["exit"] == 0, row
    record = json.loads(row["stdout"])
    if comment.strip().startswith("->"):
        expected = comment.strip()[2:].strip()
        assert expected in (json.dumps(record["value"]), str(record["value"]))


def test_readme_shows_every_graph_file_it_uses():
    used = {name for line in readme_examples() for name in re.findall(r"\w+\.graph", line)}
    assert used and used <= set(readme_graph_files())
