"""Recorded `--help` texts: the top-level help and each subcommand's help must
match the bytes in tests/golden/help/<name>.txt.

The texts pin the parser's shape (subcommand order, positionals, options and
their help strings), so a refactor of how the parser is built cannot change
what a user sees. argparse wraps to the terminal width, read from COLUMNS,
which the test fixes at 80.
"""

from pathlib import Path

import pytest

from pstwalk.cli import main

HELP = Path(__file__).parent / "golden" / "help"
COMMANDS = ["analyze", "pst", "partner", "synthesize", "family", "scan", "sensitivity",
            "extremal"]


@pytest.mark.parametrize("command", [None] + COMMANDS)
def test_help_text_is_unchanged(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setenv("NO_COLOR", "1")
    argv = ["--help"] if command is None else [command, "--help"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    expected = (HELP / f"{command or 'pstwalk'}.txt").read_text()
    assert capsys.readouterr().out == expected
