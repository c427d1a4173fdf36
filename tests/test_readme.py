"""The README's command-line examples print what the README shows.

Each ``console`` block holds one or more ``$ bucketrisk ...`` commands, a
trailing backslash continuing a command on the next line, each followed by
its exact stdout; blank lines before the next command only separate the
two. An output whose last line is ``...`` is a prefix of the real output.
Commands run from the repository root, where the README's relative paths
point.
"""

import re
import shlex
from pathlib import Path

import pytest

pytest.importorskip("click")

from click.testing import CliRunner

from bucketrisk.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```console\n(.*?)^```$", README, re.M | re.S)


def _examples():
    """(argv, expected stdout, whether it is a prefix) for each README command."""
    examples = []
    for block in BLOCKS:
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            lines = chunk.rstrip("\n").split("\n")
            command = lines.pop(0)
            while command.endswith("\\"):
                command = command[:-1] + lines.pop(0)
            prefix = lines[-1:] == ["..."]
            output = "".join(f"{line}\n" for line in lines[: -1 if prefix else None])
            argv = shlex.split(command)
            assert argv[0] == "bucketrisk"
            examples.append((argv[1:], output, prefix))
    return examples


EXAMPLES = _examples()


def test_readme_has_the_examples():
    commands = [next(a for a in argv if a in main.commands) for argv, _, _ in EXAMPLES]
    assert commands == ["disclose", "oracle", "anonymize", "anonymize", "curve-k", "curve-entropy"]


@pytest.mark.parametrize(
    "argv, expected, prefix", EXAMPLES, ids=[" ".join(argv) for argv, _, _ in EXAMPLES]
)
def test_readme_console_example(monkeypatch, argv, expected, prefix):
    monkeypatch.chdir(ROOT)
    result = CliRunner().invoke(main, argv)
    assert (result.exit_code, result.stderr) == (0, "")
    if prefix:
        assert result.stdout.startswith(expected)
        assert len(result.stdout) > len(expected)
    else:
        assert result.stdout == expected
