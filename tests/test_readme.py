"""The README's examples run as written: the library tour and every CLI line."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from satwiretap.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def _block(heading: str, language: str) -> str:
    """The first fenced `language` block after the `## heading` line."""
    match = re.search(rf"^## {heading}\n.*?^```{language}\n(.*?)^```", README, re.M | re.S)
    assert match, f"no {language} block under ## {heading}"
    return match.group(1)


def _cli_lines():
    text = _block("CLI", "sh").replace("\\\n", " ")
    return [shlex.split(line, comments=True)[1:] for line in text.splitlines() if line.strip()]


def test_library_tour_runs(tmp_path):
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-c", _block("Library tour", "python")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("argv", _cli_lines(), ids=" ".join)
def test_cli_line_runs(argv, tmp_path, capsys):
    if "--out" in argv:
        at = argv.index("--out") + 1
        argv[at] = str(tmp_path / argv[at])
    assert main(argv) == 0, capsys.readouterr().err
