"""Golden outputs: the CLI on the paper-suite corpus, and the demos.

``tests/data/corpus_cli.txt`` holds the stdout and exit code of
``decompose`` (at the file's field degree and at ``--field-degree 2``) and
of ``screen`` on each of the 16 paper-suite corpus algebras, in
:func:`render_corpus`'s format.  ``tests/data/demos/<name>.txt`` holds each
demo's stdout.  To regenerate after an intended change of output::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from lie2.cli import _suite_corpus, main
from lie2.fileio import save

DATA = Path(__file__).parent / "data"
GOLDEN_CORPUS = DATA / "corpus_cli.txt"
DEMOS = Path(__file__).parent.parent / "demos"
SRC = Path(__file__).parent.parent / "src"
COMMANDS = (["decompose"], ["decompose", "--field-degree", "2"], ["screen"])


def render_corpus(tmp_dir: Path) -> str:
    """One block per (algebra, command): the command line, exit code and stdout."""
    blocks = []
    for name, build in _suite_corpus():
        path = tmp_dir / f"{name}.l2a"
        save(*build(), path)
        for command in COMMANDS:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main([command[0], str(path), *command[1:]])
            blocks.append(f"== {' '.join([command[0], name, *command[1:]])}\nexit {code}\n{out.getvalue()}")
    return "".join(blocks)


def run_demo(path: Path) -> str:
    done = subprocess.run(
        [sys.executable, str(path)], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    return done.stdout


def test_corpus_cli_matches_golden(tmp_path):
    assert render_corpus(tmp_path) == GOLDEN_CORPUS.read_text()


@pytest.mark.parametrize("demo", sorted(DEMOS.glob("*.py")), ids=lambda p: p.stem)
def test_demo_stdout_matches_golden(demo):
    assert run_demo(demo) == (DATA / "demos" / f"{demo.stem}.txt").read_text()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN_CORPUS.write_text(render_corpus(Path(tmp)))
    (DATA / "demos").mkdir(exist_ok=True)
    for demo in sorted(DEMOS.glob("*.py")):
        (DATA / "demos" / f"{demo.stem}.txt").write_text(run_demo(demo))
