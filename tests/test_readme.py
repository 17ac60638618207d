"""The README's Python and shell examples run as written."""

import doctest
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
README = REPO / "README.md"


def test_readme_python_examples_run_top_to_bottom():
    # Each ```python block is one doctest; a later block uses the names an
    # earlier one defined, so the namespace carries from one to the next.
    # Plain doctest on README.md would read each closing fence as output.
    text = README.read_text(encoding="utf-8")
    blocks = list(re.finditer(r"^```python\n(.*?)^```$", text, re.M | re.S))
    assert blocks
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner(optionflags=doctest.NORMALIZE_WHITESPACE)
    report = []
    globs = {}
    for block in blocks:
        lineno = text.count("\n", 0, block.start(1))
        test = parser.get_doctest(block[1], globs, f"README.md:{lineno + 1}", str(README), lineno)
        assert test.examples
        runner.run(test, out=report.append, clear_globs=False)
        globs = test.globs
    assert runner.failures == 0, "".join(report)


def shell_examples():
    """Each ``$ opow ...`` line of a plain ``` block and the output lines
    after it, up to a blank line, the next command or the fence."""
    text = README.read_text(encoding="utf-8")
    examples = []
    for block in re.findall(r"^```\n(.*?)^```$", text, re.M | re.S):
        for command, want in re.findall(r"^\$ (opow .*)\n((?:(?!\$ ).+\n)*)", block, re.M):
            examples.append(pytest.param(command, want, id=command))
    return examples


@pytest.mark.parametrize("command, want", shell_examples())
def test_readme_shell_example_prints_what_it_shows(command, want):
    # run through the shell, so a pipe such as `| head -4` acts as written;
    # a `...` line of the README stands for any lines
    opow = f"{shlex.quote(sys.executable)} -m opow"
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        opow + command.removeprefix("opow"),
        shell=True,
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert doctest.OutputChecker().check_output(want, proc.stdout, doctest.ELLIPSIS), proc.stdout
