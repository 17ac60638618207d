"""The README's Python examples run as written."""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


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
