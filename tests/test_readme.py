"""The README's interactive examples: every ``>>>`` block runs as a doctest."""

from __future__ import annotations

import doctest
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"

# The text between a fenced block's opening and closing fences, so that the
# closing fence is not read as part of the last expected output.
FENCED = re.compile(r"^```[^\n]*\n(.*?)^```", re.MULTILINE | re.DOTALL)


def interactive_blocks() -> list[tuple[int, str]]:
    """Each fenced block of the README that holds a ``>>>`` example, with
    the 0-based line its text starts on."""
    text = README.read_text(encoding="utf-8")
    return [(text.count("\n", 0, m.start(1)), m.group(1))
            for m in FENCED.finditer(text) if ">>>" in m.group(1)]


BLOCKS = interactive_blocks()


def test_readme_has_interactive_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("line, block", BLOCKS, ids=[f"README.md:{n + 1}" for n, _ in BLOCKS])
def test_readme_example(line, block):
    test = doctest.DocTestParser().get_doctest(block, {}, f"README.md:{line + 1}",
                                               str(README), line)
    report: list[str] = []
    runner = doctest.DocTestRunner()
    failed, attempted = runner.run(test, out=report.append)
    assert attempted and not failed, "".join(report)
