"""Every python code block of README.md runs as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text()
# each block padded to its line in README.md, so a traceback points there
BLOCKS = {f"line{TEXT.count(chr(10), 0, m.start(1)) + 1}":
          "\n" * TEXT.count("\n", 0, m.start(1)) + m[1]
          for m in re.finditer(r"^```python\n(.*?)^```", TEXT, re.S | re.M)}


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS.values(), ids=BLOCKS.keys())
def test_readme_block_runs(block):
    exec(compile(block, str(README), "exec"), {"__name__": "__readme__"})
