"""The fenced ``python`` block under the README's "## Library" heading runs
as written, so its calls cannot drift from the library's signatures."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block is not None
    names: dict = {}
    exec(compile(block[1], str(README), "exec"), names)
    assert names["visits"] > 0
    assert names["comps"] == [list(range(8))]
    assert names["report"].accepted_count == names["report"].m
    assert (names["ok"], names["witness"]) == (True, None)
