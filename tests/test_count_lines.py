"""Tests for tools/count_lines.py, the LOC counter the roadmap cites."""

from __future__ import annotations

import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "count_lines.py"
_spec = importlib.util.spec_from_file_location("count_lines", _TOOL)
count_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(count_lines)

# rows 1-2 docstring, 3 blank, 4 comment, 5 import, 6 blank, 7-10 one call
# (row 8 carries a trailing comment), 11 string statement, 12 assignment
_SAMPLE = '''"""A module docstring
over two lines."""

# a comment-only line
import os

total = max(
    1,  # a trailing comment
    os.sep.count("/"),
)
"a string statement"
name = "a string in an expression"
'''


def test_code_lines_skip_docstrings_comments_and_blanks(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(_SAMPLE)
    # import, the four rows of the call, the assignment
    assert count_lines.code_lines(path) == 6


def test_main_totals_physical_and_code_lines(tmp_path, capsys):
    (tmp_path / "a.py").write_text(_SAMPLE)
    (tmp_path / "b.py").write_text("x = 1\n\n")
    count_lines.main([str(tmp_path)])
    assert capsys.readouterr().out == (
        "14 physical lines, 7 code lines in 2 files\n"
    )
