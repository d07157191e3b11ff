"""Tests for tools/cli_digest.py, the CLI output digest the roadmap cites.

``tools/cli_digest.txt`` pins its lines: a change to any CLI stdout fails
here until that file is updated with the new lines.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "cli_digest.py"
_PINNED = _TOOL.with_suffix(".txt")
_spec = importlib.util.spec_from_file_location("cli_digest", _TOOL)
cli_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_digest)


def test_two_calls_print_the_same_digests(capsys):
    cli_digest.main()
    first = capsys.readouterr().out
    assert first == _PINNED.read_text(encoding="utf-8")
    cli_digest.main()
    assert capsys.readouterr().out == first
    lines = first.splitlines()
    assert [line.split()[1] for line in lines] == [
        "generate", "decide", "extract", "components", "maximal-2k", "verify",
        "bench", "total",
    ]
    # all 21 heuristics at two seeds on four pairs of four inputs, and the
    # default and weighted runs
    assert int(lines[2].split()[2]) == 4 * 4 * (1 + 21 * 2) + 1 + 8 + 1
