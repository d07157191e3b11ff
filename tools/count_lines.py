"""Count the physical and code lines of the library, so LOC deltas reproduce.

Usage: python tools/count_lines.py [DIR]   (DIR defaults to src/klsparse)

Physical lines are what ``wc -l DIR/*.py`` totals.  Code lines are the
rows spanned by each file's tokens, skipping NEWLINE, NL, COMMENT, INDENT,
DEDENT, ENCODING and ENDMARKER tokens, and every STRING token that is a
whole statement (a docstring): the token before it is NEWLINE, INDENT,
DEDENT or ENCODING, and the next token that is not a comment or NL is
NEWLINE.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.NEWLINE, tokenize.NL, tokenize.COMMENT, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
_STATEMENT_START = {
    tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
}


def code_lines(path: Path) -> int:
    with path.open("rb") as f:
        tokens = list(tokenize.tokenize(f.readline))
    rows: set[int] = set()
    for i, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            continue
        if tok.type == tokenize.STRING and tokens[i - 1].type in _STATEMENT_START:
            after = next(
                t for t in tokens[i + 1:]
                if t.type not in (tokenize.COMMENT, tokenize.NL)
            )
            if after.type == tokenize.NEWLINE:
                continue
        rows.update(range(tok.start[0], tok.end[0] + 1))
    return len(rows)


def main(argv: list[str]) -> None:
    root = Path(argv[0] if argv else "src/klsparse")
    files = sorted(root.glob("*.py"))
    physical = sum(p.read_bytes().count(b"\n") for p in files)
    code = sum(code_lines(p) for p in files)
    print(f"{physical} physical lines, {code} code lines in {len(files)} files")


if __name__ == "__main__":
    main(sys.argv[1:])
