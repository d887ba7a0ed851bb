#!/usr/bin/env python3
"""Count the code lines of Python files: blank lines, comments and
docstrings do not count.

A line counts when a token other than a comment, a newline, an indent
or a docstring starts on it.  A docstring is any string literal that
stands alone as a statement.  Reformatting a statement over more lines
still changes the count, so compare counts of code kept in the
project's usual formatting.

Usage::

    python tools/count_code_lines.py PATH [PATH ...]

Each ``PATH`` is a Python file or a directory, whose ``*.py`` files are
counted recursively in sorted order.  ``--help``, no path, or a path
that does not exist prints this usage and exits 2.
"""

from __future__ import annotations

import os
import sys
import tokenize
from typing import List

USAGE = "usage: python tools/count_code_lines.py PATH [PATH ...]"

_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
_STATEMENT_START = {
    tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
}


def code_lines(path: str) -> int:
    """Number of lines of ``path`` on which a code token starts."""
    with open(path, "rb") as handle:
        tokens = [
            tok for tok in tokenize.tokenize(handle.readline)
            if tok.type not in (tokenize.COMMENT, tokenize.NL)
        ]
    lines = set()
    for i, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            continue
        standalone_string = (
            tok.type == tokenize.STRING
            and (i == 0 or tokens[i - 1].type in _STATEMENT_START)
            and i + 1 < len(tokens)
            and tokens[i + 1].type == tokenize.NEWLINE
        )
        if not standalone_string:
            lines.add(tok.start[0])
    return len(lines)


def python_files(path: str) -> List[str]:
    """``path`` itself, or every ``*.py`` under a directory, sorted."""
    if not os.path.isdir(path):
        return [path]
    return sorted(
        os.path.join(root, name)
        for root, _dirs, names in os.walk(path)
        for name in names
        if name.endswith(".py")
    )


def main(paths: List[str]) -> int:
    if not paths or any(arg in ("-h", "--help") for arg in paths):
        print(USAGE, file=sys.stderr)
        return 2
    missing = [path for path in paths if not os.path.exists(path)]
    if missing:
        print(f"{USAGE}\nno such file or directory: {missing[0]}",
              file=sys.stderr)
        return 2
    total = 0
    for path in (name for arg in paths for name in python_files(arg)):
        count = code_lines(path)
        total += count
        print(f"{count:7d}  {path}")
    print(f"{total:7d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
