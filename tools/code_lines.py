"""Count the code lines of Python modules: the lines that hold a token of
code, so blank lines, comments and docstrings (a statement that is only a
string) do not count.

    python tools/code_lines.py src/planmod

prints the count of each module under the given files or directories, then
the total.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.ENCODING, tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
           tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """The number of lines of `path` that hold code."""
    rows: set = set()
    statement: list = []
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type in _LAYOUT:
                if tok.type == tokenize.NEWLINE:
                    if not all(t.type == tokenize.STRING for t in statement):
                        for t in statement:
                            rows.update(range(t.start[0], t.end[0] + 1))
                    statement = []
                continue
            statement.append(tok)
    return len(rows)


def main(argv: list) -> int:
    files = sorted(f for arg in argv
                   for f in (Path(arg).rglob("*.py") if Path(arg).is_dir() else [Path(arg)]))
    total = 0
    for f in files:
        n = code_lines(f)
        total += n
        print(f"{n:6d}  {f}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
