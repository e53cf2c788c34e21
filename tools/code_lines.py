"""Count the code lines of the package's modules.

A code line is a physical line that a statement spans, once docstrings,
comments and blank lines are dropped: every logical line that is a single
string (a docstring, or any other bare string statement) is dropped whole,
and a statement that spans several physical lines counts each of them. The
count does not depend on formatting inside a string or on comment density,
so it compares the size of two versions of the code.

    python tools/code_lines.py

prints the count of each module in `src/transship` and their total.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """The physical lines that the statements of one source file span."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    with open(path, "rb") as file:
        for token in tokenize.tokenize(file.readline):
            if token.type in _SKIPPED:
                continue
            if token.type != tokenize.NEWLINE:
                statement.append(token)
                continue
            if statement and not (len(statement) == 1 and statement[0].type == tokenize.STRING):
                lines.update(range(statement[0].start[0], statement[-1].end[0] + 1))
            statement = []
    return len(lines)


def main() -> int:
    root = Path(__file__).resolve().parent.parent / "src" / "transship"
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{path.name:24} {count:6,}")
    print(f"{'total':24} {total:6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
