"""Count the code lines of Python modules.

    python3 tools/code_lines.py src/csplab/*.py

A code line is a line that holds a token other than a comment, a docstring
or layout (newlines, indentation).  A token that spans several lines, such
as a multi-line string that is not a docstring, makes each of them a code
line.  A docstring is the string statement that opens a module, class or
function body.  Prints the count per module, then the total.  Standard
library only.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(source: str) -> set[int]:
    """Every line of every docstring in source."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_text()
    docs = docstring_lines(source)
    lines = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type in _LAYOUT:
                continue
            span = range(tok.start[0], tok.end[0] + 1)
            if tok.type == tokenize.STRING and set(span) <= docs:
                continue
            lines.update(span)
    return len(lines)


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    total = 0
    for name in argv:
        count = code_lines(Path(name))
        total += count
        print(f"{count:6,d}  {name}")
    print(f"{total:6,d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
