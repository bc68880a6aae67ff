"""Line counts of each module under src/navcurate: all lines, as ``wc -l`` counts them, and code lines.

A code line holds a token that is not part of a comment or a docstring, so
blank lines, comments and docstrings are left out; a string that is not a
docstring counts.

    python tools/loc.py [SRC_DIR]    # default: src/navcurate beside this tools/ directory
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(text: str) -> int:
    """The number of lines of Python source text that hold code."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and type(first.value.value) is str:
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "navcurate"
    rows = []
    for path in sorted(src.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        rows.append((path.name, text.count("\n"), code_lines(text)))
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    print(f"{'module':<18}{'wc -l':>7}{'code':>7}")
    for name, total, code in rows:
        print(f"{name:<18}{total:>7}{code:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
