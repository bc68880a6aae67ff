"""Line counts of each module under src/navcurate: all lines, as ``wc -l`` counts them, and code lines.

A code line holds a token that is not part of a comment or a docstring, so
blank lines, comments and docstrings are left out; a string that is not a
docstring counts.

    python tools/loc.py [SRC_DIR]    # default: src/navcurate beside this tools/ directory
    python tools/loc.py --base REV   # also the counts at git revision REV, and the change since

With ``--base``, each module is also read as git holds it at ``REV``
(``git show REV:<module>``, run in SRC_DIR), and a module absent on one
side counts 0 lines there.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
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


def _git(src: Path, *args: str) -> str:
    proc = subprocess.run(["git", *args], cwd=src, capture_output=True, encoding="utf-8")
    if proc.returncode:
        sys.exit(proc.stderr.strip())
    return proc.stdout


def texts_at(src: Path, rev: str) -> dict[str, str]:
    """The text of each module of the directory src at git revision rev, by file name."""
    names = _git(src, "ls-tree", "--name-only", rev, "--", ".").splitlines()
    return {name: _git(src, "show", f"{rev}:./{name}") for name in names if name.endswith(".py")}


def _counts(text: str | None) -> tuple[int, int]:
    return (0, 0) if text is None else (text.count("\n"), code_lines(text))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Line counts of each module of a source directory.")
    parser.add_argument("src", nargs="?", type=Path, default=Path(__file__).resolve().parent.parent / "src" / "navcurate")
    parser.add_argument("--base", metavar="REV", help="also count each module at git revision REV, and the change")
    args = parser.parse_args(argv)
    sides = [{path.name: path.read_text(encoding="utf-8") for path in args.src.glob("*.py")}]
    header = ["wc -l", "code"]
    if args.base is not None:
        sides.insert(0, texts_at(args.src, args.base))
        header = ["base wc -l", "base code", *header, "+/- wc -l", "+/- code"]
    rows = [(name, [n for side in sides for n in _counts(side.get(name))]) for name in sorted(set().union(*sides))]
    rows.append(("total", [sum(column) for column in zip(*(counts for _, counts in rows))]))
    width = max(map(len, header)) + 2
    print(f"{'module':<18}" + "".join(f"{h:>{width}}" for h in header))
    for name, counts in rows:
        if args.base is not None:
            counts += [f"{counts[2] - counts[0]:+d}", f"{counts[3] - counts[1]:+d}"]
        print(f"{name:<18}" + "".join(f"{n:>{width}}" for n in counts))
    return 0

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
