"""Lines of code in the library, without blank lines, comments and docstrings.

    python3 scripts/code_lines.py                 # src/helssvr/*.py
    python3 scripts/code_lines.py FILE [FILE...]  # the files named

Prints, per module and in total, the lines that hold code beside all the
lines ``wc -l`` counts, so that a change that cuts code can be told from
one that trims documentation.  A line is not code when it is blank, holds
only a comment, or lies in a docstring: the string that opens a module,
class or function body.  Uses the standard library only.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
from pathlib import Path

SOURCES = Path(__file__).resolve().parent.parent / "src" / "helssvr"


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers (1-based) of the docstrings in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """(code lines, all lines) of one Python source file."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    skip = docstring_lines(ast.parse(text, filename=str(path)))
    code = sum(
        1 for i, line in enumerate(lines, start=1)
        if i not in skip and line.strip() and not line.strip().startswith("#")
    )
    return code, len(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="*", type=Path, help="Python files (default: src/helssvr/*.py)")
    args = parser.parse_args(argv)
    files = args.files or sorted(SOURCES.glob("*.py"))
    print(f"{'code':>6} {'lines':>6}  file")
    totals = [0, 0]
    for path in files:
        code, lines = count(path)
        totals[0] += code
        totals[1] += lines
        print(f"{code:>6} {lines:>6}  {os.path.relpath(path)}")
    print(f"{totals[0]:>6} {totals[1]:>6}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
