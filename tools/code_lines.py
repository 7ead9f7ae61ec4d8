"""Code-line count of the package, as the simplicity aim measures it.

    python tools/code_lines.py [--src PATH]

For each ``veronese/*.py`` under ``--src`` (default: the ``src/`` next to
this directory) prints the number of lines that hold code, then the total.
A line holds code when some token on it is neither a comment nor part of a
docstring (the first statement of a module, class or function, when it is
a string); blank lines hold none.  A string that spans several lines counts
each of them.  ``wc -l`` also counts docstrings and comments, and deleting
those is not a simplification.  Standard library only; writes no file.
"""
from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstrings(tree: ast.Module) -> list[tuple[tuple[int, int],
                                                  tuple[int, int]]]:
    """(start, end) positions, as (line, column), of every docstring."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                spans.append(((first.lineno, first.col_offset),
                              (first.end_lineno, first.end_col_offset)))
    return spans


def code_lines(source: str) -> int:
    """Number of lines of ``source`` that hold code."""
    spans = _docstrings(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE:
            continue
        if any(start <= tok.start and tok.end <= end for start, end in spans):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=_ROOT / "src",
                        help="directory that holds the veronese package")
    args = parser.parse_args(argv)
    paths = sorted((args.src / "veronese").glob("*.py"))
    if not paths:
        parser.error(f"no veronese/*.py under {args.src}")
    total = 0
    for path in paths:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d} {path.relative_to(args.src)}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
