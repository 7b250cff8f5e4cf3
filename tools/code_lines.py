"""Count the code lines of Python files.

A code line holds a token other than a comment, a line break or
indentation, and is not part of a docstring (of a module, class or
function). Prints, for each file and in total, the code lines and the
plain line count (``wc -l``). Standard library only.

Usage: python tools/code_lines.py PATH [PATH ...]

Each PATH is a ``.py`` file or a directory searched for ``.py`` files.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Lines of ``source`` that hold code, as the module docstring defines them."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv) -> int:
    files = sorted(f for path in map(Path, argv)
                   for f in (path.rglob("*.py") if path.is_dir() else [path]))
    total_code = total_lines = 0
    for f in files:
        source = f.read_text()
        code, lines = code_lines(source), source.count("\n")
        total_code, total_lines = total_code + code, total_lines + lines
        print(f"{code:7,} {lines:7,}  {f}")
    print(f"{total_code:7,} {total_lines:7,}  total (code lines, wc -l)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
