"""Count the code lines of the ``jetforms`` package.

A code line holds at least one token that is not part of a docstring, a
comment or whitespace.  Docstrings are the string constants that open a
module, class or function body, found with ``ast``; the remaining tokens
come from ``tokenize``.

    python tools/code_lines.py [DIR]

prints one line per module of DIR (default ``src/jetforms``) with its code
lines and its lines in all, then the totals.
"""
from __future__ import annotations

import ast
import io
import pathlib
import sys
import tokenize

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "jetforms"
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(source: str) -> set:
    """Line numbers covered by the docstrings of ``source``."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Lines of ``source`` with a token outside docstrings and comments."""
    docs = docstring_lines(source)
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE and token.start[0] not in docs:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def count(directory: pathlib.Path = PACKAGE) -> dict:
    """{module file name: (code lines, lines)} for every module of ``directory``."""
    counts = {}
    for path in sorted(directory.glob("*.py")):
        source = path.read_text()
        counts[path.name] = (code_lines(source), len(source.splitlines()))
    return counts


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    counts = count(pathlib.Path(args[0]) if args else PACKAGE)
    for name, (code, total) in counts.items():
        print(f"{name:20} {code:6} {total:6}")
    print(f"{'total':20} {sum(c for c, _ in counts.values()):6} "
          f"{sum(t for _, t in counts.values()):6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
