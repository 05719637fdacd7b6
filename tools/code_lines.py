"""Count the physical and the code lines of each module of the package.

Usage: python3 tools/code_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to ``src/modquant`` of this checkout; pass another
tree's package directory to count that tree. For each ``*.py`` file, in name
order, the script prints two counts:

- physical lines, the newline characters that ``wc -l`` counts;
- code lines, the lines that hold a token other than a comment, outside
  every docstring (a module's, class's or function's first statement when it
  is a string literal, found with ``ast``; tokens found with ``tokenize``).
  Blank lines, comment-only lines and docstring lines are not code lines; a
  line that holds part of a multi-line string or bracket is.

It then prints both totals and the code-line total outside ``__init__.py``,
the figure that a change meant to shrink the package is judged by.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Token types that hold no code.
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: str) -> tuple[int, int]:
    """(physical lines, code lines) of one Python file."""
    with open(path, "rb") as fh:
        source = fh.read()
    code = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return source.count(b"\n"), len(code - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    package = argv[0] if argv else os.path.join(REPO, "src", "modquant")
    names = sorted(n for n in os.listdir(package) if n.endswith(".py"))
    counts = {name: count(os.path.join(package, name)) for name in names}
    width = max(map(len, names), default=0)
    print(f"{'file':<{width}}  {'lines':>6}  {'code':>6}")
    for name, (physical, code) in counts.items():
        print(f"{name:<{width}}  {physical:>6}  {code:>6}")
    print(f"{'total':<{width}}  {sum(p for p, _ in counts.values()):>6}  "
          f"{sum(c for _, c in counts.values()):>6}")
    outside = sum(c for name, (_, c) in counts.items() if name != "__init__.py")
    print(f"code lines outside __init__.py: {outside}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
