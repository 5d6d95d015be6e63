"""Print the size of each module of a Python package, and the total.

For every ``.py`` file under the package directory (default
``src/tfmotion``) it prints three counts:

- ``lines``: every line, as ``wc -l`` counts them;
- ``code``: lines that hold a token of code, from ``tokenize``, with
  comments, blank lines and docstrings left out;
- ``doc``: lines of docstrings (module, class and function), found by
  ``ast``.

Usage: ``python tools/code_size.py [package_dir]``.  It only prints.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(source: str) -> set[int]:
    """Line numbers of the module's, classes' and functions' docstrings."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str, docs: set[int]) -> set[int]:
    """Line numbers that hold a token of code outside the docstrings."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return lines - docs


def sizes(path: Path) -> tuple[int, int, int]:
    """(lines, code lines, docstring lines) of one source file."""
    source = path.read_text()
    docs = docstring_lines(source)
    return source.count("\n"), len(code_lines(source, docs)), len(docs)


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else "src/tfmotion")
    rows = [(str(p.relative_to(root)), *sizes(p)) for p in sorted(root.rglob("*.py"))]
    rows.append(("total", *(sum(col) for col in list(zip(*rows))[1:])))
    width = max(len(name) for name, *_ in rows)
    print(f"{'module':<{width}} {'lines':>6} {'code':>6} {'doc':>6}")
    for name, *counts in rows:
        print(f"{name:<{width}}" + "".join(f" {c:>6}" for c in counts))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
