"""Count a Python package's code lines: every line that is not blank, not
comment-only and not part of a docstring (the string-literal statement
opening a module, class or function body).

Usage: python tools/count_code_lines.py [path]   (default: the package)

Prints one ``<lines>  <file>`` row per file, then the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers every docstring of ``tree`` spans."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        body = node.body
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Lines of ``source`` holding a token other than a comment, outside
    its docstrings."""
    skip = docstring_lines(ast.parse(source))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
                        tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER):
            continue
        code.update(n for n in range(tok.start[0], tok.end[0] + 1)
                    if n not in skip)
    return len(code)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else REPO / "ai_pdf_extraction_ray"
    files = [root] if root.is_file() else sorted(root.rglob("*.py"))
    total = 0
    for path in files:
        n = code_lines(path.read_text())
        total += n
        print(f"{n:7d}  {path}")
    print(f"{total:7d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
