"""Count the logic lines of each Python file under a source tree.

A logic line is a physical line that holds code: blank lines, comment-only
lines and the lines of docstrings (a string literal standing alone as the
first statement of a module, class or function) do not count.

Usage: python tools/logic_lines.py [ROOT]   (ROOT defaults to src/proptree)
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path


def docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def logic_lines(source: str) -> int:
    skip = docstring_lines(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                            tokenize.DEDENT, tokenize.ENDMARKER):
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - skip)


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src/proptree")
    total = 0
    for path in sorted(root.rglob("*.py")):
        n = logic_lines(path.read_text())
        total += n
        print(f"{n:6d}  {path.relative_to(root)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
