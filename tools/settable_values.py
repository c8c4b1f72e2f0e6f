"""Count the settable values of each Python file under src/proptree.

A settable value is one of three kinds of setting, counted over the AST:
- a parameter with a default, of a function or method (not of a lambda);
- a field of a dataclass: an annotated name in the body of a class
  decorated with ``dataclass`` or ``dataclass(...)``;
- an ``add_argument`` call, one command-line option each.

Usage: python tools/settable_values.py   (no options)
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1] / "src" / "proptree"
KINDS = ("defaults", "fields", "arguments")


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def settable_values(source: str) -> dict[str, int]:
    """The count of each kind of setting in ``source``."""
    counts = dict.fromkeys(KINDS, 0)
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            counts["defaults"] += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            counts["fields"] += sum(isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
                                    for s in node.body)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "add_argument"):
            counts["arguments"] += 1
    return counts


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print("usage: python tools/settable_values.py (takes no options)", file=sys.stderr)
        return 2
    totals = dict.fromkeys(KINDS, 0)
    print(f"{'defaults':>8} {'fields':>6} {'arguments':>9} {'total':>5}  file")
    for path in sorted(ROOT.rglob("*.py")):
        counts = settable_values(path.read_text())
        for kind in KINDS:
            totals[kind] += counts[kind]
        print(_row(counts, str(path.relative_to(ROOT))))
    print(_row(totals, "total"))
    return 0


def _row(counts: dict[str, int], label: str) -> str:
    return (f"{counts['defaults']:>8} {counts['fields']:>6} {counts['arguments']:>9} "
            f"{sum(counts.values()):>5}  {label}")


if __name__ == "__main__":
    sys.exit(main(sys.argv))
