"""Count the lines of a Python source tree by kind.

    python tools/src_lines.py [DIRECTORY]

DIRECTORY defaults to src/gftpoisson.  For each module, and in total, it
prints lines = code + docstring + comment + blank, where
- docstring is every line of a module, class or function docstring;
- comment is a full-line comment outside docstrings;
- blank is a blank line outside docstrings;
- code is every other line.
A DIRECTORY that holds no Python module is an error: it exits 2.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.Module) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> dict:
    """{kind: line count} for one module's source."""
    docs = _docstring_lines(ast.parse(text))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if number in docs:
            kind = "docstring"
        elif not stripped:
            kind = "blank"
        elif stripped.startswith("#"):
            kind = "comment"
        else:
            kind = "code"
        counts[kind] += 1
    return counts


def main(argv: list) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src/gftpoisson")
    paths = sorted(root.rglob("*.py"))
    if not paths:
        # a total of 0 from a wrong directory would read as a measurement
        print(f"error: no Python modules under {root}", file=sys.stderr)
        return 2
    total = dict.fromkeys(KINDS, 0)
    print(f"{'module':<20}{'lines':>7}" + "".join(f"{k:>11}" for k in KINDS))
    for path in paths:
        counts = count(path.read_text(encoding="utf-8"))
        for kind in KINDS:
            total[kind] += counts[kind]
        name = str(path.relative_to(root))
        print(f"{name:<20}{sum(counts.values()):>7}"
              + "".join(f"{counts[k]:>11}" for k in KINDS))
    print(f"{'total':<20}{sum(total.values()):>7}"
          + "".join(f"{total[k]:>11}" for k in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
