#!/usr/bin/env python3
"""Count the code lines of the package, per module and in total.

A code line is a line of ``src/frameiso/*.py`` that is not blank, not a
comment and not part of a docstring (module, class or function).  Lines
inside other string literals always count.

    python3 scripts/code_lines.py
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "frameiso"
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    docstrings, in_strings = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False):
            first = node.body[0]
            docstrings.update(range(first.lineno, first.end_lineno + 1))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            in_strings.update(range(node.lineno + 1, node.end_lineno + 1))
    count = 0
    for number, text in enumerate(source.splitlines(), 1):
        if number in docstrings:
            continue
        stripped = text.strip()
        if number in in_strings or (stripped and not stripped.startswith("#")):
            count += 1
    return count


def main():
    counts = {
        path.name: code_lines(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    width = max(map(len, counts))
    for name, count in counts.items():
        print(f"{name:<{width}}  {count:>5}")
    print(f"{'total':<{width}}  {sum(counts.values()):>5}")


if __name__ == "__main__":
    main()
