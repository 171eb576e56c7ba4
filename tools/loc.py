"""Count the lines of the Python files under a directory: all lines, lines
outside docstrings, and lines of code only (no docstring, comment or blank
line).  Printed, never gated; the standard library only.

    python3 tools/loc.py src
"""

import ast
import io
import pathlib
import sys
import tokenize

KINDS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def counts(text: str) -> tuple[int, int, int]:
    """(lines, lines without docstrings, code-only lines) of one file's text."""
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, KINDS) and ast.get_docstring(node, clean=False) is not None:
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    tokens = tokenize.generate_tokens(io.StringIO(text).readline)
    comments = {t.start[0] for t in tokens if t.type == tokenize.COMMENT and not t.line[: t.start[1]].strip()}
    lines = text.splitlines()
    bare = [i for i in range(1, len(lines) + 1) if i not in docs]
    code = [i for i in bare if lines[i - 1].strip() and i not in comments]
    return len(lines), len(bare), len(code)


def main(root: str) -> None:
    rows = [(str(path), *counts(path.read_text())) for path in sorted(pathlib.Path(root).rglob("*.py"))]
    rows.append(("total", *(sum(r[k] for r in rows) for k in (1, 2, 3))))
    print(f"{'file':32} {'lines':>6} {'without docstrings':>19} {'code only':>10}")
    for name, *numbers in rows:
        print(f"{name:32} {numbers[0]:6} {numbers[1]:19} {numbers[2]:10}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "src")
