"""Count the code lines and physical lines of each module of `src/qpfiber`.

A code line is a line that is not blank, not only a comment, and not part
of a module, class or function docstring.  Docstrings are found with `ast`,
comments with `tokenize`: a line counts as code when a token other than a
comment or a line break starts, ends or runs across it, so a blank line
inside a multi-line string that is not a docstring counts.  Standard
library only.  Run from anywhere:

    python3 tools/code_lines.py

It prints one row per module, code lines then physical lines, and the
total.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The lines of every module, class and function docstring in `tree`."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(code lines, physical lines) of one module's source."""
    code: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(code - docstring_lines(ast.parse(source))), len(source.splitlines())


def main() -> None:
    root = Path(__file__).resolve().parent.parent / "src" / "qpfiber"
    total_code = total_lines = 0
    for path in sorted(root.rglob("*.py")):
        code, lines = count(path.read_text(encoding="utf-8"))
        total_code += code
        total_lines += lines
        print(f"{path.relative_to(root.parent)}\t{code}\t{lines}")
    print(f"total\t{total_code}\t{total_lines}")


if __name__ == "__main__":
    main()
