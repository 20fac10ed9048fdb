"""Count the code lines of the setcontrast package, per module and in total.

    python tools/code_lines.py [ROOT]

ROOT is a checkout root with the package under ``src/setcontrast``
(default: this checkout). A code line is a physical line that holds at
least one token other than a comment, a blank line or indentation, and
no part of a docstring: the string literal that opens a module, class or
function body. A statement spread over several lines counts each of
them. The script prints one line per module and the total; it is a
report, and always exits 0 when the sources parse.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent
    total = 0
    for path in sorted((root / "src" / "setcontrast").glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.stem:12s} {count:5d}")
    print(f"{'total':12s} {total:5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
