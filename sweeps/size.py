"""Print the size of the klcodes source: non-blank lines outside comments and docstrings.

usage: python sweeps/size.py [SRC_DIR]

SRC_DIR defaults to the src/klcodes of the tree holding this script.  A line
counts when some token other than a comment, a line break or an
indentation change lies on it, and it is not part of a docstring (the
string that opens a module, class or function body).  A multi-line
string or bracket counts every line it spans.  One line per module, then
the total.
"""

import ast
import sys
import tokenize
from pathlib import Path

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """Non-blank lines of one module outside comments and docstrings."""
    text = path.read_text()
    lines = set()
    with path.open("rb") as source:
        for token in tokenize.tokenize(source.readline):
            if token.type not in _SKIPPED:
                lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(text)))


def main() -> None:
    src = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).parent.parent / "src" / "klcodes"
    total = 0
    for path in sorted(src.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{path.name:16} {count:5}")
    print(f"{'total':16} {total:5}")


if __name__ == "__main__":
    main()
