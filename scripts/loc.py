#!/usr/bin/env python3
"""Line counts of the ``clusterwp`` package, per module and in total.

``raw`` is every line of a module.  ``code`` leaves out blank lines,
comment-only lines and docstring lines: a line counts when a token other
than a comment starts on it or runs across it (so each line of a statement
continued over several lines counts), unless it lies in a docstring, the
string that opens a module, class or function body (read with ``ast``).

Usage:  python3 scripts/loc.py
"""

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "clusterwp"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def count_lines(source):
    """``(raw, code)`` line counts of Python source text."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef))
                and ast.get_docstring(node, False) is not None):
            doc = node.body[0]
            lines.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return len(source.splitlines()), len(lines)


def main():
    total_raw = total_code = 0
    for path in sorted(PACKAGE.glob("*.py")):
        raw, code = count_lines(path.read_text(encoding="utf-8"))
        total_raw += raw
        total_code += code
        print(f"{path.name:<16}{raw:>6}{code:>6}")
    print(f"{'total':<16}{total_raw:>6}{total_code:>6}")


if __name__ == "__main__":
    main()
