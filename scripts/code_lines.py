"""Count the physical lines and the code lines of each src/slcc module.

A code line is a line that holds at least one token other than a comment,
a docstring, indentation or a line break; blank lines therefore do not
count either.  A docstring is a string literal that is a statement on its
own: the first token of its logical line and followed by its end.  A token
that spans several lines (a multi-line string inside an expression) makes
each of them a code line.

    python scripts/code_lines.py [DIR]

DIR defaults to src/slcc of this checkout.  One line per module, then the
total, each as physical lines and code lines.
"""

from __future__ import annotations

import io
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SKIP = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def count(source: str) -> tuple[int, int]:
    """(physical lines, code lines) of one module's source."""
    tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    code: set[int] = set()
    line_start = True  # the next significant token opens a logical line
    for pos, tok in enumerate(tokens):
        if tok.type in SKIP:
            line_start = line_start or tok.type in (tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT)
            continue
        following = next((t for t in tokens[pos + 1 :] if t.type not in (tokenize.COMMENT, tokenize.NL)), None)
        docstring = (
            tok.type == tokenize.STRING
            and line_start
            and (following is None or following.type in (tokenize.NEWLINE, tokenize.ENDMARKER))
        )
        if not docstring:
            code.update(range(tok.start[0], tok.end[0] + 1))
        line_start = False
    return len(source.splitlines()), len(code)


def main(argv: list[str]) -> int:
    folder = argv[1] if len(argv) > 1 else os.path.join(ROOT, "src", "slcc")
    total_physical = total_code = 0
    print(f"{'module':<20} {'physical':>8} {'code':>6}")
    for name in sorted(os.listdir(folder)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(folder, name), encoding="utf-8") as fh:
            physical, code = count(fh.read())
        total_physical += physical
        total_code += code
        print(f"{name:<20} {physical:>8} {code:>6}")
    print(f"{'total':<20} {total_physical:>8} {total_code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
