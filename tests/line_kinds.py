"""Count the lines of the library, src/redeiperm/*.py, by kind: code,
docstring, comment, blank.

    python3 tests/line_kinds.py

A docstring line is one spanned by a string that is a statement on its own
(the docstrings of modules, classes and functions); a comment line holds a
comment and nothing else; a blank line holds nothing, outside any string.
Every other line is code.  A line with code and a comment counts as code.
Stdlib only (tokenize); the total of the four kinds is the file's line
count, as wc -l reports it.
"""

from __future__ import annotations

import glob
import io
import os
import sys
import tokenize

KINDS = ("code", "docstring", "comment", "blank")
_LAYOUT = (tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER)


def line_kinds(source: str) -> dict[str, int]:
    """The number of lines of each kind in source."""
    kind: dict[int, str] = {}
    rank = {k: i for i, k in enumerate(reversed(KINDS))}

    def mark(first: int, last: int, k: str) -> None:
        for line in range(first, last + 1):
            if rank[k] > rank[kind.get(line, "blank")]:
                kind[line] = k

    toks = []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            mark(tok.start[0], tok.end[0], "comment")
        elif tok.type != tokenize.NL:
            toks.append(tok)
    for before, tok, after in zip([None, *toks], toks, [*toks[1:], None]):
        if tok.type not in _LAYOUT:
            alone = (tok.type == tokenize.STRING
                     and after.type == tokenize.NEWLINE
                     and (before is None or before.type in (
                         tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT)))
            mark(tok.start[0], tok.end[0], "docstring" if alone else "code")
    total = len(source.splitlines())
    counts = {k: sum(1 for v in kind.values() if v == k) for k in KINDS}
    counts["blank"] = total - sum(counts.values())
    return counts


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    paths = sorted(glob.glob(os.path.join(root, "src", "redeiperm", "*.py")))
    total = dict.fromkeys(KINDS, 0)
    print(f"{'file':<16}{'lines':>7}" + "".join(f"{k:>11}" for k in KINDS))
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            counts = line_kinds(fh.read())
        for k in KINDS:
            total[k] += counts[k]
        print(f"{os.path.basename(path):<16}{sum(counts.values()):>7}"
              + "".join(f"{counts[k]:>11}" for k in KINDS))
    print(f"{'total':<16}{sum(total.values()):>7}"
          + "".join(f"{total[k]:>11}" for k in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
