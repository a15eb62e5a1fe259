#!/usr/bin/env python3
"""Check that every recent CHANGES.md entry stays short.

An entry starts at a line ``- PR <n>: ...`` and runs on through the
indented lines below it, up to the next unindented or blank line. Each
line counts as many lines as it wraps to at 100 columns. The check
fails when an entry with ``n >= 1`` comes to more than 15, so every
entry is held to the cap; an entry's measurements and series live in
``docs/bench/PR<n>.md``.

Run from the repo root (the path defaults to ``CHANGES.md``):

    python3 tools/check_changes.py [path]
"""

import re
import sys
import textwrap

COLUMNS = 100
MAX_LINES = 15
FIRST_CHECKED = 1
ENTRY_RE = re.compile(r"^- PR (\d+):")


def entries(lines):
    """Yield ``(pr, first line number, wrapped line count)`` per entry."""
    current = None
    for number, line in enumerate(lines, 1):
        line = line.rstrip("\n")
        m = ENTRY_RE.match(line)
        if m or not line.startswith(" ") or not line.strip():
            if current:
                yield tuple(current)
            current = [int(m.group(1)), number, 0] if m else None
        if current:
            current[2] += max(1, len(textwrap.wrap(line, COLUMNS)))
    if current:
        yield tuple(current)


def check(lines):
    return [
        f"line {number}: PR {pr} wraps to {count} lines at {COLUMNS} columns"
        f" (at most {MAX_LINES})"
        for pr, number, count in entries(lines)
        if pr >= FIRST_CHECKED and count > MAX_LINES
    ]


def main():
    path = sys.argv[1] if len(sys.argv) > 1 else "CHANGES.md"
    with open(path, encoding="utf-8") as fh:
        bad = check(fh.readlines())
    for line in bad:
        print(f"{path}: {line}", file=sys.stderr)
    if bad:
        return 1
    print(f"every entry from PR {FIRST_CHECKED} on fits in {MAX_LINES} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
