#!/usr/bin/env python3
"""Check that every relative link in the repo's Markdown files resolves.

Walks every tracked ``*.md`` file (skipping ``target/`` and
``vendor/``), extracts inline links and images (``[text](dest)``),
and fails if a non-external destination does not exist on disk,
relative to the file that references it. A ``#fragment`` on a link
to a Markdown file (or on a pure-anchor link, against its own file)
must name one of that file's headings, slugged as GitHub slugs them:
lower case, punctuation dropped, spaces to hyphens, and ``-1``,
``-2``, … appended to repeated headings. Fragments on links to other
files (a source line, say) are not checked. ``http(s)``, ``mailto:``
and bare-scheme destinations are skipped.

Run from the repo root:

    python3 tools/check_md_links.py
"""

import os
import re
import sys

SKIP_DIRS = {"target", "vendor", ".git", "node_modules"}
# Inline links/images: [text](dest) — dest up to the first unescaped
# ')' with no nesting (none of our docs nest parentheses in paths).
LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
EXTERNAL = re.compile(r"^[a-zA-Z][a-zA-Z0-9+.-]*:")
FENCES = re.compile(r"^```.*?^```", re.S | re.M)
HEADING = re.compile(r"^#{1,6}[ \t]+(.+?)[ \t]*#*[ \t]*$", re.M)


def md_files(root):
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d not in SKIP_DIRS]
        for f in filenames:
            if f.endswith(".md"):
                yield os.path.join(dirpath, f)


def prose(text):
    """The text outside fenced code blocks."""
    return FENCES.sub("", text)


def slug(heading):
    """GitHub's anchor for a heading's text (before de-duplication)."""
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", heading)
    text = re.sub(r"[^\w\- ]", "", text.lower())
    return text.replace(" ", "-")


def anchors(text):
    """Every anchor the headings of a Markdown text define."""
    seen = {}
    out = set()
    for m in HEADING.finditer(prose(text)):
        base = slug(m.group(1))
        n = seen.get(base, 0)
        seen[base] = n + 1
        out.add(base if n == 0 else f"{base}-{n}")
    return out


def check(root):
    bad = []
    cache = {}

    def anchors_of(path):
        if path not in cache:
            with open(path, encoding="utf-8") as fh:
                cache[path] = anchors(fh.read())
        return cache[path]

    for path in sorted(md_files(root)):
        with open(path, encoding="utf-8") as fh:
            # Links inside fenced code blocks are examples, not references.
            text = prose(fh.read())
        rel = os.path.relpath(path, root)
        for m in LINK_RE.finditer(text):
            dest = m.group(1)
            if EXTERNAL.match(dest):
                continue
            target, _, fragment = dest.partition("#")
            resolved = path
            if target:
                resolved = os.path.normpath(os.path.join(os.path.dirname(path), target))
                if not os.path.exists(resolved):
                    bad.append(f"{rel}: broken relative link -> {dest}")
                    continue
            if fragment and resolved.endswith(".md") and fragment not in anchors_of(resolved):
                bad.append(f"{rel}: no heading for anchor -> {dest}")
    return bad


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else "."
    bad = check(root)
    for line in bad:
        print(line, file=sys.stderr)
    if bad:
        print(f"{len(bad)} broken relative link(s)", file=sys.stderr)
        return 1
    print("all relative Markdown links resolve")
    return 0


if __name__ == "__main__":
    sys.exit(main())
