"""Tests of check_md_links.py on synthetic Markdown trees.

Run from the repo root:

    python3 -m unittest discover -s tools
"""

import os
import tempfile
import unittest

import check_md_links


def tree(files):
    """A temporary directory holding `files` (relative path → text)."""
    root = tempfile.TemporaryDirectory()
    for rel, text in files.items():
        path = os.path.join(root.name, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return root


TARGET = """# Guide

## Paper section → module map

## `pwsr_core`: the monitor

## Notes

## Notes
"""


class CheckMdLinksTest(unittest.TestCase):
    def check(self, source):
        with tree({"docs/GUIDE.md": TARGET, "README.md": source}) as root:
            return check_md_links.check(root)

    def test_good_anchors_pass(self):
        links = [
            "[a](docs/GUIDE.md#paper-section--module-map)",
            "[b](docs/GUIDE.md#pwsr_core-the-monitor)",
            "[c](docs/GUIDE.md#notes-1)",
            "[d](#top)",
            "[e](docs/GUIDE.md)",
        ]
        self.assertEqual(self.check("# Top\n\n" + "\n".join(links) + "\n"), [])

    def test_missing_anchor_is_reported_by_name(self):
        bad = self.check("[a](docs/GUIDE.md#no-such-heading)\n[b](#nowhere)\n")
        self.assertEqual(
            bad,
            [
                "README.md: no heading for anchor -> docs/GUIDE.md#no-such-heading",
                "README.md: no heading for anchor -> #nowhere",
            ],
        )

    def test_a_third_duplicate_has_no_anchor(self):
        bad = self.check("[a](docs/GUIDE.md#notes-2)\n")
        self.assertEqual(bad, ["README.md: no heading for anchor -> docs/GUIDE.md#notes-2"])

    def test_missing_file_is_reported_by_name(self):
        bad = self.check("[a](docs/MISSING.md#guide)\n")
        self.assertEqual(bad, ["README.md: broken relative link -> docs/MISSING.md#guide"])

    def test_fenced_code_is_neither_link_nor_heading(self):
        source = "```\n# Fenced\n[a](docs/MISSING.md)\n```\n[b](#fenced)\n"
        self.assertEqual(self.check(source), ["README.md: no heading for anchor -> #fenced"])

    def test_fragments_on_other_files_are_not_checked(self):
        with tree({"a.md": "[x](src/lib.rs#L10)\n", "src/lib.rs": ""}) as root:
            self.assertEqual(check_md_links.check(root), [])


if __name__ == "__main__":
    unittest.main()
