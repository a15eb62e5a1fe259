"""Tests of check_changes.py on synthetic changelogs.

Run from the repo root:

    python3 -m unittest discover -s tools
"""

import os
import subprocess
import sys
import tempfile
import unittest

import check_changes

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "check_changes.py")


def entry(pr, lines):
    """An entry of `lines` physical lines, each one wrapped line."""
    return f"- PR {pr}: summary\n" + "  more\n" * (lines - 1)


def run(text):
    with tempfile.NamedTemporaryFile("w", suffix=".md", delete=False) as fh:
        fh.write(text)
    try:
        return subprocess.run(
            [sys.executable, SCRIPT, fh.name], capture_output=True, text=True
        )
    finally:
        os.unlink(fh.name)


class CheckChangesTest(unittest.TestCase):
    def test_short_entries_pass(self):
        text = "# Changes\n\n" + entry(1, 15) + entry(41, 15) + entry(42, 1)
        result = run(text)
        self.assertEqual(result.returncode, 0, result.stderr)

    def test_an_early_long_entry_fails_too(self):
        result = run(entry(1, 16) + entry(2, 3))
        self.assertEqual(result.returncode, 1)
        self.assertIn("line 1: PR 1 wraps to 16 lines", result.stderr)

    def test_a_long_recent_entry_fails_and_is_named(self):
        result = run(entry(41, 2) + entry(44, 16))
        self.assertEqual(result.returncode, 1)
        self.assertIn("line 3: PR 44 wraps to 16 lines", result.stderr)
        self.assertNotIn("PR 41", result.stderr)

    def test_a_long_line_counts_as_the_lines_it_wraps_to(self):
        lines = ["- PR 45: " + "a " * 200 + "\n"]
        self.assertEqual(list(check_changes.entries(lines)), [(45, 1, 5)])

    def test_an_entry_ends_at_a_blank_or_unindented_line(self):
        lines = ["- PR 50: a\n", "\n", "  b\n", "- PR 51: c\n", "  d\n", "text\n"]
        self.assertEqual(list(check_changes.entries(lines)), [(50, 1, 1), (51, 4, 2)])


if __name__ == "__main__":
    unittest.main()
