"""Tests of unused_pub.py on synthetic workspaces.

Run from the repo root:

    python3 -m unittest discover -s tools
"""

import os
import subprocess
import sys
import tempfile
import textwrap
import unittest

import unused_pub

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "unused_pub.py")


def crate(name, deps=(), dev_deps=()):
    """A Cargo.toml for package `name`."""
    lines = [f'[package]\nname = "{name}"\n', "[dependencies]"]
    lines += [f'{d} = {{ path = "../{d}" }}' for d in deps]
    lines += ["[dev-dependencies]"]
    lines += [f'{d} = {{ path = "../{d}" }}' for d in dev_deps]
    return "\n".join(lines) + "\n"


class Workspace:
    """A temporary tree of `{relative path: text}`."""

    def __init__(self, files):
        self.dir = tempfile.TemporaryDirectory()
        for rel, text in files.items():
            path = os.path.join(self.dir.name, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(textwrap.dedent(text))

    def __enter__(self):
        return self.dir.name

    def __exit__(self, *exc):
        self.dir.cleanup()


def run(files):
    """The scan run as a script over a workspace of `files`."""
    with Workspace(files) as root:
        return subprocess.run([sys.executable, SCRIPT, root], capture_output=True, text=True)


def names(files):
    with Workspace(files) as root:
        return sorted(name for _, _, name in unused_pub.scan(root))


class UnusedPubTest(unittest.TestCase):
    def test_a_caller_in_another_crate_counts(self):
        files = {
            "crates/a/Cargo.toml": crate("a"),
            "crates/a/src/lib.rs": """
                pub struct Set;
                impl Set {
                    pub fn all_items(&self) -> u32 { 1 }
                    pub fn orphan(&self) -> u32 { 2 }
                }
            """,
            "crates/b/Cargo.toml": crate("b", deps=["a"]),
            "crates/b/src/solver.rs": """
                pub fn enumerate(s: &a::Set) -> u32 { s.all_items() }
            """,
            "src/main.rs": "fn main() { b::solver::enumerate(&a::Set); }\n",
        }
        self.assertEqual(names(files), ["Set::orphan"])

    def test_test_code_comments_strings_and_uses_are_not_callers(self):
        files = {
            "src/lib.rs": """
                pub use crate::m::by_use;
                pub fn by_test() {}
                pub fn by_comment() {} // by_comment()
                /// Calls [`by_doc`] /* by_doc */.
                pub fn by_doc() { let _ = "by_string()"; let _ = r#"by_string"#; }
                pub fn by_string() { let _ = '"'; }
                pub fn by_self(n: u32) -> u32 { if n == 0 { 0 } else { by_self(n - 1) } }
                pub fn called() {}
                pub fn caller<'a>(s: &'a str) -> &'a str { called(); s }
                #[cfg(test)]
                mod tests {
                    #[test]
                    fn t() { super::by_test(); }
                }
            """,
            "src/m.rs": "pub fn by_use() {}\n",
            "tests/it.rs": "#[test] fn it() { x::caller(\"\"); }\n",
        }
        self.assertEqual(
            names(files),
            ["by_comment", "by_doc", "by_self", "by_string", "by_test", "by_use", "caller"],
        )

    def test_files_only_tests_reach_are_test_code(self):
        files = {
            "Cargo.toml": crate("root", dev_deps=["turns"]),
            "src/lib.rs": """
                #[cfg(test)]
                mod fixtures;
                #[cfg(test)]
                #[path = "explore_impl.rs"]
                mod explore;
                pub fn api() { helper(); }
                pub fn helper() {}
            """,
            "src/fixtures.rs": "pub fn setup() { crate::api(); }\n",
            "src/explore_impl.rs": "pub fn explore() { turns::park(); }\n",
            "turns/Cargo.toml": crate("turns"),
            "turns/src/lib.rs": "pub fn park() {}\n",
            "benchmark/src/main.rs": "fn main() { root::api(); }\n",
        }
        self.assertEqual(names(files), [])

    def test_the_listing_names_file_line_and_owner(self):
        files = {
            "src/lib.rs": """\
                pub struct T;

                impl<X: Clone> From<X> for T {}
                impl T {
                    pub fn lone() {}
                }
            """,
            "tools/unused_pub_allow.txt": "T::lone — kept for the test\n",
        }
        result = run(files)
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertEqual(
            result.stdout,
            "src/lib.rs:5: T::lone\n1 public functions have no caller outside tests\n",
        )

    def test_an_unlisted_item_fails_and_is_named(self):
        files = {
            "src/lib.rs": "pub fn kept() {}\npub fn orphan() {}\n",
            "tools/unused_pub_allow.txt": "# why each stays\nkept — a reason\n",
        }
        result = run(files)
        self.assertEqual(result.returncode, 1)
        self.assertIn("orphan has no caller outside tests", result.stderr)
        self.assertNotIn("kept", result.stderr)

    def test_a_stale_or_reasonless_entry_fails(self):
        files = {
            "src/lib.rs": "pub fn kept() {}\npub fn caller() { kept(); }\npub fn bare() {}\n",
            "tools/unused_pub_allow.txt": (
                "kept — once had no caller\ncaller — the entry point\nbare\n"
            ),
        }
        result = run(files)
        self.assertEqual(result.returncode, 1)
        self.assertIn("stale entry in tools/unused_pub_allow.txt: kept", result.stderr)
        self.assertIn("gives no reason: bare", result.stderr)
        self.assertNotIn("caller is not listed", result.stderr)

    def test_a_fully_listed_workspace_passes(self):
        files = {
            "src/lib.rs": "pub fn a() {}\npub fn b() {}\n",
            "tools/unused_pub_allow.txt": "a — first reason\nb — second reason\n",
        }
        result = run(files)
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertEqual(result.stderr, "")


if __name__ == "__main__":
    unittest.main()
