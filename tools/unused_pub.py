#!/usr/bin/env python3
"""List the public functions nothing calls outside tests.

A ``pub fn`` is listed when its name occurs nowhere in non-test Rust
code except in its own definition: not in another function, not in
another crate, not in an example or the benchmark. Test code is
``#[cfg(test)]`` items (a ``mod`` declared that way pulls in its whole
file), files under a ``tests/`` directory, and every crate that other
crates take only as a dev-dependency. Comments, string literals and
``use`` lines are not callers. Only ``pub`` functions are scanned: an
item nothing outside its crate names is ``pub(crate)`` or narrower,
and rustc's ``dead_code`` lint already reports those.

The scan matches names, not paths, so a call of another function of
the same name hides a caller-less one: what it lists has no caller,
but it may miss some that have none. It walks every ``*.rs`` file
under the root, skipping ``target/``, ``vendor/`` and hidden
directories.

Every listed item must have an entry in ``tools/unused_pub_allow.txt``
under the root, one ``Owner::name — reason`` per line (a line that
starts with ``#`` is a comment). The scan exits 1 when it lists an item the allowlist lacks,
when an entry matches no listed item (a stale entry), or when an entry
gives no reason; otherwise it exits 0. Run from the repo root (the
root defaults to ``.``); it lists ``path:line: Owner::name`` on stdout
and each failure on stderr:

    python3 tools/unused_pub.py [root]
"""

import os
import re
import sys
import tomllib

SKIP_DIRS = {"target", "vendor"}
ALLOWLIST = os.path.join("tools", "unused_pub_allow.txt")
IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
PUB_FN_RE = re.compile(
    r"\bpub\s+(?:const\s+)?(?:async\s+)?(?:unsafe\s+)?(?:extern\s+\"\s*\"\s+)?fn\s+(" + IDENT + ")"
)
CFG_TEST_RE = re.compile(r"#\[cfg\(test\)\]")
ATTR_RE = re.compile(r"\s*#\[[^\]]*\]")
MOD_DECL_RE = re.compile(r"\s*(?:pub(?:\([^)]*\))?\s+)?mod\s+(" + IDENT + r")\s*;")
PATH_ATTR_RE = re.compile(r"#\[path\s*=\s*\"([^\"]*)\"\]")
USE_RE = re.compile(r"\b(?:pub(?:\([^)]*\))?\s+)?use\s[^;]*;")
IMPL_RE = re.compile(r"\bimpl\b")
RAW_RE = re.compile(r"r(#*)\"")


def strip(text):
    """``text`` with comments and the contents of string and character
    literals blanked, newlines and offsets kept."""
    out = list(text)
    i, n = 0, len(text)

    def blank(a, b):
        for k in range(a, b):
            if out[k] != "\n":
                out[k] = " "

    while i < n:
        c = text[i]
        if text.startswith("//", i):
            j = text.find("\n", i)
            j = n if j < 0 else j
            blank(i, j)
            i = j
        elif text.startswith("/*", i):
            depth, j = 1, i + 2
            while j < n and depth:
                if text.startswith("/*", j):
                    depth, j = depth + 1, j + 2
                elif text.startswith("*/", j):
                    depth, j = depth - 1, j + 2
                else:
                    j += 1
            blank(i, j)
            i = j
        elif (raw := RAW_RE.match(text, i)) and not re.match(r"\w", text[i - 1 : i].strip("b")):
            hashes = len(raw.group(1))
            start = i + 2 + hashes
            end = text.find('"' + "#" * hashes, start)
            end = n if end < 0 else end
            blank(start, end)
            i = end + 1 + hashes
        elif c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            blank(i + 1, min(j, n))
            i = j + 1
        elif c == "'":
            if text.startswith("\\", i + 1):
                j = text.find("'", i + 3)
                j = n if j < 0 else j
                blank(i + 1, j)
                i = j + 1
            elif i + 2 < n and text[i + 2] == "'":
                blank(i + 1, i + 2)
                i += 3
            else:
                i += 1  # a lifetime
        else:
            i += 1
    return "".join(out)


def item_end(text, start):
    """The end of the item at ``start``: past its ``;`` or past the
    ``}`` matching its first ``{``, whichever comes first."""
    semi = text.find(";", start)
    brace = text.find("{", start)
    if brace < 0 or 0 <= semi < brace:
        return len(text) if semi < 0 else semi + 1
    depth = 0
    for k in range(brace, len(text)):
        if text[k] == "{":
            depth += 1
        elif text[k] == "}":
            depth -= 1
            if depth == 0:
                return k + 1
    return len(text)


def test_items(stripped, raw):
    """The spans of ``#[cfg(test)]`` items, and the files their
    ``mod name;`` declarations pull in, as ``(name, #[path] or None)``."""
    spans, mods = [], []
    for m in CFG_TEST_RE.finditer(stripped):
        start = m.end()
        path = None
        while a := ATTR_RE.match(stripped, start):
            p = PATH_ATTR_RE.search(raw, a.start(), a.end())
            path = p.group(1) if p else path
            start = a.end()
        decl = MOD_DECL_RE.match(stripped, start)
        if decl:
            mods.append((decl.group(1), path))
        spans.append((m.start(), item_end(stripped, start)))
    return spans, mods


def mod_files(path, name, attr_path):
    """The candidate files of ``mod name;`` declared in ``path``."""
    here = os.path.dirname(path)
    if attr_path:
        return [os.path.normpath(os.path.join(here, attr_path))]
    stem = os.path.splitext(os.path.basename(path))[0]
    if stem not in ("lib", "main", "mod"):
        here = os.path.join(here, stem)
    candidates = [os.path.join(here, name + ".rs"), os.path.join(here, name, "mod.rs")]
    return [os.path.normpath(c) for c in candidates]


def blank_spans(text, spans):
    out = list(text)
    for a, b in spans:
        for k in range(a, b):
            if out[k] != "\n":
                out[k] = " "
    return "".join(out)


def walk(root):
    """Every ``*.rs`` and ``Cargo.toml`` under ``root``."""
    sources, manifests = [], []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d not in SKIP_DIRS and not d.startswith("."))
        for f in sorted(filenames):
            if f.endswith(".rs"):
                sources.append(os.path.normpath(os.path.join(dirpath, f)))
            elif f == "Cargo.toml":
                manifests.append(os.path.join(dirpath, f))
    return sources, manifests


def dev_only_crates(manifests):
    """The directories of the crates that other crates take only as a
    dev-dependency."""
    crates, normal, dev = {}, set(), set()
    for path in manifests:
        with open(path, "rb") as fh:
            manifest = tomllib.load(fh)
        if "package" in manifest:
            crates[manifest["package"]["name"]] = os.path.dirname(path)
        for table in ("dependencies", "build-dependencies"):
            normal |= set(manifest.get(table, {}))
        dev |= set(manifest.get("dev-dependencies", {}))
    return [crates[name] for name in sorted(dev - normal) if name in crates]


def is_test_path(path, root, dev_crates):
    parts = os.path.relpath(path, root).split(os.sep)
    return "tests" in parts[:-1] or any(
        os.path.commonpath([path, crate]) == crate for crate in dev_crates
    )


def impls(stripped):
    """``(start, end, type)`` of every ``impl`` block."""
    out = []
    for m in IMPL_RE.finditer(stripped):
        brace = stripped.find("{", m.end())
        if brace < 0:
            continue
        header = stripped[m.end() : brace]
        while re.search(r"<[^<>]*>", header):
            header = re.sub(r"<[^<>]*>", "", header)
        header = re.split(r"\bwhere\b", re.split(r"\bfor\b", header)[-1])[0]
        name = re.search(IDENT, header)
        if name:
            out.append((m.start(), item_end(stripped, m.start()), name.group(0)))
    return out


def owner_of(blocks, pos):
    """The type of the innermost ``impl`` block around ``pos``, if any."""
    around = [(start, name) for start, end, name in blocks if start <= pos < end]
    return max(around)[1] if around else None


def scan(root):
    """``(path, line, Owner::name)`` of every caller-less ``pub fn``."""
    sources, manifests = walk(root)
    dev_crates = [os.path.abspath(c) for c in dev_only_crates(manifests)]
    raw, stripped, spans = {}, {}, {}
    test_files = set()
    for path in sources:
        with open(path, encoding="utf-8") as fh:
            raw[path] = fh.read()
        stripped[path] = strip(raw[path])
        spans[path], mods = test_items(stripped[path], raw[path])
        for name, attr_path in mods:
            test_files.update(mod_files(path, name, attr_path))
        if is_test_path(os.path.abspath(path), root, dev_crates):
            test_files.add(path)
    # A test file's own `mod name;` files are test files too.
    changed = True
    while changed:
        changed = False
        for path in sources:
            if path in test_files:
                for decl in MOD_DECL_RE.finditer(stripped[path]):
                    for f in mod_files(path, decl.group(1), None):
                        if f in raw and f not in test_files:
                            test_files.add(f)
                            changed = True
    code = {
        path: blank_spans(stripped[path], spans[path])
        for path in sources
        if path not in test_files
    }
    defs = []
    for path, text in code.items():
        for m in PUB_FN_RE.finditer(text):
            defs.append((path, m.start(), item_end(text, m.end()), m.group(1)))
    # Every name occurrence outside `use` lines and `fn <name>` itself.
    refs = {}
    for path, text in code.items():
        text = blank_spans(text, [m.span() for m in USE_RE.finditer(text)])
        for m in re.finditer(IDENT, text):
            if not re.search(r"\bfn\s+$", text[max(0, m.start() - 16) : m.start()]):
                refs.setdefault(m.group(0), []).append((path, m.start()))
    unused = []
    blocks = {path: impls(text) for path, text in code.items()}
    for path, start, end, name in defs:
        callers = [
            (p, at) for p, at in refs.get(name, []) if not (p == path and start <= at < end)
        ]
        if not callers:
            line = raw[path].count("\n", 0, start) + 1
            owner = owner_of(blocks[path], start)
            full = f"{owner}::{name}" if owner else name
            unused.append((os.path.relpath(path, root), line, full))
    return sorted(unused)


def allowlist(root):
    """``{Owner::name: reason}`` from the root's allowlist (empty if it
    has none); an entry without a reason maps to ``""``."""
    path = os.path.join(root, ALLOWLIST)
    if not os.path.exists(path):
        return {}
    entries = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                name, _, reason = line.partition("—")
                entries[name.strip()] = reason.strip()
    return entries


def failures(unused, allowed):
    """What the allowlist gets wrong about the scan's listing."""
    listed = {name for _, _, name in unused}
    out = [
        f"{name} has no caller outside tests and no entry in {ALLOWLIST}"
        for name in sorted(listed - set(allowed))
    ]
    out += [
        f"stale entry in {ALLOWLIST}: {name} is not listed"
        for name in sorted(set(allowed) - listed)
    ]
    out += [
        f"entry in {ALLOWLIST} gives no reason: {name}"
        for name, why in allowed.items()
        if not why
    ]
    return out


def main():
    root = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else ".")
    unused = scan(root)
    for path, line, name in unused:
        print(f"{path}:{line}: {name}")
    print(f"{len(unused)} public functions have no caller outside tests")
    bad = failures(unused, allowlist(root))
    for line in bad:
        print(f"unused_pub: {line}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
