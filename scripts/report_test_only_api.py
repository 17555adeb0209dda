#!/usr/bin/env python3
"""Lists public functions of src/**/*.h that only their own files and
tests reference (report only).

A function declared at namespace scope or in the public section of a
class in src/<dir>/<name>.h is reported when every file that mentions its
name (as a whole word) is either its own header, a src/<dir>/<name>*.cc
file, or under tests/. Constructors, destructors and operators are
skipped. Names are matched by spelling alone, so a function that shares
its name with one used elsewhere (an overload, or a method of another
class) is never reported: the list can miss dead code but does not name
a function that some library, bench, example or e2e_bench code calls.

Usage: scripts/report_test_only_api.py [repo_root]
"""

import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import cxx_headers  # noqa: E402

SEARCH_DIRS = ("src", "tests", "bench", "examples", "e2e_bench")
SOURCE_EXT = (".h", ".cc", ".cpp")
WORD = re.compile(r"[A-Za-z_]\w*")
SKIP = re.compile(r"^(using|typedef|friend|static_assert)\b")


def source_files(root):
    out = []
    for top in SEARCH_DIRS:
        for dirpath, _, files in os.walk(os.path.join(root, top)):
            for name in files:
                if name.endswith(SOURCE_EXT):
                    out.append(os.path.relpath(os.path.join(dirpath, name),
                                               root))
    return sorted(out)


def word_index(root, files):
    """name -> set of files mentioning it (comments stripped)."""
    index = {}
    for rel in files:
        with open(os.path.join(root, rel), encoding="utf-8") as f:
            text = cxx_headers.strip_comments_and_literals(f.read())
        for word in set(WORD.findall(text)):
            index.setdefault(word, set()).add(rel)
    return index


def own_files(header_rel):
    """Predicate: is a file the header itself or its implementation?"""
    stem = header_rel[: -len(".h")]

    def owns(rel):
        return rel == header_rel or (rel.startswith(stem) and
                                     rel.endswith(".cc"))

    return owns


def test_only_functions(root):
    """[(header, line, qualified name)] of functions only tests call."""
    index = word_index(root, source_files(root))
    out = []
    for path in cxx_headers.headers(root):
        rel = os.path.relpath(path, root)
        owns = own_files(rel)
        seen = set()
        for decl in cxx_headers.scan(path):
            if decl.access != "public" or SKIP.match(decl.text):
                continue
            name = decl.function_name()
            if name is None or name.startswith("~") or name == decl.scope:
                continue
            qual = f"{decl.scope}::{name}" if decl.scope else name
            if qual in seen:
                continue
            seen.add(qual)
            users = {f for f in index.get(name, ()) if not owns(f)}
            if all(f.startswith("tests" + os.sep) for f in users):
                out.append((rel, decl.line, qual, len(users)))
    return out


def main(argv):
    root = os.path.abspath(
        argv[1] if len(argv) > 1 else os.path.join(os.path.dirname(__file__),
                                                   ".."))
    found = test_only_functions(root)
    for rel, line, qual, test_files in found:
        print(f"{rel}:{line}: {qual} ({test_files} test file(s))")
    print(f"public functions referenced only by their own files and tests: "
          f"{len(found)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
