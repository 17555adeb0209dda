#!/usr/bin/env python3
"""Counts the independently settable values of the library (report only).

A settable value is one a caller can set independently of the others:

  * a public, non-static data member of a struct or class in src/**/*.h
    whose name ends in Config, Options, Limits or Policy (one per
    declarator, so `int a, b;` counts two);
  * a public setter declared in src/**/*.h: a member or free function
    named Set*, set_* or Enable*.

Every value a knob adds is one more state a reader must reason about, so
the total is tracked from change to change. Prints one line per header
with its count and the total last; --list prints every value instead.

Usage: scripts/count_settables.py [--list] [repo_root]
"""

import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import cxx_headers  # noqa: E402

CONFIG_TYPE = re.compile(r"(Config|Options|Limits|Policy)$")
SETTER = re.compile(r"^(Set[A-Z]\w*|set_\w+|Enable\w*)$")
NOT_A_FIELD = re.compile(
    r"^(static|using|typedef|friend|enum|struct|class|template|"
    r"static_assert)\b")


def split_declarators(text):
    """Top-level comma-separated declarators of one data declaration."""
    parts, depth, cur = [], 0, []
    for c in text:
        if c in "<([{":
            depth += 1
        elif c in ">)]}":
            depth -= 1
        if c == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(c)
    parts.append("".join(cur))
    return parts


def settables(root):
    """[(header path, line, qualified name)] in header order."""
    out = []
    for path in cxx_headers.headers(root):
        rel = os.path.relpath(path, root)
        for decl in cxx_headers.scan(path):
            if decl.access != "public":
                continue
            name = decl.function_name()
            if name is not None:
                if SETTER.match(name):
                    qual = f"{decl.scope}::{name}" if decl.scope else name
                    out.append((rel, decl.line, qual + "()"))
                continue
            if decl.scope is None or not CONFIG_TYPE.search(decl.scope):
                continue
            if NOT_A_FIELD.match(decl.text):
                continue
            for part in split_declarators(decl.text.split("=", 1)[0]):
                m = re.search(r"(\w+)\s*(\[[^\]]*\])?\s*(\{\})?\s*$", part)
                if m:
                    out.append((rel, decl.line, f"{decl.scope}::{m.group(1)}"))
    return out


def main(argv):
    args = [a for a in argv[1:] if a != "--list"]
    root = args[0] if args else os.path.join(os.path.dirname(__file__), "..")
    values = settables(os.path.abspath(root))
    if "--list" in argv:
        for rel, line, name in values:
            print(f"{rel}:{line}: {name}")
    else:
        per_file = {}
        for rel, _, _ in values:
            per_file[rel] = per_file.get(rel, 0) + 1
        for rel in sorted(per_file):
            print(f"{per_file[rel]:4d}  {rel}")
    print(f"settable values: {len(values)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
