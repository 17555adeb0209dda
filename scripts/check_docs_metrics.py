#!/usr/bin/env python3
"""Checks that metric names cited in the docs exist in the source tree.

The docs (README.md and docs/*.md) name metric series like
`estimator.learned.hit` or families like `server.slo.*`; nothing stops a
doc from citing a series that was renamed or never shipped. This script
extracts every `estimator.*` / `server.*` / `perf.*` / `optimizer.*`
name from the docs and verifies each one against the metric-name string
literals in src/:

  * an exact literal match is valid;
  * a docs name ending in `.*` (or a bare `family.` prefix) is valid when
    at least one source literal starts with that prefix;
  * a docs name is also valid when a source literal *prefix* ending in '.'
    (e.g. "perf.cache." built up by concatenation) is a prefix of it, or
    when the docs name is a dot-boundary prefix of a full source literal
    (a family cited without the trailing `.*`).

Cited-but-missing names fail the run (exit 1). Source metrics never
mentioned in any doc are listed as warnings — undocumented telemetry is a
docs smell, not an error.

Usage: scripts/check_docs_metrics.py [repo_root]
"""

import os
import re
import sys

METRIC = re.compile(
    r"\b((?:estimator|server|perf|optimizer)\.[a-z0-9_.*]+)")
STRING_LITERAL = re.compile(r'"((?:[^"\\\n]|\\.)*)"')
# `optimizer.cc`, `docs/…/optimizer.h` and friends are file paths that
# happen to start with a metric family, not metric names.
FILE_EXT = re.compile(r"\.(h|cc|cpp|hpp|md|py|txt|json)$")


def doc_files(root):
    docs = []
    readme = os.path.join(root, "README.md")
    if os.path.isfile(readme):
        docs.append(readme)
    docs_dir = os.path.join(root, "docs")
    if os.path.isdir(docs_dir):
        for name in sorted(os.listdir(docs_dir)):
            if name.endswith(".md"):
                docs.append(os.path.join(docs_dir, name))
    return docs


def source_files(root):
    sources = []
    for dirpath, _, filenames in os.walk(os.path.join(root, "src")):
        for name in sorted(filenames):
            if name.endswith((".h", ".cc", ".cpp")):
                sources.append(os.path.join(dirpath, name))
    return sources


def collect_doc_citations(paths):
    """{name: [(file, line), ...]} for every metric-shaped docs mention."""
    citations = {}
    for path in paths:
        with open(path, encoding="utf-8") as f:
            text = f.read()
        for lineno, line in enumerate(text.splitlines(), start=1):
            for match in METRIC.finditer(line):
                name = match.group(1).rstrip(".")
                if "." not in name or FILE_EXT.search(name):
                    continue
                citations.setdefault(name, []).append((path, lineno))
    return citations


def collect_source_metrics(paths):
    """(full_names, prefixes): literals in src/ that look like metrics.

    A literal ending in '.' is a concatenation prefix (the code appends a
    suffix at runtime), kept separately so docs names under it validate.
    """
    full_names = set()
    prefixes = set()
    for path in paths:
        with open(path, encoding="utf-8") as f:
            text = f.read()
        for literal in STRING_LITERAL.findall(text):
            for match in METRIC.finditer(literal):
                name = match.group(1)
                if name.endswith("."):
                    prefixes.add(name)
                    continue
                if "*" in name or FILE_EXT.search(name):
                    continue
                if "." in name:
                    full_names.add(name)
    return full_names, prefixes


def is_cited_name_valid(name, full_names, prefixes):
    if name.endswith(".*") or name.endswith("*"):
        family = name.rstrip("*").rstrip(".") + "."
        return any(full.startswith(family) for full in full_names) or any(
            prefix.startswith(family) or family.startswith(prefix)
            for prefix in prefixes
        )
    if name in full_names:
        return True
    # A source-side concatenation prefix covers the docs name.
    if any(name.startswith(prefix) for prefix in prefixes):
        return True
    # A family cited without the `.*` suffix: valid when some full metric
    # lives under it at a dot boundary.
    return any(full.startswith(name + ".") for full in full_names)


def is_source_metric_documented(name, citations):
    for cited in citations:
        if cited == name:
            return True
        family = cited.rstrip("*").rstrip(".")
        if family and name.startswith(family + "."):
            return True
    return False


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else "."
    docs = doc_files(root)
    sources = source_files(root)
    if not docs or not sources:
        print(f"error: no docs or no sources found under {root!r}")
        return 1

    citations = collect_doc_citations(docs)
    full_names, prefixes = collect_source_metrics(sources)

    errors = []
    for name in sorted(citations):
        if not is_cited_name_valid(name, full_names, prefixes):
            for path, lineno in citations[name]:
                rel = os.path.relpath(path, root)
                errors.append(f"{rel}:{lineno}: cited metric `{name}` "
                              "not found in src/")

    undocumented = sorted(
        name for name in full_names
        if not is_source_metric_documented(name, citations)
    )

    for error in errors:
        print(error)
    if undocumented:
        print(f"warning: {len(undocumented)} source metric(s) not mentioned "
              "in any doc:")
        for name in undocumented:
            print(f"  {name}")

    checked = len(citations)
    if errors:
        print(f"{len(errors)} missing metric citation(s) "
              f"({checked} names checked across {len(docs)} docs)")
        return 1
    print(f"OK: {checked} docs-cited metric names all exist in src/ "
          f"({len(full_names)} source metrics, {len(docs)} docs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
