"""Minimal C++ header scanner shared by the API-surface reports.

Not a parser: it strips comments and literals, tracks brace scopes
(namespace / class / everything else) and access specifiers, and yields
the declarations it meets at namespace or class scope. That is enough for
this repo's headers, which keep one declaration per statement and put
function bodies either inline or in the matching .cc.
"""

import os
import re

CLASS_HEAD = re.compile(
    r"(?:^|[\s;])(?:template\s*<[^{};]*>\s*)?(struct|class|union)\s+"
    r"(?:\[\[[^\]]*\]\]\s*)?(\w+)(?:\s+final)?\s*(?::[^{;]*)?$")
ENUM_HEAD = re.compile(r"(?:^|\s)enum\b")
NAMESPACE_HEAD = re.compile(r"(?:^|\s)namespace\b[\w:\s]*$")
FUNCTION_NAME = re.compile(r"(~?\b[A-Za-z_]\w*)\s*\(")
KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "alignof",
    "decltype", "static_assert", "noexcept", "operator", "explicit",
    "requires", "throw", "catch", "alignas",
}


def strip_comments_and_literals(text):
    """Blanks comments and string/char literal contents, keeping newlines."""
    out = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            i = n if j < 0 else j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append("\n" * text.count("\n", i, j))
            i = j
        elif c in "\"'":
            j = i + 1
            while j < n and text[j] != c:
                j += 2 if text[j] == "\\" else 1
            out.append(c + c)
            i = j + 1
        elif c == "#":
            # Preprocessor line (with continuations).
            j = i
            while True:
                k = text.find("\n", j)
                if k < 0:
                    j = n
                    break
                if text[k - 1] != "\\":
                    j = k
                    break
                j = k + 1
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


class Decl:
    """One declaration statement met at namespace or class scope."""

    def __init__(self, text, scope, access, line, has_body):
        self.text = " ".join(text.split())
        self.scope = scope  # enclosing class name, or None at namespace scope
        self.access = access  # "public" / "private" / "protected"
        self.line = line
        self.has_body = has_body

    def function_name(self):
        """The declared function's name, or None for a data declaration."""
        head = self.text.split("=", 1)[0] if not self.has_body else self.text
        if "(" not in head:
            return None
        for m in FUNCTION_NAME.finditer(head):
            name = m.group(1)
            if name in KEYWORDS or name.isupper():
                continue
            if re.search(r"\boperator\s*$", head[: m.start()]):
                return None
            return name
        return None


def scan(path):
    """Yields the Decls of one header."""
    with open(path, encoding="utf-8") as f:
        text = strip_comments_and_literals(f.read())
    # Stack of [kind, name, access]; kind is "ns", "class" or "other".
    stack = [["ns", None, "public"]]
    buf = []
    line = 1
    buf_line = 1

    def top():
        return stack[-1]

    def flush(has_body):
        stmt = "".join(buf).strip()
        kind, name, access = top()
        if stmt and kind in ("ns", "class"):
            yield Decl(stmt, name, access, buf_line, has_body)

    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
        if not "".join(buf).strip():
            buf_line = line
        if c == "{":
            stmt = "".join(buf).strip()
            kind = top()[0]
            m = CLASS_HEAD.search(stmt)
            if kind in ("ns", "class") and m and not ENUM_HEAD.search(stmt):
                default = "public" if m.group(1) != "class" else "private"
                stack.append(["class", m.group(2), default])
                buf = []
            elif kind in ("ns", "class") and NAMESPACE_HEAD.search(stmt):
                stack.append(["ns", None, "public"])
                buf = []
            elif kind in ("ns", "class") and ")" in stmt and not re.search(
                    r"=\s*$|\)\s*=", stmt) and not ENUM_HEAD.search(stmt):
                # A function body: the declaration ends here.
                yield from flush(True)
                stack.append(["other", None, None])
                buf = []
            else:
                # Initializer, enum body or nested block: skip to its match.
                depth = 1
                j = i + 1
                while j < n and depth:
                    if text[j] == "{":
                        depth += 1
                    elif text[j] == "}":
                        depth -= 1
                    elif text[j] == "\n":
                        line += 1
                    j += 1
                if kind in ("ns", "class"):
                    buf.append("{}")
                i = j
                continue
        elif c == "}":
            if top()[0] == "other":
                stack.pop()
                buf = []
            else:
                if len(stack) > 1:
                    stack.pop()
                buf = []
        elif c == ";":
            if top()[0] != "other":
                yield from flush(False)
            buf = []
        elif c == ":" and top()[0] == "class":
            stmt = "".join(buf).strip()
            if stmt in ("public", "private", "protected") and (
                    i + 1 >= n or text[i + 1] != ":"):
                top()[2] = stmt
                buf = []
            else:
                buf.append(c)
        elif top()[0] != "other":
            buf.append(c)
        i += 1


def headers(root):
    """Every header under src/, sorted."""
    out = []
    for dirpath, _, files in os.walk(os.path.join(root, "src")):
        for name in files:
            if name.endswith(".h"):
                out.append(os.path.join(dirpath, name))
    return sorted(out)
