"""S-expression reader for the ludemic game dialect.

`(...)` are lists, `{...}` are sets (allowed only where a ludeme takes a
set parameter), atoms are whitespace-separated, double-quoted strings
carry no escapes, and `//` starts a line comment.  Lists and sets nest
at most ``MAX_NESTING`` deep.
"""

from __future__ import annotations

from dataclasses import dataclass

# The library nests under 10 deep; the compiler's recursive passes would
# exhaust Python's stack from about 250.
MAX_NESTING = 100


class Unbalanced(ValueError):
    def __init__(self, line: int, col: int, detail: str):
        super().__init__(f"unbalanced expression at {line}:{col}: {detail}")
        self.line = line
        self.col = col


class UnterminatedString(ValueError):
    pass


class NestingTooDeep(ValueError):
    def __init__(self, line: int, col: int):
        super().__init__(f"expression at {line}:{col} nests deeper than {MAX_NESTING}")


@dataclass(frozen=True)
class Atom:
    text: str
    quoted: bool = False
    line: int = 0
    col: int = 0


@dataclass(frozen=True)
class SList:
    children: tuple
    line: int = 0
    col: int = 0

    @property
    def head(self) -> str:
        if self.children and isinstance(self.children[0], Atom):
            return self.children[0].text
        return ""


@dataclass(frozen=True)
class SSet:
    children: tuple
    line: int = 0
    col: int = 0


def _tokens(text: str):
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if text.startswith("//", i):
            j = text.find("\n", i)
            i = n if j < 0 else j
            continue
        if ch in "(){}":
            yield (ch, ch, line, col)
            col += 1
            i += 1
            continue
        if ch == '"':
            j = text.find('"', i + 1)
            if j < 0 or "\n" in text[i:j]:
                raise UnterminatedString(f"unterminated string at {line}:{col}")
            yield ("str", text[i + 1 : j], line, col)
            col += j - i + 1
            i = j + 1
            continue
        j = i
        while j < n and not text[j].isspace() and text[j] not in '(){}"':
            j += 1
        yield ("atom", text[i:j], line, col)
        col += j - i
        i = j


def parse_sexpr(text: str):
    """Parse one top-level expression."""
    exprs = parse_all(text)
    if len(exprs) != 1:
        raise Unbalanced(1, 1, f"expected one top-level expression, got {len(exprs)}")
    return exprs[0]


def parse_all(text: str) -> list:
    stack: list[tuple[str, int, int, list]] = []
    top: list = []
    for kind, tok, line, col in _tokens(text):
        if kind in "({":
            if len(stack) == MAX_NESTING:
                raise NestingTooDeep(line, col)
            stack.append((kind, line, col, []))
        elif kind in ")}":
            if not stack:
                raise Unbalanced(line, col, f"unexpected {tok!r}")
            opener, oline, ocol, children = stack.pop()
            if (opener, tok) not in (("(", ")"), ("{", "}")):
                raise Unbalanced(line, col, f"{opener!r} closed by {tok!r}")
            node = (
                SList(tuple(children), oline, ocol)
                if opener == "("
                else SSet(tuple(children), oline, ocol)
            )
            (stack[-1][3] if stack else top).append(node)
        elif kind == "str":
            (stack[-1][3] if stack else top).append(Atom(tok, True, line, col))
        else:
            (stack[-1][3] if stack else top).append(Atom(tok, False, line, col))
    if stack:
        opener, line, col, _ = stack[-1]
        raise Unbalanced(line, col, f"unclosed {opener!r}")
    return top
