"""Pattern AST for the regex game dialect."""

from __future__ import annotations

from dataclasses import dataclass

# Deepest pattern nesting the front end accepts: parenthesized groups,
# checks, macro arguments and stacked stars in the parser, every
# structural level after macro expansion.  The library stays under 20;
# the recursive passes would exhaust Python's stack from about 250.
MAX_NESTING = 100


class Pattern:
    __slots__ = ()


@dataclass(frozen=True)
class Concat(Pattern):
    parts: tuple


@dataclass(frozen=True)
class Alt(Pattern):
    parts: tuple


@dataclass(frozen=True)
class Star(Pattern):
    child: Pattern


@dataclass(frozen=True)
class Check(Pattern):
    positive: bool
    child: Pattern


@dataclass(frozen=True)
class Name(Pattern):
    """Bare identifier: a direction shift or a zero-arg macro reference."""

    name: str


@dataclass(frozen=True)
class Call(Pattern):
    name: str
    args: tuple  # each arg is a Pattern


@dataclass(frozen=True)
class On(Pattern):
    names: tuple  # piece symbol names (resolved to a frozenset of ids later)


@dataclass(frozen=True)
class SetHere(Pattern):
    name: str


@dataclass(frozen=True)
class AssignVars(Pattern):
    assigns: tuple  # ((name, value), ...)


@dataclass(frozen=True)
class SwitchTo(Pattern):
    name: str


@dataclass(frozen=True)
class SwitchKeep(Pattern):
    pass


@dataclass
class RbgGameDef:
    players: tuple  # ((name, bound), ...)
    piece_symbols: tuple
    extra_variables: tuple  # ((name, bound), ...)
    board_generator: str
    board_directions: tuple
    board_rows: tuple  # tuple of tuples of piece symbol names
    macros: dict  # name -> (params tuple, Pattern)
    rules: Pattern
