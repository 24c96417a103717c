"""Recursive-descent parser for the regex game dialect.

Grammar notes: `+` is alternation and binds looser than concatenation;
postfix `*` binds tightest.  `#` sections may appear in any order, each at
most once; sections other than players/pieces/variables/board/rules define
macros.  Groups, checks, macro arguments and stacked stars nest at most
``ast.MAX_NESTING`` deep.
"""

from __future__ import annotations

from . import ast
from .lexer import Token, tokenize_rbg


class ParseError(ValueError):
    def __init__(self, token: Token, expected, problem: str = ""):
        problem = problem or "expected one of: " + ", ".join(sorted(expected))
        super().__init__(
            f"parse error at {token.line}:{token.col}: got {token.kind}"
            f" ({token.text!r}), {problem}"
        )
        self.token = token
        self.expected = frozenset(expected)


class DuplicateSection(ValueError):
    pass


class RaggedBoard(ValueError):
    pass


_RESERVED_SECTIONS = {"#players", "#pieces", "#variables", "#board", "#rules"}

# Tokens that terminate a concatenation.
_CONCAT_STOP = {"PLUS", "RPAREN", "RBRACE", "RBRACKET", "SEMI", "EOF", "HASH_IDENT"}


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # groups open around the current token
        # deepest level, stacked stars counted, in the pattern being read
        self.peak = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def take(self, kind: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != kind:
            raise ParseError(tok, {kind})
        self.pos += 1
        return tok

    def accept(self, kind: str):
        if self.tokens[self.pos].kind == kind:
            self.pos += 1
            return True
        return False

    # -- sections -------------------------------------------------------

    def parse_game(self) -> ast.RbgGameDef:
        sections: dict[str, object] = {}
        macros: dict[str, tuple] = {}
        order: list[str] = []
        while self.peek().kind != "EOF":
            head = self.take("HASH_IDENT")
            name = head.text
            if name in sections or name[1:] in macros:
                raise DuplicateSection(name)
            if name in _RESERVED_SECTIONS:
                self.take("EQUALS")
                sections[name] = self._parse_reserved(name)
                order.append(name)
            else:
                params: tuple = ()
                if self.accept("LPAREN"):
                    names = [self.take("IDENT").text]
                    while self.accept("SEMI"):
                        names.append(self.take("IDENT").text)
                    self.take("RPAREN")
                    params = tuple(names)
                self.take("EQUALS")
                macros[name[1:]] = (params, self.parse_pattern())
        missing = _RESERVED_SECTIONS - set(sections)
        if missing:
            raise ParseError(self.peek(), missing)
        board_gen, board_dirs, board_rows = sections["#board"]
        return ast.RbgGameDef(
            players=sections["#players"],
            piece_symbols=sections["#pieces"],
            extra_variables=sections["#variables"],
            board_generator=board_gen,
            board_directions=board_dirs,
            board_rows=board_rows,
            macros=macros,
            rules=sections["#rules"],
        )

    def _parse_reserved(self, name: str):
        if name == "#players":
            return tuple(self._parse_bound_list())
        if name == "#variables":
            if self.peek().kind != "IDENT":
                return ()
            return tuple(self._parse_bound_list())
        if name == "#pieces":
            symbols = [self.take("IDENT").text]
            while self.accept("COMMA"):
                symbols.append(self.take("IDENT").text)
            return tuple(symbols)
        if name == "#board":
            return self._parse_board()
        return self.parse_pattern()  # #rules

    def _parse_bound_list(self):
        entries = [self._parse_bound_entry()]
        while self.accept("COMMA"):
            entries.append(self._parse_bound_entry())
        return entries

    def _parse_bound_entry(self):
        name = self.take("IDENT").text
        self.take("LPAREN")
        bound = int(self.take("NUMBER").text)
        self.take("RPAREN")
        return (name, bound)

    def _parse_board(self):
        gen = self.take("IDENT").text
        self.take("LPAREN")
        dirs = [self.take("IDENT").text]
        while self.accept("COMMA"):
            if self.peek().kind != "IDENT":
                break
            dirs.append(self.take("IDENT").text)
        rows = []
        while self.peek().kind == "LBRACKET":
            self.take("LBRACKET")
            row = [self.take("IDENT").text]
            while self.accept("COMMA"):
                row.append(self.take("IDENT").text)
            self.take("RBRACKET")
            rows.append(tuple(row))
        self.take("RPAREN")
        if not rows:
            raise ParseError(self.peek(), {"LBRACKET"})
        if len({len(r) for r in rows}) != 1:
            raise RaggedBoard(f"rows have lengths {[len(r) for r in rows]}")
        return gen, tuple(dirs), tuple(rows)

    # -- patterns -------------------------------------------------------

    def parse_pattern(self) -> ast.Pattern:
        parts = [self._parse_concat()]
        while self.accept("PLUS"):
            parts.append(self._parse_concat())
        if len(parts) == 1:
            return parts[0]
        return ast.Alt(tuple(parts))

    def _parse_concat(self) -> ast.Pattern:
        parts = [self._parse_repeat()]
        while self.peek().kind not in _CONCAT_STOP:
            parts.append(self._parse_repeat())
        if len(parts) == 1:
            return parts[0]
        return ast.Concat(tuple(parts))

    def _too_deep(self, tok: Token) -> ParseError:
        return ParseError(tok, (), f"patterns nest deeper than {ast.MAX_NESTING}")

    def _parse_nested(self, opener: Token) -> ast.Pattern:
        """A pattern one group deeper; ``opener`` opened the group."""
        self.depth += 1
        if self.depth > ast.MAX_NESTING:
            raise self._too_deep(opener)
        node = self.parse_pattern()
        self.depth -= 1
        return node

    def _parse_repeat(self) -> ast.Pattern:
        # each star nests everything inside the primary one level deeper
        outer, self.peak = self.peak, self.depth
        node = self._parse_primary()
        while self.peek().kind == "STAR":
            self.peak += 1
            if self.peak > ast.MAX_NESTING:
                raise self._too_deep(self.peek())
            self.pos += 1
            node = ast.Star(node)
        self.peak = max(self.peak, outer)
        return node

    def _parse_primary(self) -> ast.Pattern:
        tok = self.peek()
        if tok.kind == "LPAREN":
            self.take("LPAREN")
            node = self._parse_nested(tok)
            self.take("RPAREN")
            return node
        if tok.kind == "LBRACE":
            self.take("LBRACE")
            if self.accept("QMARK"):
                node = ast.Check(True, self._parse_nested(tok))
            elif self.accept("BANG"):
                node = ast.Check(False, self._parse_nested(tok))
            else:
                names = [self.take("IDENT").text]
                while self.accept("COMMA"):
                    names.append(self.take("IDENT").text)
                node = ast.On(tuple(names))
            self.take("RBRACE")
            return node
        if tok.kind == "LBRACKET":
            self.take("LBRACKET")
            if self.accept("DOLLAR"):
                assigns = [self._parse_assign()]
                while self.accept("COMMA"):
                    assigns.append(self._parse_assign())
                node = ast.AssignVars(tuple(assigns))
            else:
                node = ast.SetHere(self.take("IDENT").text)
            self.take("RBRACKET")
            return node
        if tok.kind == "ARROW":
            self.take("ARROW")
            return ast.SwitchTo(self.take("IDENT").text)
        if tok.kind == "DARROW":
            self.take("DARROW")
            return ast.SwitchKeep()
        if tok.kind == "IDENT":
            name = self.take("IDENT").text
            opener = self.peek()
            if self.accept("LPAREN"):
                args = [self._parse_nested(opener)]
                while self.accept("SEMI"):
                    args.append(self._parse_nested(opener))
                self.take("RPAREN")
                return ast.Call(name, tuple(args))
            return ast.Name(name)
        raise ParseError(
            tok, {"LPAREN", "LBRACE", "LBRACKET", "ARROW", "DARROW", "IDENT"}
        )

    def _parse_assign(self):
        name = self.take("IDENT").text
        self.take("EQUALS")
        return (name, int(self.take("NUMBER").text))


def parse_rbg(source) -> ast.RbgGameDef:
    """Parse tokenized or raw source into a game definition."""
    tokens = tokenize_rbg(source) if isinstance(source, str) else source
    return _Parser(tokens).parse_game()


