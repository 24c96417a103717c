"""Game compilation and the interpreting executor for the regex dialect.

Legal-move search is a depth-first walk over automaton configurations
(node, walker vertex, tentative board/variables).  A semi-move is emitted
at every switch edge; move identity is the emitted effect sequence.  The
search memoizes (node, vertex, effects-so-far) configurations, which both
guards against pure loops and merges duplicate action paths.

Lookahead checks run ``_exists`` on the check body's sub-automaton, which
equal bodies share.  Within one ``semimoves`` call its answers are
memoized on (sub-automaton, vertex, effects-so-far), so ``{? b}`` and
``{! b}`` at one configuration cost one search.  Every body, with or
without writes, is searched with an explicit stack over (node, vertex,
net tentative writes), so a body's loops need no separate guard; a
budget on write expansions stops runaway bodies.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.board import (
    HEX_DIRECTIONS,
    BoardGraph,
    build_hex_board,
    build_rectangle_board,
)
from ..core.model import (
    GameState,
    IllegalMove,
    Move,
    NEUTRAL,
    PieceTable,
    apply_effects,
)
from ..core.playout import Engine
from . import ast
from .expand import RbgValidationError, expand_macros, validate
from .nfa import Nfa, build_nfa
from .parser import parse_rbg


class RulesMustOpenWithSwitch(RbgValidationError):
    pass


class _ResolveContext:
    def __init__(self, game: "RbgGame"):
        self.game = game

    def direction_index(self, name: str) -> int:
        try:
            return self.game.board.directions.index(name)
        except ValueError:
            raise RbgValidationError(f"unknown direction {name!r}") from None

    def piece_id(self, name: str) -> int:
        return self.game.pieces.id_of(name)

    def player_index(self, name: str) -> int:
        return self.game.player_names.index(name) + 1


@dataclass
class RbgGame:
    """Immutable compiled definition shared by both executors."""

    gamedef: ast.RbgGameDef
    board: BoardGraph
    pieces: PieceTable
    player_names: tuple[str, ...]
    nfa: Nfa
    init_assigns: tuple
    init_mover: int
    init_control: int

    @classmethod
    def from_text(cls, text: str) -> "RbgGame":
        gamedef = expand_macros(parse_rbg(text))
        rows = len(gamedef.board_rows)
        cols = len(gamedef.board_rows[0])
        if gamedef.board_generator == "rectangle":
            if tuple(gamedef.board_directions) != ("up", "down", "left", "right"):
                raise RbgValidationError(
                    "rectangle boards declare directions up, down, left, right"
                )
            board = build_rectangle_board(rows, cols)
        elif gamedef.board_generator == "hexagon":
            if tuple(gamedef.board_directions) != HEX_DIRECTIONS:
                raise RbgValidationError(
                    "hexagon boards declare directions "
                    + ", ".join(HEX_DIRECTIONS)
                )
            if rows != cols:
                raise RbgValidationError("hexagon boards must be square")
            board = build_hex_board(rows)
        else:
            raise RbgValidationError(
                f"unsupported board generator {gamedef.board_generator!r}"
            )
        validate(gamedef, board.directions)
        symbols = gamedef.piece_symbols
        if "e" not in symbols:
            raise RbgValidationError("piece list must include the empty symbol e")
        pieces = PieceTable(
            symbols, symbols.index("e"), tuple(NEUTRAL for _ in symbols)
        )
        game = cls(
            gamedef=gamedef,
            board=board,
            pieces=pieces,
            player_names=tuple(name for name, _ in gamedef.players),
            nfa=None,  # filled below
            init_assigns=(),
            init_mover=0,
            init_control=0,
        )
        game.nfa = build_nfa(gamedef.rules, _ResolveContext(game))
        game.init_assigns, game.init_mover, game.init_control = _leading_switch(
            game.nfa
        )
        return game

    def initial_state(self) -> GameState:
        contents = [
            self.pieces.id_of(sym) for row in self.gamedef.board_rows for sym in row
        ]
        variables = {name: 0 for name, _ in self.gamedef.players}
        variables.update({name: 0 for name, _ in self.gamedef.extra_variables})
        for name, value in self.init_assigns:
            variables[name] = value
        return GameState(
            contents=contents,
            mover=self.init_mover,
            variables=variables,
            turn_number=0,
            control=self.init_control,
            current_vertex=0,
        )


def _leading_switch(nfa: Nfa):
    """Find the control-establishing switch: first switch edge reachable
    through epsilon and assignment edges only."""
    stack = [(nfa.start, ())]
    seen = {nfa.start}
    while stack:
        node, assigns = stack.pop()
        for label, target in nfa.edges[node]:
            kind = label[0]
            if kind == "switch":
                return assigns, label[1], target
            if kind == "eps" and target not in seen:
                seen.add(target)
                stack.append((target, assigns))
            elif kind == "assign" and target not in seen:
                seen.add(target)
                stack.append((target, assigns + label[1]))
    raise RulesMustOpenWithSwitch("rules must open with a player switch")


# SET/ASSIGN expansions one lookahead search may make before it is deemed
# runaway; searches of mutation-free bodies never spend any.
LOOKAHEAD_WRITE_BUDGET = 100_000


def extend_writes(writes: tuple, changes, contents, variables, originals: dict):
    """The write set ``writes`` after ``changes``, (slot, value) pairs.

    A write set is a sorted tuple of ((kind, key), value), kind "cell" or
    "var": later writes win and writes back to the original value drop
    out, so equal tentative boards have equal write sets.  ``originals``
    maps every slot a write set has touched to its value before the
    search; the board must hold ``writes`` when this is called.
    """
    for slot, value in changes:
        if slot not in originals:
            kind, key = slot
            originals[slot] = contents[key] if kind == "cell" else variables[key]
        kept = [write for write in writes if write[0] != slot]
        if originals[slot] != value:
            kept.append((slot, value))
            kept.sort()
        writes = tuple(kept)
    return writes


def switch_writes(contents, variables, applied: tuple, writes: tuple, originals):
    """Change the board from holding write set ``applied`` to ``writes``."""
    for (kind, key), _ in applied:
        (contents if kind == "cell" else variables)[key] = originals[kind, key]
    for (kind, key), value in writes:
        (contents if kind == "cell" else variables)[key] = value


class RbgEngineBase(Engine):
    """Shared apply/terminal logic for the two rbg executors."""

    mode = "rbg"

    def __init__(self, game: RbgGame):
        self.game = game
        self.board = game.board
        self.player_count = len(game.player_names)
        self.piece_symbols = game.pieces.symbols

    def initial_state(self) -> GameState:
        return self.game.initial_state()

    def semimoves(self, state: GameState) -> list[Move]:
        raise NotImplementedError

    def probe(self, state: GameState):
        moves = self.sort_moves(state, self.semimoves(state))
        if moves:
            return moves, None
        payoffs = {
            idx + 1: state.variables[name]
            for idx, name in enumerate(self.game.player_names)
        }
        return moves, payoffs

    def apply(self, state: GameState, move: Move) -> GameState:
        nxt = apply_effects(state, move)
        node, vertex = move.control
        nxt.control = node
        nxt.current_vertex = vertex
        return nxt

    def apply_checked(self, state: GameState, move: Move) -> GameState:
        key = (move.effects, move.replay)
        legal = {(m.effects, m.replay) for m in self.semimoves(state)}
        if key not in legal:
            raise IllegalMove("move is not legal in this state")
        return self.apply(state, move)


class RbgInterpreterEngine(RbgEngineBase):
    """Direct NFA walker: epsilon edges followed at run time."""

    mode = "rbg-interp"

    def __init__(self, game: RbgGame):
        super().__init__(game)
        self._effect_cap = 4 * game.board.vertex_count + 64

    def semimoves(self, state: GameState) -> list[Move]:
        nfa = self.game.nfa
        edges = nfa.edges
        neighbors = self.board.neighbors
        contents = list(state.contents)
        variables = dict(state.variables)
        effects: list = []
        visited: set = set()
        found: dict = {}
        # (id(sub), vertex, effects) -> body found; within this call the
        # effects fix the tentative board and variables.
        lookahead: dict = {}
        cap = self._effect_cap

        def emit(switch_eff, replay: bool, target: int, vertex: int):
            seq = tuple(effects) + ((switch_eff,) if switch_eff else ())
            if (seq, replay) not in found:
                found[(seq, replay)] = Move(seq, replay, (target, vertex))

        def walk(node: int, vertex: int):
            if len(effects) > cap:
                raise RuntimeError("runaway effect sequence in rules pattern")
            so_far = tuple(effects)
            key = (node, vertex, so_far)
            if key in visited:
                return
            visited.add(key)
            for label, target in edges[node]:
                kind = label[0]
                if kind == "eps":
                    walk(target, vertex)
                elif kind == "shift":
                    nv = neighbors[label[1]][vertex]
                    if nv >= 0:
                        walk(target, nv)
                elif kind == "on":
                    if contents[vertex] in label[1]:
                        walk(target, vertex)
                elif kind == "set":
                    old = contents[vertex]
                    contents[vertex] = label[1]
                    effects.append(("cell", vertex, label[1]))
                    walk(target, vertex)
                    effects.pop()
                    contents[vertex] = old
                elif kind == "assign":
                    olds = [(n, variables[n]) for n, _ in label[1]]
                    for n, v in label[1]:
                        variables[n] = v
                        effects.append(("var", n, v))
                    walk(target, vertex)
                    for _ in label[1]:
                        effects.pop()
                    for n, v in olds:
                        variables[n] = v
                elif kind == "switch":
                    emit(("pass", label[1]), False, target, vertex)
                elif kind == "keep":
                    emit(None, True, target, vertex)
                elif kind == "check":
                    sub = label[2]
                    query = (id(sub), vertex, so_far)
                    hit = lookahead.get(query)
                    if hit is None:
                        hit = lookahead[query] = self._exists(
                            sub, vertex, contents, variables, label[3]
                        )
                    if hit == label[1]:
                        walk(target, vertex)

        walk(state.control, state.current_vertex)
        return list(found.values())

    def _exists(self, sub: Nfa, vertex: int, contents, variables, pure: bool) -> bool:
        """Existence search for a lookahead body; fully rolled back.

        Explicit-stack reachability over (node, vertex, writes) with one
        seen set, where ``writes`` is the body's net tentative change (see
        ``extend_writes``).  Mutation-free bodies always carry ``()``, so
        ``pure`` needs no branch of its own.
        """
        edges = sub.edges
        neighbors = self.board.neighbors
        accepting = sub.accepting
        if sub.start in accepting:
            return True
        start = (sub.start, vertex, ())
        seen = {start}
        stack = [start]
        applied = ()
        originals: dict = {}
        budget = LOOKAHEAD_WRITE_BUDGET
        try:
            while stack:
                node, v, writes = stack.pop()
                if writes is not applied:
                    switch_writes(contents, variables, applied, writes, originals)
                    applied = writes
                for label, target in edges[node]:
                    kind = label[0]
                    nw = writes
                    if kind == "eps":
                        nv = v
                    elif kind == "shift":
                        nv = neighbors[label[1]][v]
                        if nv < 0:
                            continue
                    elif kind == "on":
                        if contents[v] not in label[1]:
                            continue
                        nv = v
                    elif kind == "check":
                        if self._exists(
                            label[2], v, contents, variables, label[3]
                        ) != label[1]:
                            continue
                        nv = v
                    elif kind == "set" or kind == "assign":
                        budget -= 1
                        if budget < 0:
                            raise RuntimeError("runaway mutation in lookahead")
                        nv = v
                        nw = extend_writes(
                            writes,
                            ((("cell", v), label[1]),) if kind == "set"
                            else [(("var", n), x) for n, x in label[1]],
                            contents, variables, originals,
                        )
                    else:  # switch edges cannot occur inside checks (validated)
                        continue
                    nxt = (target, nv, nw)
                    if nxt not in seen:
                        if target in accepting:
                            return True
                        seen.add(nxt)
                        stack.append(nxt)
            return False
        finally:
            if applied:
                switch_writes(contents, variables, applied, (), originals)
