"""Game compilation and the interpreting executor for the regex dialect.

Legal-move search is a depth-first walk over automaton configurations
(node, walker vertex, tentative board/variables).  A semi-move is emitted
at every switch edge; move identity is the emitted effect sequence.  The
search memoizes (node, vertex, effects-so-far) configurations, which both
guards against pure loops and merges duplicate action paths.

Lookahead checks run ``_exists`` on the check body's sub-automaton, which
equal bodies share.  Within one ``semimoves`` call its answers are
memoized on (sub-automaton, vertex, effects-so-far), so ``{? b}`` and
``{! b}`` at one configuration cost one search.  Mutation-free bodies are
searched with an explicit stack; mutating ones by a recursive walk with a
per-path loop guard and a mutation budget.
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

        Mutation-free bodies are plain reachability over (node, vertex),
        searched with an explicit stack and one seen set.  Mutating bodies
        use a recursive walk with a per-path loop guard: a (node, vertex)
        pair may repeat only after an intervening mutation.
        """
        edges = sub.edges
        neighbors = self.board.neighbors
        accepting = sub.accepting
        if pure:
            if sub.start in accepting:
                return True
            seen = {(sub.start, vertex)}
            stack = [(sub.start, vertex)]
            while stack:
                node, v = stack.pop()
                for label, target in edges[node]:
                    kind = label[0]
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
                    else:  # pure bodies hold no writes (and no switches)
                        continue
                    nxt = (target, nv)
                    if nxt not in seen:
                        if target in accepting:
                            return True
                        seen.add(nxt)
                        stack.append(nxt)
            return False

        accept = sub.accept
        path_seen: dict = {}
        # Running count of actual state changes; writes that leave the
        # state untouched do not advance it, so rewrite loops converge.
        mutations = [0]
        budget = 100_000

        def walk(node: int, vertex: int) -> bool:
            if node == accept or node in accepting:
                return True
            key = (node, vertex)
            prev = path_seen.get(key)
            if prev == mutations[0]:
                return False
            path_seen[key] = mutations[0]
            result = _edges_walk(node, vertex)
            if prev is None:
                del path_seen[key]
            else:
                path_seen[key] = prev
            return result

        def _edges_walk(node: int, vertex: int) -> bool:
            for label, target in edges[node]:
                kind = label[0]
                if kind == "eps":
                    if walk(target, vertex):
                        return True
                elif kind == "shift":
                    nv = neighbors[label[1]][vertex]
                    if nv >= 0 and walk(target, nv):
                        return True
                elif kind == "on":
                    if contents[vertex] in label[1] and walk(target, vertex):
                        return True
                elif kind == "set":
                    old = contents[vertex]
                    if old != label[1]:
                        contents[vertex] = label[1]
                        mutations[0] += 1
                        if mutations[0] > budget:
                            raise RuntimeError("runaway mutation in lookahead")
                    ok = walk(target, vertex)
                    contents[vertex] = old
                    if ok:
                        return True
                elif kind == "assign":
                    olds = [(n, variables[n]) for n, _ in label[1]]
                    changed = any(variables[n] != v for n, v in label[1])
                    for n, v in label[1]:
                        variables[n] = v
                    if changed:
                        mutations[0] += 1
                        if mutations[0] > budget:
                            raise RuntimeError("runaway mutation in lookahead")
                    ok = walk(target, vertex)
                    for n, v in olds:
                        variables[n] = v
                    if ok:
                        return True
                elif kind == "check":
                    if (
                        self._exists(label[2], vertex, contents, variables, label[3])
                        == label[1]
                        and walk(target, vertex)
                    ):
                        return True
                # switch edges cannot occur inside checks (validated)
            return False

        return walk(sub.start, vertex)
