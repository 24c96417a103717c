"""Game compilation and the executor for the regex dialect.

Both executors run one instruction walker over a program built by
``compiler.lower``; they differ only in the lowering passes (see
``compiler``).  Legal-move search is a depth-first walk over
configurations (instruction, walker vertex, effects so far), which both
guards against pure loops and merges duplicate action paths.  A
semi-move is emitted at every EMIT (a switch edge); move identity is the
emitted effect sequence, and its control point is the automaton node
after the switch.  A cap on the effect sequence stops runaway rules.
In the compiled program a JUMPS instruction stands for a whole region
of FORK and SHIFT instructions: it looks up the region's exits from the
current vertex (built on first use, in the order stepping through the
region would reach them) and tests an exit that is an ON in place, so
movement such as ``anySquare`` costs one walker step.

Lookahead checks run ``_exists`` on the check body's sub-automaton, which
equal bodies share, starting from its lowered entry.  Within one
``semimoves`` call its answers are memoized on (sub entry, vertex,
effects so far), so ``{? b}`` and ``{! b}`` at one configuration cost one
search.  Every body, with or without writes, is searched with an
explicit stack over (instruction, vertex, net tentative writes), so a
body's loops need no separate guard; a budget on write expansions stops
runaway bodies.
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
from . import ast, compiler
from .compiler import (
    ACCEPT,
    ASSIGN,
    CHECK,
    EMIT,
    FORK,
    JUMPS,
    ON,
    SET,
    SHIFT,
)
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


class RunawaySearch(RuntimeError):
    """A semi-move walk passed its effect cap, or a lookahead search its
    write budget; ``instr`` and ``vertex`` say where it was stopped."""

    def __init__(self, what: str, instr: int, vertex: int):
        super().__init__(f"{what} at instruction {instr}, vertex {vertex}")
        self.instr = instr
        self.vertex = vertex


class RbgEngineBase(Engine):
    """The rbg executor: a walk over a lowered instruction program.

    The two subclasses differ only in which lowering passes build the
    program (``_optimize``).
    """

    mode = "rbg"
    _optimize: bool

    def __init__(self, game: RbgGame):
        self.game = game
        self.board = game.board
        self.player_count = len(game.player_names)
        self.piece_symbols = game.pieces.symbols
        self.program = compiler.lower(game.nfa, game.board, self._optimize)
        self._effect_cap = 4 * game.board.vertex_count + 64

    def initial_state(self) -> GameState:
        return self.game.initial_state()

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

    def semimoves(self, state: GameState) -> list[Move]:
        prog = self.program
        instrs = prog.instrs
        shift = prog.shift_table
        contents = list(state.contents)
        variables = dict(state.variables)
        effects: list = []
        visited: set = set()
        found: dict = {}
        # (sub entry, vertex, effects) -> body found; within this call the
        # effects fix the tentative board and variables.
        lookahead: dict = {}
        cap = self._effect_cap

        def walk(idx: int, vertex: int):
            if len(effects) > cap:
                raise RunawaySearch(
                    "runaway effect sequence in rules pattern", idx, vertex
                )
            so_far = tuple(effects)
            key = (idx, vertex, so_far)
            if key in visited:
                return
            visited.add(key)
            instr = instrs[idx]
            op = instr[0]
            if op == FORK:
                for t in instr[1]:
                    walk(t, vertex)
            elif op == SHIFT:
                nv = shift[instr[1]][vertex]
                if nv >= 0:
                    walk(instr[2], nv)
            elif op == ON:
                if contents[vertex] in instr[1]:
                    walk(instr[2], vertex)
            elif op == JUMPS:
                # no new locals: every one makes each walker frame dearer
                hit = instr[1].get(vertex)
                if hit is None:
                    hit = instr[1][vertex] = prog.jump_exits(instr[2], vertex)
                for t, nv in zip(*hit):
                    instr = instrs[t]
                    if instr[0] != ON:
                        walk(t, nv)
                    elif contents[nv] in instr[1]:
                        walk(instr[2], nv)
            elif op == SET:
                old = contents[vertex]
                contents[vertex] = instr[1]
                effects.append(("cell", vertex, instr[1]))
                walk(instr[2], vertex)
                effects.pop()
                contents[vertex] = old
            elif op == ASSIGN:
                olds = [(n, variables[n]) for n, _ in instr[1]]
                for n, v in instr[1]:
                    variables[n] = v
                    effects.append(("var", n, v))
                walk(instr[2], vertex)
                for _ in instr[1]:
                    effects.pop()
                for n, v in olds:
                    variables[n] = v
            elif op == EMIT:
                if instr[1] is None:
                    seq, replay = tuple(effects), True
                else:
                    seq, replay = tuple(effects) + (("pass", instr[1]),), False
                if (seq, replay) not in found:
                    found[(seq, replay)] = Move(seq, replay, (instr[2], vertex))
            elif op == CHECK:
                query = (instr[2], vertex, so_far)
                hit = lookahead.get(query)
                if hit is None:
                    hit = lookahead[query] = self._exists(
                        instr[5], vertex, contents, variables, instr[3]
                    )
                if hit == instr[1]:
                    walk(instr[4], vertex)
            # ACCEPT unreachable in the main program

        walk(prog.entry[state.control], state.current_vertex)
        return list(found.values())

    def _exists(self, sub: Nfa, vertex: int, contents, variables, pure) -> bool:
        """Existence search for the lookahead body ``sub``; fully rolled
        back.

        Explicit-stack reachability over (instruction, vertex, writes)
        from the body's entry with one seen set, where ``writes`` is the
        body's net tentative change (see ``extend_writes``).
        Mutation-free bodies always carry ``()``, so ``pure`` needs no
        branch of its own.
        """
        program = self.program
        instrs = program.instrs
        shift = program.shift_table
        start = (program.bodies[id(sub)], vertex, ())
        seen = {start}
        stack = [start]
        applied = ()
        originals: dict = {}
        budget = LOOKAHEAD_WRITE_BUDGET
        try:
            while stack:
                idx, v, writes = stack.pop()
                instr = instrs[idx]
                op = instr[0]
                if op == ACCEPT:
                    return True
                if writes is not applied:
                    switch_writes(contents, variables, applied, writes, originals)
                    applied = writes
                if op == FORK:
                    for t in instr[1]:
                        nxt = (t, v, writes)
                        if nxt not in seen:
                            seen.add(nxt)
                            stack.append(nxt)
                    continue
                if op == SHIFT:
                    nv = shift[instr[1]][v]
                    if nv < 0:
                        continue
                    nxt = (instr[2], nv, writes)
                elif op == ON:
                    if contents[v] not in instr[1]:
                        continue
                    nxt = (instr[2], v, writes)
                elif op == JUMPS:
                    exits = instr[1].get(v)
                    if exits is None:
                        exits = instr[1][v] = program.jump_exits(instr[2], v)
                    for t, nv in zip(*exits):
                        target = instrs[t]
                        if target[0] != ON:
                            nxt = (t, nv, writes)
                        elif contents[nv] in target[1]:
                            nxt = (target[2], nv, writes)
                        else:
                            continue
                        if nxt not in seen:
                            seen.add(nxt)
                            stack.append(nxt)
                    continue
                elif op == CHECK:
                    if self._exists(
                        instr[5], v, contents, variables, instr[3]
                    ) != instr[1]:
                        continue
                    nxt = (instr[4], v, writes)
                else:  # SET or ASSIGN; EMIT cannot occur inside checks
                    budget -= 1
                    if budget < 0:
                        raise RunawaySearch("runaway mutation in lookahead", idx, v)
                    nxt = (instr[2], v, extend_writes(
                        writes,
                        ((("cell", v), instr[1]),) if op == SET
                        else [(("var", n), x) for n, x in instr[1]],
                        contents, variables, originals,
                    ))
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
            return False
        finally:
            if applied:
                switch_writes(contents, variables, applied, (), originals)


class RbgInterpreterEngine(RbgEngineBase):
    """Runs the raw Thompson automaton, lowered with no pass: every
    epsilon edge is a fork branch followed at run time."""

    mode = "rbg-interp"
    _optimize = False


class RbgCompiledEngine(RbgEngineBase):
    """Runs the automaton lowered after epsilon elimination with jump
    tables for its FORK/SHIFT regions and dead instructions dropped;
    contract-identical to the interpreter (same sorted move lists)."""

    mode = "rbg-compiled"
    _optimize = True
