"""Game compilation and the executor for the regex dialect.

Both executors run one instruction walker over a program built by
``compiler.lower``; they differ only in whether that lowering first
eliminates epsilon edges and builds jump tables (see ``compiler``).
Legal-move search is one explicit-stack depth-first loop over
configurations (instruction, walker vertex, effect id), which
both guards against pure loops and merges duplicate action paths; each
effect sequence a SET or ASSIGN builds gets an interned id within the
call, so a configuration key costs O(1) however long the sequence, and
no rule needs deep recursion.  Writes are undone by entries on the same
stack.  A semi-move is emitted at every EMIT (a switch or keep edge,
after the writes it carries), which interns nothing and records no
configuration, since nothing follows it: the move is the effects so far
plus the EMIT's tail at the vertex (its writes' effects, then a switch's
pass), and it is keyed by that effect tuple, so a keep and a switch with
equal writes are two moves.  Its control point is the smallest
(automaton node after the switch, vertex) that any path emitting it
reaches, so it does not depend on the order a program searches in.  A
cap on the effect sequence, a switch's pass not counted, stops runaway
rules.
In the compiled program a JUMPS instruction stands for a whole region
of FORK and SHIFT steps: it looks up the region's exits from the
current vertex (built on first use, in the order stepping through the
region would reach them) and tests an exit that is an ON in place, so
movement such as ``anySquare`` costs one walker step.  An EMIT that
carries writes stands for a chain of writes that ends in a switch or
keep: its tail at the current vertex (built on first use) holds the
chain's effects, so it emits the move with no board write or undo
entry, and a move made with no earlier write is that tail object
itself.  Such an EMIT also keys the move it emits with its delta text
(``Move.key``, as ``Engine.delta_texts`` builds it) when at most one
cell write came before it (``playout.tail_delta_text``): that write, the
piece the tail leaves at the vertex, the tail's non-cell effects
(compiled into the EMIT) and the state's own cells are all the text
needs, and the ``;var:...;mover=n`` end is built once per call for each
distinct tuple of non-cell effects.  Once a move of the call cannot be
keyed, no later one is, since ``sort_moves`` then orders the whole list
by ``delta_texts``; so Reversi's flips and the interpreter, whose EMITs
carry no writes, key nothing.

A lookahead check first reads its body's per-vertex table, built on
first use and kept for the engine's lifetime: where the body only tests
cells along paths fixed by the vertex (in the compiled program ``{! up}``
or ``{! down {e}}``), the entry is a constant answer or (cell, piece set)
tests to evaluate on the board, with no search.  Elsewhere the entry is
``SEARCH`` (a body that writes or nests a check, one that passed the
expansion bound such as Connect-4's ``anyLine4``, and in the interpreter
any body that moves), and ``_exists`` searches the check body's
sub-automaton, which equal bodies share, from its lowered entry.  Within
one ``semimoves`` call those answers are memoized on (sub entry, vertex,
effect id), so ``{? b}`` and ``{! b}`` at one configuration cost one
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
    Move,
    NEUTRAL,
    PieceTable,
    apply_effects,
)
from ..core.playout import Engine, tail_delta_text
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
    SEARCH,
    SHIFT,
    emit_tail,
    tests_hold,
)
from .expand import RbgValidationError, UnknownMacro, expand_macros
from .nfa import Nfa, build_nfa
from .parser import parse_rbg


class RulesMustOpenWithSwitch(RbgValidationError):
    pass


class _ResolveContext:
    """What each name in the rules means, checked as ``build_nfa``
    resolves it."""

    def __init__(self, directions, pieces: PieceTable, players, bounds: dict):
        self.directions = directions
        self.pieces = pieces
        self.players = players
        self.bounds = bounds

    def direction_index(self, name: str) -> int:
        if name not in self.directions:
            raise UnknownMacro(name)  # a bare name is a direction or a macro
        return self.directions.index(name)

    def piece_id(self, name: str) -> int:
        if name not in self.pieces.symbols:
            raise RbgValidationError(f"unknown piece {name!r}")
        return self.pieces.id_of(name)

    def player_index(self, name: str) -> int:
        if name not in self.players:
            raise RbgValidationError(f"unknown player {name!r}")
        return self.players.index(name) + 1

    def variable(self, name: str, value: int) -> None:
        bound = self.bounds.get(name)
        if bound is None:
            raise RbgValidationError(f"unknown variable {name!r}")
        if value > bound:
            raise RbgValidationError(f"assignment {name}={value} exceeds bound {bound}")


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
        symbols = gamedef.piece_symbols
        if "e" not in symbols:
            raise RbgValidationError("piece list must include the empty symbol e")
        pieces = PieceTable(
            symbols, symbols.index("e"), tuple(NEUTRAL for _ in symbols)
        )
        bad = {sym for row in gamedef.board_rows for sym in row} - set(symbols)
        if bad:
            raise RbgValidationError(f"board literal uses unknown pieces {sorted(bad)}")
        player_names = tuple(name for name, _ in gamedef.players)
        nfa = build_nfa(gamedef.rules, _ResolveContext(
            board.directions, pieces, player_names,
            dict(gamedef.players) | dict(gamedef.extra_variables),
        ))
        return cls(gamedef, board, pieces, player_names, nfa, *_leading_switch(nfa))

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


# Stack entries of the semi-move walk that undo a write instead of
# visiting an instruction: (_UNDO_CELL, vertex, old piece) and
# (_UNDO_VARS, [(name, old value), ...], 0).
_UNDO_CELL = -1
_UNDO_VARS = -2


class RunawaySearch(RuntimeError):
    """A semi-move walk passed its effect cap, or a lookahead search its
    write budget; ``instr`` and ``vertex`` say where it was stopped."""

    def __init__(self, what: str, instr: int, vertex: int):
        super().__init__(f"{what} at instruction {instr}, vertex {vertex}")
        self.instr = instr
        self.vertex = vertex


class RbgEngineBase(Engine):
    """The rbg executor: a walk over a lowered instruction program.

    The two subclasses differ only in ``_optimize``: whether the lowering
    eliminates epsilon edges and builds jump tables.
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

    def semimoves(self, state: GameState) -> list[Move]:
        """Every semi-move from ``state``, in the walker's preorder.

        One depth-first loop over configurations (instruction, vertex,
        effect id).  Each effect sequence a SET or ASSIGN builds gets an
        interned id, so configuration and lookahead keys are O(1) to
        build.  An EMIT interns nothing and adds no configuration: it
        appends its per-vertex tail to the effects and files the move
        under that tuple; a repeat keeps the first move and its ordering
        key, and the smaller control point.  A step with one successor
        continues in the loop; further FORK branches and JUMPS exits are
        pushed in reverse, and a write pushes the entry that undoes it
        beneath its successor, so the board, the variables and the effect
        list are back when a sibling is popped.
        """
        prog = self.program
        instrs = prog.instrs
        shift = prog.shift_table
        contents = list(state.contents)
        variables = dict(state.variables)
        effects: list = []
        # (parent id, effect) -> id of the sequence it extends; 0 is ()
        ids: dict = {}
        visited: set = set()
        found: dict = {}  # effect sequence, a switch's pass included -> Move
        # (sub entry, vertex, effect id) -> body found; within this call
        # the effects fix the tentative board and variables.
        lookahead: dict = {}
        # keys are attached while every move so far has one
        keying = True
        tokens = self.cell_tokens
        suffixes: dict = {}  # non-cell effects -> their delta text
        cap = self._effect_cap
        stack = [(prog.entry[state.control], state.current_vertex, 0)]
        while stack:
            idx, vertex, eid = stack.pop()
            if idx < 0:
                if idx == _UNDO_CELL:
                    contents[vertex] = eid
                    effects.pop()
                else:
                    for n, v in vertex:
                        variables[n] = v
                        effects.pop()
                continue
            while True:
                instr = instrs[idx]
                op = instr[0]
                if op == EMIT:
                    # nothing follows an EMIT, so it records no
                    # configuration: a repeat finds its move in ``found``
                    # with the same control point
                    player = instr[2]
                    tail = instr[4].get(vertex)
                    if tail is None:
                        tail = instr[4][vertex] = emit_tail(
                            instr[1], player, vertex
                        )
                    # a switch's pass is no effect the cap counts
                    if len(effects) + len(tail) - (player is not None) > cap:
                        raise RunawaySearch(
                            "runaway effect sequence in rules pattern", idx, vertex
                        )
                    seq = tuple(effects) + tail if effects else tail
                    control = (instr[3], vertex)
                    move = found.get(seq)
                    if move is None:
                        text = None
                        if keying:
                            parts = instr[5]
                            if parts is not None:
                                text = tail_delta_text(
                                    state, effects, vertex, parts[0], parts[1],
                                    tokens, suffixes,
                                )
                            keying = text is not None
                        found[seq] = Move(seq, player is None, control, text)
                    elif control < move.control:
                        move.control = control
                    break
                key = (idx, vertex, eid)
                if key in visited:
                    break
                visited.add(key)
                if op == FORK:
                    branches = instr[1]
                    if not branches:
                        break
                    for t in branches[:0:-1]:
                        stack.append((t, vertex, eid))
                    idx = branches[0]
                elif op == SHIFT:
                    vertex = shift[instr[1]][vertex]
                    if vertex < 0:
                        break
                    idx = instr[2]
                elif op == ON:
                    if contents[vertex] not in instr[1]:
                        break
                    idx = instr[2]
                elif op == JUMPS:
                    exits = instr[1].get(vertex)
                    if exits is None:
                        exits = instr[1][vertex] = prog.jump_exits(instr[2], vertex)
                    targets, verts = exits
                    for k in range(len(targets) - 1, -1, -1):
                        t = targets[k]
                        target = instrs[t]
                        if target[0] != ON:
                            stack.append((t, verts[k], eid))
                        elif contents[verts[k]] in target[1]:
                            stack.append((target[2], verts[k], eid))
                    break
                elif op == SET:
                    stack.append((_UNDO_CELL, vertex, contents[vertex]))
                    contents[vertex] = instr[1]
                    effect = ("cell", vertex, instr[1])
                    effects.append(effect)
                    eid = ids.setdefault((eid, effect), len(ids) + 1)
                    idx = instr[2]
                    if len(effects) > cap:
                        raise RunawaySearch(
                            "runaway effect sequence in rules pattern", idx, vertex
                        )
                elif op == ASSIGN:
                    stack.append(
                        (_UNDO_VARS, [(n, variables[n]) for n, _ in instr[1]], 0)
                    )
                    for n, v in instr[1]:
                        variables[n] = v
                        effect = ("var", n, v)
                        effects.append(effect)
                        eid = ids.setdefault((eid, effect), len(ids) + 1)
                    idx = instr[2]
                    if len(effects) > cap:
                        raise RunawaySearch(
                            "runaway effect sequence in rules pattern", idx, vertex
                        )
                elif op == CHECK:
                    tests = instr[6].get(vertex)
                    if tests is None:
                        tests = instr[6][vertex] = prog.check_tests(
                            instr[2], vertex
                        )
                    if tests.__class__ is tuple:
                        hit = tests_hold(tests, contents)
                    elif tests is SEARCH:
                        query = (instr[2], vertex, eid)
                        hit = lookahead.get(query)
                        if hit is None:
                            hit = lookahead[query] = self._exists(
                                instr[5], vertex, contents, variables, instr[3]
                            )
                    else:
                        hit = tests
                    if hit != instr[1]:
                        break
                    idx = instr[4]
                else:  # ACCEPT, unreachable in the main program
                    break
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
        start = (program.bodies[id(sub)][0], vertex, ())
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
                    tests = instr[6].get(v)
                    if tests is None:
                        tests = instr[6][v] = program.check_tests(instr[2], v)
                    if tests.__class__ is tuple:
                        hit = tests_hold(tests, contents)
                    elif tests is SEARCH:
                        hit = self._exists(
                            instr[5], v, contents, variables, instr[3]
                        )
                    else:
                        hit = tests
                    if hit != instr[1]:
                        continue
                    nxt = (instr[4], v, writes)
                else:  # SET or ASSIGN; EMIT cannot occur in checks
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
    """Runs the raw Thompson automaton, lowered as it is: every epsilon
    edge is a fork branch followed at run time."""

    mode = "rbg-interp"
    _optimize = False


class RbgCompiledEngine(RbgEngineBase):
    """Runs the automaton lowered after epsilon elimination with jump
    tables for its FORK/SHIFT regions; contract-identical to the
    interpreter (same sorted move lists)."""

    mode = "rbg-compiled"
    _optimize = True
