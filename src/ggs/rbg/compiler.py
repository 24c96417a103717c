"""Lowering of a rules automaton into an instruction program.

Both rbg executors run a program built by this one worklist lowering.
It starts from the control nodes (the node after a switch or keep) and
lowers each node the program reaches once, numbered in the order it is
reached; a check body is lowered from its start where a CHECK first
meets it, and every CHECK on an equal body points at the same entry.  A
node with exactly one action edge is that edge's instruction, a
check-body node that only accepts is ACCEPT, and any other node is a
FORK whose branches are its ACCEPT, its action edges and, for each
epsilon edge, the target node's instruction.  Control points are
automaton node ids, and ``entry`` maps each to its instruction, so they
mean the same in both programs.

The interpreter lowers the raw Thompson automaton, so it follows every
epsilon edge at run time.  The compiled executor lowers the automaton
after epsilon elimination in the same way, and adds a JUMPS where
control enters a node whose instruction is a FORK or a SHIFT: from the
entry map, after an action other than a shift, and at a check body's
start.  The JUMPS stands for the node's region, the FORK and SHIFT
instructions reachable from it through FORK branches and SHIFT nexts
alone; its table gives the exits the region reaches from each vertex,
so the walker never runs a FORK or SHIFT of that program.  One more
fold is made only there: a SET/ASSIGN edge that starts a chain of such
edges, one per node, ending in a switch or keep becomes an EMIT that
carries the chain's writes, so it emits the move the chain would build
without stepping through it.

Every CHECK carries a per-vertex table, shared by the checks on one
body, of what the body asks at each vertex: a constant, an OR of ANDs of
(cell, piece set) tests, or SEARCH where expanding the body meets
anything but JUMPS, ON and ACCEPT or takes more than CHECK_TEST_BOUND
steps (see ``LoweredProgram.check_tests``).  In the interpreter's program
the expansion stops at the first FORK or SHIFT, so there only a body of
piece tests alone, such as ``{e}``, is answered without a search.
Nothing the program cannot reach is lowered, so every instruction index
is final when it is allocated and no pass renumbers the program.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .nfa import Nfa, eliminate_epsilon

# Instruction opcodes.  Every instruction is a tuple whose first element
# is the opcode; `next` fields are instruction indices.
FORK = 0      # (FORK, (idx, ...))
SHIFT = 1     # (SHIFT, dir, next)
ON = 2        # (ON, pieceset, next)
SET = 4       # (SET, piece, next)
ASSIGN = 5    # (ASSIGN, assigns, next)
EMIT = 6      # (EMIT, writes, player_or_None, control_node, table)
#               None => keep mover; writes: ((SET, piece) | (ASSIGN,
#               assigns), ...) made before the move is emitted, () for a
#               plain switch or keep; table: vertex -> the move's tail
#               there (``emit_tail``): the writes' effects, then a
#               switch's pass, filled on first use
CHECK = 8     # (CHECK, positive, sub_entry, pure, next, sub_nfa, tests)
#               tests: vertex -> what the body asks there (``check_tests``),
#               filled on first use and shared by the body's checks
ACCEPT = 9    # (ACCEPT,)
JUMPS = 10    # (JUMPS, table, start)  start: the FORK or SHIFT it
#               enters; table: vertex -> (exit indices, exit vertices),
#               filled on first use
# Retired with the guarded-shift and ray-scan passes (jump tables made
# them slower than no pass); no lowering emits them, but external
# listings such as perfbench's still name them.
GSHIFT = 3
RAYSCAN = 7

# Expansion steps ``check_tests`` may take for one (body, vertex) before
# it leaves that vertex to a search of the body.
CHECK_TEST_BOUND = 200
# The ``check_tests`` answer for a vertex whose body is searched.
SEARCH = "search"

_NAMES = {
    FORK: "fork",
    SHIFT: "shift",
    ON: "on",
    SET: "set",
    ASSIGN: "assign",
    EMIT: "emit",
    CHECK: "check",
    ACCEPT: "accept",
    JUMPS: "jumps",
}


@dataclass
class LoweredProgram:
    instrs: list
    entry: dict  # control node id -> instruction index (main program)
    # id(check body Nfa) -> (entry index of its sub-program, the tests
    # table its CHECKs share)
    bodies: dict
    shift_table: list  # shift_table[direction][vertex] -> vertex or OFF_BOARD
    # one copy of each distinct exit-index or exit-vertex tuple
    interned: dict = field(default_factory=dict, repr=False)

    def jump_exits(self, start: int, vertex: int) -> tuple:
        """(exit indices, exit vertices) that FORK and SHIFT steps alone
        reach from instruction ``start`` at ``vertex``, in the order the
        walker's depth-first preorder first reaches them; any other
        instruction is an exit."""
        instrs, shift = self.instrs, self.shift_table
        idxs: list = []
        verts: list = []
        seen = set()
        stack = [(start, vertex)]
        while stack:
            key = stack.pop()
            if key in seen:
                continue
            seen.add(key)
            i, v = key
            instr = instrs[i]
            if instr[0] == FORK:
                stack.extend((t, v) for t in reversed(instr[1]))
            elif instr[0] == SHIFT:
                nv = shift[instr[1]][v]
                if nv >= 0:
                    stack.append((instr[2], nv))
            else:
                idxs.append(i)
                verts.append(v)
        idxs, verts = tuple(idxs), tuple(verts)
        interned = self.interned
        return interned.setdefault(idxs, idxs), interned.setdefault(verts, verts)

    def check_tests(self, entry: int, vertex: int):
        """What the body lowered at ``entry`` asks at ``vertex``: True or
        False when its answer is fixed there, else a tuple of conjuncts of
        which one must hold, each a tuple of (cell, piece set) tests sorted
        by cell; or SEARCH when its expansion from ``vertex`` meets an
        instruction other than JUMPS, ON and ACCEPT (a write, a nested
        check, or a FORK or SHIFT of an unfolded program) or takes more
        than CHECK_TEST_BOUND steps.

        A depth-first expansion over (instruction, vertex, conjunct):
        each ON intersects its set into the conjunct's test of its cell,
        a conjunct left with an empty set is dropped, and every conjunct
        that reaches ACCEPT is kept.  A loop's second round narrows no test,
        so it comes back to a configuration already expanded."""
        instrs = self.instrs
        found: dict = {}  # conjunct -> None, in the order first reached
        seen = set()
        stack = [(entry, vertex, ())]
        steps = CHECK_TEST_BOUND
        while stack:
            key = stack.pop()
            if key in seen:
                continue
            seen.add(key)
            steps -= 1
            if steps < 0:
                return SEARCH
            i, v, tests = key
            instr = instrs[i]
            op = instr[0]
            if op == ON:
                tests = _conjoin(tests, v, instr[1])
                if tests is not None:
                    stack.append((instr[2], v, tests))
            elif op == JUMPS:
                exits = instr[1].get(v)
                if exits is None:
                    exits = instr[1][v] = self.jump_exits(instr[2], v)
                stack.extend((t, nv, tests) for t, nv in zip(*exits))
            elif op != ACCEPT:
                return SEARCH
            elif tests:
                found[tests] = None
            else:
                return True
        return tuple(found) or False


def _conjoin(tests: tuple, cell: int, pieces: frozenset):
    """Conjunct ``tests`` with ``cell`` also tested against ``pieces``,
    or None when no piece passes both."""
    for k, (c, held) in enumerate(tests):
        if c == cell:
            pieces = pieces & held
            if not pieces:
                return None
            return tests[:k] + ((cell, pieces),) + tests[k + 1:]
    if not pieces:
        return None
    return tuple(sorted(tests + ((cell, pieces),), key=lambda test: test[0]))


def tests_hold(tests: tuple, contents) -> bool:
    """Whether one conjunct of a ``check_tests`` tuple holds on ``contents``."""
    for conjunct in tests:
        for cell, pieces in conjunct:
            if contents[cell] not in pieces:
                break
        else:
            return True
    return False


def emit_tail(writes: tuple, player, vertex: int) -> tuple:
    """The effects an EMIT adds to a move at ``vertex``: those its
    ``writes`` make there, in order, then ``("pass", player)`` for a
    switch (``player`` None is a keep, which adds no pass)."""
    effects: list = []
    for op, arg in writes:
        if op == SET:
            effects.append(("cell", vertex, arg))
        else:
            effects.extend(("var", n, v) for n, v in arg)
    if player is not None:
        effects.append(("pass", player))
    return tuple(effects)


def region_exits(program: LoweredProgram, start: int) -> tuple[int, tuple]:
    """(size, exits) of the region a JUMPS into instruction ``start``
    stands for: how many FORK/SHIFT steps it holds, and every instruction
    other than those it can exit to, in depth-first preorder."""
    size, exits, stack, seen = 0, [], [start], set()
    while stack:
        i = stack.pop()
        if i in seen:
            continue
        seen.add(i)
        instr = program.instrs[i]
        if instr[0] not in (FORK, SHIFT):
            exits.append(i)
            continue
        size += 1
        stack.extend(reversed(instr[1] if instr[0] == FORK else instr[2:]))
    return size, tuple(exits)


class _Lowerer:
    """Lowers what the program reaches from its roots, each node once,
    numbered in the order the lowering reaches it.  With ``jumps`` a
    JUMPS is put where control enters a FORK or SHIFT node, and a write
    chain ending in a switch or keep becomes one EMIT."""

    def __init__(self, jumps: bool):
        self.jumps = jumps
        self.instrs: list = []
        # id(sub Nfa) -> (entry index, the tests table its CHECKs share)
        self.bodies: dict[int, tuple] = {}

    def add(self, instr) -> int:
        self.instrs.append(instr)
        return len(self.instrs) - 1

    def lower_nfa(self, nfa: Nfa, sub: bool, roots) -> dict:
        """Lower the nodes reachable from ``roots``; returns root -> index."""
        edges = nfa.edges
        accepting = nfa.accepting if sub else ()
        instrs, jumps = self.instrs, self.jumps
        index = [-1] * len(edges)  # node -> its instruction
        entered: dict = {}  # node -> the JUMPS that enters it
        todo: list = []

        def at(n: int) -> int:
            i = index[n]
            if i < 0:
                i = index[n] = len(instrs)
                instrs.append(None)
                todo.append(n)
            return i

        def enter(n: int) -> int:
            """Where control enters node n: with ``jumps``, when n's
            instruction is a FORK or a SHIFT, the JUMPS that stands for
            them; otherwise n's instruction."""
            out = edges[n]
            moves = bool(out) if n in accepting else (
                len(out) != 1 or out[0][0][0] in ("shift", "eps"))
            if not (jumps and moves):
                return at(n)
            j = entered.get(n)
            if j is None:
                j = entered[n] = self.add((JUMPS, {}, at(n)))
            return j

        def edge(label, target: int) -> tuple:
            """The instruction for an action edge: with ``jumps``, a write
            chain in the main automaton that ends in a switch or keep is
            one EMIT."""
            if label[0] == "shift":
                return (SHIFT, label[1], at(target))
            return (
                jumps and not sub and self._write_chain(edges, label, target)
                or self._edge(label, target, enter)
            )

        entry = {n: enter(n) for n in roots}
        while todo:
            n = todo.pop()
            out = edges[n]
            accepts = n in accepting
            if len(out) == 1 and not accepts and out[0][0][0] != "eps":
                instr = edge(*out[0])
            elif accepts and not out:
                instr = (ACCEPT,)
            else:
                # a FORK: its ACCEPT, then the target's instruction for
                # an epsilon edge and a new instruction for an action edge
                branches = [self.add((ACCEPT,))] if accepts else []
                for label, target in out:
                    if label[0] == "eps":
                        branches.append(at(target))
                    else:
                        branches.append(self.add(edge(label, target)))
                instr = (FORK, tuple(branches))
            instrs[index[n]] = instr
        return entry

    @staticmethod
    def _write_chain(edges, label, target: int):
        """An edge of the main automaton as an EMIT with writes, when it
        and the edges after it are SET/ASSIGN edges, one per node, up to a
        node whose one edge is a switch or keep; otherwise None."""
        writes: list = []
        seen = set()
        while True:
            kind = label[0]
            if kind == "set":
                writes.append((SET, label[1]))
            elif kind == "assign":
                writes.append((ASSIGN, label[1]))
            elif kind in ("switch", "keep") and writes:
                player = label[1] if kind == "switch" else None
                return (EMIT, tuple(writes), player, target, {})
            else:
                return None
            if target in seen or len(edges[target]) != 1:
                return None
            seen.add(target)
            (label, target), = edges[target]

    def _edge(self, label, target: int, enter) -> tuple:
        """The instruction for an action edge other than a shift; control
        goes on through ``enter(target)``."""
        kind = label[0]
        if kind == "switch":
            return (EMIT, (), label[1], target, {})
        if kind == "keep":
            return (EMIT, (), None, target, {})
        if kind == "check":
            sub = label[2]
            body = self.bodies.get(id(sub))
            if body is None:
                entry = self.lower_nfa(sub, True, (sub.start,))[sub.start]
                body = self.bodies[id(sub)] = (entry, {})
            entry, tests = body
            return (CHECK, label[1], entry, label[3], enter(target), sub, tests)
        nxt = enter(target)
        if kind == "on":
            return (ON, label[1], nxt)
        if kind == "set":
            return (SET, label[1], nxt)
        if kind == "assign":
            return (ASSIGN, label[1], nxt)
        raise ValueError(f"unexpected label {label!r}")


def lower(nfa: Nfa, board, optimize: bool) -> LoweredProgram:
    """Lower what an automaton's control nodes (switch and keep targets)
    reach into an instruction program whose ``entry`` maps those nodes.
    With ``optimize`` (the compiled executor) epsilon edges are
    eliminated first, FORK/SHIFT regions become jump tables and write
    chains before a switch or keep become EMITs with writes; without it
    (the interpreter) the automaton is lowered as it is."""
    if optimize:
        nfa = eliminate_epsilon(nfa)
    controls = sorted({
        target
        for out in nfa.edges
        for label, target in out
        if label[0] in ("switch", "keep")
    })
    low = _Lowerer(optimize)
    entry = low.lower_nfa(nfa, False, controls)
    return LoweredProgram(low.instrs, entry, low.bodies, board.neighbors)


def dump_ir(program: LoweredProgram) -> str:
    """Stable one-instruction-per-line listing."""
    lines = []
    for i, instr in enumerate(program.instrs):
        op = instr[0]
        name = _NAMES[op]
        if op == FORK:
            args = " ".join(str(t) for t in instr[1])
            lines.append(f"{i:4d}: {name} [{args}]")
        elif op == SHIFT:
            lines.append(f"{i:4d}: {name} d{instr[1]} -> {instr[2]}")
        elif op == ON:
            pieces = ",".join(str(p) for p in sorted(instr[1]))
            lines.append(f"{i:4d}: {name} {{{pieces}}} -> {instr[2]}")
        elif op == SET:
            lines.append(f"{i:4d}: {name} p{instr[1]} -> {instr[2]}")
        elif op == ASSIGN:
            assigns = ",".join(f"{n}={v}" for n, v in instr[1])
            lines.append(f"{i:4d}: {name} {assigns} -> {instr[2]}")
        elif op == EMIT:
            who = "keep" if instr[2] is None else f"player{instr[2]}"
            writes = ", ".join(
                f"set p{arg}" if w == SET
                else "assign " + ",".join(f"{n}={v}" for n, v in arg)
                for w, arg in instr[1]
            )
            lines.append(
                f"{i:4d}: {name} {who} @node{instr[3]}"
                + (f" <- {writes}" if writes else "")
            )
        elif op == JUMPS:
            size, exits = region_exits(program, instr[2])
            targets = " ".join(str(t) for t in exits)
            lines.append(f"{i:4d}: {name} ({size} fork/shift) -> [{targets}]")
        elif op == CHECK:
            sign = "?" if instr[1] else "!"
            body = "pure" if instr[3] else "impure"
            lines.append(
                f"{i:4d}: {name}{sign} sub@{instr[2]} ({body}) -> {instr[4]}"
            )
        else:
            lines.append(f"{i:4d}: {name}")
    return "\n".join(lines) + "\n"
