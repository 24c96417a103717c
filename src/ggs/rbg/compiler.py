"""Lowering of a rules automaton into an instruction program.

Both rbg executors run a program built by this one lowering.  Every
automaton node becomes one instruction: a node with exactly one action
edge is that edge's instruction, a check-body node that only accepts is
ACCEPT, and any other node is a FORK whose branches are its ACCEPT, its
action edges and, for each epsilon edge, the target node's instruction.
Control points (the node after a switch) are automaton node ids, and
``entry`` maps each to its instruction, so they mean the same in both
programs.  Each distinct lookahead sub-automaton is lowered once; every
CHECK on it points at the same entry.

The interpreter lowers the raw Thompson automaton and runs no pass, so
it follows every epsilon edge at run time, and its ``entry`` maps every
node.  The compiled executor lowers the automaton after epsilon
elimination and runs one pass: every FORK or SHIFT that the program
enters from outside its region (the FORK and SHIFT instructions
reachable from it through FORK and SHIFT alone) becomes a JUMPS, whose
table gives the exits that region reaches from each vertex.  Region
interiors, and the nodes epsilon elimination leaves unreachable, are
then dropped, so the compiled program holds only live instructions and
its ``entry`` maps only control nodes.
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
EMIT = 6      # (EMIT, player_or_None, control_node)  None => keep mover
CHECK = 8     # (CHECK, positive, sub_entry, pure, next, sub_nfa)
ACCEPT = 9    # (ACCEPT,)
JUMPS = 10    # (JUMPS, table, region_start)  table: vertex -> (exit
#               indices, exit vertices), filled on first use
# Retired with the guarded-shift and ray-scan passes (jump tables made
# them slower than no pass); no lowering emits them, but external
# listings such as perfbench's still name them.
GSHIFT = 3
RAYSCAN = 7

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
    entry: dict  # nfa node id -> instruction index (main program)
    bodies: dict  # id(check body Nfa) -> entry index of its sub-program
    shift_table: list  # shift_table[direction][vertex] -> vertex or OFF_BOARD
    # The FORK and SHIFT instructions the JUMPS pass replaced, keyed and
    # linked by their index before dead-instruction elimination, and that
    # index -> index after it, for every live instruction.
    region: dict = field(default_factory=dict)
    live_index: dict = field(default_factory=dict)
    # one copy of each distinct exit-index or exit-vertex tuple
    interned: dict = field(default_factory=dict, repr=False)

    def jump_exits(self, start: int, vertex: int) -> tuple:
        """(exit indices, exit vertices) that FORK and SHIFT steps alone
        reach from region instruction ``start`` at ``vertex``, in the
        order the walker's depth-first preorder first reaches them."""
        region, shift, live_index = self.region, self.shift_table, self.live_index
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
            node = region.get(i)
            if node is None:
                idxs.append(live_index[i])
                verts.append(v)
            elif node[0] == FORK:
                stack.extend((t, v) for t in reversed(node[1]))
            else:
                nv = shift[node[1]][v]
                if nv >= 0:
                    stack.append((node[2], nv))
        idxs, verts = tuple(idxs), tuple(verts)
        interned = self.interned
        return interned.setdefault(idxs, idxs), interned.setdefault(verts, verts)


def region_exits(program: LoweredProgram, start: int) -> tuple[int, tuple]:
    """(size, exits) of the region a JUMPS at region instruction ``start``
    stands for: how many FORK/SHIFT instructions it replaced, and every
    instruction it can exit to, in depth-first preorder."""
    size, exits, stack, seen = 0, [], [start], set()
    while stack:
        i = stack.pop()
        if i in seen:
            continue
        seen.add(i)
        node = program.region.get(i)
        if node is None:
            exits.append(program.live_index[i])
        else:
            size += 1
            stack.extend(reversed(_targets(node)))
    return size, tuple(exits)


def _targets(instr) -> tuple:
    """The instruction indices ``instr`` can continue at."""
    op = instr[0]
    if op == FORK:
        return instr[1]
    if op == CHECK:
        return instr[2], instr[4]
    if op in (EMIT, ACCEPT):
        return ()
    return (instr[-1],)


def _retarget(instr, new: dict) -> tuple:
    """``instr`` with every instruction index mapped through ``new``; no
    FORK or SHIFT is live once the jump-table pass has run."""
    op = instr[0]
    if op == CHECK:
        return instr[:2] + (new[instr[2]], instr[3], new[instr[4]], instr[5])
    if op in (EMIT, ACCEPT, JUMPS):
        return instr
    return instr[:-1] + (new[instr[-1]],)


class _Lowerer:
    def __init__(self):
        self.instrs: list = []
        self.bodies: dict[int, int] = {}  # id(sub Nfa) -> entry index
        self.region: dict = {}  # index -> FORK/SHIFT a JUMPS stands for

    def add(self, instr) -> int:
        self.instrs.append(instr)
        return len(self.instrs) - 1

    def lower_nfa(self, nfa: Nfa, sub: bool) -> dict:
        """Emit one instruction per node; returns node -> index."""
        node_idx = {n: self.add(None) for n in range(nfa.node_count)}
        for n, out in enumerate(nfa.edges):
            accepts = sub and n in nfa.accepting
            if len(out) == 1 and out[0][0][0] != "eps" and not accepts:
                self.instrs[node_idx[n]] = self._edge(*out[0], node_idx)
            elif accepts and not out:
                self.instrs[node_idx[n]] = (ACCEPT,)
            else:
                branches = [self.add((ACCEPT,))] if accepts else []
                for label, target in out:
                    branches.append(
                        node_idx[target] if label[0] == "eps"
                        else self.add(self._edge(label, target, node_idx))
                    )
                self.instrs[node_idx[n]] = (FORK, tuple(branches))
        return node_idx

    def _edge(self, label, target: int, node_idx: dict) -> tuple:
        kind = label[0]
        nxt = node_idx[target]
        if kind == "shift":
            return (SHIFT, label[1], nxt)
        if kind == "on":
            return (ON, label[1], nxt)
        if kind == "set":
            return (SET, label[1], nxt)
        if kind == "assign":
            return (ASSIGN, label[1], nxt)
        if kind == "switch":
            return (EMIT, label[1], target)
        if kind == "keep":
            return (EMIT, None, target)
        if kind == "check":
            sub = label[2]
            entry = self.bodies.get(id(sub))
            if entry is None:
                entry = self.lower_nfa(sub, sub=True)[sub.start]
                self.bodies[id(sub)] = entry
            return (CHECK, label[1], entry, label[3], nxt, sub)
        raise ValueError(f"unexpected label {label!r}")

    # -- compiled-executor pass ------------------------------------------

    def _jump_tables(self, roots) -> set:
        """Turn every FORK and SHIFT that the program enters from outside
        its region into a JUMPS over that region: the FORK and SHIFT
        instructions reachable from it through FORK and SHIFT alone.  Such
        steps test and write nothing, so from one vertex a region always
        reaches the same (exit, vertex) pairs, and JUMPS looks them up
        instead of stepping through the region.  Returns the instructions
        reachable from ``roots`` afterwards; region interiors are not."""
        instrs, region = self.instrs, self.region
        live: set = set()
        stack = list(roots)
        while stack:
            i = stack.pop()
            if i in live:
                continue
            live.add(i)
            if instrs[i][0] not in (FORK, SHIFT):
                stack.extend(_targets(instrs[i]))
                continue
            inner = [i]
            while inner:
                j = inner.pop()
                if j in region:  # already stepped through
                    continue
                node = instrs[j]
                if node[0] in (FORK, SHIFT):
                    region[j] = node
                    inner.extend(_targets(node))
                else:
                    stack.append(j)  # an exit, which the program runs
            instrs[i] = (JUMPS, {}, i)
        return live

    def _drop_dead(self, live: set) -> dict:
        """Keep only the ``live`` instructions, renumbered in their old
        order; returns old index -> new index."""
        new = {old: k for k, old in enumerate(sorted(live))}
        self.instrs = [_retarget(self.instrs[old], new) for old in sorted(live)]
        self.bodies = {key: new[i] for key, i in self.bodies.items()}
        return new


def lower(nfa: Nfa, board, optimize: bool) -> LoweredProgram:
    """Lower an automaton into an instruction program.  With ``optimize``
    (the compiled executor) epsilon edges are eliminated first, then the
    jump-table pass runs and dead instructions are dropped, so ``entry``
    maps only control nodes (switch targets); without it (the
    interpreter) the automaton is lowered as it is."""
    if optimize:
        nfa = eliminate_epsilon(nfa)
    low = _Lowerer()
    entry = low.lower_nfa(nfa, sub=False)
    if not optimize:
        return LoweredProgram(low.instrs, entry, low.bodies, board.neighbors)
    controls = {
        target
        for out in nfa.edges
        for label, target in out
        if label[0] in ("switch", "keep")
    }
    entry = {n: entry[n] for n in sorted(controls)}
    new = low._drop_dead(
        low._jump_tables([*entry.values(), *low.bodies.values()])
    )
    return LoweredProgram(
        low.instrs,
        {n: new[i] for n, i in entry.items()},
        low.bodies,
        board.neighbors,
        low.region,
        new,
    )


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
            who = "keep" if instr[1] is None else f"player{instr[1]}"
            lines.append(f"{i:4d}: {name} {who} @node{instr[2]}")
        elif op == JUMPS:
            size, exits = region_exits(program, instr[2])
            targets = " ".join(str(t) for t in exits)
            lines.append(f"{i:4d}: {name} ({size} fork/shift) -> [{targets}]")
        elif op == CHECK:
            sign = "?" if instr[1] else "!"
            pure = "pure" if instr[3] else "impure"
            lines.append(
                f"{i:4d}: {name}{sign} sub@{instr[2]} ({pure}) -> {instr[4]}"
            )
        else:
            lines.append(f"{i:4d}: {name}")
    return "\n".join(lines) + "\n"
