"""Lowering of a rules automaton into an instruction program.

Both rbg executors run a program built by this one lowering.  Every
automaton node becomes one instruction: a node with exactly one action
edge is that edge's instruction, a check-body node that only accepts is
ACCEPT, and any other node is a FORK whose branches are its ACCEPT, its
action edges and, for each epsilon edge, the target node's instruction.
``entry`` maps every node to its instruction, so control points (the
node after a switch) mean the same in both programs.  Each distinct
lookahead sub-automaton is lowered once; every CHECK on it points at the
same entry.

The interpreter lowers the raw Thompson automaton and runs no pass, so
it follows every epsilon edge at run time.  The compiled executor
lowers the automaton after epsilon elimination and then fuses Shift+On
into GuardedShift and collapses guarded G(G)* ray shapes into a single
RayScan that emits every prefix stop in one pass over the precomputed
shift table.
"""

from __future__ import annotations

from dataclasses import dataclass

from .nfa import Nfa, eliminate_epsilon

# Instruction opcodes.  Every instruction is a tuple whose first element
# is the opcode; `next` fields are instruction indices.
FORK = 0      # (FORK, (idx, ...))
SHIFT = 1     # (SHIFT, dir, next)
ON = 2        # (ON, pieceset, next)
GSHIFT = 3    # (GSHIFT, dir, pieceset, next)
SET = 4       # (SET, piece, next)
ASSIGN = 5    # (ASSIGN, assigns, next)
EMIT = 6      # (EMIT, player_or_None, control_node)  None => keep mover
RAYSCAN = 7   # (RAYSCAN, dir, pieceset, cont)
CHECK = 8     # (CHECK, positive, sub_entry, pure, next, sub_nfa)
ACCEPT = 9    # (ACCEPT,)

_NAMES = {
    FORK: "fork",
    SHIFT: "shift",
    ON: "on",
    GSHIFT: "gshift",
    SET: "set",
    ASSIGN: "assign",
    EMIT: "emit",
    RAYSCAN: "rayscan",
    CHECK: "check",
    ACCEPT: "accept",
}


@dataclass
class LoweredProgram:
    instrs: list
    entry: dict  # nfa node id -> instruction index (main program)
    bodies: dict  # id(check body Nfa) -> entry index of its sub-program
    shift_table: list  # shift_table[direction][vertex] -> vertex or OFF_BOARD


class _Lowerer:
    def __init__(self):
        self.instrs: list = []
        self.bodies: dict[int, int] = {}  # id(sub Nfa) -> entry index

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

    # -- peephole passes ------------------------------------------------

    def _fuse_guarded_shifts(self):
        for i, instr in enumerate(self.instrs):
            if instr[0] != SHIFT:
                continue
            nxt = self.instrs[instr[2]]
            if nxt[0] == ON:
                self.instrs[i] = (GSHIFT, instr[1], nxt[1], nxt[2])

    def _build_rayscans(self):
        for i, instr in enumerate(self.instrs):
            if instr[0] != GSHIFT:
                continue
            _, d, ps, nxt = instr
            fork = self.instrs[nxt]
            if fork[0] != FORK:
                continue
            loop = [
                t
                for t in fork[1]
                if self.instrs[t][0] == GSHIFT
                and self.instrs[t][1] == d
                and self.instrs[t][2] == ps
                and self.instrs[t][3] == nxt
            ]
            rest = [t for t in fork[1] if t not in loop]
            if not loop or not rest:
                continue
            if len(rest) == 1:
                cont = rest[0]
            else:
                cont = self.add((FORK, tuple(rest)))
            self.instrs[i] = (RAYSCAN, d, ps, cont)


def lower(nfa: Nfa, board, optimize: bool) -> LoweredProgram:
    """Lower an automaton into an instruction program.  With ``optimize``
    (the compiled executor) epsilon edges are eliminated first and the
    fusion and ray-scan passes run; without it (the interpreter) the
    automaton is lowered as it is."""
    if optimize:
        nfa = eliminate_epsilon(nfa)
    low = _Lowerer()
    entry = low.lower_nfa(nfa, sub=False)
    if optimize:
        low._fuse_guarded_shifts()
        low._build_rayscans()
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
        elif op in (SHIFT,):
            lines.append(f"{i:4d}: {name} d{instr[1]} -> {instr[2]}")
        elif op == ON:
            pieces = ",".join(str(p) for p in sorted(instr[1]))
            lines.append(f"{i:4d}: {name} {{{pieces}}} -> {instr[2]}")
        elif op == GSHIFT:
            pieces = ",".join(str(p) for p in sorted(instr[2]))
            lines.append(f"{i:4d}: {name} d{instr[1]} {{{pieces}}} -> {instr[3]}")
        elif op == SET:
            lines.append(f"{i:4d}: {name} p{instr[1]} -> {instr[2]}")
        elif op == ASSIGN:
            assigns = ",".join(f"{n}={v}" for n, v in instr[1])
            lines.append(f"{i:4d}: {name} {assigns} -> {instr[2]}")
        elif op == EMIT:
            who = "keep" if instr[1] is None else f"player{instr[1]}"
            lines.append(f"{i:4d}: {name} {who} @node{instr[2]}")
        elif op == RAYSCAN:
            pieces = ",".join(str(p) for p in sorted(instr[2]))
            lines.append(f"{i:4d}: {name} d{instr[1]} {{{pieces}}} -> {instr[3]}")
        elif op == CHECK:
            sign = "?" if instr[1] else "!"
            pure = "pure" if instr[3] else "impure"
            lines.append(
                f"{i:4d}: {name}{sign} sub@{instr[2]} ({pure}) -> {instr[4]}"
            )
        else:
            lines.append(f"{i:4d}: {name}")
    return "\n".join(lines) + "\n"
