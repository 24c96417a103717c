"""Optimizing lowering of the rules automaton into a fused instruction
program, and the compiled executor that runs it.

Passes: epsilon elimination, per-node instruction emission, Shift+On
fusion into GuardedShift, and collapsing guarded G(G)* ray shapes into a
single RayScan that emits every prefix stop in one pass over the
precomputed shift table.  Each distinct lookahead sub-automaton is
lowered once; every CHECK on it points at the same entry.  The executor
searches every lookahead body, with or without writes, as the interpreter
does: one explicit-stack search over (instruction, vertex, net tentative
writes), using the write-set helpers of ``engine``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.model import GameState, Move
from .engine import (
    LOOKAHEAD_WRITE_BUDGET,
    RbgEngineBase,
    RbgGame,
    extend_writes,
    switch_writes,
)
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
CHECK = 8     # (CHECK, positive, sub_entry, pure, next)
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
    shift_table: list  # shift_table[direction][vertex] -> vertex or OFF_BOARD


class _Lowerer:
    def __init__(self):
        self.instrs: list = []
        self.sub_entry: dict[int, int] = {}  # id(sub Nfa) -> entry index

    def add(self, instr) -> int:
        self.instrs.append(instr)
        return len(self.instrs) - 1

    def lower_nfa(self, nfa: Nfa, sub: bool) -> dict:
        """Emit instructions for one automaton; returns node -> index."""
        node_idx = {}
        for n in range(nfa.node_count):
            node_idx[n] = self.add(None)  # placeholder
        for n in range(nfa.node_count):
            branches = []
            if sub and n in nfa.accepting:
                branches.append(self.add((ACCEPT,)))
            for label, target in nfa.edges[n]:
                branches.append(self._edge(label, target, node_idx))
            if not branches:
                self.instrs[node_idx[n]] = (ACCEPT,) if sub else (FORK, ())
            else:
                self.instrs[node_idx[n]] = (FORK, tuple(branches))
        return node_idx

    def _edge(self, label, target: int, node_idx: dict) -> int:
        kind = label[0]
        nxt = node_idx[target]
        if kind == "shift":
            return self.add((SHIFT, label[1], nxt))
        if kind == "on":
            return self.add((ON, label[1], nxt))
        if kind == "set":
            return self.add((SET, label[1], nxt))
        if kind == "assign":
            return self.add((ASSIGN, label[1], nxt))
        if kind == "switch":
            return self.add((EMIT, label[1], target))
        if kind == "keep":
            return self.add((EMIT, None, target))
        if kind == "check":
            sub = label[2]
            entry = self.sub_entry.get(id(sub))
            if entry is None:
                entry = self.lower_nfa(sub, sub=True)[sub.start]
                self.sub_entry[id(sub)] = entry
            return self.add((CHECK, label[1], entry, label[3], nxt))
        raise ValueError(f"unexpected label {label!r}")

    # -- peephole passes ------------------------------------------------

    def simplify(self):
        self._collapse_single_forks()
        self._fuse_guarded_shifts()
        self._build_rayscans()

    def _resolve(self, idx: int) -> int:
        # Follow single-branch forks to their only target.
        seen = set()
        while True:
            instr = self.instrs[idx]
            if instr[0] == FORK and len(instr[1]) == 1 and idx not in seen:
                seen.add(idx)
                idx = instr[1][0]
            else:
                return idx

    def _collapse_single_forks(self):
        out = []
        for instr in self.instrs:
            op = instr[0]
            if op == FORK:
                out.append((FORK, tuple(self._resolve(t) for t in instr[1])))
            elif op in (SHIFT, ON, SET, ASSIGN):
                out.append(instr[:-1] + (self._resolve(instr[-1]),))
            elif op == GSHIFT:
                out.append((GSHIFT, instr[1], instr[2], self._resolve(instr[3])))
            elif op == RAYSCAN:
                out.append((RAYSCAN, instr[1], instr[2], self._resolve(instr[3])))
            elif op == CHECK:
                out.append(
                    (CHECK, instr[1], self._resolve(instr[2]), instr[3],
                     self._resolve(instr[4]))
                )
            else:
                out.append(instr)
        self.instrs = out

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


def lower(nfa: Nfa, board) -> LoweredProgram:
    """Lower an automaton (epsilon edges allowed; they are eliminated
    first) into a fused instruction program."""
    if any(label[0] == "eps" for out in nfa.edges for label, _ in out):
        nfa = eliminate_epsilon(nfa)
    low = _Lowerer()
    node_idx = low.lower_nfa(nfa, sub=False)
    low.simplify()
    entry = {n: low._resolve(i) for n, i in node_idx.items()}
    return LoweredProgram(low.instrs, entry, board.neighbors)


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


class RbgCompiledEngine(RbgEngineBase):
    """Executor over the lowered program; contract-identical to the
    interpreter (same sorted move lists)."""

    mode = "rbg-compiled"

    def __init__(self, game: RbgGame):
        super().__init__(game)
        self.program = lower(game.nfa, game.board)
        self._effect_cap = 4 * game.board.vertex_count + 64

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
                raise RuntimeError("runaway effect sequence in rules pattern")
            so_far = tuple(effects)
            key = (idx, vertex, so_far)
            if key in visited:
                return
            visited.add(key)
            instr = instrs[idx]
            op = instr[0]
            if op == GSHIFT:
                nv = shift[instr[1]][vertex]
                if nv >= 0 and contents[nv] in instr[2]:
                    walk(instr[3], nv)
            elif op == RAYSCAN:
                table = shift[instr[1]]
                ps, cont = instr[2], instr[3]
                nv = table[vertex]
                while nv >= 0 and contents[nv] in ps:
                    walk(cont, nv)
                    nv = table[nv]
            elif op == FORK:
                for t in instr[1]:
                    walk(t, vertex)
            elif op == SHIFT:
                nv = shift[instr[1]][vertex]
                if nv >= 0:
                    walk(instr[2], nv)
            elif op == ON:
                if contents[vertex] in instr[1]:
                    walk(instr[2], vertex)
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
                        instr[2], vertex, contents, variables, instr[3]
                    )
                if hit == instr[1]:
                    walk(instr[4], vertex)
            # ACCEPT unreachable in the main program

        walk(prog.entry[state.control], state.current_vertex)
        return list(found.values())

    def _exists(self, entry: int, vertex: int, contents, variables, pure) -> bool:
        """Existence search for a lookahead body; see the interpreter's."""
        instrs = self.program.instrs
        shift = self.program.shift_table
        start = (entry, vertex, ())
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
                if op == GSHIFT:
                    nv = shift[instr[1]][v]
                    if nv < 0 or contents[nv] not in instr[2]:
                        continue
                    nxt = (instr[3], nv, writes)
                elif op == RAYSCAN:
                    table = shift[instr[1]]
                    ps, cont = instr[2], instr[3]
                    nv = table[v]
                    while nv >= 0 and contents[nv] in ps:
                        nxt = (cont, nv, writes)
                        if nxt not in seen:
                            seen.add(nxt)
                            stack.append(nxt)
                        nv = table[nv]
                    continue
                elif op == SHIFT:
                    nv = shift[instr[1]][v]
                    if nv < 0:
                        continue
                    nxt = (instr[2], nv, writes)
                elif op == ON:
                    if contents[v] not in instr[1]:
                        continue
                    nxt = (instr[2], v, writes)
                elif op == CHECK:
                    if self._exists(
                        instr[2], v, contents, variables, instr[3]
                    ) != instr[1]:
                        continue
                    nxt = (instr[4], v, writes)
                else:  # SET or ASSIGN; EMIT cannot occur inside checks
                    budget -= 1
                    if budget < 0:
                        raise RuntimeError("runaway mutation in lookahead")
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
