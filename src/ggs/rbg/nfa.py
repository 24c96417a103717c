"""Thompson construction and epsilon elimination for rule patterns.

Elimination keeps node ids, so a control point means the same node in
both automata, and it gives edges only to the nodes the start reaches.

Edge labels are small tuples:
  ("eps",)
  ("shift", direction_index)
  ("on", frozenset of piece ids)
  ("set", piece_id)
  ("assign", ((var_name, value), ...))
  ("switch", player_index)   -- pass control
  ("keep",)                  -- end of semi-move, same mover
  ("check", positive, sub_nfa, pure)
"""

from __future__ import annotations

from dataclasses import dataclass

from . import ast
from .expand import RbgValidationError

EPS = ("eps",)


@dataclass
class Nfa:
    edges: list  # edges[node] = list of (label, target)
    start: int
    accept: int
    # Nodes from which the accept node is epsilon-reachable; filled by
    # eliminate_epsilon for the nodes the start reaches (before that,
    # only the accept node itself).
    accepting: frozenset = frozenset()


class _Builder:
    def __init__(self, resolver, in_check: bool):
        self.edges: list[list] = []
        self.resolve = resolver
        self.in_check = in_check
        self.pure = True  # no set, assign or impure check resolved yet

    def node(self) -> int:
        self.edges.append([])
        return len(self.edges) - 1

    def edge(self, a: int, label, b: int):
        self.edges[a].append((label, b))

    def build(self, pat: ast.Pattern) -> tuple[int, int]:
        if isinstance(pat, ast.Concat):
            start, acc = self.build(pat.parts[0])
            for part in pat.parts[1:]:
                s2, a2 = self.build(part)
                self.edge(acc, EPS, s2)
                acc = a2
            return start, acc
        if isinstance(pat, ast.Alt):
            s, t = self.node(), self.node()
            for part in pat.parts:
                cs, ca = self.build(part)
                self.edge(s, EPS, cs)
                self.edge(ca, EPS, t)
            return s, t
        if isinstance(pat, ast.Star):
            s, t = self.node(), self.node()
            cs, ca = self.build(pat.child)
            self.edge(s, EPS, cs)
            self.edge(s, EPS, t)
            self.edge(ca, EPS, cs)
            self.edge(ca, EPS, t)
            return s, t
        # leaves
        s, t = self.node(), self.node()
        self.edge(s, self.resolve(pat, self), t)
        return s, t


def build_nfa(pattern: ast.Pattern, context) -> Nfa:
    """Thompson automaton over a macro-free pattern.

    Every name is resolved and checked here: ``context`` gives
    direction_index(name), piece_id(name) and player_index(name), checks
    variable(name, value) against its bound, and raises on an unknown
    name.  A switch inside a check body raises ``RbgValidationError``.
    Equal check bodies (AST nodes are frozen, so equality is structural)
    share one sub-automaton, pure when it resolved no write and no
    impure check.
    """
    subs: dict = {}  # check body -> (its Nfa, whether it writes nothing)

    def resolve(pat: ast.Pattern, builder: _Builder):
        if isinstance(pat, ast.Name):
            return ("shift", context.direction_index(pat.name))
        if isinstance(pat, ast.On):
            return ("on", frozenset(context.piece_id(n) for n in pat.names))
        if isinstance(pat, ast.SetHere):
            builder.pure = False
            return ("set", context.piece_id(pat.name))
        if isinstance(pat, ast.AssignVars):
            builder.pure = False
            for name, value in pat.assigns:
                context.variable(name, value)
            return ("assign", tuple(pat.assigns))
        if isinstance(pat, ast.Check):
            body = subs.get(pat.child)
            if body is None:
                body = subs[pat.child] = build(pat.child, True)
            builder.pure &= body[1]
            return ("check", pat.positive) + body
        if isinstance(pat, (ast.SwitchTo, ast.SwitchKeep)) and builder.in_check:
            raise RbgValidationError("switch inside a lookahead check")
        if isinstance(pat, ast.SwitchTo):
            return ("switch", context.player_index(pat.name))
        if isinstance(pat, ast.SwitchKeep):
            return ("keep",)
        raise TypeError(f"cannot build NFA from {pat!r}")

    def build(pat: ast.Pattern, in_check: bool) -> tuple[Nfa, bool]:
        builder = _Builder(resolve, in_check)
        start, accept = builder.build(pat)
        return Nfa(builder.edges, start, accept, frozenset([accept])), builder.pure

    return build(pattern, False)[0]


def _eps_closure(nfa: Nfa, node: int) -> set[int]:
    seen = {node}
    stack = [node]
    while stack:
        for label, target in nfa.edges[stack.pop()]:
            if label is EPS or label == EPS:
                if target not in seen:
                    seen.add(target)
                    stack.append(target)
    return seen


def eliminate_epsilon(nfa: Nfa) -> Nfa:
    """Equivalent automaton with no epsilon edges (same node ids).

    A node's new edges are the action edges of its epsilon closure, in
    the closure's iteration order.  Only the nodes reachable from the
    start get edges, each from its closure computed once; the others
    keep none.  Lookahead sub-automata are eliminated recursively, each
    shared sub-automaton once, so sharing survives.  Acceptance becomes
    a node set: every reachable node whose closure holds the accept
    node.
    """
    done: dict[int, Nfa] = {}  # id(sub) -> its eliminated form

    def convert(label):
        if label[0] != "check":
            return label
        sub = label[2]
        if id(sub) not in done:
            done[id(sub)] = _eliminate(sub, convert)
        return ("check", label[1], done[id(sub)], label[3])

    return _eliminate(nfa, convert)


def _eliminate(nfa: Nfa, convert) -> Nfa:
    edges = nfa.edges
    queued = {nfa.start}
    new_edges: list[list] = [[] for _ in edges]
    accepting = []
    stack = [nfa.start]
    while stack:
        n = stack.pop()
        closure = _eps_closure(nfa, n)
        if nfa.accept in closure:
            accepting.append(n)
        out = new_edges[n]
        seen = set()
        for m in closure:
            for label, target in edges[m]:
                if label == EPS:
                    continue
                key = (label[0], label[1] if len(label) > 1 else None,
                       id(label[2]) if label[0] == "check" else None, target)
                if key not in seen:
                    seen.add(key)
                    out.append((convert(label), target))
                    if target not in queued:
                        queued.add(target)
                        stack.append(target)
    return Nfa(new_edges, nfa.start, nfa.accept, frozenset(accepting))
