"""Shared state, move and delta representations.

Both front-ends speak this currency: a move is an ordered effect sequence,
and a state delta is the net change a move makes, used for canonical move
ordering and cross-dialect comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .board import BoardGraph

NEUTRAL = 0
NO_VERTEX = -1

# Effects are small tuples for speed:
#   ("cell", vertex, piece_id)
#   ("var", name, value)
#   ("pass", player)        player is a 1-based index
Effect = tuple


class IllegalMove(ValueError):
    """Raised when a move is applied to a state it is not legal in."""


@dataclass(frozen=True)
class PieceTable:
    symbols: tuple[str, ...]
    empty_id: int
    owner_of: tuple[int, ...]  # player index (1-based) or NEUTRAL

    def __post_init__(self):
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("duplicate piece symbols")
        if not 0 <= self.empty_id < len(self.symbols):
            raise ValueError("invalid empty piece id")

    def id_of(self, symbol: str) -> int:
        return self.symbols.index(symbol)


@dataclass
class GameState:
    contents: list[int]
    mover: int  # 1-based player index
    variables: dict[str, int]
    turn_number: int = 0
    control: object = None  # front-end-owned control point
    last_to: int = NO_VERTEX
    current_vertex: int = 0

    def clone(self) -> "GameState":
        return GameState(
            list(self.contents),
            self.mover,
            dict(self.variables),
            self.turn_number,
            self.control,
            self.last_to,
            self.current_vertex,
        )

    def key(self) -> tuple:
        """Full-fidelity hashable identity, used for perft memoization."""
        return (
            bytes(self.contents),
            self.mover,
            tuple(sorted(self.variables.items())),
            self.turn_number,
            self.control,
            self.last_to,
            self.current_vertex,
        )


@dataclass
class Move:
    effects: tuple[Effect, ...]
    replay: bool = False
    # Private front-end payload (automaton node for the regex dialect).
    control: object = None
    # Canonical ordering key for the state the move was listed in, set by
    # the generator or by ``Engine.sort_moves``; equal keys mean equal
    # state deltas.  Not part of the move's identity.
    key: object = field(default=None, compare=False, repr=False)

    def destination(self) -> int:
        """Last cell written by this move, or NO_VERTEX."""
        for eff in reversed(self.effects):
            if eff[0] == "cell":
                return eff[1]
        return NO_VERTEX


@dataclass(frozen=True)
class StateDelta:
    cell_changes: tuple[tuple[int, int], ...]  # (vertex, new piece id)
    var_changes: tuple[tuple[str, int], ...]
    next_mover: int


def move_delta(state: GameState, move: Move) -> StateDelta:
    """Net change of a move: no-op writes dropped, later writes win."""
    cells: dict[int, int] = {}
    variables: dict[str, int] = {}
    mover = state.mover
    for eff in move.effects:
        kind = eff[0]
        if kind == "cell":
            cells[eff[1]] = eff[2]
        elif kind == "var":
            variables[eff[1]] = eff[2]
        elif kind == "pass":
            mover = eff[1]
    cell_changes = tuple(
        sorted((v, p) for v, p in cells.items() if state.contents[v] != p)
    )
    var_changes = tuple(
        sorted(
            (name, val)
            for name, val in variables.items()
            if state.variables.get(name, 0) != val
        )
    )
    return StateDelta(cell_changes, var_changes, mover)


def encode_delta(delta: StateDelta, board: BoardGraph, symbols) -> str:
    """Canonical text form: cell entries, var entries, then the mover."""
    cells = sorted(
        f"cell:{board.encode_coord(v)}={symbols[p]}" for v, p in delta.cell_changes
    )
    parts = [",".join(cells)]
    for name, val in sorted(delta.var_changes):
        parts.append(f";var:{name}={val}")
    parts.append(f";mover={delta.next_mover}")
    return "".join(parts)


def encode_effects(move: Move, board: BoardGraph, symbols) -> str:
    """Stable text form of the raw effect sequence (sort tiebreak)."""
    out = []
    for eff in move.effects:
        kind = eff[0]
        if kind == "cell":
            out.append(f"set:{board.encode_coord(eff[1])}={symbols[eff[2]]}")
        elif kind == "var":
            out.append(f"var:{eff[1]}={eff[2]}")
        else:
            out.append(f"pass:{eff[1]}")
    if move.replay:
        out.append("keep")
    return "|".join(out)


def apply_effects(state: GameState, move: Move) -> GameState:
    """Apply a move's effects in order to a copy of the state."""
    nxt = state.clone()
    for eff in move.effects:
        kind = eff[0]
        if kind == "cell":
            nxt.contents[eff[1]] = eff[2]
        elif kind == "var":
            nxt.variables[eff[1]] = eff[2]
        else:
            nxt.mover = eff[1]
    nxt.turn_number += 1
    dest = move.destination()
    if dest != NO_VERTEX:
        nxt.last_to = dest
    return nxt
