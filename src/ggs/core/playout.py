"""Generic engine interface and the flat Monte Carlo playout driver."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import groupby

from .board import BoardGraph
from .model import GameState, Move, encode_effects
from .rng import Prng

DEFAULT_MAX_PLIES = 1000


class EngineFault(RuntimeError):
    """A front-end reported a non-terminal state with no legal moves."""


class Engine:
    """Common surface both front-ends implement.

    Subclasses provide:
      board: BoardGraph
      player_count: int
      piece_symbols: sequence mapping piece id -> display symbol
      initial_state() -> GameState
      probe(state) -> (sorted legal moves, payoffs dict or None)
      apply(state, move) -> GameState
    ``probe`` computes legal moves at most once; payoffs is a mapping
    player index -> payoff in {0, 50, 100} when the state is terminal.
    """

    board: BoardGraph
    player_count: int
    piece_symbols: tuple[str, ...]

    def initial_state(self) -> GameState:
        raise NotImplementedError

    def probe(self, state: GameState):
        raise NotImplementedError

    def apply(self, state: GameState, move: Move) -> GameState:
        raise NotImplementedError

    # -- shared helpers -------------------------------------------------

    @cached_property
    def cell_tokens(self) -> tuple[tuple[str, ...], ...]:
        """``cell_tokens[vertex][piece]`` is the delta text of one cell write."""
        board, symbols = self.board, self.piece_symbols
        return tuple(
            tuple(f"cell:{board.encode_coord(v)}={s}" for s in symbols)
            for v in range(board.vertex_count)
        )

    def delta_text(self, state: GameState, move: Move) -> str:
        """``encode_delta(move_delta(state, move), ...)`` from cached tokens."""
        cells = {}
        variables = None
        mover = state.mover
        for eff in move.effects:
            kind = eff[0]
            if kind == "cell":
                cells[eff[1]] = eff[2]
            elif kind == "pass":
                mover = eff[1]
            elif kind == "var":
                if variables is None:
                    variables = {}
                variables[eff[1]] = eff[2]
        contents = state.contents
        tokens = self.cell_tokens
        changed = [tokens[v][p] for v, p in cells.items() if contents[v] != p]
        changed.sort()
        text = ",".join(changed)
        if variables:
            old = state.variables
            for name in sorted(variables):
                val = variables[name]
                if old.get(name, 0) != val:
                    text += f";var:{name}={val}"
        return f"{text};mover={mover}"

    def sort_moves(self, state: GameState, moves: list[Move]) -> list[Move]:
        """Canonical order: delta text, then raw effect text among moves
        with equal delta text; moves equal in both keep their input order.
        Each move keeps its delta text as its ``key``."""
        delta_text = self.delta_text
        texts = [delta_text(state, m) for m in moves]
        for m, text in zip(moves, texts):
            m.key = text
        return self.order_by_keys(moves, texts)

    def order_by_keys(self, moves: list[Move], keys: list) -> list[Move]:
        """Sort by ``keys`` (ordered as the delta texts), then by raw effect
        text among equal keys; full ties keep their input order."""
        order = sorted(range(len(moves)), key=keys.__getitem__)
        if len(set(keys)) == len(keys):
            return [moves[i] for i in order]
        board, symbols = self.board, self.piece_symbols
        out = []
        for _, run in groupby(order, key=keys.__getitem__):
            group = [moves[i] for i in run]
            if len(group) > 1:
                group.sort(key=lambda m: encode_effects(m, board, symbols))
            out += group
        return out


@dataclass
class PlayoutResult:
    move_count: int
    outcome: dict[int, int]
    truncated: bool


def run_playout(
    engine: Engine, seed: int, max_length: int = DEFAULT_MAX_PLIES
) -> PlayoutResult:
    """Play uniformly random legal moves until terminal or max_length."""
    if max_length < 1:
        raise ValueError("max_length must be positive")
    rng = Prng(seed)
    state = engine.initial_state()
    count = 0
    while count < max_length:
        moves, payoffs = engine.probe(state)
        if payoffs is not None:
            return PlayoutResult(count, payoffs, False)
        if not moves:
            raise EngineFault(
                f"no legal moves and no terminal rule fired at ply {count}"
            )
        state = engine.apply(state, moves[rng.uniform_index(len(moves))])
        count += 1
    draw = {p: 50 for p in range(1, engine.player_count + 1)}
    return PlayoutResult(count, draw, True)
