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

    def delta_texts(self, state: GameState, moves) -> list[str]:
        """``encode_delta(move_delta(state, m), ...)`` for each move, in one
        pass from cached tokens: later writes win and no-op writes are
        dropped.  The ``;var:...;mover=n`` suffix is built once per distinct
        tuple of non-cell effects in ``moves``."""
        contents = state.contents
        tokens = self.cell_tokens
        suffixes: dict = {}
        texts: list[str] = []
        add = texts.append
        for move in moves:
            one = cells = None
            rest = ()
            for eff in move.effects:
                if eff[0] != "cell":
                    rest += (eff,)
                elif one is None:
                    one = eff
                elif cells is None:
                    cells = {one[1]: one[2], eff[1]: eff[2]}
                else:
                    cells[eff[1]] = eff[2]
            suffix = suffixes.get(rest)
            if suffix is None:
                suffix = suffixes[rest] = _delta_suffix(state, rest)
            if cells is not None:
                changed = [tokens[v][p] for v, p in cells.items() if contents[v] != p]
                changed.sort()
                add(",".join(changed) + suffix)
            elif one is None or contents[one[1]] == one[2]:
                add(suffix)
            else:
                add(tokens[one[1]][one[2]] + suffix)
        return texts

    def delta_text(self, state: GameState, move: Move) -> str:
        """The delta text of one move (``delta_texts``)."""
        return self.delta_texts(state, (move,))[0]

    def sort_moves(self, state: GameState, moves: list[Move]) -> list[Move]:
        """Canonical order: delta text, then raw effect text among moves
        with equal delta text; moves equal in both keep their input order.
        Keys the generator attached are used when every move carries
        one; otherwise each move gets its delta text as its ``key``."""
        if moves and moves[0].key is not None:
            keys = [m.key for m in moves]
            if None not in keys:
                return self.order_by_keys(moves, keys)
        keys = self.delta_texts(state, moves)
        for m, text in zip(moves, keys):
            m.key = text
        return self.order_by_keys(moves, keys)

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


def _delta_suffix(state: GameState, effects) -> str:
    """The ``;var:...;mover=n`` end of a delta text, from a move's non-cell
    effects: later assignments win, unchanged variables are dropped."""
    variables = {}
    mover = state.mover
    for eff in effects:
        if eff[0] == "pass":
            mover = eff[1]
        else:
            variables[eff[1]] = eff[2]
    old = state.variables
    text = "".join(
        f";var:{name}={variables[name]}"
        for name in sorted(variables)
        if old.get(name, 0) != variables[name]
    )
    return f"{text};mover={mover}"


def tail_delta_text(
    state: GameState, prefix, vertex: int, piece, rest: tuple, tokens, suffixes
):
    """The delta text (``Engine.delta_texts``) of a move made of the
    effects ``prefix``, then a write of ``piece`` at ``vertex`` (none when
    ``piece`` is None), then the non-cell effects ``rest``; None when
    ``prefix`` holds more than one cell write.  ``tokens`` is
    ``Engine.cell_tokens``; ``suffixes`` maps non-cell effects to their
    ``;var:...;mover=n`` end and is shared only by moves of one state."""
    one = None
    pre = ()
    for eff in prefix:
        if eff[0] != "cell":
            pre += (eff,)
        elif one is None:
            one = eff
        else:
            return None
    if pre:
        rest = pre + rest
    suffix = suffixes.get(rest)
    if suffix is None:
        suffix = suffixes[rest] = _delta_suffix(state, rest)
    contents = state.contents
    if one is not None and (
        one[1] == vertex and piece is not None or contents[one[1]] == one[2]
    ):
        one = None  # overwritten by the tail's write, or a no-op
    if piece is not None and contents[vertex] != piece:
        text = tokens[vertex][piece]
        if one is not None:
            other = tokens[one[1]][one[2]]
            text = f"{text},{other}" if text < other else f"{other},{text}"
        return text + suffix
    if one is not None:
        return tokens[one[1]][one[2]] + suffix
    return suffix


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
