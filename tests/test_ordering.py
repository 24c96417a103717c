"""Canonical move order: ``Engine.delta_text`` and ``Engine.sort_moves``
against the reference encoders in ``core/model.py``."""

import pytest

from ggs import library
from ggs.core.board import build_rectangle_board
from ggs.core.model import (
    GameState,
    Move,
    encode_delta,
    encode_effects,
    move_delta,
)
from ggs.core.playout import Engine
from ggs.core.rng import Prng

# Plies per walk; Gomoku states list ~225 moves, so its walks stay short.
WALK_PLIES = {
    "Amazons": 6,
    "Breakthrough": 30,
    "Connect-4": 42,
    "Gomoku": 3,
    "Hex": 20,
    "Reversi": 40,
    "Tic-Tac-Toe": 9,
}
WALKS = 2


def reference_order(engine, state, moves):
    board, symbols = engine.board, engine.piece_symbols
    return sorted(
        moves,
        key=lambda m: (
            encode_delta(move_delta(state, m), board, symbols),
            encode_effects(m, board, symbols),
        ),
    )


def generated(engine, state):
    """Moves in generation order, before canonical sorting."""
    if engine.mode == "ludemic":
        return engine._generate(state, state.mover)
    return engine.semimoves(state)


@pytest.mark.parametrize("mode", ("interpreter", "compiled", "ludemic"))
@pytest.mark.parametrize("game", sorted(WALK_PLIES))
def test_order_matches_reference_on_walks(game, mode):
    engine = library.make_engine(game, mode)
    board, symbols = engine.board, engine.piece_symbols
    for walk in range(WALKS):
        rng = Prng(walk)
        state = engine.initial_state()
        for _ in range(WALK_PLIES[game]):
            raw = generated(engine, state)
            for m in raw:
                assert engine.delta_text(state, m) == encode_delta(
                    move_delta(state, m), board, symbols
                )
            shuffled = list(raw)
            for i in range(len(shuffled) - 1, 0, -1):
                j = rng.uniform_index(i + 1)
                shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
            for moves in (raw, shuffled, shuffled[::-1]):
                got = engine.sort_moves(state, moves)
                want = reference_order(engine, state, moves)
                assert [id(m) for m in got] == [id(m) for m in want]
            moves, payoffs = engine.probe(state)
            if payoffs is not None:
                break
            state = engine.apply(state, moves[rng.uniform_index(len(moves))])


class BoardOnly(Engine):
    """Just enough of an engine to sort moves on a 10x10 board."""

    def __init__(self, symbols=("e", "X", "Y")):
        self.board = build_rectangle_board(10, 10)
        self.piece_symbols = symbols


def cell(name, piece, board):
    return ("cell", board.decode_coord(name), piece)


def state(**variables):
    return GameState(contents=[0] * 100, mover=1, variables=variables)


def check(engine, s, moves, expected):
    for m in moves:
        assert engine.delta_text(s, m) == encode_delta(
            move_delta(s, m), engine.board, engine.piece_symbols
        )
    got = engine.sort_moves(s, moves)
    assert [id(m) for m in got] == [id(m) for m in reference_order(engine, s, moves)]
    assert [id(m) for m in got] == [id(m) for m in expected]


def test_a1_sorts_after_a10_and_after_its_own_two_cell_extension():
    # Byte order of the joined text: "0" < "=" puts a10 before a1, and
    # "," < ";" puts a1+b1 before a1 alone. A key made of the tuple of
    # cell tokens would put a1 alone first, since a prefix tuple sorts low.
    eng = BoardOnly()
    b = eng.board
    a1 = Move((cell("a1", 1, b), ("pass", 2)))
    a10 = Move((cell("a10", 1, b), ("pass", 2)))
    a1b1 = Move((cell("b1", 2, b), cell("a1", 1, b), ("pass", 2)))
    s = state()
    assert eng.delta_text(s, a1) == "cell:a1=X;mover=2"
    assert eng.delta_text(s, a10) == "cell:a10=X;mover=2"
    assert eng.delta_text(s, a1b1) == "cell:a1=X,cell:b1=Y;mover=2"
    check(eng, s, [a1, a10, a1b1], [a10, a1b1, a1])
    check(eng, s, [a1b1, a1, a10], [a10, a1b1, a1])


def test_var_changes_drop_noops_and_sort_by_name():
    eng = BoardOnly()
    b = eng.board
    s = state(white=0, black=5)
    m = Move((("var", "white", 3), ("var", "black", 5), ("var", "extra", 1),
              cell("c3", 1, b), ("pass", 2)))
    assert eng.delta_text(s, m) == "cell:c3=X;var:extra=1;var:white=3;mover=2"
    undone = Move((("var", "white", 3), ("var", "white", 0), ("pass", 2)))
    assert eng.delta_text(s, undone) == ";mover=2"
    check(eng, s, [m, undone], [undone, m])


def test_pass_only_and_noop_cell_deltas_are_empty():
    eng = BoardOnly()
    b = eng.board
    s = state()
    s.contents[b.decode_coord("d4")] = 1
    pass_only = Move((("pass", 2),))
    noop = Move((cell("d4", 1, b),))
    overwritten = Move((cell("e5", 2, b), cell("e5", 0, b)))
    assert eng.delta_text(s, pass_only) == ";mover=2"
    assert eng.delta_text(s, noop) == ";mover=1"
    assert eng.delta_text(s, overwritten) == ";mover=1"
    check(eng, s, [pass_only, noop, overwritten], [noop, overwritten, pass_only])


def test_equal_deltas_fall_back_to_effect_text_and_keep_input_order():
    eng = BoardOnly()
    b = eng.board
    s = state()
    keep = Move((cell("a1", 1, b),), replay=True)
    plain = Move((cell("a1", 1, b),))
    twice = Move((cell("a1", 2, b), cell("a1", 1, b)))
    plain_again = Move((cell("a1", 1, b),))
    other = Move((cell("a2", 1, b),))
    texts = {eng.delta_text(s, m) for m in (keep, plain, twice, plain_again)}
    assert texts == {"cell:a1=X;mover=1"}
    # "set:a1=X" < "set:a1=X|keep" < "set:a1=Y|set:a1=X"; the two plain
    # moves are equal in both keys and keep their input order.
    check(eng, s, [twice, plain_again, other, keep, plain],
          [plain_again, plain, keep, twice, other])
    check(eng, s, [plain, keep, twice, plain_again],
          [plain, plain_again, keep, twice])
