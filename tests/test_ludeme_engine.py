"""Ludemic evaluator against independent oracles.

Oracles here are deliberately written from the game rules directly,
without reusing any engine machinery: a full tic-tac-toe tree enumerator,
a reference Reversi move generator, a geometric Amazons ray counter, and
a hex connectivity checker over random fills.
"""

import random

import pytest

from ggs import library
from ggs.core.board import build_hex_board
from ggs.core.model import NO_VERTEX
from ggs.core.playout import run_playout
from ggs.ludeme.compile import compile_ludemic
from ggs.ludeme.engine import (
    LudemicEngine,
    ShootWithoutContext,
    adjacency,
    region_connected,
)

from ludemic_helpers import detect_line


def engine_for(name):
    return LudemicEngine(
        compile_ludemic(library.load_description(name, "ludemic"))
    )


# -- unit behavior ------------------------------------------------------


def test_detect_line_axes():
    eng = engine_for("tictactoe")
    b = eng.board
    ids = frozenset({1})
    assert detect_line(b, [1, 1, 1, 0, 0, 0, 0, 0, 0], 1, ids, 3)
    assert detect_line(b, [1, 0, 0, 0, 1, 0, 0, 0, 1], 4, ids, 3)
    assert detect_line(b, [0, 0, 1, 0, 1, 0, 1, 0, 0], 6, ids, 3)
    assert not detect_line(b, [1, 1, 0, 0, 0, 0, 0, 0, 1], 1, ids, 3)
    assert not detect_line(b, [1, 1, 1, 0, 0, 0, 0, 0, 0], NO_VERTEX, ids, 3)


def test_drop_targets_lowest_empty():
    eng = engine_for("connect4")
    state = eng.initial_state()
    moves = eng.probe(state)[0]
    # all seven drops land on the bottom row
    dests = sorted(m.destination() for m in moves)
    assert dests == [35, 36, 37, 38, 39, 40, 41]
    after = eng.apply(state, moves[0])
    second = eng.probe(after)[0]
    assert sorted(m.destination() for m in second)[0] == 28  # stacked


def test_step_rules_for_breakthrough():
    eng = engine_for("breakthrough")
    state = eng.initial_state()
    moves = eng.probe(state)[0]
    assert len(moves) == 22
    # player 1 moves up the board: destinations on row 5
    assert all(40 <= m.destination() <= 47 for m in moves)


def test_shoot_requires_context():
    eng = engine_for("amazons")
    state = eng.initial_state()
    state.turn_number = 1  # force the shoot branch with no last_to
    state.last_to = NO_VERTEX
    with pytest.raises(ShootWithoutContext):
        eng.probe(state)[0]


def test_custodial_pass_only_when_opponent_can_flip():
    eng = engine_for("reversi")
    # mover 1 has no flip, mover 2 has one: mover 1 must pass
    contents = [0] * 64
    contents[0], contents[1] = 2, 1  # w b . -> player 2 could play at 2
    state = eng.initial_state()
    state.contents = contents
    state.mover = 1
    moves = eng.probe(state)[0]
    assert len(moves) == 1 and moves[0].effects == (("pass", 2),)
    # and with no flip anywhere for either side, no moves at all
    state.contents = [0] * 64
    state.contents[0] = 1
    assert eng.probe(state)[0] == []


# -- tic-tac-toe full-tree oracle ---------------------------------------

LINES = [
    (0, 1, 2), (3, 4, 5), (6, 7, 8),
    (0, 3, 6), (1, 4, 7), (2, 5, 8),
    (0, 4, 8), (2, 4, 6),
]


def ttt_winner(cells):
    for a, b, c in LINES:
        if cells[a] != 0 and cells[a] == cells[b] == cells[c]:
            return cells[a]
    return 0


def ttt_perft(cells, mover, depth):
    if depth == 0:
        return 1
    if ttt_winner(cells) or 0 not in cells:
        return 1
    total = 0
    for i, v in enumerate(cells):
        if v == 0:
            cells[i] = mover
            total += ttt_perft(cells, 3 - mover, depth - 1)
            cells[i] = 0
    return total


def test_tictactoe_matches_enumerator():
    eng = engine_for("tictactoe")

    def perft(state, depth):
        if depth == 0:
            return 1
        moves, payoffs = eng.probe(state)
        if payoffs is not None:
            return 1
        return sum(perft(eng.apply(state, m), depth - 1) for m in moves)

    root = eng.initial_state()
    for depth in (1, 2, 3, 5, 9):
        assert perft(root, depth) == ttt_perft([0] * 9, 1, depth)


def test_tictactoe_outcomes_match_enumerator():
    eng = engine_for("tictactoe")
    for seed in range(30):
        state = eng.initial_state()
        rng = random.Random(seed)
        while True:
            moves, payoffs = eng.probe(state)
            expected_winner = ttt_winner(state.contents)
            if payoffs is not None:
                if expected_winner:
                    assert payoffs[expected_winner] == 100
                    assert payoffs[3 - expected_winner] == 0
                else:
                    assert payoffs == {1: 50, 2: 50}
                break
            state = eng.apply(state, rng.choice(moves))


# -- reversi reference move generator -----------------------------------

DIRS8 = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]


def reversi_reference_moves(cells, mover):
    """placement vertex -> resulting board, per the rules of Othello."""
    out = {}
    for r in range(8):
        for c in range(8):
            if cells[r * 8 + c] != 0:
                continue
            flips = []
            for dr, dc in DIRS8:
                run = []
                rr, cc = r + dr, c + dc
                while 0 <= rr < 8 and 0 <= cc < 8 and cells[rr * 8 + cc] == 3 - mover:
                    run.append(rr * 8 + cc)
                    rr, cc = rr + dr, cc + dc
                if run and 0 <= rr < 8 and 0 <= cc < 8 and cells[rr * 8 + cc] == mover:
                    flips.extend(run)
            if flips:
                board = list(cells)
                for v in flips:
                    board[v] = mover
                board[r * 8 + c] = mover
                out[r * 8 + c] = board
    return out


def test_reversi_matches_reference_generator():
    eng = engine_for("reversi")
    for seed in range(5):
        rng = random.Random(seed)
        state = eng.initial_state()
        for _ in range(30):
            moves, payoffs = eng.probe(state)
            if payoffs is not None:
                # terminal exactly when neither player has a flip
                assert not reversi_reference_moves(state.contents, state.mover)
                assert not reversi_reference_moves(
                    state.contents, 3 - state.mover
                )
                break
            expected = reversi_reference_moves(state.contents, state.mover)
            placements = {
                m.destination(): m for m in moves if m.effects[0][0] == "cell"
            }
            if not expected:
                assert list(moves)[0].effects == (("pass", 3 - state.mover),)
            else:
                assert set(placements) == set(expected)
                for v, m in placements.items():
                    assert eng.apply(state, m).contents == expected[v]
            state = eng.apply(state, moves[rng.randrange(len(moves))])


# -- amazons geometric ray counter --------------------------------------


def test_amazons_initial_moves_match_ray_count():
    eng = engine_for("amazons")
    state = eng.initial_state()
    cells = state.contents
    count = 0
    for v, pid in enumerate(cells):
        if pid != eng.game.piece_instance("queen", 1):
            continue
        r, c = divmod(v, 10)
        for dr, dc in DIRS8:
            rr, cc = r + dr, c + dc
            while 0 <= rr < 10 and 0 <= cc < 10 and cells[rr * 10 + cc] == 0:
                count += 1
                rr, cc = rr + dr, cc + dc
    assert count == 80
    assert len(eng.probe(state)[0]) == 80


# -- hex connectivity property ------------------------------------------


def hex_connected_reference(size, stones, side_a_pred, side_b_pred):
    seen = set()
    stack = [v for v in stones if side_a_pred(v)]
    seen.update(stack)
    while stack:
        v = stack.pop()
        if side_b_pred(v):
            return True
        r, c = divmod(v, size)
        for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1), (-1, 1), (1, -1)):
            rr, cc = r + dr, c + dc
            nv = rr * size + cc
            if 0 <= rr < size and 0 <= cc < size and nv in stones and nv not in seen:
                seen.add(nv)
                stack.append(nv)
    return False


def test_region_connected_matches_reference_on_random_fills():
    size = 7
    board = build_hex_board(size)
    rng = random.Random(99)
    for _ in range(300):
        stones = {v for v in range(size * size) if rng.random() < 0.45}
        contents = [1 if v in stones else 0 for v in range(size * size)]
        got = region_connected(
            adjacency(board), contents, frozenset({1}), board.sides["top"], board.sides["bottom"]
        )
        want = hex_connected_reference(
            size, stones, lambda v: v < size, lambda v: v >= size * (size - 1)
        )
        assert got == want


def test_hex_game_ends_exactly_on_connection():
    eng = engine_for("hex")
    result = run_playout(eng, seed=4)
    assert not result.truncated
    assert sorted(result.outcome.values()) == [0, 100]


# -- payoffs ------------------------------------------------------------


def test_bycount_toy_game():
    text = """
(game "CountToy"
 (mode 2)
 (equipment
  {
   (rectBoard 1 4)
   (disc Each)
  }
 )
 (rules
  (start { (place "Disc1" {0 1}) (place "Disc2" {2}) })
  (play (place "Disc" (in (to) (empty))))
  (end ((boardFull) (byCount "disc")))
 )
)
"""
    eng = LudemicEngine(compile_ludemic(text))
    state = eng.initial_state()
    moves, payoffs = eng.probe(state)
    assert payoffs is None
    final = eng.apply(state, moves[0])
    _, payoffs = eng.probe(final)
    assert payoffs == {1: 100, 2: 0}  # three discs to one
