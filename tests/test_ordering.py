"""Canonical move order: ``Engine.delta_texts`` and ``Engine.sort_moves``
against the reference encoders in ``core/model.py``."""

import pytest
from hypothesis import given, settings, strategies as st

from ggs import library
from ggs.core.board import build_rectangle_board
from ggs.core.model import (
    GameState,
    Move,
    encode_delta,
    encode_effects,
    move_delta,
)
from ggs.core import playout
from ggs.core.playout import Engine
from ggs.core.rng import Prng
from ggs.rbg.engine import RbgCompiledEngine, RbgInterpreterEngine

from test_rbg_engine import micro_game

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
            assert engine.delta_texts(state, raw) == [
                encode_delta(move_delta(state, m), board, symbols) for m in raw
            ]
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
    assert engine.delta_texts(s, moves) == [
        encode_delta(move_delta(s, m), engine.board, engine.piece_symbols)
        for m in moves
    ]
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


# A few cells of the 10x10 board (a10, b10, a9, a1, j1) so that writes
# collide; "extra" is a variable no drawn state defines.
CELLS = (0, 1, 10, 90, 99)
VARIABLES = ("white", "black", "extra")
cell_writes = st.tuples(
    st.just("cell"), st.sampled_from(CELLS), st.integers(0, 2)
)
other_effects = st.one_of(
    st.tuples(st.just("var"), st.sampled_from(VARIABLES), st.integers(0, 2)),
    st.tuples(st.just("pass"), st.integers(1, 3)),
)


@st.composite
def moves_sharing_suffixes(draw):
    """A state and a move list whose non-cell effects come from a small
    pool, each interleaved with its own cell writes."""
    contents = [0] * 100
    for v in CELLS:
        contents[v] = draw(st.integers(0, 2))
    variables = draw(
        st.dictionaries(st.sampled_from(VARIABLES[:2]), st.integers(0, 2))
    )
    s = GameState(contents, draw(st.integers(1, 2)), variables)
    pool = draw(st.lists(st.lists(other_effects, max_size=4), min_size=1,
                         max_size=3))
    moves = []
    for _ in range(draw(st.integers(0, 12))):
        rest = list(draw(st.sampled_from(pool)))
        cells = draw(st.lists(cell_writes, max_size=4))
        effects = []
        while rest or cells:
            take_cell = cells and (not rest or draw(st.booleans()))
            effects.append((cells if take_cell else rest).pop(0))
        moves.append(Move(tuple(effects), replay=draw(st.booleans())))
    return s, moves


@settings(max_examples=300, deadline=None, database=None)
@given(drawn=moves_sharing_suffixes())
def test_delta_texts_match_reference_on_drawn_batches(drawn):
    eng = BoardOnly()
    s, moves = drawn
    # the same moves in a state with another mover and other variables:
    # nothing built for one call may leak into the next
    other = GameState(list(s.contents), 3 - s.mover, {"white": 1, "black": 1})
    for at in (s, other, s):
        want = [
            encode_delta(move_delta(at, m), eng.board, eng.piece_symbols)
            for m in moves
        ]
        assert eng.delta_texts(at, moves) == want
        assert [eng.delta_text(at, m) for m in moves] == want


def test_hex_first_probe_builds_its_suffix_once(monkeypatch):
    engine = library.make_engine("Hex", "compiled")
    calls = []
    build = playout._delta_suffix

    def spy(state, effects):
        calls.append(effects)
        return build(state, effects)

    monkeypatch.setattr(playout, "_delta_suffix", spy)
    moves, _ = engine.probe(engine.initial_state())
    assert len(moves) == 121
    assert len(calls) == 1
    assert {m.key[m.key.index(";"):] for m in moves} == {
        ";var:red=100;mover=2"
    }


# -- keys the rbg walker attaches at its EMITs ---------------------------

# Turn pieces over a 2x3 board of e, w, b: steps that move or test,
# writes, and the ends of a turn.  Stars hold steps only, so every turn
# has finitely many effect sequences.
STEPS = ("(right)", "(left)", "(down)", "(up)", "(right)*", "{e}", "{w, b}")
CELL_WRITES = ("[e]", "[w]", "[b]")
VAR_WRITES = ("[$ p=0]", "[$ p=1]", "[$ q=2]", "[$ p=1, q=0]")
TAIL_SHAPES = (
    "[w] {w} [b]",        # the tail overwrites the earlier cell
    "[w] {w} [e]",        # ... back to what it held (on an empty cell)
    "[e]",                # a no-op on an empty cell
    "[$ p=1] [w]",        # a chain that assigns before it writes
    "[w] (right) [b]",    # two cells, in either token order
    "[w] (left) [b]",
)


@st.composite
def keyed_micro_games(draw):
    """Rules text ``->p ( turn + ... )*`` whose turns mix steps, writes
    and ends (switch, keep, or a keep then more), so EMITs meet no-op
    writes, tails over an earlier write, var chains, keeps and switches
    with equal writes, and one move reached from several control points."""
    pieces = st.sampled_from(STEPS + CELL_WRITES + VAR_WRITES + TAIL_SHAPES)
    chains = st.lists(st.sampled_from(CELL_WRITES + VAR_WRITES), max_size=2)

    def part():
        body = draw(st.lists(pieces, max_size=3)) + draw(chains)
        return " ".join(body)

    turns = []
    for _ in range(draw(st.integers(1, 3))):
        end = draw(st.sampled_from(("-> q", "->>", "keep, then")))
        if end == "keep, then":
            turns.append(f"{part()} ->> {part()} -> q")
        else:
            # a twin with the same writes: one ending in the other end
            # (keep and switch), or in the same end at another control point
            body = part()
            twin = draw(st.sampled_from(("", "->>", "-> q")))
            turns.append(
                f"({body} {end} + {body} {twin})" if twin else f"{body} {end}"
            )
    return "->p ( " + " + ".join(turns) + " )*"


@settings(max_examples=200, deadline=None, database=None)
@given(
    rules=keyed_micro_games(),
    boards=st.lists(
        st.lists(st.sampled_from(("e", "w", "b")), min_size=6, max_size=6),
        min_size=2, max_size=3,
    ),
    data=st.data(),
)
def test_walker_keys_equal_delta_texts(rules, boards, data):
    game = micro_game([["e"] * 3] * 2, rules)
    engines = [RbgInterpreterEngine(game), RbgCompiledEngine(game)]
    controls = sorted(set(engines[0].program.entry) & set(engines[1].program.entry))
    # several states per engine: nothing keyed in one call may leak into
    # the next, whose mover, variables and board differ
    for cells in boards:
        s = game.initial_state()
        s.contents = [game.pieces.id_of(c) for c in cells]
        s.mover = data.draw(st.integers(1, 2))
        s.variables = {v: data.draw(st.integers(0, 2)) for v in ("p", "q")}
        s.control = data.draw(st.sampled_from(controls))
        s.current_vertex = data.draw(st.integers(0, 5))
        for eng in engines:
            moves = eng.semimoves(s)
            for m in moves:
                if m.key is not None:
                    assert m.key == eng.delta_texts(s, [m])[0], (rules, m)
            got = eng.sort_moves(s, list(moves))
            want = reference_order(eng, s, moves)
            assert [id(m) for m in got] == [id(m) for m in want]


# Library programs whose every listed move is keyed where it is emitted;
# Reversi's flips write many cells before the EMIT, and the interpreter's
# EMITs carry no writes, so those lists are ordered by delta text.
KEYED_PROGRAMS = {
    (game, "compiled")
    for game in (
        "Amazons", "Breakthrough", "Connect-4", "Gomoku", "Hex", "Tic-Tac-Toe"
    )
}


def test_seed_zero_playouts_key_every_move_where_pinned(monkeypatch):
    texts = []
    delta_texts = Engine.delta_texts

    def spy(self, state, moves):
        texts.append(len(moves))
        return delta_texts(self, state, moves)

    monkeypatch.setattr(Engine, "delta_texts", spy)
    for game in sorted(WALK_PLIES):
        for mode in ("interpreter", "compiled"):
            engine = library.make_engine(game, mode)
            rng = Prng(0)
            state = engine.initial_state()
            want = (game, mode) in KEYED_PROGRAMS
            # the seed-0 playout of ``run_playout``, to its end
            while True:
                raw = engine.semimoves(state)
                texts.clear()
                moves, payoffs = engine.probe(state)
                if payoffs is not None:
                    break
                keyed = None not in [m.key for m in raw]
                assert keyed == want, (game, mode, state.turn_number)
                # ordering reads delta texts exactly when a move is unkeyed
                assert bool(texts) != keyed
                state = engine.apply(state, moves[rng.uniform_index(len(moves))])
