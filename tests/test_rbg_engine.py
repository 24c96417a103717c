"""Interpreting executor: semi-move search, loop guard, lookaheads.

The completeness oracle enumerates action paths directly over the
pattern AST with bounded star unrolling; on boards this small, any
reachable star configuration repeats a (node, vertex) pair within the
unroll bound, so the enumeration is exhaustive.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from ggs.core.board import RECT_DIRECTIONS
from ggs.core.model import IllegalMove, Move
from ggs.rbg import ast, engine as rbg_engine
from ggs.rbg.engine import (
    RbgCompiledEngine,
    RbgGame,
    RbgInterpreterEngine,
    RulesMustOpenWithSwitch,
    RunawaySearch,
)

from ggs import library


def micro_game(rows, rules, pieces="e, w, b"):
    rows_text = " ".join("[" + ", ".join(r) + "]" for r in rows)
    return RbgGame.from_text(
        f"""
#players = p(100), q(100)
#pieces = {pieces}
#variables =
#board = rectangle(up,down,left,right, {rows_text})
#rules = {rules}
"""
    )


def effect_sets(engine, state=None):
    state = state or engine.initial_state()
    return {(m.effects, m.replay) for m in engine.semimoves(state)}


# -- basic semi-move search ---------------------------------------------


def test_ray_walk_emits_every_prefix():
    game = micro_game(
        [["w", "e", "e"]],
        "->p ( (right {e} [w]) (right {e} [w])* ->> )*",
    )
    eng = RbgInterpreterEngine(game)
    moves = eng.semimoves(eng.initial_state())
    assert len(moves) == 2
    assert all(m.replay for m in moves)
    assert {m.effects for m in moves} == {
        (("cell", 1, 1),),
        (("cell", 1, 1), ("cell", 2, 1)),
    }


def test_duplicate_paths_merge():
    # two alternation branches produce the identical effect sequence
    game = micro_game(
        [["e", "e"]], "->p ( (right [w] + right [w]) -> q )*"
    )
    eng = RbgInterpreterEngine(game)
    assert len(eng.semimoves(eng.initial_state())) == 1


def test_rules_must_open_with_switch():
    with pytest.raises(RulesMustOpenWithSwitch):
        micro_game([["e", "e"]], "( right [w] -> q )*")


def test_apply_checked_rejects_foreign_move():
    game = micro_game([["e", "e"]], "->p ( right [w] -> q )*")
    eng = RbgInterpreterEngine(game)
    state = eng.initial_state()
    with pytest.raises(IllegalMove):
        eng.apply_checked(state, Move((("cell", 0, 2), ("pass", 2))))


def test_stalemate_payoffs_from_variables():
    game = micro_game(
        [["w", "w"]], "->p ( right {e} [$ p=100, q=0] -> q )*"
    )
    eng = RbgInterpreterEngine(game)
    moves, payoffs = eng.probe(eng.initial_state())
    assert moves == [] and payoffs == {1: 0, 2: 0}


# -- lookahead checks ----------------------------------------------------


def test_pure_checks_gate():
    yes = micro_game([["e", "w"]], "->p ( {? right {w}} [b] -> q )*")
    no = micro_game([["e", "w"]], "->p ( {? right {e}} [b] -> q )*")
    neg = micro_game([["e", "w"]], "->p ( {! right {e}} [b] -> q )*")
    assert len(effect_sets(RbgInterpreterEngine(yes))) == 1
    assert len(effect_sets(RbgInterpreterEngine(no))) == 0
    assert len(effect_sets(RbgInterpreterEngine(neg))) == 1


def test_impure_check_rolls_back():
    # the check stamps a piece, observes it, and must leave no trace
    game = micro_game([["e"]], "->p ( {? [b] {b}} [w] -> q )*")
    eng = RbgInterpreterEngine(game)
    moves = eng.semimoves(eng.initial_state())
    assert len(moves) == 1
    assert moves[0].effects == (("cell", 0, 1), ("pass", 2))


def test_rewrite_loop_in_check_converges():
    # without change detection the starred rewrite would never settle
    game = micro_game([["e"]], "->p ( {? ([b])* {b}} [w] -> q )*")
    eng = RbgInterpreterEngine(game)
    assert len(eng.semimoves(eng.initial_state())) == 1


def test_check_star_walk_reachability():
    # pure star walk inside a check: connectivity along w cells
    game = micro_game(
        [["w", "w", "e", "w"]],
        "->p ( {? (right {w})* right right {w}} [b] -> q )*",
    )
    eng = RbgInterpreterEngine(game)
    # from vertex 0: w-run reaches vertex 1, skipping lands on 3 (w): ok
    assert len(eng.semimoves(eng.initial_state())) == 1


# -- loop-guard completeness against a brute-force oracle ---------------

PIECES = ("e", "w", "b")


def oracle_paths(game, pattern, unroll=8):
    """All (effects, end vertex) pairs reachable by the pattern."""
    board = game.board
    piece_id = {s: i for i, s in enumerate(PIECES)}

    def walk(pat, vertex, contents, effects, depth):
        if isinstance(pat, ast.Name):
            d = board.directions.index(pat.name)
            nv = board.neighbors[d][vertex]
            if nv >= 0:
                yield nv, contents, effects
        elif isinstance(pat, ast.On):
            if contents[vertex] in {piece_id[n] for n in pat.names}:
                yield vertex, contents, effects
        elif isinstance(pat, ast.SetHere):
            pid = piece_id[pat.name]
            nc = contents[:vertex] + (pid,) + contents[vertex + 1 :]
            yield vertex, nc, effects + (("cell", vertex, pid),)
        elif isinstance(pat, ast.Concat):
            states = [(vertex, contents, effects)]
            for part in pat.parts:
                states = [
                    out
                    for v, c, eff in states
                    for out in walk(part, v, c, eff, depth)
                ]
            yield from states
        elif isinstance(pat, ast.Alt):
            for part in pat.parts:
                yield from walk(part, vertex, contents, effects, depth)
        elif isinstance(pat, ast.Check):
            # passes iff some path of the body exists from here; no trace
            body = walk(pat.child, vertex, contents, effects, depth)
            if (next(body, None) is not None) == pat.positive:
                yield vertex, contents, effects
        elif isinstance(pat, ast.Star):
            seen = {(vertex, contents, effects)}
            frontier = [(vertex, contents, effects)]
            for _ in range(unroll):
                nxt = []
                for v, c, eff in frontier:
                    for out in walk(pat.child, v, c, eff, depth):
                        if out not in seen:
                            seen.add(out)
                            nxt.append(out)
                frontier = nxt
                if not frontier:
                    break
            yield from seen
        else:
            raise AssertionError(pat)

    start = tuple(game.initial_state().contents)
    return {
        (effects, v)
        for v, _, effects in walk(pattern, 0, start, (), 0)
    }


def random_micro_pattern(rng, depth=0, allow_mutation=True, allow_check=False):
    roll = rng.random()
    if depth >= 3 or roll < 0.45:
        kind = rng.randrange(3 if allow_mutation else 2)
        if kind == 0:
            return ast.Name(rng.choice(RECT_DIRECTIONS[:4]))
        if kind == 1:
            k = rng.randint(1, 2)
            return ast.On(tuple(rng.sample(PIECES, k)))
        return ast.SetHere(rng.choice(PIECES))
    if roll < 0.65:
        return ast.Concat(
            tuple(
                random_micro_pattern(rng, depth + 1, allow_mutation, allow_check)
                for _ in range(2)
            )
        )
    if roll < 0.85:
        return ast.Alt(
            tuple(
                random_micro_pattern(rng, depth + 1, allow_mutation, allow_check)
                for _ in range(2)
            )
        )
    # checked only when allowed, so the draws stay the same without checks
    if allow_check and roll < 0.93:
        return ast.Check(
            rng.random() < 0.5,
            random_micro_pattern(rng, depth + 1, allow_mutation, allow_check),
        )
    # stars stay mutation-free so effect sequences remain bounded
    return ast.Star(random_micro_pattern(rng, depth + 1, False, allow_check))


def render(pat):
    if isinstance(pat, ast.Name):
        # parenthesized so a following group is not read as a macro call
        return f"({pat.name})"
    if isinstance(pat, ast.On):
        return "{" + ", ".join(pat.names) + "}"
    if isinstance(pat, ast.SetHere):
        return f"[{pat.name}]"
    if isinstance(pat, ast.Concat):
        return "(" + " ".join(render(p) for p in pat.parts) + ")"
    if isinstance(pat, ast.Alt):
        return "(" + " + ".join(render(p) for p in pat.parts) + ")"
    if isinstance(pat, ast.Check):
        return "{" + ("?" if pat.positive else "!") + f" {render(pat.child)}}}"
    return f"({render(pat.child)})*"


@pytest.mark.parametrize("board_rows", [1, 3])
def test_search_matches_bruteforce_oracle(board_rows):
    rng = random.Random(board_rows * 77)
    cols = 3
    for trial in range(60):
        rows = [
            [rng.choice(PIECES) for _ in range(cols)]
            for _ in range(board_rows)
        ]
        pat = random_micro_pattern(rng)
        text = render(pat)
        game = micro_game(rows, f"->p ( {text} -> q )*")
        expected = {
            effects + (("pass", 2),)
            for effects, _ in oracle_paths(game, pat)
        }
        for engine_cls in (RbgInterpreterEngine, RbgCompiledEngine):
            eng = engine_cls(game)
            got = {m.effects for m in eng.semimoves(eng.initial_state())}
            assert got == expected, (engine_cls.__name__, text, rows)


@settings(max_examples=150, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_checks_match_bruteforce_oracle(seed):
    # Two writes and a random branch reach later checks with different
    # tentative boards; four alternatives check a pure and an impure body
    # twice each, so equal bodies meet at one configuration.
    rng = random.Random(seed)
    rows = [
        [rng.choice(PIECES) for _ in range(3)] for _ in range(rng.randint(1, 3))
    ]
    pure = random_micro_pattern(rng, 1, allow_mutation=False, allow_check=True)
    impure = ast.Concat(
        (ast.SetHere(rng.choice(PIECES)), random_micro_pattern(rng, 2))
    )
    first, second = rng.sample(PIECES, 2)
    branch = ast.Alt(
        (
            ast.SetHere(first),
            ast.SetHere(second),
            random_micro_pattern(rng, 2, allow_check=True),
        )
    )
    checks = ast.Alt(
        tuple(
            ast.Concat(
                (
                    ast.Check(rng.random() < 0.5, body),
                    random_micro_pattern(rng, 2, allow_check=True),
                )
            )
            for body in (pure, impure, pure, impure)
        )
    )
    pat = ast.Concat((branch, checks))
    text = render(pat)
    game = micro_game(rows, f"->p ( {text} -> q )*")
    expected = {
        effects + (("pass", 2),) for effects, _ in oracle_paths(game, pat)
    }
    for engine_cls in (RbgInterpreterEngine, RbgCompiledEngine):
        eng = engine_cls(game)
        got = {m.effects for m in eng.semimoves(eng.initial_state())}
        assert got == expected, (engine_cls.__name__, text, rows)


def test_long_pure_check_needs_no_deep_recursion():
    row = ["e"] * 1199 + ["w"]
    game = micro_game([row], "->p ( {? right* {w}} [b] -> q )*")
    for engine_cls in (RbgInterpreterEngine, RbgCompiledEngine):
        eng = engine_cls(game)
        (move,) = eng.semimoves(eng.initial_state())
        assert move.effects == (("cell", 0, 2), ("pass", 2))


def test_long_shift_loop_needs_no_deep_compiled_recursion():
    # right* is one jump-table lookup in the compiled executor; the
    # interpreter still steps (and recurses) through every shift
    row = ["e"] * 1200
    game = micro_game([row], "->p ( right* [b] -> q )*")
    eng = RbgCompiledEngine(game)
    moves = eng.semimoves(eng.initial_state())
    assert len(moves) == 1200
    assert {m.effects for m in moves} == {
        (("cell", v, 2), ("pass", 2)) for v in range(1200)
    }


ENGINES = (RbgInterpreterEngine, RbgCompiledEngine)


def spy_restoration(eng):
    """Wrap ``eng._exists`` (nested checks included); the returned list
    gets one entry per call: whether the board and variables came back
    unchanged, also when the call raised."""
    exists = eng._exists
    restored = []

    def spy(sub, vertex, contents, variables, pure):
        before = (list(contents), dict(variables))
        try:
            return exists(sub, vertex, contents, variables, pure)
        finally:
            restored.append((list(contents), dict(variables)) == before)

    eng._exists = spy
    return restored


@pytest.mark.parametrize("engine_cls", ENGINES)
@pytest.mark.parametrize(
    "rows, check, then",
    [
        # write loops that come back to the original board
        ([["e"]], "{! ([b] [e])* {w}}", "[w]"),
        ([["e", "w"]], "{? ([b] [e])* right {w}}", "[b]"),
        # a long ray after a write
        ([["e"] * 1199 + ["w"]], "{? [b] right* {w}}", "[b]"),
        # a nested check sees the tentative write
        ([["e"]], "{? [b] {? {b}}}", "[w]"),
        # variable writes, one back to the original value, and a nested
        # check that reads a write one cell away
        ([["e", "w"]], "{? [$ p=7] [b] right {w} {? left {b}} [$ p=0]}", "[b]"),
    ],
)
def test_check_bodies_that_write(engine_cls, rows, check, then):
    eng = engine_cls(micro_game(rows, f"->p ( {check} {then} -> q )*"))
    restored = spy_restoration(eng)
    (move,) = eng.semimoves(eng.initial_state())
    piece = {"[w]": 1, "[b]": 2}[then]
    assert move.effects == (("cell", 0, piece), ("pass", 2))
    assert restored and all(restored)


@pytest.mark.parametrize("engine_cls", ENGINES)
def test_runaway_check_body_raises_and_restores(engine_cls):
    # 2**24 reachable boards and no accepting path: the write budget
    # ends the search instead of letting it run for hours
    game = micro_game(
        [["e"] * 24],
        "->p ( {? ((right [b]) + (right [w]))* [w] {b}} [b] -> q )*",
    )
    eng = engine_cls(game)
    restored = spy_restoration(eng)
    with pytest.raises(RuntimeError, match="runaway mutation in lookahead"):
        eng.semimoves(eng.initial_state())
    assert restored == [True]


@pytest.mark.parametrize("engine_cls", ENGINES)
@pytest.mark.parametrize(
    "row, rules, message",
    [
        # every ([b] [w]) round adds two effects: the effect cap stops it
        (["e"], "->p ( ([b] [w])* -> q )*",
         "runaway effect sequence in rules pattern"),
        # no accepting path: the (lowered) write budget stops the search
        (["e"] * 4, "->p ( {? ((right [b]) + (right [w]))* [w] {b}} [b] -> q )*",
         "runaway mutation in lookahead"),
    ],
)
def test_runaway_error_names_instruction_and_vertex(
    engine_cls, row, rules, message, monkeypatch
):
    monkeypatch.setattr(rbg_engine, "LOOKAHEAD_WRITE_BUDGET", 10)
    eng = engine_cls(micro_game([row], rules))
    with pytest.raises(RunawaySearch) as info:
        eng.semimoves(eng.initial_state())
    err = info.value
    assert isinstance(err, RuntimeError)
    assert 0 <= err.instr < len(eng.program.instrs)
    assert 0 <= err.vertex < len(row)
    assert str(err) == f"{message} at instruction {err.instr}, vertex {err.vertex}"


@pytest.mark.parametrize("engine_cls", ENGINES)
def test_semimoves_repeats_no_lookahead_query(engine_cls):
    # Tic-Tac-Toe asks {? line3(me)} and {! line3(me)} after each placement
    game = RbgGame.from_text(library.load_description("tictactoe", "rbg"))
    eng = engine_cls(game)
    state = eng.initial_state()
    for _ in range(2):
        state = eng.apply(state, eng.legal_moves(state)[0])
    queries = []
    exists = eng._exists

    def spy(sub, vertex, contents, variables, pure):
        # Nfa equality is structural
        query = (sub, vertex, tuple(contents), sorted(variables.items()))
        assert query not in queries
        queries.append(query)
        return exists(sub, vertex, contents, variables, pure)

    eng._exists = spy
    moves = eng.semimoves(state)
    # {! anyLine3(opp)} once, then one line3 query per placement
    assert len(moves) == 7 and len(queries) == 1 + 7


# -- library game behavior ----------------------------------------------


def amazons_engine():
    return RbgInterpreterEngine(
        RbgGame.from_text(library.load_description("amazons", "rbg"))
    )


def test_amazons_initial_queen_moves():
    eng = amazons_engine()
    state = eng.initial_state()
    moves = eng.semimoves(state)
    assert len(moves) == 80
    assert all(m.replay for m in moves)


def test_amazons_arrow_phase():
    eng = amazons_engine()
    state = eng.initial_state()
    moves, _ = eng.probe(state)
    after = eng.apply(state, moves[0])
    arrows, _ = eng.probe(after)
    assert arrows and not any(m.replay for m in arrows)
    # every arrow move stamps exactly one x and switches to black
    for m in arrows:
        cells = [e for e in m.effects if e[0] == "cell"]
        assert len(cells) == 1
        assert m.effects[-1] == ("pass", 2)
