"""Interpreting executor: semi-move search, loop guard, lookaheads.

The completeness oracle enumerates action paths directly over the
pattern AST with bounded star unrolling; on boards this small, any
reachable star configuration repeats a (node, vertex) pair within the
unroll bound, so the enumeration is exhaustive.
"""

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from ggs.core.board import RECT_DIRECTIONS
from ggs.core.model import IllegalMove, Move
from ggs.rbg import ast, compiler, engine as rbg_engine
from ggs.rbg.compiler import (
    ASSIGN,
    CHECK,
    EMIT,
    FORK,
    JUMPS,
    ON,
    SET,
    SHIFT,
)
from ggs.rbg.engine import (
    RbgCompiledEngine,
    RbgGame,
    RbgInterpreterEngine,
    RulesMustOpenWithSwitch,
    RunawaySearch,
)

from ggs import library


ENGINES = (RbgInterpreterEngine, RbgCompiledEngine)


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
    for engine_cls in ENGINES:
        eng = engine_cls(game)
        assert len(eng.semimoves(eng.initial_state())) == 1, engine_cls.__name__


# [w] is written by a chain the compiler folds into its switch and by a
# SET whose next node also tests {b}, so it stays a SET and the move comes
# from a plain EMIT behind another switch; [b] reaches that plain EMIT too.
# Each order reaches one of the two [w] control points first.  ({e} keeps
# ``right (`` from reading as a macro call.)
MERGE_ACROSS_FOLD = (
    "->p ( right {e} ( [w] + [w] -> q + [b] ) ( -> q {e} + {b} -> q ) )*",
    "->p ( right {e} ( [w] -> q + [w] + [b] ) ( -> q {e} + {b} -> q ) )*",
)


@pytest.mark.parametrize("engine_cls", ENGINES)
@pytest.mark.parametrize("rules", MERGE_ACROSS_FOLD, ids=["set-first", "fold-first"])
def test_duplicate_paths_merge_across_the_fold(engine_cls, rules):
    game = micro_game([["e", "e"]], rules)
    program = RbgCompiledEngine(game).program
    listing = compiler.dump_ir(program)  # what ``ggs dump-ir`` prints
    folded = re.search(r"emit player2 @node(\d+) <- set p1$", listing, re.M)
    after_set = re.search(r"^ *\d+: set p1 -> (\d+)$", listing, re.M)
    assert folded and after_set
    _, exits = compiler.region_exits(
        program, program.instrs[int(after_set[1])][2]
    )
    plain = [
        program.instrs[t][3] for t in exits
        if program.instrs[t][0] == EMIT and not program.instrs[t][1]
    ]
    assert len(plain) == 1 and plain[0] != int(folded[1])
    eng = engine_cls(game)
    state = eng.initial_state()
    moves = eng.semimoves(state)
    assert [(m.effects, m.replay, m.control) for m in moves] == [
        (m.effects, m.replay, m.control) for m in recursive_semimoves(eng, state)
    ]
    w_move, b_move = moves
    assert w_move.effects == (("cell", 1, 1), ("pass", 2))
    assert b_move.effects == (("cell", 1, 2), ("pass", 2))
    assert w_move.control == (min(int(folded[1]), plain[0]), 1)


@pytest.mark.parametrize("engine_cls", ENGINES)
def test_keep_and_switch_with_equal_writes_stay_two_moves(engine_cls):
    game = micro_game([["e", "e"]], "->p ( right {e} ( [w] -> q + [w] ->> -> q ) )*")
    eng = engine_cls(game)
    moves = eng.semimoves(eng.initial_state())
    assert [(m.effects, m.replay) for m in moves] == [
        ((("cell", 1, 1), ("pass", 2)), False),
        ((("cell", 1, 1),), True),
    ]


def test_compiled_move_with_no_earlier_write_is_its_emit_tail():
    # a Hex move is one folded EMIT, so red's moves at plies 0 and 2 on
    # one vertex are both that EMIT's tail there, not copies of it
    eng = library.make_engine("hex", "compiled")
    plies = [eng.initial_state()]
    for _ in range(2):
        state = plies[-1]
        plies.append(eng.apply(state, eng.semimoves(state)[0]))
    red_first = {m.destination(): m for m in eng.semimoves(plies[0])}
    red_again = {m.destination(): m for m in eng.semimoves(plies[2])}
    shared = red_first.keys() & red_again.keys()
    assert shared
    for vertex in shared:
        assert red_first[vertex].effects is red_again[vertex].effects


def test_rules_must_open_with_switch():
    with pytest.raises(RulesMustOpenWithSwitch):
        micro_game([["e", "e"]], "( right [w] -> q )*")


def apply_checked(engine, state, move):
    """``engine.apply``, after checking that move is one of its semi-moves."""
    legal = {(m.effects, m.replay) for m in engine.semimoves(state)}
    if (move.effects, move.replay) not in legal:
        raise IllegalMove("move is not legal in this state")
    return engine.apply(state, move)


def test_apply_checked_rejects_foreign_move():
    game = micro_game([["e", "e"]], "->p ( right [w] -> q )*")
    eng = RbgInterpreterEngine(game)
    state = eng.initial_state()
    with pytest.raises(IllegalMove):
        apply_checked(eng, state, Move((("cell", 0, 2), ("pass", 2))))


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
    if roll < 0.85:
        # two or three parts: a three-way Alt is a FORK of three branches
        parts = tuple(
            random_micro_pattern(rng, depth + 1, allow_mutation, allow_check)
            for _ in range(rng.randint(2, 3))
        )
        return ast.Concat(parts) if roll < 0.65 else ast.Alt(parts)
    # checked only when allowed, so the draws stay the same without checks
    if allow_check and roll < 0.93:
        return ast.Check(
            rng.random() < 0.5,
            random_micro_pattern(rng, depth + 1, allow_mutation, allow_check),
        )
    # stars stay mutation-free so effect sequences remain bounded
    return ast.Star(random_micro_pattern(rng, depth + 1, False, allow_check))


def random_fold_shapes(rng):
    """(check, chain): a check on a body of shifts and piece tests, as in
    ``{! up}``, ``{? left left}`` or ``{! (down {e})*}``, and one or two
    writes to end a turn with, as in ``[w] [$ p=1] -> q``; the compiled
    lowering answers such a check from its per-vertex table and folds a
    write chain before a switch or keep into the EMIT."""
    if rng.random() < 0.5:
        body = " ".join(
            render(ast.Name(rng.choice(RECT_DIRECTIONS[:4])))
            for _ in range(rng.randint(1, 2))
        )
    else:
        body = render(random_micro_pattern(rng, 1, allow_mutation=False))
    check = "{" + rng.choice("?!") + f" {body}}}"
    chain = " ".join(
        render(ast.SetHere(rng.choice(PIECES))) if rng.random() < 0.5
        else render(ast.AssignVars(((rng.choice("pq"), rng.randint(0, 100)),)))
        for _ in range(rng.randint(1, 2))
    )
    return check, chain


def render(pat):
    if isinstance(pat, ast.Name):
        # parenthesized so a following group is not read as a macro call
        return f"({pat.name})"
    if isinstance(pat, ast.On):
        return "{" + ", ".join(pat.names) + "}"
    if isinstance(pat, ast.SetHere):
        return f"[{pat.name}]"
    if isinstance(pat, ast.AssignVars):
        return "[$ " + ", ".join(f"{n}={v}" for n, v in pat.assigns) + "]"
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




@pytest.mark.parametrize("engine_cls", ENGINES)
def test_long_shift_loop_needs_no_deep_recursion(engine_cls):
    # the interpreter steps through all 1,200 shifts; the compiled
    # executor looks right* up in one jump table
    row = ["e"] * 1200
    game = micro_game([row], "->p ( right* [b] -> q )*")
    eng = engine_cls(game)
    moves = eng.semimoves(eng.initial_state())
    assert len(moves) == 1200
    assert {m.effects for m in moves} == {
        (("cell", v, 2), ("pass", 2)) for v in range(1200)
    }


@pytest.mark.parametrize("engine_cls", ENGINES)
def test_long_write_loop_needs_no_deep_recursion(engine_cls):
    # every step writes, so no configuration repeats and the walk is
    # 1,200 writes deep in both executors
    row = ["e"] * 1200
    game = micro_game([row], "->p ( [b] (right [b])* -> q )*")
    eng = engine_cls(game)
    moves = eng.semimoves(eng.initial_state())
    assert len(moves) == 1200
    assert {m.effects for m in moves} == {
        tuple(("cell", v, 2) for v in range(k)) + (("pass", 2),)
        for k in range(1, 1201)
    }


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
def test_semimoves_repeats_no_lookahead_query(engine_cls, monkeypatch):
    # Tic-Tac-Toe asks {? line3(me)} and {! line3(me)} after each
    # placement; with no expansion step allowed, every vertex of the
    # check tables is left to a search of its body
    monkeypatch.setattr(compiler, "CHECK_TEST_BOUND", 0)
    game = RbgGame.from_text(library.load_description("tictactoe", "rbg"))
    eng = engine_cls(game)
    state = eng.initial_state()
    for _ in range(2):
        state = eng.apply(state, eng.probe(state)[0][0])
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


# -- walk order oracle ----------------------------------------------------


def recursive_semimoves(eng, state):
    """The semi-move walk as one recursive call per configuration, kept
    as the reference for the order of the moves ``semimoves`` emits and
    for each move's control point, the smallest any of its paths reaches."""
    prog = eng.program
    instrs = prog.instrs
    shift = prog.shift_table
    contents = list(state.contents)
    variables = dict(state.variables)
    effects: list = []
    visited: set = set()
    found: dict = {}
    lookahead: dict = {}

    def emit(player, node, vertex):
        if player is None:
            seq, replay = tuple(effects), True
        else:
            seq, replay = tuple(effects) + (("pass", player),), False
        control = (node, vertex)
        if (seq, replay) not in found:
            found[seq, replay] = Move(seq, replay, control)
        elif control < found[seq, replay].control:
            found[seq, replay].control = control

    def walk(idx, vertex):
        if len(effects) > eng._effect_cap:
            raise RunawaySearch(
                "runaway effect sequence in rules pattern", idx, vertex
            )
        so_far = tuple(effects)
        if (idx, vertex, so_far) in visited:
            return
        visited.add((idx, vertex, so_far))
        instr = instrs[idx]
        op = instr[0]
        if op == FORK:
            for t in instr[1]:
                walk(t, vertex)
        elif op == SHIFT:
            nv = shift[instr[1]][vertex]
            if nv >= 0:
                walk(instr[2], nv)
        elif op == ON:
            if contents[vertex] in instr[1]:
                walk(instr[2], vertex)
        elif op == JUMPS:
            for t, nv in zip(*prog.jump_exits(instr[2], vertex)):
                target = instrs[t]
                if target[0] != ON:
                    walk(t, nv)
                elif contents[nv] in target[1]:
                    walk(target[2], nv)
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
            # the writes of a folded chain, made as effects only
            for write, arg in instr[1]:
                if write == SET:
                    effects.append(("cell", vertex, arg))
                else:
                    effects.extend(("var", n, v) for n, v in arg)
            if len(effects) > eng._effect_cap:
                raise RunawaySearch(
                    "runaway effect sequence in rules pattern", idx, vertex
                )
            emit(instr[2], instr[3], vertex)
            del effects[len(so_far):]
        elif op == CHECK:
            query = (instr[2], vertex, so_far)
            if query not in lookahead:
                lookahead[query] = eng._exists(
                    instr[5], vertex, contents, variables, instr[3]
                )
            if lookahead[query] == instr[1]:
                walk(instr[4], vertex)

    walk(prog.entry[state.control], state.current_vertex)
    return list(found.values())


def walk_outcome(walker, eng, state):
    """The (effects, replay, control) list ``walker`` finds, in order, or
    where it stopped a runaway walk; and the moves found."""
    try:
        moves = walker(eng, state)
    except RunawaySearch as err:
        return ("runaway", err.instr, err.vertex), []
    return [(m.effects, m.replay, m.control) for m in moves], moves


def assert_walks_match_oracle(game, seed, plies):
    """At every state of a seeded walk both executors find exactly what
    the recursive reference walk finds on their program."""
    for engine_cls in ENGINES:
        eng = engine_cls(game)
        rng = random.Random(seed)
        state = eng.initial_state()
        for _ in range(plies):
            got, moves = walk_outcome(engine_cls.semimoves, eng, state)
            expected, _ = walk_outcome(recursive_semimoves, eng, state)
            assert got == expected, engine_cls.__name__
            if not moves:
                break
            state = eng.apply(state, rng.choice(moves))


def draw_walk_order_game(rng):
    """(rows, rules): random patterns with stars and checks around a loop
    of writes that the board edge ends, so effect sequences of many
    lengths meet."""
    cols = rng.randint(2, 4)
    rows = [
        [rng.choice(PIECES) for _ in range(cols)] for _ in range(rng.randint(1, 3))
    ]
    write_loop = ast.Star(
        ast.Concat(
            (ast.Name(rng.choice(RECT_DIRECTIONS[:4])), ast.SetHere(rng.choice(PIECES)))
        )
    )
    first = ast.Concat(
        (
            random_micro_pattern(rng, 1, allow_check=True),
            write_loop,
            random_micro_pattern(rng, 1, allow_check=True),
        )
    )
    second = random_micro_pattern(rng, allow_check=True)
    rules = f"->p ( {render(first)} -> q {render(second)} -> p )*"
    if rng.random() < 0.5:
        # a cell-test-only check where the first turn's movement ends, and
        # write chains ending both turns, one before a switch and one
        # before a keep
        check, chain = random_fold_shapes(rng)
        _, keep_chain = random_fold_shapes(rng)
        rules = (
            f"->p ( {render(first)} {check} {chain} -> q {render(second)}"
            f" {keep_chain} ->> -> p )*"
        )
    return rows, rules


def first_ply(game):
    """What the reference walk finds at the start of ``game``: its moves,
    or where it stopped a runaway walk."""
    eng = RbgInterpreterEngine(game)
    return walk_outcome(recursive_semimoves, eng, eng.initial_state())[0]


def walk_order_micro_game(seed):
    """The micro game drawn from ``seed``, redrawn from the same generator
    until the reference walk finds something at its first ply, so that an
    example compares more than two empty lists (at most 10 draws; about 6
    in 10 first draws find nothing)."""
    rng = random.Random(seed)
    for _ in range(10):
        game = micro_game(*draw_walk_order_game(rng))
        if first_ply(game):
            break
    return game


@settings(max_examples=120, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_walk_order_matches_recursive_oracle_on_micro_games(seed):
    assert_walks_match_oracle(walk_order_micro_game(seed), seed, 6)


def test_walk_order_micro_games_mostly_compare_a_first_ply():
    seeds = range(200)
    compared = sum(bool(first_ply(walk_order_micro_game(s))) for s in seeds)
    assert compared >= 0.9 * len(seeds)


@settings(max_examples=14, deadline=None, database=None)
@given(
    name=st.sampled_from([entry.name for entry in library.list_games()]),
    seed=st.integers(0, 2**32 - 1),
)
def test_walk_order_matches_recursive_oracle_on_library_games(name, seed):
    game = RbgGame.from_text(library.load_description(name, "rbg"))
    assert_walks_match_oracle(game, seed, 6)


def contains_mutation(pat):
    """Test-only copy of the AST walk that once set each check's pure flag."""
    if isinstance(pat, (ast.SetHere, ast.AssignVars)):
        return True
    if isinstance(pat, (ast.Concat, ast.Alt)):
        return any(contains_mutation(p) for p in pat.parts)
    if isinstance(pat, (ast.Star, ast.Check)):
        return contains_mutation(pat.child)
    return False


def checks_in(pat):
    if isinstance(pat, ast.Check):
        yield pat
    for child in getattr(pat, "parts", ()):
        yield from checks_in(child)
    if hasattr(pat, "child"):
        yield from checks_in(pat.child)


@settings(max_examples=150, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_check_pure_flag_matches_mutation_walk(seed):
    # bodies with nested checks, cell writes and variable writes; each
    # check is compiled alone, so its label is the rules' only CHECK
    rng = random.Random(seed)
    body = random_micro_pattern(rng, 1, allow_check=True)
    if rng.random() < 0.5:
        assign = ast.AssignVars((("q", rng.randint(0, 100)),))
        if rng.random() < 0.5:
            assign = ast.Check(rng.random() < 0.5, assign)
        body = ast.Concat((body, assign))
    for check in checks_in(ast.Check(rng.random() < 0.5, body)):
        game = micro_game([["e", "w"]], f"->p {render(check)} -> q")
        (label,) = [
            label for out in game.nfa.edges for label, _ in out
            if label[0] == "check"
        ]
        assert label[3] == (not contains_mutation(check.child)), render(check)


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
