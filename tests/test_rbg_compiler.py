"""Lowering passes and the compiled executor."""

import hashlib
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from ggs import library
from ggs.core.playout import run_playout
from ggs.rbg.compiler import (
    _NAMES,
    ACCEPT,
    CHECK,
    EMIT,
    FORK,
    JUMPS,
    SHIFT,
    LoweredProgram,
    dump_ir,
    lower,
    region_exits,
)
from ggs.rbg.engine import RbgCompiledEngine, RbgGame, RbgInterpreterEngine
from ggs.rbg.nfa import eliminate_epsilon

from test_rbg_engine import PIECES, micro_game, random_micro_pattern, render

MICRO_RAY = """
#players = p(100), q(100)
#pieces = e, w
#variables =
#board = rectangle(up,down,left,right, [w, e, e])
#rules = ->p ( (right {e}) (right {e})* [w] -> q )*
"""


def opcode_counts(engine):
    return Counter(instr[0] for instr in engine.program.instrs)


def test_dump_ir_is_byte_stable():
    def build():
        game = RbgGame.from_text(library.load_description("amazons", "rbg"))
        return dump_ir(RbgCompiledEngine(game).program)

    first, second = build(), build()
    assert first == second
    assert first.splitlines()[0].lstrip().startswith("0:")


# sha256 of ``dump_ir`` followed by one "<nfa node> <entry index>" line per
# entry-map item, sorted by node: the whole program as numbered.
LOWERED_GOLDEN = {
    "Amazons":
        "5bc5128e4fb5e4049382abbde821c652e86ea60bff89de571c9a6c28a0fd18f9",
    "Breakthrough":
        "04526fcaa17151c4b3e645d070787a50fc65119d349fa1ffa66861e585fd1a80",
    "Connect-4":
        "3fc0042330d9817953f3d9b4d7a641e63f5a4b17ae2488b612982b485de9c9a4",
    "Gomoku":
        "c8961239f4ad55aff32ca6b6887c6c894135b6ceb065e568ae46884f0d626200",
    "Hex":
        "03a84c1ccd65e84e5b42f12cb4878021c7764956c39028cb5c1895bb4991630a",
    "Reversi":
        "7d59514e7c9df4a445a64316723d7a62180aa0a25de1c8fcd2fa14647d42be96",
    "Tic-Tac-Toe":
        "e2b361b1e26b4a7ed6b056934a21edd00e2a39839d8a388e14f4d1a9f8432516",
}


# sha256 of ``program_shape``: what the compiled executor can run, however
# the lowering numbers its instructions.
SHAPE_GOLDEN = {
    "Amazons":
        "c0bda67d5baa3b30540e56938a9d35a6b413b4be8b1b4d8520ceefbdf6f05ec2",
    "Breakthrough":
        "54ccd771f9a263ab65884a2cfb5cf7d657f367d855572e125f8c841fd2563ae1",
    "Connect-4":
        "cc2a3a71f65f8475ecd781d66c2208a9650bb7024f76f89bf5817662aeba836f",
    "Gomoku":
        "fa84cba5aa7a850859bdca52102c23038367fb805115c0ba91eef7fc1aef956c",
    "Hex":
        "0f99f9aa32aa856125fbd32ab43556ffa1245338dc35e86ebae7c95bdf6e05b8",
    "Reversi":
        "15a2a9de4aaca6d7093c72a67b1aa7c57e3f50c2dbbe55da4ecca0e7a659fec6",
    "Tic-Tac-Toe":
        "a37f5417f7a2fee240f213f05666f5a04263efebfb8383a8b242142ba904a906",
}


def region_shape(program, start) -> tuple:
    """The FORK/SHIFT region a JUMPS replaced, numbered in preorder from
    its start: one (op, fields) per region instruction, exits as "x"."""
    local: dict = {}
    order: list = []

    def ref(i):
        if i not in program.region:
            return "x"
        if i not in local:
            local[i] = len(order)
            order.append(i)
        return local[i]

    ref(start)
    shape = []
    for i in order:  # grows while it is walked
        node = program.region[i]
        if node[0] == FORK:
            shape.append(("fork", tuple(ref(t) for t in node[1])))
        else:
            shape.append(("shift", node[1], ref(node[2])))
    return tuple(shape)


def program_shape(program) -> tuple[str, int]:
    """(listing, instruction count) of the instructions reachable from
    the entry map, walked from the entries in node order and renumbered in
    discovery order: independent of how the lowering numbers them."""
    instrs = program.instrs
    index: dict = {}
    order: list = []

    def ref(i):
        if i not in index:
            index[i] = len(order)
            order.append(i)
        return index[i]

    lines = [f"{node} {ref(i)}" for node, i in sorted(program.entry.items())]
    for i in order:  # grows while it is walked
        instr = instrs[i]
        op = instr[0]
        if op == FORK:
            fields = tuple(ref(t) for t in instr[1])
        elif op == CHECK:
            fields = (instr[1], ref(instr[2]), instr[3], ref(instr[4]))
        elif op == JUMPS:
            fields = (
                tuple(ref(t) for t in region_exits(program, instr[2])[1]),
                region_shape(program, instr[2]),
            )
        elif op in (EMIT, ACCEPT):
            fields = instr[1:]
        else:
            fields = tuple(
                tuple(sorted(f)) if isinstance(f, frozenset) else f
                for f in instr[1:-1]
            ) + (ref(instr[-1]),)
        lines.append(f"{_NAMES[op]} {fields}")
    return "\n".join(lines) + "\n", len(order)


@pytest.mark.parametrize("game", sorted(SHAPE_GOLDEN))
def test_reachable_program_is_pinned(game):
    text, _ = program_shape(library.make_engine(game, "compiled").program)
    assert hashlib.sha256(text.encode()).hexdigest() == SHAPE_GOLDEN[game]


@pytest.mark.parametrize("game", sorted(SHAPE_GOLDEN))
def test_interpreter_program_is_unoptimized_and_live(game):
    program = library.make_engine(game, "interpreter").program
    ops = Counter(instr[0] for instr in program.instrs)
    assert ops[JUMPS] == 0
    _, reachable = program_shape(program)
    assert reachable == len(program.instrs)


def test_both_executors_share_one_walker():
    for name in ("semimoves", "_exists"):
        assert getattr(RbgInterpreterEngine, name) is getattr(
            RbgCompiledEngine, name
        )


@pytest.mark.parametrize("game", sorted(LOWERED_GOLDEN))
def test_lowered_program_is_pinned(game):
    program = library.make_engine(game, "compiled").program
    text = dump_ir(program) + "".join(
        f"{node} {idx}\n" for node, idx in sorted(program.entry.items())
    )
    assert hashlib.sha256(text.encode()).hexdigest() == LOWERED_GOLDEN[game]


def test_rayscan_matches_interpreter_prefix_stops():
    # a guarded ray, the shape the retired RAYSCAN opcode handled
    game = RbgGame.from_text(MICRO_RAY)
    interp = RbgInterpreterEngine(game)
    compiled = RbgCompiledEngine(game)
    state = interp.initial_state()
    a = {(m.effects, m.replay) for m in interp.semimoves(state)}
    b = {(m.effects, m.replay) for m in compiled.semimoves(state)}
    assert a == b
    assert len(a) == 2  # one-step and two-step prefixes


RAY_CHECK = """
#players = p(100), q(100)
#pieces = e, w, b
#variables =
#board = rectangle(up,down,left,right, [ROW])
#rules = ->p ( {? (right {e}) (right {e})* right {w}} [b] -> q )*
"""


def test_rayscan_inside_pure_check():
    # every stop of the ray starts the rest of the body; the ray is a
    # jump-table lookup now that the RAYSCAN opcode is retired
    for row, legal in (("e, e, e, e, w", 1), ("e, e, e, b, w", 0)):
        game = RbgGame.from_text(RAY_CHECK.replace("ROW", row))
        compiled = RbgCompiledEngine(game)
        assert opcode_counts(compiled)[JUMPS] >= 1
        for eng in (RbgInterpreterEngine(game), compiled):
            assert len(eng.semimoves(eng.initial_state())) == legal, row


def test_control_points_are_shared():
    # epsilon elimination keeps node ids, so control payloads align and
    # a move found by one executor can be applied through the other
    game = RbgGame.from_text(library.load_description("tictactoe", "rbg"))
    interp = RbgInterpreterEngine(game)
    compiled = RbgCompiledEngine(game)
    state = interp.initial_state()
    by_delta_i = {
        interp.delta_text(state, m): m.control for m in interp.probe(state)[0]
    }
    by_delta_c = {
        compiled.delta_text(state, m): m.control
        for m in compiled.probe(state)[0]
    }
    assert by_delta_i == by_delta_c


@pytest.mark.parametrize("name", [entry.name for entry in library.list_games()])
def test_entry_maps_every_control_point_a_walk_meets(name):
    # both entry maps hold only control nodes (switch and keep targets),
    # so every control a state or a move carries must be one of them
    game = RbgGame.from_text(library.load_description(name, "rbg"))
    controls = {
        target
        for out in game.nfa.edges
        for label, target in out
        if label[0] in ("switch", "keep")
    }
    for engine in (RbgInterpreterEngine(game), RbgCompiledEngine(game)):
        entry = engine.program.entry
        assert set(entry) <= controls
        assert engine.initial_state().control in entry
        for seed in (0, 1):
            rng = random.Random(seed)
            state = engine.initial_state()
            for _ in range(400):
                moves = engine.semimoves(state)
                assert all(m.control[0] in entry for m in moves), (
                    engine.mode, seed
                )
                if not moves:
                    break
                state = engine.apply(state, rng.choice(moves))


def test_equal_check_bodies_share_one_subprogram():
    # {! anyLine3(opp)}, {? line3(me)} and {! line3(me)} for each player:
    # the line3 pair shares one automaton and one lowered entry
    game = RbgGame.from_text(library.load_description("tictactoe", "rbg"))
    signs_by_sub = {}
    for out in game.nfa.edges:
        for label, _ in out:
            if label[0] == "check":
                signs_by_sub.setdefault(id(label[2]), set()).add(label[1])
    signs_by_entry = {}
    for instr in RbgCompiledEngine(game).program.instrs:
        if instr[0] == CHECK:
            signs_by_entry.setdefault(instr[2], set()).add(instr[1])
    expected = [[False], [False], [False, True], [False, True]]
    assert sorted(sorted(v) for v in signs_by_sub.values()) == expected
    assert sorted(sorted(v) for v in signs_by_entry.values()) == expected


def test_playout_equivalence_on_library_games():
    for name in ("tictactoe", "breakthrough", "connect4"):
        game = RbgGame.from_text(library.load_description(name, "rbg"))
        interp = RbgInterpreterEngine(game)
        compiled = RbgCompiledEngine(game)
        for seed in (0, 1, 2):
            ri = run_playout(interp, seed)
            rc = run_playout(compiled, seed)
            assert (ri.move_count, ri.outcome, ri.truncated) == (
                rc.move_count,
                rc.outcome,
                rc.truncated,
            ), (name, seed)


# -- jump tables ---------------------------------------------------------


def pre_pass_program(game) -> LoweredProgram:
    """The compiled program as the lowering builds it with jump tables
    off: the epsilon-free automaton, every FORK and SHIFT stepped one at
    a time."""
    return lower(eliminate_epsilon(game.nfa), game.board, optimize=False)


def region_walk(region, shift, i, vertex, seen, out):
    """Append to ``out`` the (exit, vertex) pairs the FORK and SHIFT
    steps of ``region`` alone reach from ``i``, in depth-first preorder."""
    if (i, vertex) in seen:
        return
    seen.add((i, vertex))
    node = region.get(i)
    if node is None:
        out.append((i, vertex))
    elif node[0] == FORK:
        for t in node[1]:
            region_walk(region, shift, t, vertex, seen, out)
    else:
        nv = shift[node[1]][vertex]
        if nv >= 0:
            region_walk(region, shift, node[2], nv, seen, out)


def assert_tables_match_regions(game, program):
    """Every JUMPS table, expanded at every vertex (and as far as the
    walker filled it), lists the exits of a recursive walk of its region,
    and every exit is an instruction the program runs."""
    instrs, region = program.instrs, program.region
    for instr in instrs:
        if instr[0] != JUMPS:
            continue
        assert region[instr[2]][0] in (FORK, SHIFT)
        for vertex in range(game.board.vertex_count):
            expected: list = []
            region_walk(
                region, program.shift_table, instr[2], vertex, set(), expected
            )
            for t, _ in expected:
                assert 0 <= t < len(instrs)
                assert instrs[t][0] not in (FORK, SHIFT, JUMPS)
            exits = program.jump_exits(instr[2], vertex)
            assert list(zip(*exits)) == expected
            assert instr[1].get(vertex, exits) == exits


def assert_moves_match_pre_pass(game, seed, plies):
    """At every state of a seeded walk the compiled executor finds the
    same (effects, replay, control) list, in the same order, as it does
    on the pre-pass program."""
    after = RbgCompiledEngine(game)
    before = RbgCompiledEngine(game)
    before.program = pre_pass_program(game)
    rng = random.Random(seed)
    state = after.initial_state()
    for _ in range(plies):
        moves = after.semimoves(state)
        assert [(m.effects, m.replay, m.control) for m in moves] == [
            (m.effects, m.replay, m.control) for m in before.semimoves(state)
        ]
        if not moves:
            break
        state = after.apply(state, rng.choice(moves))
    return after.program


def assert_interpreter_finds_same_moves(game, seed, plies):
    """At every state of a seeded walk the interpreter lists the same
    sorted (effects, replay, control) moves as the compiled executor: a
    move's control point does not depend on either program's search
    order."""
    compiled = RbgCompiledEngine(game)
    interp = RbgInterpreterEngine(game)
    rng = random.Random(seed)
    state = compiled.initial_state()
    for _ in range(plies):
        moves = compiled.probe(state)[0]
        assert [(m.effects, m.replay, m.control) for m in moves] == [
            (m.effects, m.replay, m.control) for m in interp.probe(state)[0]
        ]
        if not moves:
            break
        state = compiled.apply(state, rng.choice(moves))


@settings(max_examples=120, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1))
# a region re-entered below one of its own exits reaches a deeper EMIT
# of one effect sequence first
@example(seed=12393)
def test_jump_tables_change_no_result_on_micro_games(seed):
    # an anySquare-style region opens one turn; the random patterns add
    # stars over shifts, so regions loop, re-enter and exit to checks
    rng = random.Random(seed)
    cols = rng.randint(2, 4)
    rows = [
        [rng.choice(PIECES) for _ in range(cols)] for _ in range(rng.randint(1, 3))
    ]
    first = render(random_micro_pattern(rng, allow_check=True))
    second = render(random_micro_pattern(rng, allow_check=True))
    game = micro_game(
        rows,
        f"->p ( ((up)* + (down)*)((left)* + (right)*) {first} -> q"
        f" {second} -> p )*",
    )
    program = assert_moves_match_pre_pass(game, seed, 6)
    assert_tables_match_regions(game, program)
    assert_interpreter_finds_same_moves(game, seed, 6)


@settings(max_examples=14, deadline=None, database=None)
@given(
    name=st.sampled_from([entry.name for entry in library.list_games()]),
    seed=st.integers(0, 2**32 - 1),
)
def test_jump_tables_change_no_result_on_library_games(name, seed):
    game = RbgGame.from_text(library.load_description(name, "rbg"))
    assert_moves_match_pre_pass(game, seed, 6)


@pytest.mark.parametrize("name", [entry.name for entry in library.list_games()])
def test_library_jump_tables_match_regions(name):
    game = RbgGame.from_text(library.load_description(name, "rbg"))
    assert_tables_match_regions(game, assert_moves_match_pre_pass(game, 0, 4))


def test_compiled_program_holds_only_live_instructions():
    for entry in library.list_games():
        program = library.make_engine(entry.name, "compiled").program
        ops = Counter(instr[0] for instr in program.instrs)
        assert ops[FORK] == ops[SHIFT] == 0
        _, reachable = program_shape(program)
        assert reachable == len(program.instrs), entry.name
