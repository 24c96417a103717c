"""Lowering passes and the compiled executor."""

import hashlib
import random
from collections import Counter
from unittest import mock

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
    TAIL,
    VCHECK,
    LoweredProgram,
    _Lowerer,
    dump_ir,
    lower,
    region_exits,
)
from ggs.rbg.engine import (
    RbgCompiledEngine,
    RbgGame,
    RbgInterpreterEngine,
    RunawaySearch,
)
from ggs.rbg.nfa import eliminate_epsilon

from test_rbg_engine import (
    PIECES,
    micro_game,
    random_fold_shapes,
    random_micro_pattern,
    render,
)

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
        "36b237cdac4e6ae97b3c62521d44a98e1be1a460074f647b20b4274758830220",
    "Breakthrough":
        "cc22530c69b1e2ffe74c6110d89113483dd0696e4099c19546c085b6ef3d136a",
    "Connect-4":
        "02f11537c9f632e9cb16bfd969223ad5c14e87ecde2d53e5380886bde22865e4",
    "Gomoku":
        "039576bcb756c457ef30728f25a8fe88d34ea15324843cb657a7200e55af2325",
    "Hex":
        "0ef0f48ad110ec9e430078c9baf1921c1fca489a00a324156143e3e623c21ed4",
    "Reversi":
        "2148f23163ba2afa58bb88c6238c86a49fca814ea93d75e2ff6d0206328538b9",
    "Tic-Tac-Toe":
        "d9682de0fe0c6da7f2eb4b36914d4846bce653c20077181495f6bdc3c34fae3e",
}


# sha256 of ``program_shape``: what the compiled executor can run, however
# the lowering numbers its instructions.
SHAPE_GOLDEN = {
    "Amazons":
        "9fc0992b1db897009c828a37eebbcdacb61182e02382bb07a7b4b81b933a082d",
    "Breakthrough":
        "840fd0cac31c56e6ee19c8c46d94b5eac6bac35e999308218dc1c3ff91599f06",
    "Connect-4":
        "24375a8c2430963b7ddaed2f453b9ec1a8bc49f10d7ccacaaf4f8278aa3a1fb4",
    "Gomoku":
        "08654b52b728ca87c1ddaad504b22b1714d5a08c79d3a11af86a2be175ca42f9",
    "Hex":
        "69c96849a5154bbaf3a30cd7892587d666bf6c7557e893edb8d9a15a0d5c3265",
    "Reversi":
        "d7a81a55adf735bb2c30ee3612d795e7f6e67e76874de363601845e35684594e",
    "Tic-Tac-Toe":
        "331745f6be20cce76aa1775bf02efa39d55941e0c7f1cdce63157bb82444388d",
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
        elif op == VCHECK:
            fields = (instr[1], ref(instr[2]), ref(instr[4]))
        elif op == TAIL:
            fields = instr[1:4]
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
    assert ops[JUMPS] == ops[TAIL] == ops[VCHECK] == 0
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


def unfolded_program(game) -> LoweredProgram:
    """The compiled program as the lowering builds it with jump tables on
    and both folds off: every write of a chain is its own instruction,
    and every check searches its body at each configuration."""
    with mock.patch.object(_Lowerer, "_tail", staticmethod(lambda *_: None)), \
            mock.patch.object(_Lowerer, "_reads_nothing", lambda *_: False):
        return lower(game.nfa, game.board, optimize=True)


def assert_folds_change_no_move(game, seed, plies):
    """At every state of a seeded walk the compiled executor finds the
    same (effects, replay, control) list, in the same order, as it does
    on its program lowered without folds, and the same sorted list as on
    the pre-pass program.  The order against the pre-pass program is not
    compared: a JUMPS table expands its region afresh at every entry, so
    where a region is re-entered from one of its own exits the walker
    can first reach a move there that the pre-pass walk reaches later
    (``probe`` orders moves by their effects, not by the walk)."""
    folded = RbgCompiledEngine(game)
    unfolded = RbgCompiledEngine(game)
    unfolded.program = unfolded_program(game)
    assert not {TAIL, VCHECK} & set(opcode_counts(unfolded))
    pre_pass = RbgCompiledEngine(game)
    pre_pass.program = pre_pass_program(game)
    rng = random.Random(seed)
    state = folded.initial_state()
    for _ in range(plies):
        moves = folded.semimoves(state)
        listed = [(m.effects, m.replay, m.control) for m in moves]
        assert listed == [
            (m.effects, m.replay, m.control) for m in unfolded.semimoves(state)
        ]
        assert sorted(listed) == sorted(
            (m.effects, m.replay, m.control) for m in pre_pass.semimoves(state)
        )
        if not moves:
            break
        state = folded.apply(state, rng.choice(moves))
    return folded.program


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
    folds = rng.random() < 0.5
    check = chain = keep_chain = ""
    if folds:
        # a shift-only check after the region, and write chains ending
        # both turns, one before a switch and one before a keep
        check, chain = random_fold_shapes(rng)
        _, keep_chain = random_fold_shapes(rng)
        keep_chain += " ->>"
    game = micro_game(
        rows,
        f"->p ( ((up)* + (down)*)((left)* + (right)*) {check} {first} {chain}"
        f" -> q {second} {keep_chain} -> p )*",
    )
    program = assert_folds_change_no_move(game, seed, 6)
    assert_tables_match_regions(game, program)
    assert_interpreter_finds_same_moves(game, seed, 6)
    if folds:
        ops = Counter(instr[0] for instr in program.instrs)
        assert ops[TAIL] >= 2 and ops[VCHECK] >= 1


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


# -- write-emit tails and vertex-only checks -----------------------------


@pytest.mark.parametrize("name", [entry.name for entry in library.list_games()])
def test_folds_change_no_result_on_library_games(name):
    game = RbgGame.from_text(library.load_description(name, "rbg"))
    program = assert_folds_change_no_move(game, 0, 6)
    assert TAIL in {instr[0] for instr in program.instrs}


def test_hex_folds_tails_and_six_vertex_only_checks():
    ops = opcode_counts(library.make_engine("hex", "compiled"))
    assert ops[TAIL] >= 1 and ops[VCHECK] == 6 and ops[CHECK] == 3


# each turn places on an empty cell that passes a shift-only check made
# by the semi-move walk itself, not from inside another check's body
TOP_LEVEL_VERTEX_CHECKS = (
    "->p ( ((up)* + (down)*)((left)* + (right)*) {e} {! (up)} [w] -> q"
    " ((up)* + (down)*)((left)* + (right)*) {e} {? (left) (left)} [b] -> p )*"
)


@pytest.mark.parametrize(
    "build",
    [
        lambda: library.make_engine("hex", "compiled"),
        lambda: RbgCompiledEngine(
            micro_game([["e"] * 3] * 3, TOP_LEVEL_VERTEX_CHECKS)
        ),
    ],
    ids=["hex-nested", "micro-top-level"],
)
def test_vertex_only_checks_search_once_per_vertex(build, monkeypatch):
    eng = build()
    vertex_only = {
        id(instr[5]) for instr in eng.program.instrs if instr[0] == VCHECK
    }
    calls = Counter()
    exists = eng._exists

    def spy(sub, vertex, contents, variables, pure):
        if id(sub) in vertex_only:
            calls[id(sub), vertex] += 1
        return exists(sub, vertex, contents, variables, pure)

    monkeypatch.setattr(eng, "_exists", spy)
    result = run_playout(eng, 0)
    assert result.move_count > 0
    # the answers are shared by every VCHECK on one body, so one search
    # per (body, vertex) bounds the searches per (instruction, vertex)
    assert calls and max(calls.values()) == 1


def test_tail_past_the_effect_cap_names_itself(monkeypatch):
    eng = library.make_engine("hex", "compiled")
    monkeypatch.setattr(eng, "_effect_cap", 1)
    with pytest.raises(RunawaySearch) as info:
        eng.semimoves(eng.initial_state())
    assert eng.program.instrs[info.value.instr][0] == TAIL
