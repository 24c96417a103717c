"""Lowering passes and the compiled executor."""

import hashlib
import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from ggs import library
from ggs.core.playout import run_playout
from ggs.rbg import ast, compiler
from ggs.rbg.compiler import (
    _NAMES,
    ACCEPT,
    ASSIGN,
    CHECK,
    EMIT,
    FORK,
    JUMPS,
    ON,
    SEARCH,
    SET,
    SHIFT,
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
    recursive_semimoves,
    render,
    walk_outcome,
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


def write_emits(program) -> int:
    """How many EMITs of ``program`` carry a folded write chain."""
    return sum(instr[0] == EMIT and bool(instr[1]) for instr in program.instrs)


def check_tables(program) -> list:
    """The per-vertex tables of ``program``'s checks, one per body."""
    return list({
        id(instr[6]): instr[6] for instr in program.instrs if instr[0] == CHECK
    }.values())


def test_dump_ir_is_byte_stable():
    def build():
        game = RbgGame.from_text(library.load_description("amazons", "rbg"))
        return dump_ir(RbgCompiledEngine(game).program)

    first, second = build(), build()
    assert first == second
    assert first.splitlines()[0].lstrip().startswith("0:")


def lowered_digest(program) -> str:
    """sha256 of ``dump_ir`` followed by one "<nfa node> <entry index>"
    line per entry-map item, sorted by node: the whole program as
    numbered."""
    text = dump_ir(program) + "".join(
        f"{node} {idx}\n" for node, idx in sorted(program.entry.items())
    )
    return hashlib.sha256(text.encode()).hexdigest()


# ``lowered_digest`` of each compiled program: region steps are its own
# FORK and SHIFT instructions, behind a JUMPS where control enters them.
LOWERED_GOLDEN = {
    "Amazons":
        "55c87a9609785de01e868953ed15c4adc8155930d48af48fa7857107869764cd",
    "Breakthrough":
        "9ff48b9db1a3e5824e0ce3cfa1c5348ab006c7a51e64d992e42bf3a8d5646ff5",
    "Connect-4":
        "063b18f3614f9d31772b73b79a05f4b5824cf9bae7fd25b1484ce0d77493e2f1",
    "Gomoku":
        "a3d7f639858327b5e7390f18b5e1f1b67bce9c0f9272f9cb97a6cc336d1b5b26",
    "Hex":
        "81ff8d960f9828fce68e98e4e7dd8e6e3c26372544dfc1131d48047ecc78b3a0",
    "Reversi":
        "4268b7eacabff648cb8396ea53293ef3778380106109ef8e81487f25741f9a4d",
    "Tic-Tac-Toe":
        "f3cdfa91f8aedd175dab6970a87b4e3129bba7c0b4d7e6d0d98345ce57c3c492",
}


# ``lowered_digest`` of each interpreter program.
INTERP_LOWERED_GOLDEN = {
    "Amazons":
        "94030e5beeed6f3d271f774e96e926ce122faab81b905adee160ba2fa5364f03",
    "Breakthrough":
        "be9ec38af484f9cb138f63b50540aadba36af38518b9f81eb54abe531f3fba65",
    "Connect-4":
        "4fe0d925db84ab86fac284bc3520a4ecb1e380874a1254ac67c3bf783a718536",
    "Gomoku":
        "b3dffe1723d1f7c194f18710ebe30b52daf233340bbebe20cf141679506ca5f9",
    "Hex":
        "7df9f0e919c95c61c5465dfe1a43f33a1a18876eb09c69e98ffca508a3362bc9",
    "Reversi":
        "c3c1b01e34da8125132ed8ce6d1c0d60b4e428639101c8daa03f9856de8234ba",
    "Tic-Tac-Toe":
        "011a0e85fb4c5f59f6fd39034c9e0920c4bb77c2826f8e5cb61f5aba781f2ca4",
}


# sha256 of ``program_shape``: what the compiled executor can run, however
# the lowering numbers its instructions.
SHAPE_GOLDEN = {
    "Amazons":
        "9fc0992b1db897009c828a37eebbcdacb61182e02382bb07a7b4b81b933a082d",
    "Breakthrough":
        "232709281cfe28ce922a5622d9b9df2e938c32a7bff4a06cff4454aa56dcbb94",
    "Connect-4":
        "24375a8c2430963b7ddaed2f453b9ec1a8bc49f10d7ccacaaf4f8278aa3a1fb4",
    "Gomoku":
        "08654b52b728ca87c1ddaad504b22b1714d5a08c79d3a11af86a2be175ca42f9",
    "Hex":
        "0dfdd3bdc1ac0f30e9b2374656fec1499cf98848b345630ad334c71b87568ae5",
    "Reversi":
        "c255cdb2b56442855471d23d7615c6ca27ca698f411cb63d041900b2444e9e11",
    "Tic-Tac-Toe":
        "331745f6be20cce76aa1775bf02efa39d55941e0c7f1cdce63157bb82444388d",
}


def is_region_step(program, i) -> bool:
    """Whether instruction ``i`` is a step of a JUMPS region: a FORK or a
    SHIFT; any other instruction is an exit."""
    return program.instrs[i][0] in (FORK, SHIFT)


def region_shape(program, start) -> tuple:
    """The FORK/SHIFT region a JUMPS stands for, numbered in preorder from
    its start: one (op, fields) per region instruction, exits as "x"."""
    local: dict = {}
    order: list = []

    def ref(i):
        if not is_region_step(program, i):
            return "x"
        if i not in local:
            local[i] = len(order)
            order.append(i)
        return local[i]

    ref(start)
    shape = []
    for i in order:  # grows while it is walked
        node = program.instrs[i]
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
        elif op == EMIT:
            fields = instr[1:4]
        elif op == JUMPS:
            fields = (
                tuple(ref(t) for t in region_exits(program, instr[2])[1]),
                region_shape(program, instr[2]),
            )
        elif op == ACCEPT:
            fields = ()
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
    # no jump table and no folded write chain; every library check body
    # opens with a FORK or a SHIFT, so each table entry the playout builds
    # is SEARCH
    eng = library.make_engine(game, "interpreter")
    program = eng.program
    assert opcode_counts(eng)[JUMPS] == 0
    assert write_emits(program) == 0
    _, reachable = program_shape(program)
    assert reachable == len(program.instrs)
    run_playout(eng, 0)
    entries = [entry for table in check_tables(program) for entry in table.values()]
    assert all(entry is SEARCH for entry in entries)
    assert bool(entries) == (game != "Amazons")


def test_both_executors_share_one_walker():
    for name in ("semimoves", "_exists"):
        assert getattr(RbgInterpreterEngine, name) is getattr(
            RbgCompiledEngine, name
        )


@pytest.mark.parametrize("game", sorted(LOWERED_GOLDEN))
def test_lowered_program_is_pinned(game):
    program = library.make_engine(game, "compiled").program
    assert lowered_digest(program) == LOWERED_GOLDEN[game]


@pytest.mark.parametrize("game", sorted(INTERP_LOWERED_GOLDEN))
def test_interpreter_lowered_program_is_pinned(game):
    program = library.make_engine(game, "interpreter").program
    assert lowered_digest(program) == INTERP_LOWERED_GOLDEN[game]


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


def region_walk(program, i, vertex, seen, out):
    """Append to ``out`` the (exit, vertex) pairs the FORK and SHIFT
    instructions of ``program`` alone reach from ``i``, in depth-first
    preorder."""
    if (i, vertex) in seen:
        return
    seen.add((i, vertex))
    node = program.instrs[i]
    if not is_region_step(program, i):
        out.append((i, vertex))
    elif node[0] == FORK:
        for t in node[1]:
            region_walk(program, t, vertex, seen, out)
    else:
        nv = program.shift_table[node[1]][vertex]
        if nv >= 0:
            region_walk(program, node[2], nv, seen, out)


def assert_tables_match_regions(game, program):
    """Every JUMPS table, expanded at every vertex (and as far as the
    walker filled it), lists the exits of a recursive walk of its region,
    and every exit is an instruction the program runs."""
    instrs = program.instrs
    for instr in instrs:
        if instr[0] != JUMPS:
            continue
        assert is_region_step(program, instr[2])
        for vertex in range(game.board.vertex_count):
            expected: list = []
            region_walk(program, instr[2], vertex, set(), expected)
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


def search_everywhere(program) -> LoweredProgram:
    """``program`` with every check-table entry SEARCH, so that every
    check searches its body at each configuration."""
    program.check_tests = lambda entry, vertex: SEARCH
    return program


def unfolded_program(game) -> LoweredProgram:
    """The compiled program as the lowering builds it with jump tables on
    and both folds off: every write of a chain is its own instruction,
    and every check searches its body at each configuration."""
    with mock.patch.object(_Lowerer, "_write_chain", staticmethod(lambda *_: None)):
        return search_everywhere(lower(game.nfa, game.board, optimize=True))


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
    assert write_emits(unfolded.program) == 0
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


def assert_jump_tables_change_no_result(game, seed):
    """The folds, the jump tables and the interpreter agree on a seeded
    walk of ``game``, and the tables list their regions' exits."""
    program = assert_folds_change_no_move(game, seed, 6)
    assert_tables_match_regions(game, program)
    assert_interpreter_finds_same_moves(game, seed, 6)
    return program


def test_jump_tables_on_region_reentered_below_its_exit():
    # a region re-entered below one of its own exits reaches a deeper EMIT
    # of one effect sequence first (once drawn by the micro-game test
    # below as its seed 12393)
    game = micro_game(
        [["e", "e", "e"], ["b", "e", "b"], ["b", "b", "e"]],
        "->p ( ((up)* + (down)*)((left)* + (right)*) ((down))* -> q"
        " ((((left) {e, b}) + ((right))*))* -> p )*",
    )
    assert_jump_tables_change_no_result(game, 12393)


@settings(max_examples=120, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1))
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
        # a cell-test-only check after the region, and write chains ending
        # both turns, one before a switch and one before a keep
        check, chain = random_fold_shapes(rng)
        _, keep_chain = random_fold_shapes(rng)
        keep_chain += " ->>"
    game = micro_game(
        rows,
        f"->p ( ((up)* + (down)*)((left)* + (right)*) {check} {first} {chain}"
        f" -> q {second} {keep_chain} -> p )*",
    )
    program = assert_jump_tables_change_no_result(game, seed)
    if folds:
        # the check after the region is answered from its table
        assert write_emits(program) >= 2
        assert any(
            entry is not SEARCH
            for table in check_tables(program) for entry in table.values()
        )


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


def successors(instr) -> tuple:
    """The instruction indices control can go to from ``instr``, a JUMPS
    followed to its start."""
    op = instr[0]
    if op == FORK:
        return instr[1]
    if op == JUMPS:
        return (instr[2],)
    if op == CHECK:
        return (instr[2], instr[4])
    if op in (SHIFT, ON, SET, ASSIGN):
        return (instr[-1],)
    return ()


def test_compiled_program_holds_only_live_instructions():
    # every instruction is reached from the entry map when a JUMPS is
    # followed to its start, and a FORK or SHIFT only from a JUMPS, a FORK
    # branch or a SHIFT's next, so the walker never runs one
    for entry in library.list_games():
        program = library.make_engine(entry.name, "compiled").program
        instrs = program.instrs
        seen = set(program.entry.values())
        stack = list(seen)
        while stack:
            instr = instrs[stack.pop()]
            for t in successors(instr):
                if instrs[t][0] in (FORK, SHIFT):
                    assert instr[0] in (JUMPS, FORK, SHIFT), entry.name
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        assert len(seen) == len(instrs), entry.name
        assert all(instrs[i][0] not in (FORK, SHIFT) for i in program.entry.values())


# -- write-emit tails and cell-test-only checks --------------------------


@pytest.mark.parametrize("name", [entry.name for entry in library.list_games()])
def test_folds_change_no_result_on_library_games(name):
    game = RbgGame.from_text(library.load_description(name, "rbg"))
    program = assert_folds_change_no_move(game, 0, 6)
    assert write_emits(program) >= 1


def test_hex_folds_tails_and_six_vertex_only_checks():
    # six of Hex's nine checks only shift, so each vertex of their tables
    # is a constant; the other three nest a check and search everywhere
    eng = library.make_engine("hex", "compiled")
    program = eng.program
    assert write_emits(program) >= 1 and opcode_counts(eng)[CHECK] == 9
    run_playout(eng, 0)
    kinds = Counter(
        "constant" if all(entry in (True, False) for entry in instr[6].values())
        else "search" if all(entry is SEARCH for entry in instr[6].values())
        else "mixed"
        for instr in program.instrs if instr[0] == CHECK
    )
    assert kinds == {"constant": 6, "search": 3}


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
    program = eng.program
    vertex_only = {  # bodies that only shift
        id(instr[5]) for instr in program.instrs if instr[0] == CHECK
        and all(
            label[0] in ("shift", "eps")
            for out in instr[5].edges for label, _ in out
        )
    }
    assert vertex_only
    builds = Counter()
    searched = []
    check_tests, exists = program.check_tests, eng._exists

    def spy_tests(entry, vertex):
        builds[entry, vertex] += 1
        return check_tests(entry, vertex)

    def spy_exists(sub, vertex, contents, variables, pure):
        if id(sub) in vertex_only:
            searched.append(vertex)
        return exists(sub, vertex, contents, variables, pure)

    monkeypatch.setattr(program, "check_tests", spy_tests)
    monkeypatch.setattr(eng, "_exists", spy_exists)
    result = run_playout(eng, 0)
    assert result.move_count > 0
    # the table is shared by every CHECK on one body, so one build per
    # (body, vertex) bounds the builds per (instruction, vertex); the
    # shift-only bodies read no cell, so each entry is a constant and none
    # searches
    assert builds and max(builds.values()) == 1
    assert not searched


# (constant, tests, SEARCH) entries of the compiled check tables, each
# body's table counted once, after the seed-0 compiled playout.  SEARCH
# entries are those of bodies that nest a check (Breakthrough, Hex,
# Reversi) or open with anySquare (Connect-4's anyLine4, Gomoku's
# anyLine5), whose expansion passes the bound.
FOLD_COVERAGE = {
    "Amazons": (0, 0, 0),
    "Breakthrough": (73, 0, 51),
    "Connect-4": (7, 71, 14),
    "Gomoku": (0, 449, 132),
    "Hex": (164, 0, 120),
    "Reversi": (258, 589, 61),
    "Tic-Tac-Toe": (0, 25, 0),
}


@pytest.mark.parametrize("game", sorted(FOLD_COVERAGE))
def test_fold_coverage_is_pinned(game):
    eng = library.make_engine(game, "compiled")
    run_playout(eng, 0)
    program = eng.program
    kinds = Counter(
        SEARCH if entry is SEARCH else tuple if entry.__class__ is tuple
        else bool
        for table in check_tables(program) for entry in table.values()
    )
    assert (kinds[bool], kinds[tuple], kinds[SEARCH]) == FOLD_COVERAGE[game]
    if game in ("Connect-4", "Gomoku"):
        # their SEARCH entries are anyLine4's and anyLine5's: the body's
        # first step reaches every cell from any vertex, so no vertex of
        # it is answered from a test list
        everywhere = set(range(eng.board.vertex_count))
        for instr in program.instrs:
            if instr[0] == CHECK and SEARCH in instr[6].values():
                assert set(instr[6].values()) == {SEARCH}
                jumps = program.instrs[instr[2]]
                assert jumps[0] == JUMPS
                assert set(program.jump_exits(jumps[2], 0)[1]) == everywhere


def cell_test_body(rng):
    """A check body of shifts, piece tests, Alt and Star, which the
    compiled tables answer without a search.
    Half the draws open with a pure loop at one vertex, a star that steps
    to a neighbour and back testing cells, so that a body tests one cell
    more than once."""
    body = random_micro_pattern(rng, 1, allow_mutation=False)
    if rng.random() < 0.5:
        there, back = rng.choice((("up", "down"), ("left", "right")))
        step = (ast.Name(there), ast.On(tuple(rng.sample(PIECES, 2))),
                ast.Name(back))
        loop = ast.Star(ast.Concat(rng.sample(step, 3)))
        body = ast.Concat((loop, body, ast.On(tuple(rng.sample(PIECES, 2)))))
    return body


def check_body(rng):
    """A check body: four in ten draws only move and test cells
    (``cell_test_body``); the others add a cell write that the body then
    tests or a variable assignment, each beside cell tests, or a nested
    check beside a drawn pattern that may write and nest checks itself."""
    roll = rng.random()
    if roll < 0.4:
        return cell_test_body(rng)
    if roll < 0.6:
        opening = ast.Concat((
            ast.SetHere(rng.choice(PIECES)),
            ast.On(tuple(rng.sample(PIECES, rng.randint(1, 2)))),
        ))
    elif roll < 0.7:
        opening = ast.AssignVars(((rng.choice("pq"), rng.randint(0, 100)),))
    else:
        opening = ast.Check(rng.random() < 0.5, cell_test_body(rng))
    rest = (
        cell_test_body(rng) if roll < 0.7
        else random_micro_pattern(rng, 1, allow_check=True)
    )
    return ast.Concat((opening, rest) if rng.random() < 0.7 else (rest, opening))


@settings(max_examples=150, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_check_tests_match_search_of_unfolded_body(seed):
    # The body is asked at the top level ({? body}, so ``semimoves``
    # evaluates its table) and inside another check ({? {! body}}, so
    # ``_exists`` does), in both executors, against the same program with
    # every table entry SEARCH; small bounds leave some vertices or all of
    # them to the search.  Exactly one move is legal: [w] where the body
    # holds, [b] where it does not.
    rng = random.Random(seed)
    cols = rng.randint(2, 4)
    rows = [["e"] * cols for _ in range(rng.randint(1, 3))]
    body = render(check_body(rng))
    game = micro_game(
        rows, f"->p ( {{? {body}}} [w] -> q + {{? {{! {body}}}}} [b] -> q )*"
    )
    bound = rng.choice((0, 3, 12, compiler.CHECK_TEST_BOUND))
    boards = [
        [rng.randrange(len(PIECES)) for _ in range(cols * len(rows))]
        for _ in range(4)
    ]
    with mock.patch.object(compiler, "CHECK_TEST_BOUND", bound):
        for engine_cls in (RbgInterpreterEngine, RbgCompiledEngine):
            eng, searched = engine_cls(game), engine_cls(game)
            search_everywhere(searched.program)
            for contents in boards:
                for vertex in range(len(contents)):
                    state = eng.initial_state()
                    state.contents, state.current_vertex = contents, vertex
                    moves = [m.effects for m in eng.semimoves(state)]
                    assert len(moves) == 1
                    assert moves == [
                        m.effects for m in searched.semimoves(state)
                    ], (engine_cls.__name__, body, rows, contents, vertex, bound)


def test_tail_past_the_effect_cap_names_itself(monkeypatch):
    eng = library.make_engine("hex", "compiled")
    monkeypatch.setattr(eng, "_effect_cap", 1)
    with pytest.raises(RunawaySearch) as info:
        eng.semimoves(eng.initial_state())
    instr = eng.program.instrs[info.value.instr]
    assert instr[0] == EMIT and instr[1]  # an EMIT with a write chain


@pytest.mark.parametrize("ending", ["-> q", "->> -> q"], ids=["switch", "keep"])
def test_folded_emit_cap_counts_effects_not_the_pass(ending):
    # three effects: [b], then the folded chain [w] [$ p=1]
    game = micro_game([["e"] * 3], f"->p ( right [b] right [w] [$ p=1] {ending} )*")
    assert write_emits(RbgCompiledEngine(game).program) == 1
    for engine_cls in (RbgInterpreterEngine, RbgCompiledEngine):
        for cap in (3, 2):
            eng = engine_cls(game)
            eng._effect_cap = cap
            state = eng.initial_state()
            got, moves = walk_outcome(engine_cls.semimoves, eng, state)
            assert got == walk_outcome(recursive_semimoves, eng, state)[0]
            if cap == 3:
                assert [m.effects[:3] for m in moves] == [
                    (("cell", 1, 2), ("cell", 2, 1), ("var", "p", 1))
                ]
                continue
            assert got[0] == "runaway", engine_cls.__name__
            if engine_cls is RbgCompiledEngine:
                instr = eng.program.instrs[got[1]]
                assert instr[0] == EMIT and instr[1]
