"""Lowering passes and the compiled executor."""

import hashlib
from collections import Counter

import pytest

from ggs import library
from ggs.core.playout import run_playout
from ggs.rbg.compiler import (
    _NAMES,
    ACCEPT,
    CHECK,
    EMIT,
    FORK,
    GSHIFT,
    RAYSCAN,
    dump_ir,
)
from ggs.rbg.engine import RbgCompiledEngine, RbgGame, RbgInterpreterEngine

MICRO_RAY = """
#players = p(100), q(100)
#pieces = e, w
#variables =
#board = rectangle(up,down,left,right, [w, e, e])
#rules = ->p ( (right {e}) (right {e})* [w] -> q )*
"""


def opcode_counts(engine):
    return Counter(instr[0] for instr in engine.program.instrs)


def test_guarded_shift_fusion_and_rayscan():
    eng = RbgCompiledEngine(RbgGame.from_text(MICRO_RAY))
    counts = opcode_counts(eng)
    assert counts[RAYSCAN] >= 1
    assert counts[GSHIFT] >= 1


def test_amazons_queenshift_lowers_to_rays():
    game = RbgGame.from_text(library.load_description("amazons", "rbg"))
    counts = opcode_counts(RbgCompiledEngine(game))
    # eight ray directions per queenShift occurrence
    assert counts[RAYSCAN] > 0
    assert counts[RAYSCAN] % 8 == 0


def test_dump_ir_is_byte_stable():
    def build():
        game = RbgGame.from_text(library.load_description("amazons", "rbg"))
        return dump_ir(RbgCompiledEngine(game).program)

    first, second = build(), build()
    assert first == second
    assert first.splitlines()[0].lstrip().startswith("0:")


# sha256 of ``dump_ir`` followed by one "<nfa node> <entry index>" line per
# entry-map item, sorted by node: the whole program as numbered, dead
# instructions included.
LOWERED_GOLDEN = {
    "Amazons":
        "b620c9ef604896db8f02c03fe5c08bcf98660295d6273fae31411a391ee7baf8",
    "Breakthrough":
        "f3e0502d2063e3c1028db71686f102daaa904299071695f65a9a20fcc916743b",
    "Connect-4":
        "2cdd55c870a806df9bd4ba4244a88e1301b6919c1d0087b222428430793202ac",
    "Gomoku":
        "86bb5841bc2c027d5bb9e1e0d16e725563367130e58888c3ff8859422e0afe92",
    "Hex":
        "42212e0153bd9a7d0035c20090f3170c2d488fb2b83c11261e6dde02f8f53630",
    "Reversi":
        "50b554d4466011c028bd281fa01d1a60628517152353bbe0663790395da07bfa",
    "Tic-Tac-Toe":
        "9703c8c28bee000b90cb468da50ad00d2004d26d6fd86dc586c6b2c415aca736",
}


# sha256 of ``program_shape``: what the compiled executor can run, however
# the lowering numbers its instructions.
SHAPE_GOLDEN = {
    "Amazons":
        "38213f73d91c4a01edb122da53b7e3f265d75676e535b1c2330ac3d327c8080f",
    "Breakthrough":
        "599ddadf1dc80c6597f76be810f4bfc8acee4a486126a7e5754e5c497d032e0c",
    "Connect-4":
        "4030d0459e868bf38cc3a6493b8f587cb75e69a3c94155ba1604ab3c67518d7e",
    "Gomoku":
        "ec3d95ea732201f901b279e1b30096a1d9cb85013e4adb0d3099475042877664",
    "Hex":
        "81f3862a321705d944755828c42477cc021f2722cd1f879487cc752220d2ecf7",
    "Reversi":
        "8a6147e31a40f8da58a498f153f092dc6f920c430a29f1e9a6d3e29e7f6cb945",
    "Tic-Tac-Toe":
        "e34a1d641bb9c00ff150cf33d0e9c6c1330aed8021ca21ee5e2475345f1d1cec",
}


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
    assert ops[GSHIFT] == ops[RAYSCAN] == 0
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
    # every stop of the ray starts the rest of the body
    for row, legal in (("e, e, e, e, w", 1), ("e, e, e, b, w", 0)):
        game = RbgGame.from_text(RAY_CHECK.replace("ROW", row))
        compiled = RbgCompiledEngine(game)
        assert opcode_counts(compiled)[RAYSCAN] >= 1
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
        interp.delta_text(state, m): m.control for m in interp.legal_moves(state)
    }
    by_delta_c = {
        compiled.delta_text(state, m): m.control
        for m in compiled.legal_moves(state)
    }
    assert by_delta_i == by_delta_c


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
