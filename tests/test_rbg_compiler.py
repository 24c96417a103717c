"""Lowering passes and the compiled executor."""

import hashlib
from collections import Counter

import pytest

from ggs import library
from ggs.core.playout import run_playout
from ggs.rbg.compiler import (
    CHECK,
    GSHIFT,
    RAYSCAN,
    RbgCompiledEngine,
    dump_ir,
)
from ggs.rbg.engine import RbgGame, RbgInterpreterEngine

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
# entry-map item, sorted by node; computed before the lowering last changed.
LOWERED_GOLDEN = {
    "Amazons":
        "54bf9f2802f7fd4928f95aff2932b823a980c73b0274f8ecf53aaabb82a59d74",
    "Breakthrough":
        "a5f4a009bde607d42413a343aa4ee3f83bebb49b8c3bce5d104be3922ac99448",
    "Connect-4":
        "2fa73801ecf1f6fd4882f363a2bb9349c088249c71064ad4217ef125aec94349",
    "Gomoku":
        "9c936af11da2eaaf265bd50836521cc689017808664cdd7a67d681bdaecb447c",
    "Hex":
        "995795efb01c3c709f5426cacb3c9f50af067a464b1130a248c9faae92801f1a",
    "Reversi":
        "307e919c3309b424e72cf74842a56c5abef3714fe83205b9ce967560e0046b39",
    "Tic-Tac-Toe":
        "1fb109deaf6a860f5bb40f60c97dc64e82f9c6538f497f201782f2d083cfbe41",
}


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
