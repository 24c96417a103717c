"""Macro expansion, and the name checks made as the rules are compiled."""

import random
import time

import pytest

from ggs import library
from ggs.rbg import ast, expand
from ggs.rbg.expand import (
    ArityMismatch,
    ExpansionTooLarge,
    RbgValidationError,
    RecursionDetected,
    UnknownMacro,
    expand_macros,
)
from ggs.rbg.engine import RbgCompiledEngine, RbgGame, RbgInterpreterEngine
from ggs.rbg.parser import parse_rbg


def source(rules, extra="", board="[e, w] [b, e]"):
    return f"""
#players = white(100), black(100)
#pieces = e, w, b
#variables = turn(3)
#board = rectangle(up,down,left,right, {board})
{extra}
#rules = {rules}
"""


def build(rules, extra=""):
    return parse_rbg(source(rules, extra))


def test_simple_macro_substitution():
    game = expand_macros(
        build("->white step -> black", "#step = up {e} [w]")
    )
    assert game.macros == {}
    assert ast.Name("step") not in game.rules.parts


def collect(pat, predicate, out=None):
    if out is None:
        out = []
    if predicate(pat):
        out.append(pat)
    for attr in ("parts", "args"):
        for child in getattr(pat, attr, ()):
            collect(child, predicate, out)
    if hasattr(pat, "child"):
        collect(pat.child, predicate, out)
    return out


def test_parameter_substitution_in_atoms():
    game = expand_macros(
        build("->white put(w) -> black", "#put(p) = up {e} [p]")
    )
    # the SetHere atom received the argument
    assert collect(game.rules, lambda p: p == ast.SetHere("w"))


def test_direction_parameters():
    game = expand_macros(
        build("->white go(up) go(down) -> black", "#go(d) = d {e}")
    )
    names = collect(game.rules, lambda p: isinstance(p, ast.Name))
    assert ast.Name("up") in names and ast.Name("down") in names


def test_nested_macros_expand_to_fixpoint():
    game = expand_macros(
        build(
            "->white outer -> black",
            "#inner = up {e}\n#outer = inner inner",
        )
    )
    flat = game.rules
    assert "inner" not in repr(flat)


def test_unknown_macro():
    with pytest.raises(UnknownMacro):
        expand_macros(build("->white nosuch(up) -> black"))


def test_arity_mismatch():
    with pytest.raises(ArityMismatch):
        expand_macros(build("->white go(up; down) -> black", "#go(d) = d"))


def test_recursion_detected():
    with pytest.raises(RecursionDetected):
        expand_macros(build("->white loop -> black", "#loop = up loop"))


def test_pattern_argument_in_atom_position_rejected():
    with pytest.raises(RbgValidationError):
        expand_macros(
            build("->white put(up {e}) -> black", "#put(p) = [p]")
        )


def validate_rules(rules, extra="", board="[e, w] [b, e]"):
    return RbgGame.from_text(source(rules, extra, board))


def test_validate_accepts_minimal():
    validate_rules("->white ( up {e} [w] -> black )*")


def test_validate_unknown_piece():
    with pytest.raises(RbgValidationError):
        validate_rules("->white [q] -> black")
    with pytest.raises(RbgValidationError):
        validate_rules("->white {q} [w] -> black")


def test_validate_unknown_player():
    with pytest.raises(RbgValidationError):
        validate_rules("->white -> nobody")


def test_validate_unknown_direction():
    with pytest.raises(UnknownMacro):
        validate_rules("->white sideways -> black")


DIRECTION_BEFORE_GROUP = (
    "->white ( ((up)* + (down)*)((left)* + (right)*) {e} STEP"
    " ->black ((up)* + (down)*)((left)* + (right)*) {e} [b] ->white )*"
)


def test_direction_before_a_group_is_a_shift():
    # a declared direction called with one argument is no macro call: it
    # shifts, then matches the group
    variants = ("right ( [w] )", "right([w])", "right [w]")
    games = [
        validate_rules(DIRECTION_BEFORE_GROUP.replace("STEP", step),
                       board="[e, e, e] [e, e, e]")
        for step in variants
    ]
    for engine_cls in (RbgInterpreterEngine, RbgCompiledEngine):
        engines = [engine_cls(game) for game in games]
        states = [eng.initial_state() for eng in engines]
        rng = random.Random(0)
        for _ in range(6):
            lists = [
                [(m.effects, m.replay, m.control) for m in eng.semimoves(state)]
                for eng, state in zip(engines, states)
            ]
            assert lists[0] and lists[0] == lists[1] == lists[2], engine_cls
            k = rng.randrange(len(lists[0]))
            states = [
                eng.apply(state, eng.semimoves(state)[k])
                for eng, state in zip(engines, states)
            ]


def test_validate_bound_exceeded():
    with pytest.raises(RbgValidationError):
        validate_rules("->white [$ white=101] -> black")
    with pytest.raises(RbgValidationError):
        validate_rules("->white [$ turn=4] -> black")
    validate_rules("->white [$ white=100, turn=3] -> black")


def test_validate_unknown_variable():
    with pytest.raises(RbgValidationError, match="unknown variable 'nosuch'"):
        validate_rules("->white [$ nosuch=1] -> black")


def test_validate_unknown_board_literal_piece():
    with pytest.raises(RbgValidationError, match="board literal"):
        validate_rules("->white [w] -> black", board="[e, q] [b, e]")


def test_validate_no_switch_inside_check():
    with pytest.raises(RbgValidationError):
        validate_rules("->white {? up -> black} -> black")
    with pytest.raises(RbgValidationError):
        validate_rules("->white {! ->> } -> black")


def test_nesting_is_counted_through_macro_bodies_and_arguments():
    # each macro adds 20 stars to the previous one; no single body nests
    # deeply, the expanded rules do
    chain = "#m0 = up\n" + "".join(
        f"#m{i} = m{i - 1}" + "*" * 20 + "\n" for i in range(1, 61)
    )
    with pytest.raises(RecursionDetected, match="nest deeper than"):
        expand_macros(build("->white m60 -> black", chain))
    # an argument nests as deep as the place it is substituted into
    passing = "#m0(p) = p\n" + "".join(
        f"#m{i}(p) = m{i - 1}(p" + "*" * 10 + ")\n" for i in range(1, 20)
    )
    with pytest.raises(RecursionDetected, match="nest deeper than"):
        expand_macros(build("->white m19(up) -> black", passing))
    expand_macros(build("->white m5(up) -> black", passing))


def doubling(n):
    """n macros, each an alternative of two copies of the one before."""
    return "#m0 = up\n" + "".join(
        f"#m{i} = (m{i - 1} + m{i - 1})\n" for i in range(1, n + 1)
    )


def expansion_size(text):
    game = parse_rbg(text)
    built = [0]
    expand._expand(game.rules, game.macros, game.board_directions, {}, 0, built)
    return built[0]


def test_library_expansions_stay_far_below_the_size_bound():
    sizes = {
        entry.name: expansion_size(library.load_description(entry.name, "rbg"))
        for entry in library.list_games()
    }
    # the largest, Reversi, when the bound was set
    assert max(sizes.values()) == sizes["Reversi"] == 2352
    assert 20 * max(sizes.values()) < expand.MAX_EXPANDED_NODES


def test_doubling_macros_stop_at_the_size_bound():
    assert expansion_size(source("->white m12 -> black", doubling(12))) < (
        expand.MAX_EXPANDED_NODES
    )
    for n in (15, 16):
        start = time.perf_counter()
        with pytest.raises(ExpansionTooLarge, match="more than 50000 nodes"):
            RbgGame.from_text(source(f"->white m{n} -> black", doubling(n)))
        assert time.perf_counter() - start < 0.5, n
    assert issubclass(ExpansionTooLarge, RbgValidationError)
