"""Parser structure and precedence for the regex game dialect."""

import pytest

from ggs.rbg import ast
from ggs.rbg.lexer import tokenize_rbg
from ggs.rbg.parser import (
    DuplicateSection,
    ParseError,
    RaggedBoard,
    _Parser,
    parse_rbg,
)


def parse_pattern_text(text):
    """Parse a standalone pattern."""
    parser = _Parser(tokenize_rbg(text))
    node = parser.parse_pattern()
    parser.take("EOF")
    return node

MINIMAL = """
#players = white(100), black(100)
#pieces = e, w
#variables =
#board = rectangle(up,down,left,right, [e, w] [w, e])
#rules = ->white ( up {e} [w] -> black )*
"""


def test_minimal_game_parses():
    game = parse_rbg(MINIMAL)
    assert game.players == (("white", 100), ("black", 100))
    assert game.piece_symbols == ("e", "w")
    assert game.board_generator == "rectangle"
    assert game.board_rows == (("e", "w"), ("w", "e"))


def test_sections_any_order():
    lines = MINIMAL.strip().splitlines()
    reordered = "\n".join(lines[::-1])
    # reversing the single-line sections still parses to the same game
    assert parse_rbg(reordered).players == (("white", 100), ("black", 100))


def test_duplicate_section_rejected():
    with pytest.raises(DuplicateSection):
        parse_rbg(MINIMAL + "\n#pieces = e, w")


def test_missing_section_rejected():
    partial = "\n".join(MINIMAL.strip().splitlines()[:-1])
    with pytest.raises(ParseError):
        parse_rbg(partial)


def test_ragged_board_rejected():
    with pytest.raises(RaggedBoard):
        parse_rbg(MINIMAL.replace("[w, e]", "[w]"))


def test_alternation_binds_looser_than_concat():
    pat = parse_pattern_text("up {e} + down {e}")
    assert isinstance(pat, ast.Alt)
    assert all(isinstance(p, ast.Concat) for p in pat.parts)


def test_star_binds_tightest():
    pat = parse_pattern_text("up down*")
    assert isinstance(pat, ast.Concat)
    assert isinstance(pat.parts[1], ast.Star)
    assert pat.parts[1].child == ast.Name("down")


def test_check_patterns():
    pos = parse_pattern_text("{? up {e}}")
    neg = parse_pattern_text("{! up}")
    assert isinstance(pos, ast.Check) and pos.positive
    assert isinstance(neg, ast.Check) and not neg.positive


def test_on_set_assign_switch():
    assert parse_pattern_text("{e, w}") == ast.On(("e", "w"))
    assert parse_pattern_text("[w]") == ast.SetHere("w")
    assert parse_pattern_text("[$ white=100, black=0]") == ast.AssignVars(
        (("white", 100), ("black", 0))
    )
    assert parse_pattern_text("-> black") == ast.SwitchTo("black")
    assert parse_pattern_text("->>") == ast.SwitchKeep()


def test_macro_definition_and_call():
    src = MINIMAL + "\n#pair(a; b) = (a b)"
    game = parse_rbg(src)
    params, body = game.macros["pair"]
    assert params == ("a", "b")
    assert isinstance(body, ast.Concat)
    call = parse_pattern_text("pair(up; down {e})")
    assert isinstance(call, ast.Call)
    assert call.name == "pair" and len(call.args) == 2


def test_parse_error_reports_position_and_expectation():
    with pytest.raises(ParseError) as err:
        parse_pattern_text("up + *")
    assert err.value.token.line == 1


def test_nesting_past_the_bound_is_a_positioned_parse_error():
    deep = ast.MAX_NESTING
    parse_pattern_text("(" * deep + "up" + ")" * deep)
    parse_pattern_text("up" + "*" * deep)
    parse_pattern_text("{? " * deep + "up" + "}" * deep)
    # the first opener, or the first star, past the bound is reported
    for text, col in (
        ("(" * (deep + 1) + "up" + ")" * (deep + 1), deep + 1),
        ("up" + "*" * (deep + 1), 3 + deep),
        ("{? " * (deep + 1) + "up" + "}" * (deep + 1), 3 * deep + 1),
        ("(" * (deep - 2) + "up**" + ")" * (deep - 2) + "*", 2 * deep + 1),
        ("(up" + "*" * (deep - 1) + " down)*", deep + 9),
        ("f(" * (deep + 1) + "up" + ")" * (deep + 1), 2 * deep + 2),
    ):
        with pytest.raises(ParseError, match="nest deeper than") as err:
            parse_pattern_text(text)
        assert (err.value.token.line, err.value.token.col) == (1, col), text
