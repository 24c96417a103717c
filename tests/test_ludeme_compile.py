"""Ludeme registry dispatch and game compilation."""

import pytest

from ggs import library
from ggs.ludeme.compile import (
    ArityError,
    LudemeError,
    OverlappingPlacement,
    PlacementOutOfRange,
    UnknownDirection,
    UnknownLudeme,
    UnknownPiece,
    UnsupportedPlayerCount,
    compile_ludemic,
)

AMAZONS = library.load_description("amazons", "ludemic")
HEX = library.load_description("hex", "ludemic")
REVERSI = library.load_description("reversi", "ludemic")
TICTACTOE = library.load_description("tictactoe", "ludemic")

# (name, source, replaced text, replacement, error, the replacement's
# substring the diagnostic points at)
BAD_DESCRIPTIONS = [
    ("negative-vertex", REVERSI, "{27 36}", "{-1 36}", PlacementOutOfRange, "-1"),
    ("vertex-off-board", REVERSI, "{27 36}", "{99 36}", PlacementOutOfRange, "99"),
    ("connected-no-selector", TICTACTOE, "(line 3)", "(connected)", ArityError,
     "(connected)"),
    ("stalemated-no-selector", TICTACTOE, "(line 3)", "(stalemated)",
     ArityError, "(stalemated)"),
    ("mode-no-count", TICTACTOE, "(mode 2)", "(mode)", ArityError, "(mode)"),
    ("mode-not-a-number", TICTACTOE, "(mode 2)", "(mode x)", ArityError, "x"),
    ("mode-three-players", TICTACTOE, "(mode 2)", "(mode 3)",
     UnsupportedPlayerCount, "3"),
    ("board-one-size", TICTACTOE, "(rectBoard 3 3)", "(rectBoard 3)", ArityError,
     "(rectBoard 3)"),
    ("piece-no-owner", TICTACTOE, "(disc Each)", "(disc)", ArityError, "(disc)"),
    ("then-empty", AMAZONS, "(then (replay))", "(then)", ArityError, "(then)"),
    ("line-zero", TICTACTOE, "(line 3)", "(line 0)", ArityError, "0"),
    ("piece-name-ends-in-digit", TICTACTOE, "(disc Each)", "(disc2 Each)",
     ArityError, "(disc2 Each)"),
    ("placement-unknown-piece", REVERSI, '"Disc2" {28 35}', '"Ghost2" {28 35}',
     UnknownPiece, '"Ghost2"'),
    ("placement-unknown-player", REVERSI, '"Disc2" {28 35}', '"Disc3" {28 35}',
     UnknownPiece, '"Disc3"'),
    ("play-unknown-piece", HEX, '(place "Stone"', '(place "Ghost"', UnknownPiece,
     '"Ghost"'),
    ("bycount-unknown-piece", REVERSI, "(result (next) Win)", '(byCount "Ghost")',
     UnknownPiece, '"Ghost"'),
    ("slide-relative-direction", AMAZONS, "(slide (in (to) (empty))",
     "(slide {forward} (in (to) (empty))", UnknownDirection, "forward"),
    ("step-forward-left-on-hex", HEX, "(stone Each)",
     "(stone Each (step {forwardLeft} (in (to) (empty))))", UnknownDirection,
     "forwardLeft"),
    ("line-on-hex", HEX, "(connected (next))", "(line 4)", UnknownDirection,
     "(line 4)"),
]


def position(text: str, offset: int) -> str:
    """1-based line:col of text[offset]."""
    before = text[:offset]
    return f"{before.count(chr(10)) + 1}:{offset - before.rfind(chr(10))}"


def test_amazons_structure():
    game = compile_ludemic(AMAZONS)
    assert game.name == "Amazons"
    assert game.player_count == 2
    assert game.board.rows == game.board.cols == 10
    assert game.pieces.symbols == ("empty", "queen1", "queen2", "dot0")
    assert game.piece_defs["queen"].replay is True
    assert game.piece_defs["dot"].ownership == "None"
    assert game.play_rule[0] == "if_even_turn"
    assert game.end_rules == ((("stalemated",), ("win", "next")),)


def test_placements_resolved():
    game = compile_ludemic(AMAZONS)
    placed = dict(game.start_placements)
    q1 = game.piece_instance("queen", 1)
    q2 = game.piece_instance("queen", 2)
    assert set(placed[q1]) == {60, 69, 93, 96}
    assert set(placed[q2]) == {3, 6, 30, 39}


def test_unknown_ludeme():
    bad = AMAZONS.replace("(byPiece)", "(teleport)")
    with pytest.raises(UnknownLudeme):
        compile_ludemic(bad)


def test_unknown_piece_in_rule():
    bad = AMAZONS.replace('"Dot0"', '"Ghost0"')
    with pytest.raises(UnknownPiece):
        compile_ludemic(bad)


def test_overlapping_placement():
    bad = AMAZONS.replace("{3 6 30 39}", "{3 6 30 60}")
    with pytest.raises(OverlappingPlacement):
        compile_ludemic(bad)


def test_set_only_where_declared():
    # a set in place of the slide condition is an arity error
    bad = AMAZONS.replace("(in (to) (empty))\n      (then (replay))",
                          "(then (replay))")
    game = compile_ludemic(bad)  # slide defaults to the empty condition
    assert game.piece_defs["queen"].move_rule == ("slide", ("empty",), None)


def test_missing_sections_rejected():
    with pytest.raises(ArityError):
        compile_ludemic('(game "X" (mode 2) (equipment {(chessBoard 3)}) (rules))')


def test_all_library_lud_files_compile():
    for entry in library.list_games():
        game = compile_ludemic(entry.lud_path.read_text())
        assert game.player_count == 2
        assert game.end_rules


@pytest.mark.parametrize(
    "source, old, new, error, at",
    [case[1:] for case in BAD_DESCRIPTIONS],
    ids=[case[0] for case in BAD_DESCRIPTIONS],
)
def test_bad_description_is_diagnosed_at_its_position(source, old, new, error, at):
    bad = source.replace(old, new, 1)
    where = position(bad, bad.index(new) + new.index(at))
    with pytest.raises(error) as info:
        compile_ludemic(bad)
    assert isinstance(info.value, LudemeError)
    assert str(info.value).endswith(f" at {where}")
