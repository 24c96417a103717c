"""Game registry: lookup, descriptions, and cheap perft golds."""

import pytest

from ggs import library


def test_registry_contents_and_order():
    names = [e.name for e in library.list_games()]
    assert names == [
        "Amazons",
        "Breakthrough",
        "Connect-4",
        "Gomoku",
        "Hex",
        "Reversi",
        "Tic-Tac-Toe",
    ]


def test_lookup_is_case_insensitive():
    assert library.get_game("AMAZONS").name == "Amazons"
    assert library.get_game("tic-tac-toe").name == "Tic-Tac-Toe"
    assert library.get_game("tictactoe").name == "Tic-Tac-Toe"


def test_unknown_game():
    with pytest.raises(library.UnknownGame):
        library.get_game("chess")


def test_descriptions_load_byte_exact():
    entry = library.get_game("hex")
    assert library.load_description("hex", "rbg") == entry.rbg_path.read_text()
    assert library.load_description("hex", "ludemic") == entry.lud_path.read_text()
    with pytest.raises(ValueError):
        library.load_description("hex", "prolog")


def test_entries_carry_golds_and_symbol_maps():
    for entry in library.list_games():
        assert entry.perft_golds, entry.name
        for depth, count, provenance in entry.perft_golds:
            assert depth >= 1 and count >= 1 and provenance
        assert entry.symbol_map.get("empty") == "e"


def test_make_engine_modes():
    for mode in ("interpreter", "compiled", "ludemic"):
        eng = library.make_engine("tictactoe", mode)
        assert len(eng.probe(eng.initial_state())[0]) == 9
    with pytest.raises(ValueError):
        library.make_engine("tictactoe", "quantum")


def test_make_engine_reads_description_files():
    entry = library.get_game("tictactoe")
    for mode, path in (
        ("interpreter", entry.rbg_path),
        ("compiled", entry.rbg_path),
        ("ludemic", entry.lud_path),
    ):
        assert library.is_path(str(path))
        eng = library.make_engine(str(path), mode)
        assert len(eng.probe(eng.initial_state())[0]) == 9
    assert not library.is_path("tictactoe")
    with pytest.raises(FileNotFoundError):
        library.make_engine("no/such/game.rbg", "compiled")


CHEAP_GOLDS = {
    "Amazons": 1,
    "Breakthrough": 2,
    "Connect-4": 3,
    "Gomoku": 1,
    "Hex": 2,
    "Reversi": 4,
    "Tic-Tac-Toe": 3,
}


def perft(engine, state, depth):
    if depth == 0:
        return 1
    moves, payoffs = engine.probe(state)
    if payoffs is not None:
        return 1
    seen = set()
    total = 0
    for move in moves:
        key = engine.delta_text(state, move)
        if key in seen:
            continue
        seen.add(key)
        total += perft(engine, engine.apply(state, move), depth - 1)
    return total


def test_cheap_perft_golds_in_every_mode():
    # full-depth golds are exercised by the acceptance suite
    for entry in library.list_games():
        max_depth = CHEAP_GOLDS[entry.name]
        golds = {d: n for d, n, _ in entry.perft_golds if d <= max_depth}
        assert golds, entry.name
        for mode in ("interpreter", "compiled", "ludemic"):
            eng = library.make_engine(entry.name, mode)
            for depth, count in golds.items():
                got = perft(eng, eng.initial_state(), depth)
                assert got == count, (entry.name, mode, depth)
