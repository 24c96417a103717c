"""Canonical game descriptions in both dialects, with a registry.

Each game ships as one `.rbg` and one `.lud` file under ``assets/``; the
file headers document the chosen rule parameters and the gold perft
values. Gold provenance tags: "analytic" for values that follow from a
closed-form count, "derived" for values confirmed by an independent
enumerator (see the test suite).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

ASSET_DIR = Path(__file__).parent / "assets"


class UnknownGame(KeyError):
    def __init__(self, name: str):
        super().__init__(name)
        self.name = name


@dataclass(frozen=True)
class GameEntry:
    name: str
    rbg_path: Path
    lud_path: Path
    # (depth, node count, provenance tag)
    perft_golds: tuple
    # ludemic piece symbol -> rbg piece symbol, for delta comparison
    symbol_map: dict
    notes: str = ""


def _entry(name, stem, golds, symbol_map, notes=""):
    return GameEntry(
        name=name,
        rbg_path=ASSET_DIR / f"{stem}.rbg",
        lud_path=ASSET_DIR / f"{stem}.lud",
        perft_golds=golds,
        symbol_map={"empty": "e", **symbol_map},
        notes=notes,
    )


_GAMES = (
    _entry(
        "Amazons",
        "amazons",
        ((1, 80, "analytic"), (2, 2176, "derived")),
        {"queen1": "w", "queen2": "b", "dot0": "x"},
        "decision-level plies: queen move and arrow shot count separately",
    ),
    _entry(
        "Breakthrough",
        "breakthrough",
        ((1, 22, "derived"), (2, 484, "derived"), (3, 11132, "derived")),
        {"pawn1": "w", "pawn2": "b"},
        "8x8, two home rows per player",
    ),
    _entry(
        "Connect-4",
        "connect4",
        ((1, 7, "analytic"), (6, 117649, "analytic")),
        {"disc1": "x", "disc2": "o"},
        "7 columns x 6 rows",
    ),
    _entry(
        "Gomoku",
        "gomoku",
        ((1, 225, "analytic"), (2, 50400, "analytic")),
        {"stone1": "b", "stone2": "w"},
        "15x15 free-style: five or more in a row wins",
    ),
    _entry(
        "Hex",
        "hex",
        ((1, 121, "analytic"), (2, 14520, "analytic")),
        {"stone1": "r", "stone2": "b"},
        "11x11 rhombus, no swap rule",
    ),
    _entry(
        "Reversi",
        "reversi",
        (
            (1, 4, "derived"),
            (2, 12, "derived"),
            (3, 56, "derived"),
            (4, 244, "derived"),
            (5, 1396, "derived"),
            (6, 8200, "derived"),
        ),
        {"disc1": "b", "disc2": "w"},
        "Othello start; last player to flip wins",
    ),
    _entry(
        "Tic-Tac-Toe",
        "tictactoe",
        ((1, 9, "analytic"), (2, 72, "analytic"), (9, 255168, "derived")),
        {"disc1": "x", "disc2": "o"},
        "3x3, three in a row",
    ),
)

_BY_KEY = {e.rbg_path.stem: e for e in _GAMES}
_BY_KEY.update({e.name.lower(): e for e in _GAMES})


def list_games() -> tuple:
    """All shipped games in stable (alphabetical) order."""
    return _GAMES


def get_game(name: str) -> GameEntry:
    """Look up a game by display name or file stem, case-insensitively."""
    try:
        return _BY_KEY[name.lower()]
    except KeyError:
        raise UnknownGame(name) from None


def is_path(arg: str) -> bool:
    """Path wins over a game name when the argument looks like a file."""
    return "/" in arg or "\\" in arg or "." in arg


def load_description(name: str, dialect: str) -> str:
    """Byte-exact file contents for one (game, dialect) pair; ``name`` is
    a library game or, when ``is_path`` says so, a description file."""
    if dialect not in ("rbg", "ludemic"):
        raise ValueError(f"unknown dialect: {dialect}")
    if is_path(name):
        return Path(name).read_text()
    entry = get_game(name)
    return (entry.rbg_path if dialect == "rbg" else entry.lud_path).read_text()


def make_engine(name: str, mode: str):
    """Build an engine for a library game or a description file (see
    ``load_description``): mode is interpreter, compiled, or ludemic."""
    from ..ludeme.compile import compile_ludemic
    from ..ludeme.engine import LudemicEngine
    from ..rbg.engine import RbgCompiledEngine, RbgGame, RbgInterpreterEngine

    if mode == "ludemic":
        return LudemicEngine(compile_ludemic(load_description(name, "ludemic")))
    game = RbgGame.from_text(load_description(name, "rbg"))
    if mode == "interpreter":
        return RbgInterpreterEngine(game)
    if mode == "compiled":
        return RbgCompiledEngine(game)
    raise ValueError(f"unknown engine mode {mode!r}")
