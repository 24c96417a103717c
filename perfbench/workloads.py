"""The benchmark's workloads: which games run which operations, and how much
of each goes into one round.

Every workload runs all three operations (seeded playouts, perft to library
golds, cross-dialect walks) so that every end-to-end metric exists on every
workload; the mix and the games differ, and with them the layers that
dominate. Per-round sizes were set on a 2-core x86-64 host under Python 3.11.
Every round runs the same inputs, and each input keeps its best time, so
the sizes balance two things: enough seeds per cell that the seeds drawn
barely move its plies per second, and enough runs of each input (rounds of
3-5 s, and repeats within a round for inputs of a few milliseconds) that
its best time is reached.
"""

from __future__ import annotations

from dataclasses import dataclass

EXECUTORS = ("rbg-interp", "rbg-compiled", "ludemic")
RBG_EXECUTORS = EXECUTORS[:2]
# Label of work that belongs to no single executor: walks run all three in
# lockstep; set-up, the reference loop and harness code run none.
NO_EXECUTOR = "-"
# Library engine mode for each executor label.
MODE_OF = {"rbg-interp": "interpreter", "rbg-compiled": "compiled", "ludemic": "ludemic"}

# Walk lengths of the acceptance suite's random-walk criterion
# (tests/test_acceptance.py, WALK_PLIES); kept equal to it on purpose.
WALK_PLIES = {
    "Amazons": 12,
    "Breakthrough": 16,
    "Connect-4": 45,
    "Gomoku": 6,
    "Hex": 12,
    "Reversi": 20,
    "Tic-Tac-Toe": 12,
}

# Mean move count of a uniformly random playout, over MEAN_PLIES_COUNT
# seeded playouts per game (see mean_plies). A cell runs a handful of
# playouts, whose lengths vary with the seed (a Breakthrough playout
# lasts anywhere from 18 to 103 plies), so pps_* is the cell's plies per
# second divided by this constant: playouts/s at the game's mean length.
MEAN_PLIES_COUNT = 400
MEAN_PLIES = {
    "Amazons": 135.775,
    "Breakthrough": 64.05,
    "Connect-4": 21.48,
    "Hex": 107.8225,
    "Reversi": 60.465,
    "Tic-Tac-Toe": 7.71,
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # game -> (seeds, repeats) per round for rbg-interp, rbg-compiled and
    # ludemic, the same seeds every round; ludemic is 10-30x faster, so its
    # cells get 10-30x the playouts. Playouts of a few milliseconds reach
    # their best time only over many runs, so those cells run fewer seeds
    # more often.
    playouts: dict
    # game -> (deepest library gold checked, times per round for each
    # executor); every gold up to that depth is reached. Cheap golds are
    # repeated so that no cell is a few milliseconds of timer noise.
    perft: dict
    # game -> (seeds, repeats) of cross-dialect walks per round (depth 0,
    # at most WALK_PLIES long), the same seeds every round.
    walks: dict

    def games(self) -> tuple:
        names = set(self.playouts) | set(self.perft) | set(self.walks)
        return tuple(sorted(names))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="playout-check",
            why=(
                "Tic-Tac-Toe, Connect-4, Reversi: every rbg move is gated by "
                "lookahead, so a lookahead change moves pps_interp and "
                "pps_compiled here and leaves pps_ludemic flat"
            ),
            playouts={
                "Tic-Tac-Toe": ((5, 4), (6, 5), (20, 10)),
                "Connect-4": ((3, 2), (4, 3), (16, 10)),
                "Reversi": ((1, 1), (1, 1), (2, 8)),
            },
            perft={
                "Tic-Tac-Toe": (2, (2, 3, 10)),
                "Connect-4": (1, (10, 30, 120)),
                "Reversi": (3, (1, 2, 15)),
            },
            walks={"Tic-Tac-Toe": (2, 3), "Connect-4": (1, 2), "Reversi": (1, 1)},
        ),
        Workload(
            name="playout-slide",
            why=(
                "Amazons, Breakthrough, Hex, 60-137 plies: generation and "
                "ordering dominate and Amazons makes no lookahead call, the "
                "bypass case for a lookahead change"
            ),
            playouts={
                "Amazons": ((2, 1), (3, 1), (4, 2)),
                "Breakthrough": ((2, 1), (3, 1), (4, 2)),
                "Hex": ((1, 1), (2, 1), (2, 2)),
            },
            perft={
                "Amazons": (2, (2, 2, 3)),
                "Breakthrough": (2, (2, 3, 6)),
                "Hex": (1, (8, 12, 30)),
            },
            walks={"Amazons": (1, 2), "Breakthrough": (1, 2), "Hex": (1, 2)},
        ),
    )
}


def playout_seed(run_seed: int, i: int) -> int:
    """Seed of a cell's i-th playout (or walk); every executor of a game
    runs a prefix of the same seed list."""
    return run_seed * 1_000_000 + i


def mean_plies(game: str, count: int = MEAN_PLIES_COUNT) -> float:
    """Mean move count of the ludemic playouts on seeds 0 .. count-1."""
    from ggs import library
    from ggs.core.playout import run_playout

    engine = library.make_engine(game, "ludemic")
    return sum(run_playout(engine, seed).move_count for seed in range(count)) / count


if __name__ == "__main__":
    # Recompute MEAN_PLIES: python3 perfbench/workloads.py
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    for game in sorted({g for w in WORKLOADS.values() for g in w.playouts}):
        print(f"    {game!r}: {mean_plies(game)},")
