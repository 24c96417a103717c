"""Exit criteria for the whole system, one test per criterion.

Each test prints a single PASS line (visible with -s or on failure
reruns). Hardware-dependent floors are soft: they warn instead of
failing, because throughput on any given desktop core varies. Everything
else is a hard gate.

Walk lengths and measurement budgets are calibrated so the suite stays
within a few minutes on one core; the expensive full-depth perft golds
live here rather than in the unit suites.
"""

import random
import time
import warnings

import pytest

from ggs import bench, library
from ggs.core.rng import Prng
from ggs.rbg.engine import RbgCompiledEngine, RbgInterpreterEngine

from test_rbg_engine import (
    micro_game,
    oracle_paths,
    random_micro_pattern,
    render,
)


def report(name, detail):
    print(f"\n[acceptance] {name}: PASS ({detail})")


# 1. perft agreement at the library golds across all three executors.
def test_cross_dialect_perft_golds():
    start = time.perf_counter()
    checked = 0
    for entry in library.list_games():
        for mode in bench.MODES:
            engine = library.make_engine(entry.name, mode)
            for depth, count, provenance in entry.perft_golds:
                got = bench.perft(engine, depth)
                assert got == count, (
                    entry.name, mode, depth, got, count, provenance
                )
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed <= 300, f"perft suite took {elapsed:.0f}s (limit 300s)"
    report("perft golds", f"{checked} (game, mode, depth) checks in {elapsed:.1f}s")


# 2. delta-set and payoff equality along 100 seeded walks per game.
WALK_PLIES = {
    "Amazons": 12,
    "Breakthrough": 16,
    "Connect-4": 45,
    "Gomoku": 6,
    "Hex": 12,
    "Reversi": 20,
    "Tic-Tac-Toe": 12,
}


def test_cross_dialect_random_walks():
    for entry in library.list_games():
        rep = bench.cross_validate(
            entry.name,
            depth=1,
            walk_count=100,
            seed=0,
            max_plies=WALK_PLIES[entry.name],
        )
        assert bench.report_ok(rep), rep
    report("random walks", "100 walks x 7 games, zero mismatches")


# 3. ludemic descriptions are shorter, rate < 1.0 hard, <= 0.7 soft.
def test_token_direction():
    rates = {}
    for entry in library.list_games():
        rbg = bench.count_tokens(entry.rbg_path.read_text(), "rbg")
        lud = bench.count_tokens(entry.lud_path.read_text(), "ludemic")
        rates[entry.name] = lud / rbg
        assert rates[entry.name] < 1.0, (entry.name, rates[entry.name])
        if rates[entry.name] > 0.7:
            warnings.warn(
                f"soft token-rate target missed for {entry.name}: "
                f"{rates[entry.name]:.2f} > 0.70"
            )
    worst = max(rates, key=rates.get)
    report("token direction", f"worst rate {rates[worst]:.2f} ({worst})")


# 4. the compiled executor beats the interpreter on the nontrivial games.
@pytest.mark.parametrize("game", ["Amazons", "Reversi"])
def test_compiler_benefit(game):
    budget = ("seconds", 10)
    interp = bench.bench_playouts(game, "interpreter", budget, 0, warmup=5)
    compiled = bench.bench_playouts(game, "compiled", budget, 0, warmup=5)
    ratio = compiled.playouts_per_sec / interp.playouts_per_sec
    assert ratio >= 1.3, (game, ratio)
    report(
        f"compiler benefit ({game})",
        f"{compiled.playouts_per_sec:.1f} vs "
        f"{interp.playouts_per_sec:.1f} pps = {ratio:.2f}x",
    )


# 5. absolute throughput floors — soft, hardware-dependent.
def test_throughput_floors_soft():
    floors = {"Tic-Tac-Toe": 50_000, "Amazons": 300}
    budgets = {"Tic-Tac-Toe": 500, "Amazons": 50}
    measured = {}
    for game, floor in floors.items():
        best = max(
            bench.bench_playouts(
                game, mode, ("count", budgets[game]), 0, warmup=10
            ).playouts_per_sec
            for mode in bench.MODES
        )
        measured[game] = best
        if best < floor:
            warnings.warn(
                f"soft throughput floor missed for {game}: "
                f"{best:.0f} < {floor} playouts/sec (pure-Python executors)"
            )
    report(
        "throughput floors (soft)",
        ", ".join(f"{g}={v:.0f} pps" for g, v in measured.items()),
    )


# 6. benchmark determinism and the PRNG oracle.
DET_COUNTS = {
    "Amazons": 2,
    "Breakthrough": 3,
    "Connect-4": 5,
    "Gomoku": 1,
    "Hex": 2,
    "Reversi": 2,
    "Tic-Tac-Toe": 20,
}

DETERMINISTIC_FIELDS = (
    "game", "mode", "playouts", "avg_playout_length", "truncated_count", "seed"
)


def test_bench_determinism():
    for entry in library.list_games():
        for mode in bench.MODES:
            runs = [
                bench.bench_playouts(
                    entry.name, mode, ("count", DET_COUNTS[entry.name]),
                    seed=7, warmup=0,
                )
                for _ in range(3)
            ]
            for field in DETERMINISTIC_FIELDS:
                values = {getattr(r, field) for r in runs}
                assert len(values) == 1, (entry.name, mode, field, values)
    report("bench determinism", "3 identical runs x 7 games x 3 modes")


def reference_splitmix64(seed):
    mask = (1 << 64) - 1
    state = seed & mask
    while True:
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        yield (z ^ (z >> 31)) & mask


def test_prng_oracle_1000_draws():
    rng = Prng(0)
    ref = reference_splitmix64(0)
    for i in range(1000):
        assert rng.next_u64() == next(ref), i
    report("prng oracle", "1000 draws from seed 0 match")


# 7. lookahead purity and loop-guard completeness on a micro corpus.
def test_lookahead_and_loop_guard_corpus():
    start = time.perf_counter()

    # purity: an impure check may not leak mutations into the outcome
    game = micro_game([["e"]], "->p ( {? [b] {b}} [w] -> q )*")
    eng = RbgInterpreterEngine(game)
    (move,) = eng.semimoves(eng.initial_state())
    assert move.effects == (("cell", 0, 1), ("pass", 2))

    # loop guard: self-rewriting star inside a check still terminates
    game = micro_game([["e"]], "->p ( {? ([b])* {b}} [w] -> q )*")
    assert len(RbgInterpreterEngine(game).semimoves(
        RbgInterpreterEngine(game).initial_state())) == 1

    # completeness: random patterns against the brute-force enumerator
    rng = random.Random(2024)
    pieces = ("e", "w", "b")
    trials = 0
    for _ in range(40):
        rows = [[rng.choice(pieces) for _ in range(3)] for _ in range(2)]
        pat = random_micro_pattern(rng)
        game = micro_game(rows, f"->p ( {render(pat)} -> q )*")
        expected = {
            effects + (("pass", 2),) for effects, _ in oracle_paths(game, pat)
        }
        for engine_cls in (RbgInterpreterEngine, RbgCompiledEngine):
            eng = engine_cls(game)
            got = {m.effects for m in eng.semimoves(eng.initial_state())}
            assert got == expected, (engine_cls.__name__, render(pat), rows)
        trials += 1
    elapsed = time.perf_counter() - start
    assert elapsed <= 60, f"micro corpus took {elapsed:.0f}s (limit 60s)"
    report("lookahead/loop-guard corpus", f"{trials} patterns in {elapsed:.1f}s")


# 8. the comparison table covers every game and emits stable bytes.
def test_table_all_csv_byte_stable():
    rows = [
        bench.build_comparison_row(
            e.name, ("count", DET_COUNTS[e.name]), seed=0, warmup=0
        )
        for e in library.list_games()
    ]
    first = bench.emit_table(rows, "csv")
    second = bench.emit_table(list(rows), "csv")
    assert first == second
    lines = first.splitlines()
    assert lines[0].split(",") == list(bench._COLUMNS)
    assert len(lines) == 1 + 7
    names = [line.split(",")[0] for line in lines[1:]]
    assert names == [e.name for e in library.list_games()]
    for line in lines[1:]:
        assert all(cell for cell in line.split(","))
    report("comparison table", "csv report, 7 rows, all columns populated")
