"""Runs a workload's cells in interleaved rounds and checks every output.

A cell is one (operation, game, executor) unit: a fixed count of seeded
playouts, every perft gold up to a depth, a fixed count of cross-dialect
walks (which run all three executors in lockstep), one build of every
engine the workload uses, or a fixed reference loop that runs no ggs code.
Each round runs every cell once on the same inputs, in an order rotated by
one per round, so each executor, set-up and the reference sample the same
machine conditions even when the host drifts. Every playout, perft pass and
walk is timed on its own, and each input keeps its best time over the
rounds (see Runner.best).

Oracles, none of which depends on the executor under test:
  playouts  - the other executors on the same seed, plus a pinned digest
              of every playout for the default seed;
  perft     - the library golds (GameEntry.perft_golds);
  walks     - bench.report_ok on the three-way comparison.
A failed check or an exception is one failed operation; it is logged with
(workload, game, executor, seed) and the run continues.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass

from ggs import bench, library
from ggs.core.playout import run_playout

from workloads import (EXECUTORS, MODE_OF, NO_EXECUTOR, WALK_PLIES, Workload,
                       playout_seed)

# Reference-loop iterations per round: about 40 ms on the host the sizes
# were set on.
REFERENCE_ITERATIONS = 160_000


@dataclass(frozen=True)
class Cell:
    kind: str  # playout | perft | walk | setup | reference
    game: str
    executor: str
    # distinct playout or walk seeds, deepest gold, games built, or
    # reference-loop iterations
    size: int
    reps: int = 1  # times each input runs per round


def cells_of(workload: Workload) -> list:
    """Cells in a fixed order; executors of one game sit side by side."""
    out = []
    for game, counts in workload.playouts.items():
        out += [Cell("playout", game, ex, n, reps)
                for ex, (n, reps) in zip(EXECUTORS, counts)]
    for game, (depth, reps) in workload.perft.items():
        out += [Cell("perft", game, ex, depth, n) for ex, n in zip(EXECUTORS, reps)]
    for game, (walks, reps) in workload.walks.items():
        out.append(Cell("walk", game, NO_EXECUTOR, walks, reps))
    out.append(Cell("setup", "*", NO_EXECUTOR, len(workload.games())))
    out.append(Cell("reference", "*", NO_EXECUTOR, REFERENCE_ITERATIONS))
    return out


class Ledger:
    """Attempted and failed operations, with a log line per failure."""

    def __init__(self, workload: str):
        self.workload = workload
        self.attempted = 0
        self.failed = 0

    def fail(self, game: str, executor: str, seed, detail: str):
        self.failed += 1
        print(
            f"FAILED workload={self.workload} game={game} executor={executor} "
            f"seed={seed}: {detail}",
            file=sys.stderr,
        )


def build_engines(games) -> dict:
    """{(game, executor): engine} through the public factory."""
    return {
        (game, ex): library.make_engine(game, MODE_OF[ex])
        for game in games
        for ex in EXECUTORS
    }


def settle():
    """Collect garbage and exempt the survivors (engines, tables) from
    later collections, so a cell's collector work depends on its own
    allocations only, not on what earlier cells left behind."""
    gc.collect()
    gc.freeze()


class Runner:
    def __init__(self, workload: Workload, seed: int, engines: dict, ledger: Ledger):
        self.workload = workload
        self.seed = seed
        self.engines = engines
        # Engines of the latest set-up cell, kept so that freeing them
        # happens before the next set-up starts its clock, not inside it.
        self.built = None
        self.ledger = ledger
        self.cells = cells_of(workload)
        # (game, seed) -> {executor: (plies, payoffs)}; filled by playouts
        self.results: dict = {}
        self.first: dict = {}  # (game, seed) -> first (plies, payoffs)
        # cell -> {input: fastest seconds seen}; an input is a playout or
        # walk seed, or "pass" for one perft or reference pass. A shared
        # host can switch between a fast and a 1.4-1.7x slower state every
        # few milliseconds, with a slow share that differs from run to run
        # by more than the bounds, so a median follows the host. The best
        # time of identical work repeated over a run follows it far less.
        self.best: dict = {cell: {} for cell in self.cells}
        # cell -> {seed: plies}: the plies of each playout or walk
        self.plies: dict = {cell: {} for cell in self.cells}

    def _record(self, cell: Cell, key, seconds: float):
        best = self.best[cell]
        best[key] = min(best.get(key, math.inf), seconds)

    def run_round(self, r: int, on_cell=None) -> dict:
        """Run every cell once, in the order of round r; returns
        {cell: seconds}."""
        k = r % len(self.cells)
        times = {}
        for cell in self.cells[k:] + self.cells[:k]:
            if on_cell is not None:
                on_cell(cell)
            gc.collect()
            times[cell] = self.run_cell(cell)
        return times

    def run_cell(self, cell: Cell) -> float:
        return getattr(self, "_" + cell.kind)(cell)

    def _reference(self, cell: Cell) -> float:
        """Fixed pure-Python work that shares no code with ggs (tuple keys,
        dict updates, integer arithmetic): the host's speed, as context."""
        t0 = time.perf_counter()
        table: dict = {}
        acc = 0
        for i in range(cell.size):
            key = (i % 251, i % 7)
            table[key] = table.get(key, 0) + i
            acc ^= i * 31
        seconds = time.perf_counter() - t0
        self._record(cell, "pass", seconds)
        return seconds

    def _setup(self, cell: Cell) -> float:
        self.built = None
        gc.collect()
        t0 = time.perf_counter()
        self.built = build_engines(self.workload.games())
        return time.perf_counter() - t0

    def _playout(self, cell: Cell) -> float:
        engine = self.engines[(cell.game, cell.executor)]
        out = []
        elapsed = 0.0
        inputs = [playout_seed(self.seed, i) for i in range(cell.size)]
        for seed in inputs * cell.reps:
            t0 = time.perf_counter()
            try:
                res = run_playout(engine, seed)
            except Exception as exc:  # a failed operation; keep running
                self.ledger.fail(cell.game, cell.executor, seed, repr(exc))
                continue
            seconds = time.perf_counter() - t0
            elapsed += seconds
            self._record(cell, seed, seconds)
            self.plies[cell][seed] = res.move_count
            out.append((seed, res.move_count, tuple(sorted(res.outcome.items()))))
        self.ledger.attempted += cell.size * cell.reps
        for seed, plies, payoffs in out:
            seen = self.results.setdefault((cell.game, seed), {})
            old = seen.setdefault(cell.executor, (plies, payoffs))
            if old != (plies, payoffs):
                self.ledger.fail(
                    cell.game, cell.executor, seed,
                    f"replay gave {(plies, payoffs)}, first run {old}",
                )
            self.first.setdefault((cell.game, seed), (plies, payoffs))
        return elapsed

    def _perft(self, cell: Cell) -> float:
        engine = self.engines[(cell.game, cell.executor)]
        golds = [
            g for g in library.get_game(cell.game).perft_golds if g[0] <= cell.size
        ]
        got = []
        elapsed = 0.0
        for _ in range(cell.reps):
            t0 = time.perf_counter()
            for depth, _, _ in golds:
                try:
                    got.append(bench.perft(engine, depth))
                except Exception as exc:
                    got.append(exc)
            seconds = time.perf_counter() - t0
            elapsed += seconds
            self._record(cell, "pass", seconds)
        self.ledger.attempted += len(got)
        golds = golds * cell.reps
        for (depth, gold, _), count in zip(golds, got):
            if count != gold:
                self.ledger.fail(
                    cell.game, cell.executor, "-",
                    f"perft depth {depth} gave {count!r}, gold {gold}",
                )
        return elapsed

    def _walk(self, cell: Cell) -> float:
        """Times each walk and counts its lockstep plies: walk lengths vary
        several-fold (a Connect-4 walk ends anywhere from ply 7 to 45), so
        the metric is seconds per ply, not per walk."""
        engines = {ex: self.engines[(cell.game, ex)] for ex in EXECUTORS}
        symbol_map = library.get_game(cell.game).symbol_map
        reports = []
        # Count plies through the ludemic engine's apply, over whatever
        # apply is installed (a tracer span, in a traced pass).
        lud = engines["ludemic"]
        own = lud.__dict__.get("apply")
        inner = lud.apply
        plies = 0

        def apply(state, move):
            nonlocal plies
            plies += 1
            return inner(state, move)

        lud.__dict__["apply"] = apply
        elapsed = 0.0
        inputs = [playout_seed(self.seed, i) for i in range(cell.size)]
        for seed in inputs * cell.reps:
            plies = 0
            t0 = time.perf_counter()
            try:
                rep = bench.cross_validate(
                    cell.game, depth=0, walk_count=1, seed=seed,
                    max_plies=WALK_PLIES[cell.game], engines=engines,
                    symbol_map=symbol_map,
                )
            except Exception as exc:
                rep = exc
            seconds = time.perf_counter() - t0
            elapsed += seconds
            reports.append((seed, rep))
            if not isinstance(rep, Exception):
                self._record(cell, seed, seconds)
                self.plies[cell][seed] = plies
        if own is None:
            del lud.__dict__["apply"]
        else:
            lud.__dict__["apply"] = own
        self.ledger.attempted += cell.size * cell.reps
        for seed, rep in reports:
            if isinstance(rep, Exception) or not bench.report_ok(rep):
                self.ledger.fail(cell.game, NO_EXECUTOR, seed, f"walk verdict {rep!r}")
        return elapsed

    def check_agreement(self):
        """Every seed two or more executors ran must give them all the same
        (move count, payoffs); the odd ones out fail."""
        for (game, seed), by_ex in sorted(self.results.items()):
            values = list(by_ex.values())
            if len(set(values)) <= 1:
                continue
            common = max(values, key=values.count)
            for ex, value in by_ex.items():
                if values.count(common) == 1 or value != common:
                    self.ledger.fail(
                        game, ex, seed,
                        f"playout {value} disagrees across executors {by_ex}",
                    )

    def digest(self) -> str:
        rows = sorted(
            (game, seed, plies, [list(p) for p in payoffs])
            for (game, seed), (plies, payoffs) in self.first.items()
        )
        return hashlib.sha256(json.dumps(rows).encode()).hexdigest()
