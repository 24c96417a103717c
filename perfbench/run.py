"""Layered benchmark of the three ggs executors (rbg-interp, rbg-compiled,
ludemic) on seeded playouts, perft to library golds and cross-dialect walks.

    python3 perfbench/run.py --workload playout-check --seed 0 --seconds 60 --trace 0

Run from the repository root. One process, one thread, a closed loop with
one client. --trace 0 measures the end-to-end metrics with tracing off;
--trace 1 is the traced run and reports the per-layer metrics. Rows for
each game go to standard output; the last line is one JSON object with
keys correct, attempted, failed and metrics. The exit code is 0 only when
every check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

MIN_ROUNDS = 3  # untraced rounds, so every input has a best of three
DEFAULT_SEED = 0  # the seed whose playouts are pinned in pins.json

END_TO_END = {
    "pps_interp": ("playouts/s", "higher"),
    "pps_compiled": ("playouts/s", "higher"),
    "pps_ludemic": ("playouts/s", "higher"),
    "perft_s_interp": ("s", "lower"),
    "perft_s_compiled": ("s", "lower"),
    "perft_s_ludemic": ("s", "lower"),
    "xval_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
SUFFIX = {"rbg-interp": "interp", "rbg-compiled": "compiled", "ludemic": "ludemic"}


def per_layer_specs() -> dict:
    """name -> (unit, better) of every per-layer metric."""
    from workloads import EXECUTORS, RBG_EXECUTORS

    specs = {}
    for ex in RBG_EXECUTORS:
        specs[f"lookahead.self_s.{ex}"] = ("s", "lower")
        specs[f"lookahead.calls.{ex}"] = ("count", "lower")
        specs[f"lookahead.share.{ex}"] = ("fraction", "lower")
    specs["lookahead.repeat_share"] = ("fraction", "lower")
    for ex in EXECUTORS:
        specs[f"gen.self_s.{ex}"] = ("s", "lower")
        specs[f"gen.calls.{ex}"] = ("count", "lower")
        specs[f"gen.moves.{ex}"] = ("count", "lower")
        specs[f"order.self_s.{ex}"] = ("s", "lower")
        specs[f"order.calls.{ex}"] = ("count", "lower")
        specs[f"order.share.{ex}"] = ("fraction", "lower")
    specs["terminal.self_s.ludemic"] = ("s", "lower")
    specs["terminal.calls.ludemic"] = ("count", "lower")
    for ex in EXECUTORS:
        specs[f"apply.self_s.{ex}"] = ("s", "lower")
        specs[f"apply.calls.{ex}"] = ("count", "lower")
        specs[f"probe.self_s.{ex}"] = ("s", "lower")
        specs[f"probe.calls.{ex}"] = ("count", "lower")
    for ex in EXECUTORS:
        specs[f"bench.perft.self_s.{ex}"] = ("s", "lower")
        specs[f"bench.perft.calls.{ex}"] = ("count", "lower")
        specs[f"bench.dedup.self_s.{ex}"] = ("s", "lower")
        specs[f"bench.dedup.kept_share.{ex}"] = ("fraction", "higher")
    specs["bench.xval.self_s"] = ("s", "lower")
    specs["bench.xval.probes_per_state"] = ("probes/state", "lower")
    specs["rbg.frontend.self_s"] = ("s", "lower")
    specs["rbg.lower.self_s"] = ("s", "lower")
    specs["ludeme.compile.self_s"] = ("s", "lower")
    specs["rbg.lower.instrs"] = ("count", "lower")
    specs["rbg.lower.reachable"] = ("count", "lower")
    specs["tracing_overhead"] = ("fraction", "lower")
    return specs


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def row(*parts):
    print("  ".join(str(p) for p in parts))


def report_environment(args):
    row("run", f"workload={args.workload}", f"seed={args.seed}",
        f"seconds={args.seconds}", f"trace={args.trace}")
    row("env", f"python={platform.python_version()}", f"nproc={os.cpu_count()}",
        "loadavg=" + ",".join(f"{x:.2f}" for x in os.getloadavg()))


def report_static():
    """Token counts, lowered program sizes and the token ratio for every
    library game, whatever the workload runs."""
    from ggs import bench, library
    from tracer import lowered_sizes

    token_rates = []
    for entry in library.list_games():
        game = entry.name
        rbg = bench.count_tokens(entry.rbg_path.read_text(), "rbg")
        lud = bench.count_tokens(entry.lud_path.read_text(), "ludemic")
        token_rates.append(lud / rbg)
        program = library.make_engine(game, "compiled").program
        instrs, reachable = lowered_sizes(program)
        row("static", game, f"tokens.rbg={rbg}", f"tokens.ludemic={lud}",
            f"ratio.tokens.ludemic/rbg={lud / rbg:.4f}",
            f"rbg.lower.instrs={instrs}", f"rbg.lower.reachable={reachable}")
    row("ratio", "tokens.ludemic/rbg", "geomean", f"{geomean(token_rates):.4f}",
        "(base: rbg lexer tokens)")


# -- untraced run ----------------------------------------------------------


def untraced(args, workload, ledger) -> dict:
    from harness import Runner, build_engines, settle
    from workloads import MEAN_PLIES

    engines = build_engines(workload.games())
    settle()
    runner = Runner(workload, args.seed, engines, ledger)
    setup = []
    for r, round_times in rounds(args.seconds, runner.run_round, MIN_ROUNDS):
        setup += [t for cell, t in round_times.items() if cell.kind == "setup"]
    n = r + 1
    row("rounds", n)
    check_playouts(args, workload, runner, ledger)

    # Each input's best time over the rounds, summed over the cell's inputs
    # (see Runner.best).
    pps, perft_s, xval, ref = {}, {}, {}, None
    for cell, best in runner.best.items():
        plies = sum(runner.plies[cell].values())
        if cell.kind == "playout":
            pps.setdefault(cell.executor, {})[cell.game] = (
                plies / sum(best.values()) / MEAN_PLIES[cell.game]
            )
        elif cell.kind == "perft":
            perft_s.setdefault(cell.executor, {})[cell.game] = best["pass"]
        elif cell.kind == "walk":
            xval[cell.game] = sum(best.values()) / plies
        elif cell.kind == "reference":
            ref = best["pass"]
    # Host speed during this run, from code that shares nothing with ggs:
    # context for comparing runs, not a correction (the host's slowdowns hit
    # this loop and the executors by different factors).
    row("reference", f"best_s={ref:.6f}", f"rounds={n}")

    metrics = {}
    for ex, suffix in SUFFIX.items():
        for game, v in pps[ex].items():
            row("cell", f"pps_{suffix}", game, f"{v:.4f}", "playouts/s", f"rounds={n}")
        metrics[f"pps_{suffix}"] = geomean(pps[ex].values())
    for ex, suffix in SUFFIX.items():
        for game, v in perft_s[ex].items():
            row("cell", f"perft_s_{suffix}", game, f"{v:.6f}", "s", f"rounds={n}")
        metrics[f"perft_s_{suffix}"] = geomean(perft_s[ex].values())
    for game, v in xval.items():
        row("cell", "xval_s", game, f"{v:.6f}", "s/ply", f"rounds={n}")
    metrics["xval_s"] = geomean(xval.values())
    # Set-up is timed once per round and reported as the median.
    metrics["setup_s"] = statistics.median(setup)
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    )

    report_ratios(pps)
    report_static()
    return metrics


def rounds(seconds: float, run_round, minimum: int):
    """Yield (r, run_round(r)) at least ``minimum`` times, then until the
    next round would end past the deadline."""
    start = time.perf_counter()
    r = 0
    while True:
        t0 = time.perf_counter()
        yield r, run_round(r)
        r += 1
        now = time.perf_counter()
        if r >= minimum and now + (now - t0) > start + seconds:
            return


def report_ratios(pps):
    """The paper's throughput ratios per game and as geometric means,
    each with its base. Context only: none of them is gated."""
    for num, den in (("rbg-compiled", "rbg-interp"), ("ludemic", "rbg-compiled"),
                     ("ludemic", "rbg-interp")):
        name = f"ratio.pps.{SUFFIX[num]}/{SUFFIX[den]}"
        for game in pps[num]:
            row("ratio", name, game, f"{pps[num][game] / pps[den][game]:.4f}",
                f"(base: {pps[den][game]:.4f} playouts/s)")
        row("ratio", name, "geomean",
            f"{geomean(pps[num].values()) / geomean(pps[den].values()):.4f}",
            f"(base: {geomean(pps[den].values()):.4f} playouts/s)")


def check_playouts(args, workload, runner, ledger):
    runner.check_agreement()
    if args.seed != DEFAULT_SEED:
        return
    ledger.attempted += 1
    pins = json.loads((HERE / "pins.json").read_text())
    got = runner.digest()
    want = pins.get(workload.name)
    if got != want:
        ledger.fail("*", "*", args.seed,
                    f"playout digest {got} != pinned {want}")


# -- traced run ------------------------------------------------------------


def traced(args, workload, ledger) -> dict:
    from harness import Runner, build_engines, settle
    from tracer import (ENGINE_BOUNDARIES, ENGINE_LAYERS, SETUP_LAYERS,
                        QueryCounter, Tracer, expected_pairs, family,
                        lowered_sizes, require_layers)
    from workloads import EXECUTORS, NO_EXECUTOR, RBG_EXECUTORS

    tracer = Tracer()
    engines = build_engines(workload.games())
    settle()
    runner = Runner(workload, args.seed, engines, ledger)

    def enter(cell):
        tracer.set_cell(cell.game, cell.executor)

    def pair(r):
        """An untraced and a traced pass over the same inputs."""
        plain = sum(runner.run_round(r).values())
        with tracer.engines(engines), tracer.harness():
            wall = sum(runner.run_round(r, on_cell=enter).values())
        agg = tracer.collect()
        require_layers(agg, expected_pairs())
        counts, tracer.counts = tracer.counts, {}
        return agg, counts, wall / plain - 1

    passes, counts, overheads = [], [], []
    for r, (agg, cnt, overhead) in rounds(args.seconds, pair, minimum=1):
        passes.append(agg)
        counts.append(cnt)
        overheads.append(overhead)
    row("traced_passes", len(passes))
    first_calls = {k: v[1] for k, v in passes[0].items()}
    for agg, cnt in zip(passes[1:], counts[1:]):
        if {k: v[1] for k, v in agg.items()} != first_calls or cnt != counts[0]:
            ledger.fail("*", "*", args.seed, "span counts differ between passes")
    check_playouts(args, workload, runner, ledger)

    query = QueryCounter()
    with query.engines(engines):
        for cell in runner.cells:
            if cell.executor == "rbg-interp" or cell.kind == "walk":
                query.game = cell.game
                runner.run_cell(cell)

    def self_s(layer, ex, game=None):
        return statistics.median(
            sum(v[0] for (l, e, g), v in agg.items()
                if l == layer and e == ex and game in (None, g))
            for agg in passes
        )

    def calls(layer, ex, game=None):
        return sum(v[1] for (l, e, g), v in passes[0].items()
                   if l == layer and e == ex and game in (None, g))

    def counted(layer, ex, i):
        return sum(v[i] for (l, e, _), v in counts[0].items() if l == layer and e == ex)

    for game in workload.games():
        for ex in EXECUTORS:
            total = sum(self_s(layer, ex, game) for layer in ENGINE_LAYERS)
            parts = [
                f"{layer}={self_s(layer, ex, game):.6f}s/{calls(layer, ex, game)}"
                for layer in ENGINE_LAYERS + ("bench.perft", "bench.dedup")
            ]
            row("layers", game, ex, f"engine_self_s={total:.6f}", *parts)
        rep = query.repeats.get(game, [0, 0])
        prb = query.probes.get(game, [0, 0])
        row("layers", game, "-",
            f"bench.xval.self_s={self_s('bench.xval', NO_EXECUTOR, game):.6f}",
            f"lookahead.repeat_share={rep[0] / rep[1] if rep[1] else 0.0:.4f}",
            f"bench.xval.probes_per_state={prb[0] / prb[1] if prb[1] else 0.0:.4f}")

    m = {}
    for ex in EXECUTORS:
        total = sum(self_s(layer, ex) for layer in ENGINE_LAYERS)
        for _, layer in ENGINE_BOUNDARIES[family(ex)]:
            m[f"{layer}.self_s.{ex}"] = self_s(layer, ex)
            m[f"{layer}.calls.{ex}"] = calls(layer, ex)
        if ex in RBG_EXECUTORS:
            m[f"lookahead.share.{ex}"] = self_s("lookahead", ex) / total
        m[f"order.share.{ex}"] = self_s("order", ex) / total
        m[f"gen.moves.{ex}"] = counted("gen", ex, 0)
        m[f"bench.perft.self_s.{ex}"] = self_s("bench.perft", ex)
        m[f"bench.perft.calls.{ex}"] = calls("bench.perft", ex)
        m[f"bench.dedup.self_s.{ex}"] = self_s("bench.dedup", ex)
        m[f"bench.dedup.kept_share.{ex}"] = (
            counted("bench.dedup", ex, 1) / counted("bench.dedup", ex, 0)
        )
    rep = [sum(v[i] for v in query.repeats.values()) for i in (0, 1)]
    prb = [sum(v[i] for v in query.probes.values()) for i in (0, 1)]
    m["lookahead.repeat_share"] = rep[0] / rep[1]
    m["bench.xval.self_s"] = self_s("bench.xval", NO_EXECUTOR)
    m["bench.xval.probes_per_state"] = prb[0] / prb[1]
    for layer in SETUP_LAYERS:
        m[f"{layer}.self_s"] = self_s(layer, NO_EXECUTOR)
    sizes = [lowered_sizes(engines[(g, "rbg-compiled")].program)
             for g in workload.games()]
    m["rbg.lower.instrs"] = sum(s[0] for s in sizes)
    m["rbg.lower.reachable"] = sum(s[1] for s in sizes)
    m["tracing_overhead"] = statistics.median(overheads)
    report_static()
    return m


# -- entry point -----------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (ROOT / "src" / "ggs" / "library").is_dir():
        print(f"perfbench: no ggs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from harness import Ledger
    from tracer import TracerError
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    specs = per_layer_specs() if args.trace else END_TO_END
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[
        "per_layer" if args.trace else "end_to_end"
    ]
    if sorted(m["name"] for m in declared) != sorted(specs):
        print("perfbench: metrics differ from BENCHMARK.json", file=sys.stderr)
        return 2

    report_environment(args)
    ledger = Ledger(workload.name)
    try:
        metrics = (traced if args.trace else untraced)(args, workload, ledger)
    except TracerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    row("env", "loadavg_end=" + ",".join(f"{x:.2f}" for x in os.getloadavg()))
    row("ops", f"attempted={ledger.attempted}", f"failed={ledger.failed}",
        f"failed_share={ledger.failed / max(ledger.attempted, 1):.6f}")
    out = {}
    for name, (unit, _) in specs.items():
        row("metric", name, metrics[name], unit)
        out[name] = {"value": metrics[name], "unit": unit}
    correct = ledger.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": out,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
