"""Command-line entry point.

Machine-readable output goes to standard output; diagnostics to standard
error. Exit codes: 0 success, 1 validation/mismatch failure, 2 usage
error (argparse's convention).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import bench, library
from .rbg.compiler import dump_ir
from .rbg.engine import RunawaySearch


def _engine_mode(args) -> str:
    """The ``library.make_engine`` mode named by --dialect and --mode."""
    return "ludemic" if args.dialect == "ludemic" else args.mode


def _fail(message: str) -> int:
    print(message, file=sys.stderr)
    return 1


# Subcommands that take only library games, never a file path.
_LIBRARY_ONLY = ("bench", "xval", "table")


def _usage_problem(args) -> str | None:
    """Why parsed arguments cannot run (a usage error), or None."""
    game = getattr(args, "game", None)
    if game is not None and (
        args.subcommand in _LIBRARY_ONLY or not library.is_path(game)
    ):
        try:
            library.get_game(game)
        except library.UnknownGame:
            return f"unknown game {game!r}"
    seconds = getattr(args, "seconds", None)
    if seconds is not None and not seconds > 0:
        return f"--seconds must be positive, not {seconds}"
    if getattr(args, "count", 1) < 1:
        return f"--count must be positive, not {args.count}"
    for flag in ("depth", "walks", "plies", "warmup"):
        value = getattr(args, flag, 0)
        if value < 0:
            return f"--{flag} must be non-negative, not {value}"
    return None


def cmd_validate(args) -> int:
    path = Path(args.file)
    dialect = "ludemic" if path.suffix == ".lud" else "rbg"
    # resolved, so that a bare name such as ``game`` is read as a file
    source = str(path.resolve())
    modes = ("ludemic",) if dialect == "ludemic" else ("compiled", "interpreter")
    try:
        for mode in modes:
            library.make_engine(source, mode).initial_state()
    except Exception as exc:  # surface any front-end diagnostic
        return _fail(f"{path}: {type(exc).__name__}: {exc}")
    print(f"{path}: ok ({dialect})")
    return 0


def cmd_moves(args) -> int:
    try:
        engine = library.make_engine(args.game, _engine_mode(args))
    except Exception as exc:
        return _fail(f"{type(exc).__name__}: {exc}")
    state = engine.initial_state()
    try:
        for wanted in (args.state or "").split():
            moves, payoffs = engine.probe(state)
            texts = engine.delta_texts(state, moves)
            chosen = next(
                (m for m, text in zip(moves, texts) if text == wanted), None
            )
            if chosen is None:
                return _fail(f"no legal move with delta {wanted!r}")
            state = engine.apply(state, chosen)
        moves, payoffs = engine.probe(state)
    except RunawaySearch as exc:
        return _fail(f"{type(exc).__name__}: {exc}")
    for text in engine.delta_texts(state, bench.dedup_moves(engine, state, moves)):
        print(text)
    if payoffs is not None:
        print("terminal:", json.dumps(payoffs), file=sys.stderr)
    return 0


def cmd_perft(args) -> int:
    try:
        engine = library.make_engine(args.game, _engine_mode(args))
    except Exception as exc:
        return _fail(f"{type(exc).__name__}: {exc}")
    try:
        print(bench.perft(engine, args.depth))
    except RunawaySearch as exc:
        return _fail(f"{type(exc).__name__}: {exc}")
    return 0


def cmd_bench(args) -> int:
    budget = ("seconds", args.seconds) if args.seconds else ("count", args.count)
    result = bench.bench_playouts(
        args.game, args.mode, budget, args.seed, warmup=args.warmup
    )
    print(json.dumps(vars(result), sort_keys=True))
    return 0


def cmd_tokens(args) -> int:
    try:
        text = library.load_description(args.game, args.dialect)
        print(bench.count_tokens(text, args.dialect))
    except Exception as exc:
        return _fail(f"{type(exc).__name__}: {exc}")
    return 0


def cmd_xval(args) -> int:
    report = bench.cross_validate(
        args.game, args.depth, args.walks, args.seed, max_plies=args.plies
    )
    print(json.dumps(report, default=str))
    if bench.report_ok(report):
        print("OK", file=sys.stderr)
        return 0
    print("MISMATCH", file=sys.stderr)
    return 1


def cmd_table(args) -> int:
    budget = ("seconds", args.seconds) if args.seconds else ("count", args.count)
    names = (
        [e.name for e in library.list_games()] if args.all else [args.game]
    )
    rows = []
    for name in names:
        print(f"measuring {name}...", file=sys.stderr)
        rows.append(
            bench.build_comparison_row(name, budget, args.seed, args.warmup)
        )
    print(bench.emit_table(rows, args.format), end="")
    return 0


def cmd_dump_ir(args) -> int:
    try:
        program = library.make_engine(args.game, "compiled").program
        print(dump_ir(program), end="")
    except Exception as exc:
        return _fail(f"{type(exc).__name__}: {exc}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ggs", description="dual-dialect general game system"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("validate", help="parse and compile a description file")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    def add_engine_flags(p):
        p.add_argument("--dialect", choices=("rbg", "ludemic"), default="rbg")
        p.add_argument(
            "--mode", choices=("interpreter", "compiled"), default="interpreter"
        )

    p = sub.add_parser("moves", help="print sorted canonical move deltas")
    p.add_argument("game")
    add_engine_flags(p)
    p.add_argument(
        "--state",
        help="whitespace-separated delta script applied before listing",
    )
    p.set_defaults(func=cmd_moves)

    p = sub.add_parser("perft", help="decision-sequence count")
    p.add_argument("game")
    add_engine_flags(p)
    p.add_argument("--depth", type=int, required=True)
    p.set_defaults(func=cmd_perft)

    p = sub.add_parser("bench", help="playout throughput")
    p.add_argument("game")
    p.add_argument(
        "--mode",
        choices=("interpreter", "compiled", "ludemic"),
        default="interpreter",
    )
    group = p.add_mutually_exclusive_group()
    group.add_argument("--seconds", type=float)
    group.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--warmup", type=int, default=bench.WARMUP_PLAYOUTS)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("tokens", help="lexer token count")
    p.add_argument("game")
    p.add_argument("--dialect", choices=("rbg", "ludemic"), default="rbg")
    p.set_defaults(func=cmd_tokens)

    p = sub.add_parser("xval", help="cross-dialect validation report")
    p.add_argument("game")
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--walks", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--plies", type=int, default=40)
    p.set_defaults(func=cmd_xval)

    p = sub.add_parser("table", help="comparison table over library games")
    p.add_argument("game", nargs="?")
    p.add_argument("--all", action="store_true")
    p.add_argument("--format", choices=("markdown", "csv"), default="markdown")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--seconds", type=float)
    group.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--warmup", type=int, default=bench.WARMUP_PLAYOUTS)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("dump-ir", help="lowered program listing")
    p.add_argument("game")
    p.set_defaults(func=cmd_dump_ir)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.subcommand == "table" and not args.all and not args.game:
        parser.error("table needs a game name or --all")
    problem = _usage_problem(args)
    if problem is not None:
        print(f"ggs {args.subcommand}: error: {problem}", file=sys.stderr)
        return 2
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
