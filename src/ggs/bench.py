"""Token counting, perft, playout throughput, cross-dialect validation,
and comparison-table emission.

A "playout" is everything from the initial state to terminal detection,
move-list construction included. Fixed-count benchmarking is fully
deterministic for a given (game, mode, seed); fixed-seconds reports
wall-clock-bounded counts.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass

from .core.playout import DEFAULT_MAX_PLIES, run_playout
from .core.rng import Prng
from .ludeme.sexpr import _tokens as _lud_tokens
from .rbg.lexer import tokenize_rbg
from . import library

WARMUP_PLAYOUTS = 100

MODES = ("interpreter", "compiled", "ludemic")
# Report labels for the three dialect+mode combinations.
MODE_LABELS = {
    "interpreter": "rbg-interp",
    "compiled": "rbg-compiled",
    "ludemic": "ludemic",
}


@dataclass
class BenchResult:
    game: str
    mode: str  # rbg-interp | rbg-compiled | ludemic
    playouts: int
    elapsed: float
    playouts_per_sec: float
    avg_playout_length: float
    truncated_count: int
    seed: int


@dataclass
class ComparisonRow:
    game: str
    tokens_rbg: int
    tokens_ludemic: int
    token_rate: float
    pps_interp: float
    pps_compiled: float
    pps_ludemic: float
    rate_vs_interp: float
    rate_vs_compiled: float


def count_tokens(text: str, dialect: str) -> int:
    """Lexer token count: punctuation included, comments/whitespace not."""
    if dialect == "rbg":
        return len(tokenize_rbg(text)) - 1  # excluding the EOF marker
    if dialect == "ludemic":
        return sum(1 for _ in _lud_tokens(text))
    raise ValueError(f"unknown dialect {dialect!r}")


def dedup_moves(engine, state, moves):
    """One representative per distinct state delta, in canonical order.

    Moves listed by ``probe(state)`` carry their canonical key, equal
    exactly when their deltas are equal, so those keys are reused; a list
    with an unkeyed move is keyed by delta text.
    """
    keys = [m.key for m in moves]
    if None in keys:
        keys = engine.delta_texts(state, moves)
    seen = set()
    out = []
    for m, key in zip(moves, keys):
        if key not in seen:
            seen.add(key)
            out.append(m)
    return out


def perft(engine, depth: int, state=None, _memo=None) -> int:
    """Decision-sequence count to the given depth, terminal states
    counted as leaves; move lists are delta-deduplicated.

    Every child at the last ply is a leaf that counts 1, terminal or
    not, so a non-terminal state at depth 1 counts its deduplicated
    ``probe`` list without applying a move.
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")
    if state is None:
        state = engine.initial_state()
    if _memo is None:
        _memo = {}
    key = (state.key(), depth)
    cached = _memo.get(key)
    if cached is not None:
        return cached
    if depth == 0:
        result = 1
    else:
        moves, payoffs = engine.probe(state)
        if payoffs is not None:
            result = 1
        elif depth == 1:
            result = len(dedup_moves(engine, state, moves))
        else:
            result = sum(
                perft(engine, depth - 1, engine.apply(state, m), _memo)
                for m in dedup_moves(engine, state, moves)
            )
    _memo[key] = result
    return result


def bench_playouts(
    game: str,
    mode: str,
    budget: tuple,
    seed: int,
    max_length: int = DEFAULT_MAX_PLIES,
    warmup: int = WARMUP_PLAYOUTS,
    engine=None,
) -> BenchResult:
    """Flat Monte Carlo throughput, single-threaded.

    budget is ("count", n) for a fixed number of measured playouts or
    ("seconds", t) for a wall-clock bound. The warm-up playouts are
    excluded from timing.
    """
    if engine is None:
        engine = library.make_engine(game, mode)
    kind, amount = budget
    if kind not in ("count", "seconds") or amount <= 0:
        raise ValueError(f"bad budget {budget!r}")

    for i in range(warmup):
        run_playout(engine, seed + i, max_length)

    played = 0
    total_plies = 0
    truncated = 0
    start = time.perf_counter()
    while True:
        result = run_playout(engine, seed + warmup + played, max_length)
        played += 1
        total_plies += result.move_count
        truncated += result.truncated
        elapsed = time.perf_counter() - start
        if kind == "count" and played >= amount:
            break
        if kind == "seconds" and elapsed >= amount:
            break
    return BenchResult(
        game=game,
        mode=MODE_LABELS.get(mode, mode),
        playouts=played,
        elapsed=elapsed,
        playouts_per_sec=played / elapsed if elapsed > 0 else float("inf"),
        avg_playout_length=total_plies / played,
        truncated_count=truncated,
        seed=seed,
    )


def _cell_tokens(engine, symbol_map) -> tuple:
    """``tokens[vertex][piece] == "<coord>=<mapped symbol>"``."""
    board = engine.board
    symbols = [symbol_map.get(s, s) for s in engine.piece_symbols]
    return tuple(
        tuple(f"{board.encode_coord(v)}={s}" for s in symbols)
        for v in range(board.vertex_count)
    )


def _normalized_deltas(state, moves, tokens):
    """Canonical delta text -> move, variables stripped, symbols mapped.

    The ludemic dialect has no variables and its piece names differ, so
    cross-dialect equality is judged on cell changes plus the next mover,
    with symbols translated through the game's symbol map (``tokens``, from
    ``_cell_tokens``). As in ``Engine.delta_texts``, later writes win and
    no-op writes are dropped.
    """
    contents = state.contents
    out = {}
    for m in moves:
        cells = {}
        mover = state.mover
        for eff in m.effects:
            kind = eff[0]
            if kind == "cell":
                cells[eff[1]] = eff[2]
            elif kind == "pass":
                mover = eff[1]
        changed = [tokens[v][p] for v, p in cells.items() if contents[v] != p]
        changed.sort()
        out.setdefault(",".join(changed) + f";mover={mover}", m)
    return out


def _replay_scripts(engines: dict, history: dict) -> dict:
    """Label -> the delta texts of the moves that executor applied on the
    walk, space-joined: ``ggs moves <game> --state "<script>"`` replays it."""
    return {
        label: " ".join(engines[label].delta_text(s, m) for s, m in steps)
        for label, steps in history.items()
    }


def cross_validate(
    game: str,
    depth: int,
    walk_count: int,
    seed: int,
    max_plies: int = 40,
    engines: dict | None = None,
    symbol_map: dict | None = None,
) -> dict:
    """Compare the three executors on perft, per-state delta sets along
    seeded random walks, and terminal payoffs. Mismatches are data; each
    maps every label to the ``replay`` script of its walk (see
    ``_replay_scripts``)."""
    if engines is None:
        engines = {
            MODE_LABELS[mode]: library.make_engine(game, mode) for mode in MODES
        }
    if symbol_map is None:
        symbol_map = library.get_game(game).symbol_map
    labels = list(engines)
    # rbg symbols pass through untouched; ludemic symbols are translated.
    tokens = {
        label: _cell_tokens(
            engines[label], symbol_map if label == "ludemic" else {}
        )
        for label in labels
    }

    perft_agreement = {}
    for d in range(1, depth + 1):
        counts = {label: perft(eng, d) for label, eng in engines.items()}
        perft_agreement[d] = {
            "counts": counts,
            "agree": len(set(counts.values())) == 1,
        }

    delta_mismatches = []
    outcome_mismatches = []
    for walk in range(walk_count):
        rng = Prng(seed + walk)
        states = {label: engines[label].initial_state() for label in labels}
        # (state, move) per ply and label: texts only when a walk mismatches
        history = {label: [] for label in labels}
        for ply in range(max_plies):
            # One probe per state. Terminality first: a terminal
            # regex-dialect state has no moves while the ludemic engine
            # may still list placements its end rule makes unreachable.
            probes = {
                label: engines[label].probe(states[label]) for label in labels
            }
            payoffs = {label: probes[label][1] for label in labels}
            if any(p is not None for p in payoffs.values()):
                if len({tuple(sorted(p.items())) if p else None
                        for p in payoffs.values()}) != 1:
                    outcome_mismatches.append(
                        {"walk": walk, "ply": ply, "payoffs": payoffs,
                         "replay": _replay_scripts(engines, history)}
                    )
                break
            tables = {
                label: _normalized_deltas(
                    states[label], probes[label][0], tokens[label]
                )
                for label in labels
            }
            keysets = {label: frozenset(t) for label, t in tables.items()}
            if len(set(keysets.values())) != 1:
                base = keysets[labels[0]]
                detail = {
                    label: sorted(keysets[label] ^ base) for label in labels[1:]
                }
                delta_mismatches.append(
                    {"walk": walk, "ply": ply, "difference": detail,
                     "replay": _replay_scripts(engines, history)}
                )
                break
            shared = sorted(keysets[labels[0]])
            if not shared:
                break
            choice = shared[rng.uniform_index(len(shared))]
            for label in labels:
                move = tables[label][choice]
                history[label].append((states[label], move))
                states[label] = engines[label].apply(states[label], move)
    return {
        "game": game,
        "perftAgreement": perft_agreement,
        "deltaSetMismatches": delta_mismatches,
        "outcomeMismatches": outcome_mismatches,
    }


def report_ok(report: dict) -> bool:
    return (
        all(row["agree"] for row in report["perftAgreement"].values())
        and not report["deltaSetMismatches"]
        and not report["outcomeMismatches"]
    )


def build_comparison_row(
    game: str, budget: tuple, seed: int, warmup: int = WARMUP_PLAYOUTS
) -> ComparisonRow:
    """Measure one library game in all three modes."""
    entry = library.get_game(game)
    tokens_rbg = count_tokens(entry.rbg_path.read_text(), "rbg")
    tokens_lud = count_tokens(entry.lud_path.read_text(), "ludemic")
    pps = {
        mode: bench_playouts(
            entry.name, mode, budget, seed, warmup=warmup
        ).playouts_per_sec
        for mode in MODES
    }
    return ComparisonRow(
        game=entry.name,
        tokens_rbg=tokens_rbg,
        tokens_ludemic=tokens_lud,
        token_rate=tokens_lud / tokens_rbg,
        pps_interp=pps["interpreter"],
        pps_compiled=pps["compiled"],
        pps_ludemic=pps["ludemic"],
        rate_vs_interp=pps["ludemic"] / pps["interpreter"],
        rate_vs_compiled=pps["ludemic"] / pps["compiled"],
    )


_COLUMNS = (
    "game",
    "tokensRbg",
    "tokensLudemic",
    "tokenRate",
    "ppsInterp",
    "ppsCompiled",
    "ppsLudemic",
    "rateVsInterp",
    "rateVsCompiled",
)


def _row_values(row: ComparisonRow) -> list[str]:
    return [
        row.game,
        str(row.tokens_rbg),
        str(row.tokens_ludemic),
        f"{row.token_rate:.2f}",
        f"{row.pps_interp:.2f}",
        f"{row.pps_compiled:.2f}",
        f"{row.pps_ludemic:.2f}",
        f"{row.rate_vs_interp:.2f}",
        f"{row.rate_vs_compiled:.2f}",
    ]


def emit_table(rows: list[ComparisonRow], format: str = "markdown") -> str:
    """Table-style report over comparison rows; byte-stable per input."""
    if not rows:
        raise ValueError("emit_table needs at least one row")
    if format == "markdown":
        lines = [
            "| " + " | ".join(_COLUMNS) + " |",
            "|" + "|".join(" --- " for _ in _COLUMNS) + "|",
        ]
        for row in rows:
            lines.append("| " + " | ".join(_row_values(row)) + " |")
        return "\n".join(lines) + "\n"
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_COLUMNS)
        for row in rows:
            writer.writerow(_row_values(row))
        return buf.getvalue()
    raise ValueError(f"unknown table format {format!r}")
