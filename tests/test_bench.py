"""Bench harness: tokens, perft, playout timing, cross-validation, table."""

import dataclasses
import json

import pytest

from ggs import bench, cli, library
from ggs.core.model import Move, move_delta
from ggs.core.rng import Prng
from ggs.ludeme.compile import compile_ludemic
from ggs.ludeme.engine import LudemicEngine

from test_library import perft as applying_perft


def test_count_tokens_examples():
    assert bench.count_tokens("(mode 2)", "ludemic") == 4
    assert bench.count_tokens("#players = cross(100), nought(100)", "rbg") == 11
    assert bench.count_tokens("// only a comment\n(a)", "ludemic") == 3
    with pytest.raises(ValueError):
        bench.count_tokens("x", "latin")


def test_token_rate_direction_for_every_game():
    for entry in library.list_games():
        rbg = bench.count_tokens(entry.rbg_path.read_text(), "rbg")
        lud = bench.count_tokens(entry.lud_path.read_text(), "ludemic")
        assert lud < rbg, entry.name


def test_dedup_moves_collapses_identical_deltas():
    eng = library.make_engine("amazons", "interpreter")
    state = eng.initial_state()
    moves = eng.probe(state)[0]
    deduped = bench.dedup_moves(eng, state, moves)
    assert len(deduped) == len({eng.delta_text(state, m) for m in moves})


def test_perft_depths():
    eng = library.make_engine("tictactoe", "ludemic")
    assert bench.perft(eng, 0) == 1
    assert bench.perft(eng, 1) == 9
    assert bench.perft(eng, 2) == 72
    with pytest.raises(ValueError):
        bench.perft(eng, -1)


def count_applies(engine):
    """Wrap ``engine.apply`` on the instance; the list grows by one per
    call."""
    calls = []

    def counted(state, move, apply=engine.apply):
        calls.append(move)
        return apply(state, move)

    engine.apply = counted
    return calls


@pytest.mark.parametrize("mode", bench.MODES)
@pytest.mark.parametrize("game,root", [("tictactoe", 9), ("amazons", 80)])
def test_perft_frontier_applies_no_move(game, root, mode):
    eng = library.make_engine(game, mode)
    calls = count_applies(eng)
    assert bench.perft(eng, 1) == root
    assert calls == []
    # depth 2 applies each distinct root delta once, and no move below
    state = eng.initial_state()
    distinct = bench.dedup_moves(eng, state, eng.probe(state)[0])
    assert len(distinct) == root
    bench.perft(eng, 2)
    assert len(calls) == root


def play_cells(engine, vertices):
    """Play the placement onto each vertex in turn."""
    state = engine.initial_state()
    for v in vertices:
        (move,) = [m for m in engine.probe(state)[0] if m.destination() == v]
        state = engine.apply(state, move)
    return state


@pytest.mark.parametrize("mode", bench.MODES)
def test_perft_frontier_counts_terminal_children_once(mode):
    # o holds a2 and b2 and is to move: c2 wins for o, and the other
    # placements do not end the game
    eng = library.make_engine("tictactoe", mode)
    cell = eng.board.encode_coord
    vertices = {cell(v): v for v in range(eng.board.vertex_count)}
    state = play_cells(eng, [vertices[c] for c in ("a1", "a2", "b1", "b2", "a3")])
    assert state.mover == 2
    children = [
        eng.apply(state, m)
        for m in bench.dedup_moves(eng, state, eng.probe(state)[0])
    ]
    terminal = [c for c in children if eng.probe(c)[1] is not None]
    assert 0 < len(terminal) < len(children)
    for depth in (1, 2):
        assert bench.perft(eng, depth, state) == applying_perft(eng, state, depth)


def test_bench_playouts_deterministic_fields():
    runs = [
        bench.bench_playouts(
            "tictactoe", "compiled", ("count", 20), seed=7, warmup=2
        )
        for _ in range(2)
    ]
    for field in ("game", "mode", "playouts", "avg_playout_length",
                  "truncated_count", "seed"):
        assert getattr(runs[0], field) == getattr(runs[1], field)
    assert runs[0].mode == "rbg-compiled"
    assert runs[0].playouts == 20
    assert runs[0].truncated_count == 0
    assert runs[0].elapsed > 0


def test_bench_playouts_rejects_bad_budget():
    with pytest.raises(ValueError):
        bench.bench_playouts("tictactoe", "compiled", ("plies", 5), 0)
    with pytest.raises(ValueError):
        bench.bench_playouts("tictactoe", "compiled", ("count", 0), 0)


def test_cross_validate_clean_game():
    report = bench.cross_validate("tictactoe", depth=2, walk_count=5, seed=0)
    assert bench.report_ok(report)
    assert report["perftAgreement"][2]["agree"]
    counts = report["perftAgreement"][2]["counts"]
    assert set(counts.values()) == {72}
    assert set(counts) == {"rbg-interp", "rbg-compiled", "ludemic"}


def test_cross_validate_probes_each_walk_state_once():
    engines = {
        bench.MODE_LABELS[m]: library.make_engine("connect4", m)
        for m in bench.MODES
    }
    probes = {}  # id(state) -> [state, probe count]; the state stays alive
    for engine in engines.values():
        def counted(state, probe=engine.probe):
            probes.setdefault(id(state), [state, 0])[1] += 1
            return probe(state)
        engine.probe = counted
    report = bench.cross_validate(
        "connect4", depth=0, walk_count=3, seed=0, engines=engines
    )
    assert bench.report_ok(report)
    assert len(probes) > 3 * 3 * 10
    assert {n for _, n in probes.values()} == {1}


def reference_normalized(engine, state, moves, symbol_map):
    """Cross-dialect delta text built from ``move_delta``."""
    board, symbols = engine.board, engine.piece_symbols
    out = {}
    for m in moves:
        delta = move_delta(state, m)
        cells = sorted(
            f"{board.encode_coord(v)}={symbol_map.get(symbols[p], symbols[p])}"
            for v, p in delta.cell_changes
        )
        out.setdefault(",".join(cells) + f";mover={delta.next_mover}", m)
    return out


def assert_normalized_like_reference(engine, state, moves, symbol_map):
    tokens = bench._cell_tokens(engine, symbol_map)
    got = bench._normalized_deltas(state, moves, tokens)
    want = reference_normalized(engine, state, moves, symbol_map)
    assert list(got) == list(want)
    assert all(got[k] is want[k] for k in want)


@pytest.mark.parametrize("mode", bench.MODES)
@pytest.mark.parametrize("game,plies", [("reversi", 12), ("amazons", 4),
                                        ("breakthrough", 20)])
def test_normalized_deltas_match_move_delta_reference(game, plies, mode):
    engine = library.make_engine(game, mode)
    symbol_map = library.get_game(game).symbol_map if mode == "ludemic" else {}
    rng = Prng(3)
    state = engine.initial_state()
    for _ in range(plies):
        moves, payoffs = engine.probe(state)
        if payoffs is not None:
            break
        assert_normalized_like_reference(engine, state, moves, symbol_map)
        state = engine.apply(state, moves[rng.uniform_index(len(moves))])


def test_normalized_deltas_drop_noops_and_keep_last_write():
    engine = library.make_engine("tictactoe", "compiled")
    state = engine.initial_state()
    a1, b1 = engine.board.decode_coord("a1"), engine.board.decode_coord("b1")
    moves = [
        Move((("cell", a1, 1), ("cell", a1, 2), ("var", "cross", 9),
              ("pass", 2))),
        Move((("cell", b1, 0),)),
        Move((("cell", a1, 2), ("pass", 2))),
        Move((("cell", b1, 1), ("cell", b1, 0), ("pass", 2))),
    ]
    tokens = bench._cell_tokens(engine, {"o": "disc2"})
    got = bench._normalized_deltas(state, moves, tokens)
    assert list(got) == ["a1=disc2;mover=2", ";mover=1", ";mover=2"]
    assert got["a1=disc2;mover=2"] is moves[0]
    assert_normalized_like_reference(engine, state, moves, {"o": "disc2"})


def corrupted_engines(substitution):
    """tictactoe engine triple with a mutated ludemic description."""
    text = library.load_description("tictactoe", "ludemic")
    assert substitution[0] in text
    engines = {
        bench.MODE_LABELS[m]: library.make_engine("tictactoe", m)
        for m in ("interpreter", "compiled")
    }
    engines["ludemic"] = LudemicEngine(
        compile_ludemic(text.replace(*substitution))
    )
    return engines


# the uncorrupted executors of ``corrupted_engines``
RBG_MODES = {"rbg-interp": "interpreter", "rbg-compiled": "compiled"}


def replayed(capsys, mismatch, label):
    """(stdout lines, stderr) of ``ggs moves`` at the state the mismatch's
    replay script for ``label`` rebuilds."""
    script = mismatch["replay"][label]
    assert len(script.split()) == mismatch["ply"]
    capsys.readouterr()
    argv = ["moves", "tictactoe", "--mode", RBG_MODES[label], "--state", script]
    assert cli.main(argv) == 0
    out = capsys.readouterr()
    return out.out.splitlines(), out.err


def test_cross_validate_flags_delta_mismatch(capsys):
    # pre-placing a disc removes one placement from the ludemic delta set
    engines = corrupted_engines(
        ("(rules", '(rules\n  (start { (place "Disc1" {4}) })')
    )
    report = bench.cross_validate(
        "tictactoe", depth=1, walk_count=1, seed=0, engines=engines
    )
    assert not bench.report_ok(report)
    assert not report["perftAgreement"][1]["agree"]
    assert report["deltaSetMismatches"]
    (mismatch,) = report["deltaSetMismatches"]
    assert set(mismatch["replay"]) == set(engines)
    assert mismatch["ply"] == 0  # the corrupted start differs at once
    (missing,) = mismatch["difference"]["ludemic"]
    cells, mover = missing.split(";mover=")
    for label in RBG_MODES:
        lines, _ = replayed(capsys, mismatch, label)
        # every move at the start, the one the ludemic set lacks included
        assert len(lines) == report["perftAgreement"][1]["counts"][label]
        assert any(
            line.startswith(f"cell:{cells};") and line.endswith(f";mover={mover}")
            for line in lines
        )


def test_cross_validate_flags_outcome_mismatch(capsys):
    # the mutated game no longer recognizes three in a row
    engines = corrupted_engines(("(line 3)", "(line 4)"))
    report = bench.cross_validate(
        "tictactoe", depth=1, walk_count=10, seed=0, engines=engines
    )
    assert report["perftAgreement"][1]["agree"]  # first ply looks fine
    assert report["outcomeMismatches"]
    for mismatch in report["outcomeMismatches"]:
        assert set(mismatch["replay"]) == set(engines)
        for label in RBG_MODES:
            # the replayed state is the one the rbg executors end
            lines, err = replayed(capsys, mismatch, label)
            payoffs = mismatch["payoffs"][label]
            assert payoffs is not None
            assert lines == []
            assert err == f"terminal: {json.dumps(payoffs)}\n"


def test_build_comparison_row_and_emit_table():
    row = bench.build_comparison_row(
        "tictactoe", ("count", 5), seed=0, warmup=1
    )
    assert row.game == "Tic-Tac-Toe"
    assert 0 < row.token_rate < 1
    md = bench.emit_table([row], "markdown")
    lines = md.splitlines()
    assert lines[0].startswith("| game | tokensRbg |")
    assert lines[2].startswith("| Tic-Tac-Toe | ")
    csv_text = bench.emit_table([row], "csv")
    assert csv_text.splitlines()[0] == (
        "game,tokensRbg,tokensLudemic,tokenRate,ppsInterp,ppsCompiled,"
        "ppsLudemic,rateVsInterp,rateVsCompiled"
    )
    with pytest.raises(ValueError):
        bench.emit_table([], "markdown")
    with pytest.raises(ValueError):
        bench.emit_table([row], "html")


def test_emit_table_formatting_is_fixed_point():
    row = bench.ComparisonRow(
        game="Toy",
        tokens_rbg=625,
        tokens_ludemic=125,
        token_rate=125 / 625,
        pps_interp=4349 / 625,
        pps_compiled=10.0,
        pps_ludemic=100.0,
        rate_vs_interp=100 / (4349 / 625),
        rate_vs_compiled=10.0,
    )
    out = bench.emit_table([row], "csv")
    assert out.splitlines()[1] == "Toy,625,125,0.20,6.96,10.00,100.00,14.37,10.00"
    # byte-stable across repeated emission
    assert out == bench.emit_table([dataclasses.replace(row)], "csv")
