"""What the benchmark under ``perfbench/`` reads of the program.

The benchmark is frozen: it names engine methods, call signatures and
instruction fields that the engine must keep.  These tests run those
readers on the library, so a change that breaks them fails here rather
than in a benchmark run.
"""

import importlib
from pathlib import Path

import pytest

from ggs import library
from ggs.core.playout import run_playout

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracer")


@pytest.mark.parametrize("game", [entry.name for entry in library.list_games()])
def test_lowered_sizes_reads_every_compiled_program(tracer, game):
    program = library.make_engine(game, "compiled").program
    instrs, reachable = tracer.lowered_sizes(program)
    assert instrs == len(program.instrs)
    assert 0 < reachable <= instrs


def test_query_counter_wraps_the_interpreter_lookahead(tracer):
    # the counter's ``_exists`` wrapper takes (sub, vertex, contents,
    # variables, pure), so the engine must call it with those five
    engine = library.make_engine("Tic-Tac-Toe", "interpreter")
    counter = tracer.QueryCounter()
    counter.game = "Tic-Tac-Toe"
    with counter.engines({("Tic-Tac-Toe", "rbg-interp"): engine}):
        result = run_playout(engine, 0)
    assert result.move_count > 0
    repeats, queries = counter.repeats["Tic-Tac-Toe"]
    assert 0 <= repeats < queries
    assert not {"semimoves", "_exists", "probe"} & set(vars(engine))
