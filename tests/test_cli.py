"""End-to-end command-line behavior via subprocess."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ggs import cli, library

from test_ludeme_compile import BAD_DESCRIPTIONS


# the directory that holds the ggs package, for runs from another directory
SRC = str(Path(library.__file__).resolve().parents[2])


def run_cli(*args, cwd=None):
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "ggs.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=path),
    )


def test_usage_error_exits_2():
    assert run_cli().returncode == 2
    assert run_cli("bench", "amazons", "--mode", "nosuch").returncode == 2
    assert run_cli("table").returncode == 2


def test_bad_game_budget_and_depth_exit_2_on_one_line():
    for args in (
        ("bench", "nosuch"),
        ("xval", "nosuch"),
        ("perft", "nosuch", "--depth", "1"),
        ("bench", "tictactoe", "--count", "0"),
        ("bench", "tictactoe", "--seconds", "0"),
        ("perft", "tictactoe", "--depth", "-1"),
        ("xval", "tictactoe", "--walks", "-1"),
        ("xval", "tictactoe", "--plies", "-5"),
        ("bench", "tictactoe", "--warmup", "-1"),
        ("table", "tictactoe", "--warmup", "-2"),
    ):
        proc = run_cli(*args)
        assert proc.returncode == 2, (args, proc.stderr)
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1, (args, proc.stderr)


@pytest.mark.parametrize("sub", ("bench", "table"))
@pytest.mark.parametrize("seconds", ("inf", "-inf", "nan", "1e999"))
def test_non_finite_seconds_is_a_usage_problem(sub, seconds):
    # checked before anything runs: an infinite budget would never end
    args = cli.build_parser().parse_args([sub, "tictactoe", f"--seconds={seconds}"])
    assert "--seconds must be positive and finite" in cli._usage_problem(args)


@pytest.mark.parametrize("sub", ("bench", "xval", "table"))
def test_negative_seed_exits_2_on_one_line(sub, capsys):
    # a negative seed would be masked to a 64-bit one and run silently
    args = [sub, "tictactoe", "--seed", "-1"]
    assert cli._usage_problem(cli.build_parser().parse_args(args)) == (
        "--seed must be non-negative, not -1"
    )
    assert cli.main(args + ["--count", "1"] * (sub != "xval")) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"ggs {sub}: error: --seed must be non-negative, not -1\n"


def test_validate_library_files():
    for entry in library.list_games():
        for path in (entry.rbg_path, entry.lud_path):
            proc = run_cli("validate", str(path))
            assert proc.returncode == 0, proc.stderr
            assert "ok" in proc.stdout
    proc = run_cli("validate", "/nonexistent/game.rbg")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr


def test_validate_reads_a_bare_name_as_a_file(tmp_path):
    # neither name has a separator or an extension; "tictactoe" also names
    # a library game, whose valid description must not be read instead
    (tmp_path / "game").write_text(library.load_description("hex", "rbg"))
    proc = run_cli("validate", "game", cwd=tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "game: ok (rbg)\n", "")
    (tmp_path / "tictactoe").write_text("#players = p(1)\n")
    proc = run_cli("validate", "tictactoe", cwd=tmp_path)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("tictactoe: ")


def test_validate_reports_diagnostics(tmp_path):
    bad = tmp_path / "broken.lud"
    bad.write_text("(game \"X\" (mode 2)")
    proc = run_cli("validate", str(bad))
    assert proc.returncode == 1
    assert "Unbalanced" in proc.stderr


@pytest.mark.parametrize(
    "source, old, new, error",
    [case[1:5] for case in BAD_DESCRIPTIONS],
    ids=[case[0] for case in BAD_DESCRIPTIONS],
)
def test_validate_bad_ludemic_exits_1_on_one_line(tmp_path, source, old, new, error):
    bad = tmp_path / "bad.lud"
    bad.write_text(source.replace(old, new, 1))
    proc = run_cli("validate", str(bad))
    assert proc.returncode == 1
    assert proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    assert f": {error.__name__}: " in line


RUNAWAY_RULES = """
#players = p(100), q(100)
#pieces = e, w, b
#variables =
#board = rectangle(up,down,left,right, [e])
#rules = ->p ( ([b] [w])* -> q )*
"""


def test_runaway_rules_exit_1_on_one_line(tmp_path):
    # every ([b] [w]) round adds two effects, so the walk reaches the
    # effect cap instead of ending
    path = tmp_path / "runaway.rbg"
    path.write_text(RUNAWAY_RULES)
    for mode in ("interpreter", "compiled"):
        for args in (("moves", str(path)), ("perft", str(path), "--depth", "1")):
            proc = run_cli(*args, "--mode", mode)
            assert proc.returncode == 1, (args, mode, proc.stderr)
            assert proc.stdout == ""
            (line,) = proc.stderr.splitlines()
            assert line.startswith(
                "RunawaySearch: runaway effect sequence in rules pattern at "
                "instruction "
            ), line


def test_moves_lists_canonical_deltas():
    proc = run_cli("moves", "tictactoe")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert len(lines) == 9
    assert lines == sorted(lines)
    # scripted state: play the first listed move, then count replies
    follow = run_cli("moves", "tictactoe", "--state", lines[0])
    assert follow.returncode == 0
    assert len(follow.stdout.splitlines()) == 8
    bad = run_cli("moves", "tictactoe", "--state", "cell:a1=zz;mover=9")
    assert bad.returncode == 1


def test_perft_in_both_dialects():
    for extra in ([], ["--dialect", "ludemic"], ["--mode", "compiled"]):
        proc = run_cli("perft", "tictactoe", "--depth", "2", *extra)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "72"


def test_bench_emits_json():
    proc = run_cli(
        "bench", "tictactoe", "--mode", "ludemic",
        "--count", "5", "--warmup", "1", "--seed", "3",
    )
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert data["playouts"] == 5
    assert data["mode"] == "ludemic"
    assert data["seed"] == 3


def test_tokens():
    proc = run_cli("tokens", "gomoku", "--dialect", "ludemic")
    assert proc.returncode == 0
    assert int(proc.stdout) > 0


def test_xval_ok_and_stream_separation():
    proc = run_cli("xval", "tictactoe", "--depth", "1", "--walks", "3")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)  # machine output only on stdout
    assert report["game"] == "tictactoe"
    assert proc.stderr.strip().endswith("OK")


def test_table_single_game_csv():
    proc = run_cli(
        "table", "tictactoe", "--format", "csv",
        "--count", "3", "--warmup", "1",
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("game,tokensRbg")
    assert lines[1].startswith("Tic-Tac-Toe,")


def test_dump_ir():
    proc = run_cli("dump-ir", "amazons")
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0].lstrip().startswith("0:")


DEEP_RBG = """
#players = white(100), black(100)
#pieces = e, w, b
#variables =
#board = rectangle(up,down,left,right, [e, w] [b, e])
{macros}
#rules = ->white {rules} -> black
"""


MACRO_CHAIN = "#m0 = up\n" + "".join(
    f"#m{i} = m{i - 1}" + "*" * 20 + "\n" for i in range(1, 61)
)

# each input used to end ``ggs validate`` in a RecursionError
DEEP_NESTING = [
    ("parens.rbg", DEEP_RBG.format(
        macros="", rules="(" * 250 + "up" + ")" * 250), "ParseError"),
    ("checks.rbg", DEEP_RBG.format(
        macros="", rules="{? " * 250 + "up" + " }" * 250), "ParseError"),
    ("stars.rbg", DEEP_RBG.format(
        macros="", rules="[w]" + "*" * 1000), "ParseError"),
    ("macros.rbg", DEEP_RBG.format(
        macros=MACRO_CHAIN, rules="m60"), "RecursionDetected"),
    ("not.lud", library.load_description("tictactoe", "ludemic").replace(
        "(empty)", "(not " * 1000 + "(empty)" + ")" * 1000), "NestingTooDeep"),
]


@pytest.mark.parametrize(
    "name, text, error", DEEP_NESTING, ids=[case[0] for case in DEEP_NESTING]
)
def test_deep_nesting_exits_1_on_one_line(tmp_path, name, text, error):
    path = tmp_path / name
    path.write_text(text)
    proc = run_cli("validate", str(path))
    assert proc.returncode == 1
    assert proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    assert f": {error}: " in line
    assert "nest" in line and "RecursionError" not in line


def test_validate_oversized_macro_expansion_exits_1_on_one_line(tmp_path):
    # 16 macros, each an alternative of two copies of the one before
    macros = "#m0 = right\n" + "".join(
        f"#m{i} = (m{i - 1} + m{i - 1})\n" for i in range(1, 17)
    )
    path = tmp_path / "doubling.rbg"
    path.write_text(RUNAWAY_RULES.split("#rules")[0] + macros + "#rules = ->p m16\n")
    proc = run_cli("validate", str(path))
    assert proc.returncode == 1
    assert proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    assert ": ExpansionTooLarge: macro expansion builds more than" in line
