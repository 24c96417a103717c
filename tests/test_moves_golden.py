"""Golden output of ``ggs moves``: the canonical, delta-deduplicated move
list must stay byte-identical for every library game and executor.

Each digest is the sha256 of the standard output of ``ggs moves`` at three
states: the initial state and the states after seeded random walks of
(seed, plies) in LATER_STATES, replayed through ``--state``. The outputs
are joined with a "--" line after each.
"""

import hashlib

import pytest

from ggs import bench, cli, library
from ggs.core.rng import Prng

LATER_STATES = ((1, 3), (2, 10))
EXECUTORS = {
    "interpreter": ["--mode", "interpreter"],
    "compiled": ["--mode", "compiled"],
    "ludemic": ["--dialect", "ludemic"],
}

GOLDEN = {
    ("Amazons", "interpreter"):
        "50b2144ff8977f6c5561c306a204e605cb3187672c5155b484414c1f38a50ec8",
    ("Amazons", "compiled"):
        "50b2144ff8977f6c5561c306a204e605cb3187672c5155b484414c1f38a50ec8",
    ("Amazons", "ludemic"):
        "4b011b55af617ae0662184a1cec6a657314308b47e227902922098b367125f66",
    ("Breakthrough", "interpreter"):
        "db8f2697a5df3f42fe7c3f10056be329f6ab2471b4ac56d854fb3e184fa4594c",
    ("Breakthrough", "compiled"):
        "db8f2697a5df3f42fe7c3f10056be329f6ab2471b4ac56d854fb3e184fa4594c",
    ("Breakthrough", "ludemic"):
        "c5f444076043006251d8b72e40a21590b2d29c32c28ddd609ba2d040bbaf9cce",
    ("Connect-4", "interpreter"):
        "c756f3a797df373424eba926fad5494907e9b7a5e9ddb94b701497a2fbd42792",
    ("Connect-4", "compiled"):
        "c756f3a797df373424eba926fad5494907e9b7a5e9ddb94b701497a2fbd42792",
    ("Connect-4", "ludemic"):
        "b8e578128f7a3744b37e19b8f64c0e39332b0cf6c95a57d8c0108d45a1b3ad1a",
    ("Gomoku", "interpreter"):
        "901262b41f52139db0651d1c2f70b74f701af393a0b5e9b7bb1f7c87da095640",
    ("Gomoku", "compiled"):
        "901262b41f52139db0651d1c2f70b74f701af393a0b5e9b7bb1f7c87da095640",
    ("Gomoku", "ludemic"):
        "2474cd2ae03b7e5c3ea555e7753124fa173af6a9424877a56a52ec3135e25be0",
    ("Hex", "interpreter"):
        "9a5d6c83f89255311774b1ef9aee142f375c9d8d7ad3fcae86e01d85f152cc8a",
    ("Hex", "compiled"):
        "9a5d6c83f89255311774b1ef9aee142f375c9d8d7ad3fcae86e01d85f152cc8a",
    ("Hex", "ludemic"):
        "3a88a6e66f536733eb5b26df0c6f2823725539980a9afd0fd2a00c3a2193a261",
    ("Reversi", "interpreter"):
        "ef42235dcc3484c530a388f19824a457e12f94dde4e8b7c7358cb4b10ce7df38",
    ("Reversi", "compiled"):
        "ef42235dcc3484c530a388f19824a457e12f94dde4e8b7c7358cb4b10ce7df38",
    ("Reversi", "ludemic"):
        "1f88dde55dbc0f6c14ec3b550a6791d3121308e0e2b248bc4ac3bffa7ce25328",
    ("Tic-Tac-Toe", "interpreter"):
        "de7903688de8e279e0f052b2e3c1f2b816e60afa8d28a22cf455734707894e32",
    ("Tic-Tac-Toe", "compiled"):
        "de7903688de8e279e0f052b2e3c1f2b816e60afa8d28a22cf455734707894e32",
    ("Tic-Tac-Toe", "ludemic"):
        "c65c8762b9728f58f0c6cd20e0486d04aacb1c6ca5c9110618e4d68a665df959",
}


def walk_script(engine, seed, plies):
    """Delta script of a seeded walk over the listed (deduplicated) moves."""
    rng = Prng(seed)
    state = engine.initial_state()
    script = []
    for _ in range(plies):
        moves, payoffs = engine.probe(state)
        if payoffs is not None:
            break
        listed = bench.dedup_moves(engine, state, moves)
        move = listed[rng.uniform_index(len(listed))]
        script.append(engine.delta_text(state, move))
        state = engine.apply(state, move)
    return " ".join(script)


def moves_digest(game, mode, capsys):
    engine = library.make_engine(game, mode)
    scripts = [""] + [walk_script(engine, s, n) for s, n in LATER_STATES]
    digest = hashlib.sha256()
    for script in scripts:
        argv = ["moves", game, *EXECUTORS[mode]]
        if script:
            argv += ["--state", script]
        assert cli.main(argv) == 0
        digest.update(capsys.readouterr().out.encode() + b"--\n")
    return digest.hexdigest()


@pytest.mark.parametrize("game, mode", sorted(GOLDEN))
def test_moves_output_is_pinned(game, mode, capsys):
    assert moves_digest(game, mode, capsys) == GOLDEN[game, mode]
