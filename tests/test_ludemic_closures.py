"""Compiled ludemic rules against a tree-walking oracle, the ordering
keys the compiled generators attach, the order each generator declares
at build, and the prebuilt moves they share between states.

``TreeWalker`` is a test-only copy of the evaluator the closures replaced:
it re-dispatches on each rule's head at every call and orders moves by
delta text (``Engine.sort_moves``).  At every state of seeded walks over
the library games and over random micro games, ``probe`` must list the
same moves in the same order and give the same payoffs.
"""

from hypothesis import given, settings, strategies as st

from ggs import library
from ggs.bench import dedup_moves
from ggs.core.model import (
    GameState,
    Move,
    NO_VERTEX,
    encode_delta,
    encode_effects,
    move_delta,
)
from ggs.core.playout import Engine
from ggs.core.rng import Prng
from ggs.ludeme.compile import compile_ludemic
from ggs.ludeme.engine import (
    CANONICAL,
    DISTINCT,
    UNSORTED,
    LudemicEngine,
    ShootWithoutContext,
    adjacency,
    region_connected,
)

from ludemic_helpers import detect_line

_RELATIVE_DIRS = {
    1: {"forward": "up", "forwardLeft": "up_left", "forwardRight": "up_right"},
    2: {"forward": "down", "forwardLeft": "down_right", "forwardRight": "down_left"},
}


class TreeWalker(Engine):
    """The rule-tree evaluator, dispatching on string heads per call."""

    mode = "ludemic-tree"

    def __init__(self, game):
        self.game = game
        self.board = game.board
        self.player_count = game.player_count
        self.piece_symbols = game.pieces.symbols
        self._owner = game.pieces.owner_of
        self._all_dirs = tuple(range(len(game.board.directions)))
        self._adjacent = adjacency(game.board)

    def initial_state(self):
        contents = [0] * self.board.vertex_count
        for pid, vertices in self.game.start_placements:
            for v in vertices:
                contents[v] = pid
        return GameState(contents=contents, mover=1, variables={})

    def next_player(self, player):
        return player % self.player_count + 1

    def probe(self, state):
        moves = self.sort_moves(state, self._generate(state, state.mover))
        return moves, self._evaluate_end(state, moves)

    def _generate(self, state, mover):
        return self._eval_play(self.game.play_rule, state, mover)

    def _eval_play(self, rule, state, mover):
        head = rule[0]
        if head == "if_even_turn":
            branch = rule[1] if state.turn_number % 2 == 0 else rule[2]
            return self._eval_play(branch, state, mover)
        if head == "byPiece":
            moves = []
            for v, pid in enumerate(state.contents):
                if self._owner[pid] == mover:
                    pdef = self.game.piece_defs[
                        self.game.pieces.symbols[pid].rstrip("0123456789")
                    ]
                    if pdef.move_rule is not None:
                        moves.extend(
                            self._piece_moves(
                                pdef.move_rule, pdef.replay, state, mover, v, pid
                            )
                        )
            return moves
        if head == "shoot":
            _, cond, base, owner = rule
            if state.last_to == NO_VERTEX:
                raise ShootWithoutContext("shoot evaluated with no previous move")
            pdef = self.game.piece_defs[base]
            pid = self.game.piece_instance(
                base, 0 if pdef.ownership == "None" else owner
            )
            moves = []
            for d in self._all_dirs:
                table = self.board.neighbors[d]
                v = table[state.last_to]
                while v >= 0 and self._cond(cond, state, mover, v):
                    moves.append(self._finish([("cell", v, pid)], False, mover))
                    v = table[v]
            return moves
        if head == "place":
            _, base, cond = rule
            pid = self.game.piece_instance(base, mover)
            return [
                self._finish([("cell", v, pid)], False, mover)
                for v in range(self.board.vertex_count)
                if self._cond(cond, state, mover, v)
            ]
        if head == "drop":
            pid = self.game.piece_instance(rule[1], mover)
            board = self.board
            moves = []
            for col in range(board.cols):
                for row in range(board.rows - 1, -1, -1):
                    v = row * board.cols + col
                    if state.contents[v] == 0:
                        moves.append(self._finish([("cell", v, pid)], False, mover))
                        break
            return moves
        if head == "custodialFlip":
            return self._custodial(rule, state, mover)
        raise ValueError(f"unknown play rule {head!r}")

    def _finish(self, effects, replay, mover):
        if not replay:
            effects = effects + [("pass", self.next_player(mover))]
        return Move(tuple(effects), replay)

    def _piece_moves(self, rule, replay, state, mover, origin, pid):
        head = rule[0]
        if head == "or":
            out = []
            for part in rule[1]:
                out.extend(self._piece_moves(part, replay, state, mover, origin, pid))
            seen, uniq = set(), []
            for m in out:
                if m.effects not in seen:
                    seen.add(m.effects)
                    uniq.append(m)
            return uniq
        moves = []
        if head == "slide":
            _, cond, dirs = rule
            dir_idxs = (
                self._all_dirs
                if dirs is None
                else tuple(self.board.direction_index(d) for d in dirs)
            )
            for d in dir_idxs:
                table = self.board.neighbors[d]
                v = table[origin]
                while v >= 0 and self._cond(cond, state, mover, v):
                    moves.append(
                        self._finish(
                            [("cell", origin, 0), ("cell", v, pid)], replay, mover
                        )
                    )
                    v = table[v]
        elif head == "step":
            _, dirs, cond = rule
            rel = _RELATIVE_DIRS[mover]
            for name in dirs:
                d = self.board.direction_index(rel.get(name, name))
                v = self.board.neighbors[d][origin]
                if v >= 0 and self._cond(cond, state, mover, v):
                    moves.append(
                        self._finish(
                            [("cell", origin, 0), ("cell", v, pid)], replay, mover
                        )
                    )
        else:
            raise ValueError(f"unknown piece move rule {head!r}")
        return moves

    def _custodial(self, rule, state, mover):
        pid = self.game.piece_instance(rule[1], mover)
        contents = state.contents
        owner = self._owner
        moves = []
        for v, cell in enumerate(contents):
            if cell != 0:
                continue
            flips = []
            for d in self._all_dirs:
                table = self.board.neighbors[d]
                run = []
                u = table[v]
                while u >= 0 and owner[contents[u]] not in (0, mover):
                    run.append(u)
                    u = table[u]
                if run and u >= 0 and owner[contents[u]] == mover:
                    flips.extend(run)
            if flips:
                effects = [("cell", u, pid) for u in flips]
                effects.append(("cell", v, pid))
                moves.append(self._finish(effects, False, mover))
        if not moves:
            for p in range(1, self.player_count + 1):
                if p != mover and self._custodial_exists(state, p):
                    return [self._finish([], False, mover)]
        return moves

    def _custodial_exists(self, state, player):
        contents = state.contents
        owner = self._owner
        for v, cell in enumerate(contents):
            if cell != 0:
                continue
            for d in self._all_dirs:
                table = self.board.neighbors[d]
                u = table[v]
                seen_enemy = False
                while u >= 0 and owner[contents[u]] not in (0, player):
                    seen_enemy = True
                    u = table[u]
                if seen_enemy and u >= 0 and owner[contents[u]] == player:
                    return True
        return False

    def _cond(self, cond, state, mover, vertex):
        head = cond[0]
        if head == "empty":
            return state.contents[vertex] == 0
        if head == "enemy":
            return self._owner[state.contents[vertex]] not in (0, mover)
        if head == "friend":
            return self._owner[state.contents[vertex]] == mover
        if head == "not":
            return not self._cond(cond[1], state, mover, vertex)
        if head == "or":
            return any(self._cond(c, state, mover, vertex) for c in cond[1])
        raise ValueError(f"unknown condition {head!r}")

    def _resolve_player(self, sel, mover):
        if sel == "mover":
            return mover
        if sel == "next":
            return self.next_player(mover)
        return (mover - 2) % self.player_count + 1

    def _player_piece_ids(self, player):
        return frozenset(pid for pid, o in enumerate(self._owner) if o == player)

    def _evaluate_end(self, state, moves):
        mover = state.mover
        for cond, result in self.game.end_rules:
            head = cond[0]
            fired = False
            if head == "stalemated":
                fired = not moves
            elif head == "line":
                fired = detect_line(
                    self.board,
                    state.contents,
                    state.last_to,
                    self._player_piece_ids(self.next_player(mover)),
                    cond[1],
                )
            elif head == "connected":
                player = self._resolve_player(cond[1], mover)
                a, b = ("top", "bottom") if player == 1 else ("left", "right")
                fired = region_connected(
                    self._adjacent,
                    state.contents,
                    self._player_piece_ids(player),
                    self.board.sides[a],
                    self.board.sides[b],
                )
            elif head == "reached":
                player = self._resolve_player(cond[1], mover)
                goal = self.board.sides["top" if player == 1 else "bottom"]
                ids = self._player_piece_ids(player)
                fired = any(state.contents[v] in ids for v in goal)
            elif head == "boardFull":
                fired = 0 not in state.contents
            elif head == "noMovesAll":
                fired = not moves and all(
                    not self._generate(state, p)
                    for p in range(1, self.player_count + 1)
                    if p != mover
                )
            if fired:
                return self._payoffs(result, state, mover)
        return None

    def _payoffs(self, result, state, mover):
        players = range(1, self.player_count + 1)
        head = result[0]
        if head == "draw":
            return {p: 50 for p in players}
        if head in ("win", "loss"):
            who = self._resolve_player(result[1], mover)
            top = head == "win"
            return {p: (100 if (p == who) == top else 0) for p in players}
        counts = {p: 0 for p in players}
        for pid in state.contents:
            o = self._owner[pid]
            if o and self.piece_symbols[pid].rstrip("0123456789") == result[1]:
                counts[o] += 1
        best = max(counts.values())
        winners = [p for p, c in counts.items() if c == best]
        if len(winners) > 1:
            return {p: 50 for p in players}
        return {p: (100 if p == winners[0] else 0) for p in players}


# -- checks -------------------------------------------------------------


def reference_order(engine, state, moves):
    board, symbols = engine.board, engine.piece_symbols
    return sorted(
        moves,
        key=lambda m: (
            encode_delta(move_delta(state, m), board, symbols),
            encode_effects(m, board, symbols),
        ),
    )


def check_keys(engine, state):
    """Keys the generator attached: equal exactly when the delta texts
    are, and, when the ranks are in text order, ordered as those texts."""
    moves = engine._generate(state, state.mover)
    keyed = [m for m in moves if m.key is not None]
    if not keyed:
        return
    assert len(keyed) == len(moves)
    board, symbols = engine.board, engine.piece_symbols
    text = {
        id(m): encode_delta(move_delta(state, m), board, symbols) for m in moves
    }
    by_key = {}
    for m in moves:
        assert by_key.setdefault(m.key, text[id(m)]) == text[id(m)]
    assert len(set(by_key.values())) == len(by_key)
    if engine._keys.ordered:
        keys = sorted(by_key)
        assert [by_key[k] for k in keys] == sorted(by_key.values())
        got = engine.sort_moves(state, moves)
        assert [id(m) for m in got] == [
            id(m) for m in reference_order(engine, state, moves)
        ]


def check_declared_order(engine, state):
    """A list whose generator declared ``DISTINCT`` or ``CANONICAL`` holds
    only integer keys, no two equal, and a ``CANONICAL`` one lists them in
    increasing order."""
    order = engine._order[state.mover]
    if order is UNSORTED:
        return
    keys = [m.key for m in engine._generate(state, state.mover)]
    assert all(type(k) is int for k in keys), keys
    assert len(set(keys)) == len(keys)
    if order is CANONICAL:
        assert keys == sorted(keys)


def probe_or_error(engine, state):
    try:
        return engine.probe(state)
    except ShootWithoutContext:
        return "ShootWithoutContext"


def walk_against_oracle(source, seed, plies):
    game = compile_ludemic(source)
    engine, oracle = LudemicEngine(game), TreeWalker(game)
    rng = Prng(seed)
    state = engine.initial_state()
    assert state == oracle.initial_state()
    for _ in range(plies):
        got, want = probe_or_error(engine, state), probe_or_error(oracle, state)
        if isinstance(want, str):
            assert got == want
            return
        (moves, payoffs), (want_moves, want_payoffs) = got, want
        assert [(m.effects, m.replay) for m in moves] == [
            (m.effects, m.replay) for m in want_moves
        ]
        assert payoffs == want_payoffs
        check_keys(engine, state)
        check_declared_order(engine, state)
        if payoffs is not None or not moves:
            return
        state = engine.apply(state, moves[rng.uniform_index(len(moves))])


# -- library games ------------------------------------------------------

LIBRARY_PLIES = {
    "Amazons": 40,
    "Breakthrough": 60,
    "Connect-4": 42,
    "Gomoku": 12,
    "Hex": 60,
    "Reversi": 60,
    "Tic-Tac-Toe": 9,
}


def test_library_games_match_tree_walker():
    for name, plies in sorted(LIBRARY_PLIES.items()):
        source = library.load_description(name, "ludemic")
        for seed in range(3):
            walk_against_oracle(source, seed, plies)


def test_library_symbols_are_prefix_free():
    for entry in library.list_games():
        engine = library.make_engine(entry.name, "ludemic")
        assert engine._keys.ordered, entry.name


# -- micro games --------------------------------------------------------

RECT_DIRS = ("up", "down", "left", "right", "up_left", "up_right",
             "down_left", "down_right", "forward", "forwardLeft", "forwardRight")
HEX_DIRS = ("up", "down", "left", "right", "up_right", "down_left", "forward")
# "q1" is a proper prefix of "q10x1": not prefix-free
NAME_SETS = (("pawn", "dot"), ("q", "q10x"), ("stone", "stones"))


@st.composite
def conditions(draw, depth=0):
    leaves = ["(empty)", "(enemy)", "(friend)"]
    if depth >= 2:
        return draw(st.sampled_from(leaves))
    kind = draw(st.sampled_from(leaves + ["not", "or"]))
    if kind == "not":
        return f"(not {draw(conditions(depth + 1))})"
    if kind == "or":
        parts = draw(st.lists(conditions(depth + 1), min_size=2, max_size=3))
        return f"(or {' '.join(parts)})"
    return kind


@st.composite
def move_rules(draw, dirs, depth=0):
    kind = draw(st.sampled_from(["slide", "step", "or"] if depth == 0 else
                                ["slide", "step"]))
    if kind == "or":
        parts = draw(st.lists(move_rules(dirs, 1), min_size=2, max_size=3))
        return f"(or {' '.join(parts)})"
    if kind == "slide":
        # only step resolves the player-relative directions
        dirs = tuple(d for d in dirs if not d.startswith("forward"))
    # Repeated directions still come from "or" parts and forward = up.
    # Drawn within one list too, they made two rules in three repeat one,
    # and a repeat declares the piece UNSORTED whatever else it can do.
    chosen = draw(st.lists(st.sampled_from(dirs), min_size=1, max_size=3,
                           unique=True))
    cond = f"(in (to) {draw(conditions())})"
    if kind == "step":
        return f"(step {{{' '.join(chosen)}}} {cond})"
    dir_set = draw(st.sampled_from(["", f"{{{' '.join(chosen)}}}"]))
    return f"(slide {cond} {dir_set})"


@st.composite
def micro_games(draw):
    hexagonal = draw(st.booleans())
    kinds = ["byPiece", "place", "custodialFlip", "shoot"]
    play_kind = draw(st.sampled_from(kinds if hexagonal else kinds + ["drop"]))
    if hexagonal:
        size = draw(st.integers(2, 5))
        board, rows, cols = f"(hexBoard {size})", size, size
        dirs = HEX_DIRS
    else:
        rows = draw(st.integers(1, 4))
        widths = [2, 3, 5, 27, 30]
        if play_kind in ("place", "drop"):
            # both sides of file "aa", where column order stops being
            # key order: the build-time check of a canonical generator
            widths += [26, 52]
        cols = draw(st.sampled_from(widths))
        board = f"(rectBoard {rows} {cols})"
        dirs = RECT_DIRS
    cells = rows * cols
    mover_name, other_name = draw(st.sampled_from(NAME_SETS))
    m, o = mover_name.capitalize(), other_name.capitalize()
    rule = draw(move_rules(dirs))
    if draw(st.booleans()):
        rule = rule[:-1] + " (then (replay)))"
    pieces = f"({mover_name} Each {rule})"
    instances = [f"{m}1", f"{m}2"]
    if play_kind == "shoot" or draw(st.booleans()):
        pieces += f" ({other_name} None)"
        instances.append(f"{o}0")
    else:
        pieces += f" ({other_name} Each {draw(move_rules(dirs))})"
        instances += [f"{o}1", f"{o}2"]
    # Three games in four put the first mover's piece on a cell and on
    # every cell around it (both boards number cells row by row), so a
    # piece that may land on its own kind can do so in several directions
    # from one origin, the moves that share a key.
    block = []
    if draw(st.integers(0, 3)):
        r, c = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
        block = [
            y * cols + x
            for y in range(max(r - 1, 0), min(r + 2, rows))
            for x in range(max(c - 1, 0), min(c + 2, cols))
        ]
    rest = [v for v in range(cells) if v not in block]
    vertices = draw(st.lists(st.sampled_from(rest), unique=True,
                             min_size=min(len(rest), 2),
                             max_size=min(len(rest), 12))) if rest else []
    placements = " ".join(
        [f'(place "{m}1" {{{v}}})' for v in block]
        + [
            f'(place "{instances[i % len(instances)]}" {{{v}}})'
            for i, v in enumerate(vertices)
        ]
    )
    plays = {
        "byPiece": "(byPiece)",
        "place": f'(place "{m}" (in (to) {draw(conditions())}))',
        "custodialFlip": f'(custodialFlip "{m}")',
        "drop": f'(drop "{m}")',
        "shoot": f'(if (even (turn)) (byPiece) '
                 f'(shoot (in (to) {draw(conditions())}) "{o}0"))',
    }
    play = plays[play_kind]
    if play_kind != "shoot" and draw(st.booleans()):
        other = draw(st.sampled_from(["byPiece", "place", "custodialFlip"]))
        play = f"(if (even (turn)) {play} {plays[other]})"
    ends = [
        "((stalemated (mover)) (result (next) Win))",
        "((boardFull) (result Draw))",
        f'((noMovesAll) (byCount "{mover_name}"))',
        "((reached (next)) (result (mover) Loss))",
        "((connected (next)) (result (next) Win))",
    ]
    if not hexagonal:
        ends.append(f"((line {draw(st.integers(3, 4))}) (result (next) Win))")
    end = " ".join(draw(st.lists(st.sampled_from(ends), min_size=1, max_size=2)))
    return f"""
(game "Micro"
 (mode 2)
 (equipment {{ {board} {pieces} }})
 (rules (start {{ {placements} }}) (play {play}) (end {end}))
)
"""


@settings(max_examples=200, deadline=None, database=None)
@given(source=micro_games(), seed=st.integers(0, 2**32 - 1))
def test_micro_games_match_tree_walker(source, seed):
    walk_against_oracle(source, seed, 12)


PREFIX_GAME = """
(game "Prefix"
 (mode 2)
 (equipment { (rectBoard 1 3) (q Each) (q10x Each) })
 (rules (play (place "Q" (in (to) (empty)))) (end ((boardFull) (result Draw))))
)
"""

WIDE_GAME = """
(game "Wide"
 (mode 2)
 (equipment { (rectBoard 2 30) (disc Each) })
 (rules (play (place "Disc" (in (to) (empty)))) (end ((boardFull) (result Draw))))
)
"""


def test_non_prefix_free_symbols_order_by_text():
    source = PREFIX_GAME
    engine = LudemicEngine(compile_ludemic(source))
    assert not engine._keys.ordered
    q1, q10x1 = (engine.piece_symbols.index(s) for s in ("q1", "q10x1"))
    state = engine.initial_state()
    keys = engine._keys.one_change(q1, 2), engine._keys.one_change(q10x1, 2)
    short = Move((("cell", 0, q1), ("pass", 2)), key=keys[0][0])
    long = Move((("cell", 0, q10x1), ("pass", 2)), key=keys[1][0])
    # ranks put "cell:a1=q1" first, but ";" > "0" puts the longer text first
    assert short.key < long.key
    assert engine.delta_text(state, long) < engine.delta_text(state, short)
    assert engine.sort_moves(state, [short, long]) == [long, short]
    walk_against_oracle(source, 0, 3)


def test_wide_board_keys_follow_spreadsheet_files():
    source = WIDE_GAME
    engine = LudemicEngine(compile_ludemic(source))
    moves = engine.probe(engine.initial_state())[0]
    texts = [engine.delta_text(engine.initial_state(), m) for m in moves]
    assert texts == sorted(texts)
    assert "cell:aa1=disc1;mover=2" in texts
    walk_against_oracle(source, 1, 10)


# -- shared moves -------------------------------------------------------


def shared_moves(engine):
    """Every move the engine's generators hold between calls.

    A piece's moves are built per origin on first use, so each byPiece
    generator is first called on boards full of one of the mover's
    pieces, which builds that piece's moves from every origin.
    """
    for p in range(1, engine.player_count + 1):
        for pid, owner in enumerate(engine._owner):
            if owner == p:
                for turn in (0, 1):
                    full = [pid] * engine.board.vertex_count
                    engine._generate(GameState(full, p, {}, turn, last_to=0), p)
    found, seen, stack = [], set(), list(engine._plays[1:])
    while stack:
        x = stack.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        if isinstance(x, Move):
            found.append(x)
        elif isinstance(x, (tuple, list)):
            stack.extend(x)
        elif callable(x) and getattr(x, "__closure__", None):
            stack.extend(c.cell_contents for c in x.__closure__)
    return found


def snapshot(moves):
    return {id(m): (m.effects, m.replay, m.control, m.key) for m in moves}


def walk_sorting_and_deduplicating(engine, seed, plies):
    """Seeded walk through every reader and writer of listed moves: probe,
    a re-sort of the reversed list, delta dedup and delta texts."""
    rng = Prng(seed)
    state = engine.initial_state()
    for _ in range(plies):
        moves, payoffs = engine.probe(state)
        yield moves
        engine.sort_moves(state, moves[::-1])
        dedup_moves(engine, state, moves)
        for m in moves:
            engine.delta_text(state, m)
        if payoffs is not None or not moves:
            return
        state = engine.apply(state, moves[rng.uniform_index(len(moves))])


def test_no_walk_changes_a_shared_move():
    sources = {
        name: library.load_description(name, "ludemic") for name in LIBRARY_PLIES
    }
    sources.update(Prefix=PREFIX_GAME, Wide=WIDE_GAME)
    plies = dict(LIBRARY_PLIES, Prefix=3, Wide=60)
    for name, source in sorted(sources.items()):
        engine = LudemicEngine(compile_ludemic(source))
        shared = shared_moves(engine)
        assert shared, name
        before = snapshot(shared)
        for seed in range(3):
            for _ in walk_sorting_and_deduplicating(engine, seed, plies[name]):
                pass
        assert snapshot(shared) == before, name


DROP_GAME = """
(game "Drop"
 (mode 2)
 (equipment {{ (rectBoard 2 {cols}) (disc Each) }})
 (rules (play (drop "Disc")) (end ((boardFull) (result Draw))))
)
"""


def test_drop_declares_key_order_only_for_single_letter_files():
    for cols, canonical in ((26, True), (27, False), (52, False)):
        source = DROP_GAME.format(cols=cols)
        engine = LudemicEngine(compile_ludemic(source))
        order = CANONICAL if canonical else DISTINCT
        assert engine._order[1:] == (order, order), cols
        walk_against_oracle(source, cols, 2 * cols)


def test_place_declares_key_order_only_when_every_write_changes():
    place = """
(game "Place"
 (mode 2)
 (equipment {{ (rectBoard 3 3) (disc Each) }})
 (rules (start {{ (place "Disc1" {{0 4}}) (place "Disc2" {{8}}) }})
        (play (place "Disc" (in (to) {cond})))
        (end ((boardFull) (result Draw))))
)
"""
    for cond, order in (("(empty)", CANONICAL), ("(not (enemy))", UNSORTED)):
        source = place.format(cond=cond)
        engine = LudemicEngine(compile_ludemic(source))
        assert engine._order[1:] == (order, order), cond
        walk_against_oracle(source, 0, 9)


def test_probe_orders_through_sort_moves():
    # a declared list still crosses sort_moves, the traced order layer
    for name, order, count in (
        ("Hex", CANONICAL, 121),
        ("Amazons", DISTINCT, 80),
        ("Reversi", DISTINCT, 4),
    ):
        engine = library.make_engine(name, "ludemic")
        assert engine._order[1] is order, name
        calls = []
        sort_moves = engine.sort_moves

        def spy(state, moves, *args):
            calls.append(args)
            return sort_moves(state, moves, *args)

        engine.sort_moves = spy
        state = engine.initial_state()
        moves, _ = engine.probe(state)
        assert calls == [(order,)] and len(moves) == count, name
        want = reference_order(engine, state, engine._generate(state, 1))
        assert [m.effects for m in moves] == [m.effects for m in want], name


def test_amazons_if_even_turn_is_distinct_in_both_branches():
    engine = library.make_engine("Amazons", "ludemic")
    assert engine._order[1:] == (DISTINCT, DISTINCT)
    state = engine.initial_state()
    moves, _ = engine.probe(state)
    state = engine.apply(state, moves[0])  # the same queen now shoots
    assert state.turn_number % 2 == 1
    shots, _ = engine.probe(state)
    keys = [m.key for m in shots]
    assert shots and keys == sorted(keys) and len(set(keys)) == len(keys)


PIECE_GAME = """
(game "Pieces"
 (mode 2)
 (equipment {{ (rectBoard 3 4) (rook Each {rule}) }})
 (rules (start {{ (place "Rook1" {{0 1 5}}) (place "Rook2" {{10 11}}) }})
        (play {play})
        (end ((stalemated (mover)) (result (next) Win))))
)
"""


def test_by_piece_is_distinct_only_when_no_move_can_repeat_a_key():
    cases = (
        ("(slide (in (to) (empty)))", DISTINCT),
        ("(step {up down left} (in (to) (or (empty) (enemy))))", DISTINCT),
        # may land on its own kind: every such move carries the key of
        # emptying its origin alone
        ("(slide (in (to) (not (enemy))))", UNSORTED),
        ("(step {up right} (in (to) (friend)))", UNSORTED),
        # one neighbour table twice, directly or through forward = up
        ("(step {up up} (in (to) (empty)))", UNSORTED),
        ("(or (step {up} (in (to) (empty))) (step {forward} (in (to) (empty))))",
         UNSORTED),
        ("(or (slide (in (to) (empty)) {left}) (step {left} (in (to) (empty))))",
         UNSORTED),
    )
    for rule, order in cases:
        for play, want in (
            ("(byPiece)", order),
            ('(if (even (turn)) (byPiece) (place "Rook" (in (to) (empty))))', order),
        ):
            source = PIECE_GAME.format(rule=rule, play=play)
            engine = LudemicEngine(compile_ludemic(source))
            assert engine._order[1] is want, (rule, play)
            for seed in range(3):
                walk_against_oracle(source, seed, 10)


def test_shoot_is_distinct_unless_it_can_shoot_onto_its_piece():
    shots = """
(game "Shots"
 (mode 2)
 (equipment {{ (rectBoard 1 5) (queen Each (slide (in (to) (empty)) (then (replay))))
              (dot None) }})
 (rules (start {{ (place "Queen1" {{0}}) (place "Queen2" {{4}}) }})
        (play (if (even (turn)) (byPiece) (shoot (in (to) {cond}) "Dot0")))
        (end ((stalemated (mover)) (result (next) Win))))
)
"""
    for cond, order in (("(empty)", DISTINCT), ("(not (friend))", UNSORTED)):
        engine = LudemicEngine(compile_ludemic(shots.format(cond=cond)))
        assert engine._order[1:] == (order, order), cond


def test_shot_onto_its_own_piece_is_an_unchanged_move():
    source = """
(game "Shots"
 (mode 2)
 (equipment { (rectBoard 1 5) (queen Each (slide (in (to) (empty)) (then (replay))))
              (dot None) })
 (rules (start { (place "Queen1" {0}) (place "Queen2" {4}) (place "Dot0" {3}) })
        (play (if (even (turn)) (byPiece) (shoot (in (to) (not (friend))) "Dot0")))
        (end ((stalemated (mover)) (result (next) Win))))
)
"""
    engine = LudemicEngine(compile_ludemic(source))
    state = engine.initial_state()
    moves, _ = engine.probe(state)
    state = engine.apply(state, moves[-1])  # the queen to c1, next to d1
    moves, _ = engine.probe(state)
    assert [engine.delta_text(state, m) for m in moves][0] == ";mover=2"
    assert moves[0].key == engine._keys.no_change(2)
    for seed in range(4):
        walk_against_oracle(source, seed, 8)
