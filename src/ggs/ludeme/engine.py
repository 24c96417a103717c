"""Evaluator for compiled ludemic games.

At build the engine compiles the play rule and the end rules into
closures, one set per mover, so no rule head is dispatched while a game
is played.  Bound at build time: neighbour tables per direction, the
player-relative direction maps, one tuple from piece id to that piece's
move closure, the piece ids of each player, per-vertex flip rays and
adjacency, and conditions, which depend only on the piece at the tested
cell and so compile to a table ``accepts[piece id]``.

Each generated move carries its canonical ordering key (``Move.key``):
the sorted ranks of its changed cells, then a sentinel above every rank,
then the next mover, packed into one integer of fixed width (see
``_KeyPacker``).  A cell's rank is the position of its
``cell:<coord>=<sym>`` token in string order, so when no piece symbol is
a proper prefix of another the keys order moves exactly as their delta
texts do and ``sort_moves`` needs no text.  Otherwise moves are ordered
by delta text (``Engine.delta_texts``), and keep their integer keys.

A move whose effects and key depend only on its origin and destination
is built once and shared by every state that lists it: ``place``,
``drop`` and ``shoot`` hold one move per cell, and a piece holds, per
origin, one move per cell of each ray, built the first time that origin
moves.  Shared moves are never written.  A move whose write is a no-op
(it writes the piece already on the cell, so its key is the unchanged
key) is built fresh in every state, and so are custodial flips, since
their writes depend on the state.

Each generator declares at build an ``Order`` its tables prove for every
state it can list:

- ``CANONICAL``: the list is in key order.  ``place`` walks its cells in
  key order and lists no no-op; ``drop`` lists one move per column in
  column order, which is key order when every key of a column is below
  every key of the next (true up to 26 columns; file "aa" sorts between
  "a" and "b").
- ``DISTINCT``: every move carries an integer key and no two are equal,
  so one sort on the key orders the list.  ``drop`` past 26 columns;
  ``shoot`` when it cannot shoot onto its own piece; ``byPiece`` when no
  piece may land on its own kind (such a no-op carries the origin-only
  key, which two moves from one origin would share) and no piece lists
  one neighbour table twice (rays in distinct directions from one origin
  never meet, so only a repeated direction proposes one move twice);
  ``custodialFlip``, since each move places on its own empty cell.
- ``UNSORTED``: anything else, ordered by ``Engine.order_by_keys``.

``if_even_turn`` declares the weaker of its branches' orders.  ``probe``
passes the declaration to ``sort_moves``, which trusts it only when keys
are ordered.
"""

from __future__ import annotations

from enum import IntEnum
from functools import cached_property
from operator import attrgetter

from ..core.model import GameState, Move, NO_VERTEX, apply_effects
from ..core.playout import Engine
from .compile import LINE_AXES, RELATIVE_DIRECTIONS, CompiledLudemicGame


class ShootWithoutContext(RuntimeError):
    pass


class Order(IntEnum):
    """What a generator's tables prove about every list it returns; a
    weaker order has the smaller value."""

    UNSORTED = 0
    DISTINCT = 1
    CANONICAL = 2


UNSORTED, DISTINCT, CANONICAL = Order
_BY_KEY = attrgetter("key")


def _axis_tables(board) -> tuple:
    """Neighbour tables of each line axis, as (forward, backward) pairs."""
    return tuple(
        tuple(board.neighbors[board.direction_index(name)] for name in axis)
        for axis in LINE_AXES
    )


def _line_through(axes, contents, last_to: int, piece_ids, n: int) -> bool:
    if last_to == NO_VERTEX or contents[last_to] not in piece_ids:
        return False
    for pair in axes:
        count = 1
        for table in pair:
            v = table[last_to]
            while v >= 0 and contents[v] in piece_ids:
                count += 1
                v = table[v]
        if count >= n:
            return True
    return False


def adjacency(board) -> tuple:
    """The neighbours of each vertex, over every direction."""
    return tuple(
        tuple(nv for table in board.neighbors if (nv := table[v]) >= 0)
        for v in range(board.vertex_count)
    )


def region_connected(adjacent, contents, piece_ids, side_a, side_b) -> bool:
    """True iff a chain of the player's stones joins the two sides;
    ``adjacent`` is ``adjacency(board)``."""
    for v in side_b:
        if contents[v] in piece_ids:
            break
    else:
        return False
    frontier = [v for v in side_a if contents[v] in piece_ids]
    seen = set(frontier)
    while frontier:
        v = frontier.pop()
        if v in side_b:
            return True
        for nv in adjacent[v]:
            if nv not in seen and contents[nv] in piece_ids:
                seen.add(nv)
                frontier.append(nv)
    return False


def _flip_lines(board) -> tuple:
    """Per vertex, the cells of each ray out to the board's edge, nearest
    first; a ray of fewer than two cells can flip nothing and is left out."""
    lines = []
    for v in range(board.vertex_count):
        rays = []
        for table in board.neighbors:
            ray = []
            u = table[v]
            while u >= 0:
                ray.append(u)
                u = table[u]
            if len(ray) > 1:
                rays.append(tuple(ray))
        lines.append(tuple(rays))
    return tuple(lines)


class _KeyPacker:
    """Canonical ordering keys of moves whose writes the generator knows.

    A key is the digit sequence (sorted ranks of the changed cells,
    sentinel, next mover) packed as a fixed-width base-``base`` integer;
    no such sequence is a prefix of another, so integer order is sequence
    order.  Ranks start at 1: the empty cell list sorts first in text
    (";" < "c"), so its sequence is (0, mover).  Cell tokens differ before
    their "=" unless they share a coordinate, so the ranks are in text
    order exactly when no piece symbol is a proper prefix of another (the
    one-digit movers of a two-player game compare alike as text and as
    numbers); otherwise ``ordered`` is False and keys only tell equal
    deltas from different ones.
    """

    def __init__(self, engine: Engine):
        flat = [tok for row in engine.cell_tokens for tok in row]
        rank = [0] * len(flat)
        for r, i in enumerate(sorted(range(len(flat)), key=flat.__getitem__), 1):
            rank[i] = r
        self._rank = rank
        self._width = len(engine.piece_symbols)
        self._vertices = range(engine.board.vertex_count)
        symbols = sorted(engine.piece_symbols)
        self.ordered = not any(b.startswith(a) for a, b in zip(symbols, symbols[1:]))
        self.sentinel = len(flat) + 1
        self.base = max(self.sentinel, engine.player_count) + 1

    def ranks(self, pid: int) -> tuple:
        """Rank of the write of pid, per vertex."""
        rank, width = self._rank, self._width
        return tuple(rank[v * width + pid] for v in self._vertices)

    def no_change(self, mover: int) -> int:
        return mover * self.base**2

    def one_change(self, pid: int, mover: int) -> tuple:
        """Key of the move whose one change writes pid, per vertex."""
        b = self.base
        tail = self.sentinel * b**2 + mover * b
        return tuple(r * b**3 + tail for r in self.ranks(pid))

    def many_changes(self, mover: int) -> tuple:
        """(tail, pad) for keys of up to one change per vertex.

        The key of a move whose changes have the sorted ranks r1..rk is
        ``(digits(r1..rk) * base**2 + tail) * pad[k]``: its sequence
        padded to V + 2 digits, so that these keys compare with each
        other, not with the narrower ones above.  ``pad[0]`` times
        ``mover`` is the key of a move that changes no cell.
        """
        b = self.base
        v = len(self._vertices)
        return self.sentinel * b + mover, tuple(b ** (v - k) for k in range(v + 1))


class LudemicEngine(Engine):
    mode = "ludemic"

    def __init__(self, game: CompiledLudemicGame):
        self.game = game
        self.board = game.board
        self.player_count = game.player_count
        self.piece_symbols = game.pieces.symbols
        self._owner = game.pieces.owner_of
        self._base_of = {pid: base for (base, _), pid in game.instance_ids.items()}
        self._dir_tables = tuple(self.board.neighbors)
        pieces = range(len(self.piece_symbols))
        self._keys = _KeyPacker(self)
        players = range(1, self.player_count + 1)
        self._ids_of = {
            p: frozenset(pid for pid in pieces if self._owner[pid] == p)
            for p in players
        }
        plays = [self._compile_play(game.play_rule, p) for p in players]
        self._plays = (None,) + tuple(gen for gen, _ in plays)
        self._order = (None,) + tuple(order for _, order in plays)
        self._ends = (None,) + tuple(
            tuple(
                (self._compile_end(cond, p), self._compile_result(result, p))
                for cond, result in game.end_rules
            )
            for p in players
        )

    # -- state ----------------------------------------------------------

    def initial_state(self) -> GameState:
        contents = [0] * self.board.vertex_count
        for pid, vertices in self.game.start_placements:
            for v in vertices:
                contents[v] = pid
        return GameState(contents=contents, mover=1, variables={})

    def next_player(self, player: int) -> int:
        return player % self.player_count + 1

    # -- move generation ------------------------------------------------

    def probe(self, state: GameState):
        mover = state.mover
        moves = self.sort_moves(
            state, self._generate(state, mover), self._order[mover]
        )
        payoffs = self._evaluate_end(state, moves)
        return moves, payoffs

    def apply(self, state: GameState, move: Move) -> GameState:
        return apply_effects(state, move)

    def _generate(self, state: GameState, mover: int) -> list[Move]:
        return self._plays[mover](state)

    def sort_moves(
        self, state: GameState, moves: list[Move], order: Order = UNSORTED
    ) -> list[Move]:
        """Canonical order from the keys the generator attached; by delta
        text when a move carries none or the ranks are not in text order.
        ``order`` is what the generator proved at build about its lists;
        it is trusted only when keys are ordered.  A ``DISTINCT`` list is
        sorted in place.  No key is written: an integer key still tells
        unequal deltas apart when the ranks are not in text order."""
        if self._keys.ordered:
            if order is CANONICAL:
                return moves
            if order is DISTINCT:
                moves.sort(key=_BY_KEY)
                return moves
            keys = [m.key for m in moves]
            if None not in keys:
                return self.order_by_keys(moves, keys)
        return self.order_by_keys(moves, self.delta_texts(state, moves))

    # -- compilation: play rules ----------------------------------------

    def _compile_play(self, rule, mover: int):
        """(generator, order): the closure listing the mover's moves, and
        the ``Order`` its tables prove at build for every state."""
        head = rule[0]
        if head == "if_even_turn":
            even, even_order = self._compile_play(rule[1], mover)
            odd, odd_order = self._compile_play(rule[2], mover)

            def by_turn(state):
                return (odd if state.turn_number % 2 else even)(state)

            return by_turn, min(even_order, odd_order)
        if head == "byPiece":
            return self._compile_by_piece(mover)
        if head == "shoot":
            return self._compile_shoot(rule, mover)
        if head == "place":
            return self._compile_place(rule, mover)
        if head == "drop":
            return self._compile_drop(rule, mover)
        if head == "custodialFlip":
            return self._compile_custodial(rule, mover), DISTINCT
        raise ValueError(f"unknown play rule {head!r}")

    def _writes(self, pid: int) -> tuple:
        """The effect that writes pid, per vertex."""
        return tuple(("cell", v, pid) for v in range(self.board.vertex_count))

    def _one_write(self, pid: int, mover: int):
        """The move that writes pid at a vertex and passes, built once per
        vertex with its key, plus the key of such a move whose write is a
        no-op (that move is built fresh, in the state that has it)."""
        nxt = self.next_player(mover)
        pass_eff = ("pass", nxt)
        moves = tuple(
            Move((w, pass_eff), False, None, key)
            for w, key in zip(self._writes(pid), self._keys.one_change(pid, nxt))
        )
        return moves, self._keys.no_change(nxt)

    def _compile_place(self, rule, mover: int):
        _, base, cond = rule
        pid = self.game.piece_instance(base, mover)
        ok = self._accepts(cond, mover)
        moves, unchanged = self._one_write(pid, mover)
        table = tuple(sorted(enumerate(moves), key=lambda vm: vm[1].key))
        if not ok[pid]:
            # every listed write changes its cell, so every key is the
            # table's own, and any subset of the table is in key order
            def place(state):
                contents = state.contents
                return [m for v, m in table if ok[contents[v]]]

            keys = [m.key for _, m in table]
            in_order = all(a < b for a, b in zip(keys, keys[1:]))
            return place, CANONICAL if in_order else UNSORTED

        def place_over(state):
            contents = state.contents
            out = []
            for v, m in table:
                c = contents[v]
                if c == pid:
                    out.append(Move(m.effects, False, None, unchanged))
                elif ok[c]:
                    out.append(m)
            return out

        return place_over, UNSORTED

    def _compile_drop(self, rule, mover: int):
        _, base = rule
        pid = self.game.piece_instance(base, mover)
        board = self.board
        moves, _ = self._one_write(pid, mover)
        # each column's cells from the bottom up; the drop lands on the
        # lowest empty one, which pid (never empty) always changes
        columns = tuple(
            tuple(
                (v, moves[v])
                for v in range(
                    (board.rows - 1) * board.cols + col, -1, -board.cols
                )
            )
            for col in range(board.cols)
        )
        # One move per column, columns in board order: that is key order
        # when every key of a column is below every key of the next.  Past
        # 26 columns it is not, since file "aa" sorts between "a" and "b",
        # but the moves still land on distinct cells.
        keys = [[m.key for _, m in column] for column in columns]
        in_order = all(max(a) < min(b) for a, b in zip(keys, keys[1:]))

        def drop(state):
            contents = state.contents
            out = []
            for column in columns:
                for v, m in column:
                    if contents[v] == 0:
                        out.append(m)
                        break
            return out

        return drop, CANONICAL if in_order else DISTINCT

    def _compile_shoot(self, rule, mover: int):
        _, cond, base, owner = rule
        pdef = self.game.piece_defs[base]
        pid = self.game.piece_instance(base, 0 if pdef.ownership == "None" else owner)
        ok = self._accepts(cond, mover)
        tables = self._dir_tables
        moves, unchanged = self._one_write(pid, mover)

        def shoot(state):
            origin = state.last_to
            if origin == NO_VERTEX:
                raise ShootWithoutContext("shoot evaluated with no previous move")
            contents = state.contents
            out = []
            for table in tables:
                v = table[origin]
                while v >= 0 and ok[contents[v]]:
                    m = moves[v]
                    if contents[v] == pid:
                        m = Move(m.effects, False, None, unchanged)
                    out.append(m)
                    v = table[v]
            return out

        # rays in distinct directions never meet, so only a shot onto pid
        # (the unchanged key) can repeat a key
        return shoot, UNSORTED if ok[pid] else DISTINCT

    def _compile_by_piece(self, mover: int):
        owner = self._owner
        gens = []
        order = DISTINCT
        for pid in range(len(self.piece_symbols)):
            pdef = self.game.piece_defs.get(self._base_of.get(pid))
            if owner[pid] != mover or pdef is None or pdef.move_rule is None:
                gens.append(None)
            else:
                gen, distinct = self._compile_piece(pdef, mover, pid)
                gens.append(gen)
                if not distinct:
                    order = UNSORTED
        gens = tuple(gens)

        def by_piece(state):
            contents = state.contents
            out = []
            for v, pid in enumerate(contents):
                gen = gens[pid]
                if gen is not None:
                    gen(contents, v, out)
            return out

        return by_piece, order

    def _rays(self, rule, mover: int) -> list:
        """(neighbour table, accepts, slides) per direction of a piece
        rule, sub-rules of an ``or`` in order."""
        head = rule[0]
        board = self.board
        if head == "or":
            return [ray for part in rule[1] for ray in self._rays(part, mover)]
        if head == "slide":
            _, cond, dirs = rule
            ok = self._accepts(cond, mover)
            tables = (
                self._dir_tables
                if dirs is None
                else tuple(board.neighbors[board.direction_index(d)] for d in dirs)
            )
            return [(table, ok, True) for table in tables]
        if head == "step":
            _, dirs, cond = rule
            ok = self._accepts(cond, mover)
            rel = RELATIVE_DIRECTIONS[mover]
            return [
                (board.neighbors[board.direction_index(rel.get(d, d))], ok, False)
                for d in dirs
            ]
        raise ValueError(f"unknown piece move rule {head!r}")

    def _compile_piece(self, pdef, mover: int, pid: int):
        """(closure appending the moves of the piece pid at an origin,
        whether no two of those moves can share a key).

        Each move empties the origin, which always changes it, and writes
        pid at the destination, a no-op when pid is already there.  An
        origin's moves are built on its first use, one per ray cell with
        its key, and shared from then on; a move onto pid itself is built
        fresh with its one-change key, which every such move from the
        origin shares.
        """
        rays = self._rays(pdef.move_rule, mover)
        replay = pdef.replay
        nxt = mover if replay else self.next_player(mover)
        tail = () if replay else (("pass", nxt),)
        lift = self._writes(0)
        put = self._writes(pid)
        packer = self._keys
        lift_rank = packer.ranks(0)
        put_rank = packer.ranks(pid)
        b = packer.base
        b2 = b * b
        b3 = b2 * b
        one_tail = packer.sentinel * b2 + nxt * b
        two_tail = packer.sentinel * b + nxt
        # An "or" drops moves its sub-rules propose twice.  Rays in
        # distinct directions from one origin never meet, so only a
        # direction listed twice can propose a move twice.
        repeated = len({id(table) for table, _, _ in rays}) < len(rays)
        repeats = repeated and pdef.move_rule[0] == "or"
        distinct = not repeated and not any(ok[pid] for _, ok, _ in rays)
        rows = [None] * self.board.vertex_count

        def row_of(origin):
            """(key of a move onto pid, ((accepts, ((v, move), ...)), ...))
            from origin, each ray out to the board's edge."""
            a = lift_rank[origin]
            source = lift[origin]
            row_rays = []
            for table, ok, slides in rays:
                ray = []
                v = table[origin]
                while v >= 0:
                    r = put_rank[v]
                    key = (a * b + r if a < r else r * b + a) * b2 + two_tail
                    ray.append((v, Move((source, put[v]) + tail, replay, None, key)))
                    if not slides:
                        break
                    v = table[v]
                row_rays.append((ok, tuple(ray)))
            row = rows[origin] = (a * b3 + one_tail, tuple(row_rays))
            return row

        def piece(contents, origin, out):
            onto_pid, row_rays = rows[origin] or row_of(origin)
            found = [] if repeats else out
            for ok, ray in row_rays:
                for v, m in ray:
                    c = contents[v]
                    if not ok[c]:
                        break
                    if c == pid:
                        m = Move(m.effects, replay, None, onto_pid)
                    found.append(m)
            if repeats:
                seen = set()
                for m in found:
                    if m.effects not in seen:
                        seen.add(m.effects)
                        out.append(m)

        return piece, distinct

    @cached_property
    def _lines(self) -> tuple:
        return _flip_lines(self.board)

    @cached_property
    def _adjacent(self) -> tuple:
        return adjacency(self.board)

    def _sides(self, player: int) -> tuple:
        """(enemy, friend): tables over piece ids, as seen by player."""
        return self._accepts(("enemy",), player), self._accepts(("friend",), player)

    def _compile_custodial(self, rule, mover: int):
        _, base = rule
        pid = self.game.piece_instance(base, mover)
        lines = self._lines
        enemy, friend = self._sides(mover)
        put = self._writes(pid)
        rank = self._keys.ranks(pid)
        b = self._keys.base
        nxt = self.next_player(mover)
        tail, pad = self._keys.many_changes(nxt)
        pass_eff = ("pass", nxt)
        pass_move = Move((pass_eff,), False, None, nxt * pad[0])
        others = [
            self._sides(p) for p in range(1, self.player_count + 1) if p != mover
        ]

        def custodial(state):
            contents = state.contents
            moves = []
            for v, rays in enumerate(lines):
                if contents[v]:
                    continue
                flips = []
                for ray in rays:
                    if enemy[contents[ray[0]]]:
                        for i, u in enumerate(ray):
                            c = contents[u]
                            if not enemy[c]:
                                if friend[c]:
                                    flips += ray[:i]
                                break
                if flips:
                    effects = [put[u] for u in flips]
                    effects.append(put[v])
                    effects.append(pass_eff)
                    ranks = [rank[u] for u in flips]
                    ranks.append(rank[v])
                    ranks.sort()
                    key = 0
                    for r in ranks:
                        key = key * b + r
                    key = (key * b * b + tail) * pad[len(ranks)]
                    moves.append(Move(tuple(effects), False, None, key))
            if not moves:
                # pass, but only when some other player could still flip
                for sides in others:
                    if self._can_flip(contents, *sides):
                        return [pass_move]
            return moves

        return custodial

    def _can_flip(self, contents, enemy, friend) -> bool:
        """Can the player whose ``_sides`` these are flip anything?"""
        for v, rays in enumerate(self._lines):
            if contents[v]:
                continue
            for ray in rays:
                if enemy[contents[ray[0]]]:
                    for u in ray:
                        c = contents[u]
                        if not enemy[c]:
                            if friend[c]:
                                return True
                            break
        return False

    def _accepts(self, cond, mover: int) -> tuple:
        """``accepts[piece id]``: does cond hold at a cell holding it."""
        head = cond[0]
        owner = self._owner
        if head == "empty":
            return tuple(pid == 0 for pid in range(len(owner)))
        if head == "enemy":
            return tuple(o not in (0, mover) for o in owner)
        if head == "friend":
            return tuple(o == mover for o in owner)
        if head == "not":
            return tuple(not ok for ok in self._accepts(cond[1], mover))
        if head == "or":
            parts = [self._accepts(c, mover) for c in cond[1]]
            return tuple(any(oks) for oks in zip(*parts))
        raise ValueError(f"unknown condition {head!r}")

    # -- compilation: end rules -----------------------------------------

    def _resolve_player(self, sel: str, mover: int) -> int:
        if sel == "mover":
            return mover
        if sel == "next":
            return self.next_player(mover)
        return (mover - 2) % self.player_count + 1  # prev

    def _evaluate_end(self, state: GameState, moves: list[Move]):
        for fired, payoffs in self._ends[state.mover]:
            if fired(state, moves):
                return payoffs(state)
        return None

    def _compile_end(self, cond, mover: int):
        """Predicate over (state, the mover's moves)."""
        head = cond[0]
        board = self.board
        if head == "stalemated":
            return lambda state, moves: not moves
        if head == "line":
            axes = _axis_tables(board)
            ids = self._ids_of[self.next_player(mover)]
            n = cond[1]
            return lambda state, moves: _line_through(
                axes, state.contents, state.last_to, ids, n
            )
        if head == "connected":
            player = self._resolve_player(cond[1], mover)
            ids = self._ids_of[player]
            a, b = ("top", "bottom") if player == 1 else ("left", "right")
            side_a, side_b = board.sides[a], board.sides[b]
            adjacent = self._adjacent
            return lambda state, moves: region_connected(
                adjacent, state.contents, ids, side_a, side_b
            )
        if head == "reached":
            player = self._resolve_player(cond[1], mover)
            ids = self._ids_of[player]
            goal = tuple(board.sides["top" if player == 1 else "bottom"])
            return lambda state, moves: any(state.contents[v] in ids for v in goal)
        if head == "boardFull":
            return lambda state, moves: 0 not in state.contents
        if head == "noMovesAll":
            others = [p for p in range(1, self.player_count + 1) if p != mover]
            return lambda state, moves: not moves and all(
                not self._generate(state, p) for p in others
            )
        raise ValueError(f"unknown end condition {head!r}")

    def _compile_result(self, result, mover: int):
        """Payoffs as a function of the terminal state."""
        players = range(1, self.player_count + 1)
        head = result[0]
        if head in ("draw", "win", "loss"):
            if head == "draw":
                fixed = {p: 50 for p in players}
            else:
                who = self._resolve_player(result[1], mover)
                top = head == "win"
                fixed = {p: (100 if (p == who) == top else 0) for p in players}
            return lambda state: dict(fixed)
        if head != "byCount":
            raise ValueError(f"unknown result {head!r}")
        # byCount: majority of on-board pieces of the named kind
        counted = tuple(
            o if o and self._base_of.get(pid) == result[1] else 0
            for pid, o in enumerate(self._owner)
        )

        def by_count(state):
            counts = {p: 0 for p in players}
            for pid in state.contents:
                o = counted[pid]
                if o:
                    counts[o] += 1
            best = max(counts.values())
            winners = [p for p, c in counts.items() if c == best]
            if len(winners) > 1:
                return {p: 50 for p in players}
            return {p: (100 if p == winners[0] else 0) for p in players}

        return by_count
