"""Outside-in tracing of the executors' layer boundaries.

Nothing under src/ knows about this module. Engine boundaries are wrapped
by instance-attribute overrides, so the class methods stay untouched and
removing the attribute restores the engine. The harness-level boundaries
are patched module (or class) attributes, restored when the traced block
ends:

    ggs.rbg.engine.RbgGame.from_text  -> rbg.frontend
    ggs.rbg.compiler.lower            -> rbg.lower
    ggs.ludeme.compile.compile_ludemic -> ludeme.compile
    ggs.bench.perft                   -> bench.perft
    ggs.bench.dedup_moves             -> bench.dedup
    ggs.bench.cross_validate          -> bench.xval

A missing boundary raises TracerError at install time, and a boundary that
a workload must use but never called raises it after the pass, so that a
refactor cannot silently zero a layer.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager

from ggs import bench
from ggs.ludeme import compile as ludeme_compile
from ggs.rbg import compiler as rbg_compiler
from ggs.rbg.engine import RbgGame

from workloads import EXECUTORS, NO_EXECUTOR

# (method, layer) per executor family.
ENGINE_BOUNDARIES = {
    "rbg": (
        ("semimoves", "gen"),
        ("_exists", "lookahead"),
        ("sort_moves", "order"),
        ("probe", "probe"),
        ("apply", "apply"),
    ),
    "ludemic": (
        ("_generate", "gen"),
        ("_evaluate_end", "terminal"),
        ("sort_moves", "order"),
        ("probe", "probe"),
        ("apply", "apply"),
    ),
}
ENGINE_LAYERS = ("gen", "lookahead", "order", "terminal", "apply", "probe")
SETUP_LAYERS = ("rbg.frontend", "rbg.lower", "ludeme.compile")


def family(executor: str) -> str:
    return "ludemic" if executor == "ludemic" else "rbg"


def expected_pairs() -> set:
    """(layer, executor) pairs every traced pass must call at least once."""
    pairs = {(layer, NO_EXECUTOR) for layer in ("bench.xval",) + SETUP_LAYERS}
    for ex in EXECUTORS:
        for _, layer in ENGINE_BOUNDARIES[family(ex)]:
            pairs.add((layer, ex))
        pairs.add(("bench.perft", ex))
        pairs.add(("bench.dedup", ex))
    return pairs


class TracerError(RuntimeError):
    """A layer boundary is missing or was never crossed."""


def _check_attr(owner, name: str, what: str):
    if not callable(getattr(owner, name, None)):
        raise TracerError(f"boundary {what}.{name} is missing")


@contextmanager
def _patched(targets):
    """Temporarily replace attributes: targets is [(owner, name, value)]."""
    saved = [(owner, name, owner.__dict__[name]) for owner, name, _ in targets]
    try:
        for owner, name, value in targets:
            setattr(owner, name, value)
        yield
    finally:
        for owner, name, old in saved:
            setattr(owner, name, old)


class Tracer:
    """Parent-linked spans in flat arrays, aggregated after each pass.

    The harness sets ``game`` and ``executor`` before each cell; engine
    spans take their executor from the engine they wrap, harness spans
    from ``executor``.
    """

    def __init__(self):
        self.game = ""
        self.executor = NO_EXECUTOR
        self._pairs: dict = {}
        self._pair_names: list = []
        self._games: dict = {}
        self._game_names: list = []
        self._key = array("q")
        self._parent = array("q")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        # (layer, executor, game) -> [a, b]; gen: moves out; dedup: in, kept
        self.counts: dict = {}

    def set_cell(self, game: str, executor: str = NO_EXECUTOR):
        self.game = game
        self.executor = executor

    def _code(self, layer: str, executor: str) -> int:
        pair = self._pairs.get((layer, executor))
        if pair is None:
            pair = self._pairs[(layer, executor)] = len(self._pair_names)
            self._pair_names.append((layer, executor))
        game = self._games.get(self.game)
        if game is None:
            game = self._games[self.game] = len(self._game_names)
            self._game_names.append(self.game)
        return pair * 64 + game

    def _count(self, layer: str, executor: str, a: int, b: int = 0):
        c = self.counts.setdefault((layer, executor, self.game), [0, 0])
        c[0] += a
        c[1] += b

    def wrap(self, fn, layer: str, executor: str | None = None, count=None):
        """Span around fn; executor None means the current cell's."""
        keys, parents, starts, ends = self._key, self._parent, self._start, self._end
        stack = self._stack
        clock = time.perf_counter
        code = self._code

        def traced(*args, **kwargs):
            i = len(starts)
            keys.append(code(layer, executor or self.executor))
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if count is not None:
                count(layer, executor or self.executor, args, result)
            return result

        return traced

    # -- installation -----------------------------------------------------

    @contextmanager
    def engines(self, engines: dict):
        """Instrument every engine of {(game, executor): engine}."""
        installed = []
        try:
            for (_, ex), engine in engines.items():
                for name, layer in ENGINE_BOUNDARIES[family(ex)]:
                    _check_attr(type(engine), name, type(engine).__name__)
                    count = self._count_moves if layer == "gen" else None
                    engine.__dict__[name] = self.wrap(
                        getattr(engine, name), layer, ex, count
                    )
                    installed.append((engine, name))
            yield
        finally:
            for engine, name in installed:
                del engine.__dict__[name]

    def _count_moves(self, layer, executor, args, result):
        self._count(layer, executor, len(result))

    def _count_dedup(self, layer, executor, args, result):
        self._count(layer, executor, len(args[2]), len(result))

    @contextmanager
    def harness(self):
        """Patch the bench and set-up boundaries."""
        for owner, name in (
            (bench, "perft"),
            (bench, "dedup_moves"),
            (bench, "cross_validate"),
            (rbg_compiler, "lower"),
            (ludeme_compile, "compile_ludemic"),
            (RbgGame, "from_text"),
        ):
            _check_attr(owner, name, owner.__name__)
        from_text = RbgGame.from_text
        targets = [
            (bench, "perft", self.wrap(bench.perft, "bench.perft")),
            (bench, "dedup_moves",
             self.wrap(bench.dedup_moves, "bench.dedup", count=self._count_dedup)),
            (bench, "cross_validate",
             self.wrap(bench.cross_validate, "bench.xval", NO_EXECUTOR)),
            (rbg_compiler, "lower",
             self.wrap(rbg_compiler.lower, "rbg.lower", NO_EXECUTOR)),
            (ludeme_compile, "compile_ludemic",
             self.wrap(ludeme_compile.compile_ludemic, "ludeme.compile",
                       NO_EXECUTOR)),
            (RbgGame, "from_text",
             staticmethod(self.wrap(from_text, "rbg.frontend", NO_EXECUTOR))),
        ]
        with _patched(targets):
            yield

    # -- aggregation ------------------------------------------------------

    def collect(self) -> dict:
        """(layer, executor, game) -> [self seconds, calls]; clears spans.

        Self time is a span's duration minus the durations of its child
        spans, so nested lookahead calls and the generation call inside
        ludemic terminal evaluation are charged once.
        """
        starts, ends, parents, keys = self._start, self._end, self._parent, self._key
        if len(self._stack) != 1:
            raise TracerError("spans still open at the end of a pass")
        dur = [e - s for s, e in zip(starts, ends)]
        child = [0.0] * len(dur)
        for i, p in enumerate(parents):
            if p >= 0:
                child[p] += dur[i]
        by_code: dict = {}
        for i, code in enumerate(keys):
            agg = by_code.get(code)
            if agg is None:
                agg = by_code[code] = [0.0, 0]
            agg[0] += dur[i] - child[i]
            agg[1] += 1
        out = {}
        for code, agg in by_code.items():
            layer, ex = self._pair_names[code // 64]
            out[(layer, ex, self._game_names[code % 64])] = agg
        for arr in (starts, ends, parents, keys):
            del arr[:]
        return out


def require_layers(agg: dict, pairs: set):
    """Fail loudly when an expected (layer, executor) pair made no call."""
    seen = {(layer, ex) for (layer, ex, _), (_, calls) in agg.items() if calls}
    missing = sorted(pairs - seen)
    if missing:
        raise TracerError(
            "layers never called: "
            + ", ".join(f"{layer}[{ex}]" for layer, ex in missing)
        )


class QueryCounter:
    """Untimed counting pass for two waste ratios.

    repeats: within one rbg-interp ``semimoves`` call, ``_exists`` queries
    that repeat an earlier one with a structurally equal sub-automaton and
    the same vertex, tentative board and variables.
    probes: during each ``cross_validate`` call, probes of each
    non-terminal state (a terminal state ends the walk after one probe).
    """

    def __init__(self):
        self.game = ""
        self.repeats: dict = {}  # game -> [repeated queries, queries]
        self.probes: dict = {}  # game -> [probes, distinct states]
        self._seen = None
        self._states = None
        self._struct: dict = {}  # id(nfa) -> (nfa, interned id)
        self._interned: dict = {}

    def _structure(self, nfa) -> int:
        hit = self._struct.get(id(nfa))
        if hit is None:
            edges = tuple(
                tuple(
                    (("check", label[1], self._structure(label[2]), label[3])
                     if label[0] == "check" else label, target)
                    for label, target in out
                )
                for out in nfa.edges
            )
            key = (nfa.start, nfa.accept, tuple(sorted(nfa.accepting)), edges)
            hit = self._struct[id(nfa)] = (
                nfa, self._interned.setdefault(key, len(self._interned))
            )
        return hit[1]

    @contextmanager
    def engines(self, engines: dict):
        installed = []
        try:
            for (_, ex), engine in engines.items():
                if ex == "rbg-interp":
                    for name in ("semimoves", "_exists"):
                        _check_attr(type(engine), name, type(engine).__name__)
                    engine.__dict__["semimoves"] = self._semimoves(engine.semimoves)
                    engine.__dict__["_exists"] = self._exists(engine._exists)
                    installed += [(engine, "semimoves"), (engine, "_exists")]
                _check_attr(type(engine), "probe", type(engine).__name__)
                engine.__dict__["probe"] = self._probe(engine.probe)
                installed.append((engine, "probe"))
            _check_attr(bench, "cross_validate", "ggs.bench")
            with _patched(
                [(bench, "cross_validate", self._walks(bench.cross_validate))]
            ):
                yield
        finally:
            for engine, name in installed:
                del engine.__dict__[name]

    def _semimoves(self, fn):
        def counted(state):
            outer, self._seen = self._seen, set()
            try:
                return fn(state)
            finally:
                self._seen = outer
        return counted

    def _exists(self, fn):
        def counted(sub, vertex, contents, variables, pure):
            key = (self._structure(sub), vertex, tuple(contents),
                   tuple(sorted(variables.items())), pure)
            c = self.repeats.setdefault(self.game, [0, 0])
            c[0] += key in self._seen
            c[1] += 1
            self._seen.add(key)
            return fn(sub, vertex, contents, variables, pure)
        return counted

    def _probe(self, fn):
        def counted(state):
            result = fn(state)
            if self._states is not None:
                entry = self._states.setdefault(id(state), [state, 0, False])
                entry[1] += 1
                entry[2] = result[1] is None
            return result
        return counted

    def _walks(self, fn):
        def counted(*args, **kwargs):
            self._states = {}
            try:
                return fn(*args, **kwargs)
            finally:
                c = self.probes.setdefault(self.game, [0, 0])
                for _, n, live in self._states.values():
                    if live:
                        c[0] += n
                        c[1] += 1
                self._states = None
        return counted


def lowered_sizes(program) -> tuple:
    """(instructions, instructions reachable from the entry map), counted
    outside the engine from ``program.instrs`` and ``program.entry``."""
    c = rbg_compiler
    instrs = program.instrs
    seen = set()
    stack = list(program.entry.values())
    while stack:
        i = stack.pop()
        if i in seen:
            continue
        seen.add(i)
        ins = instrs[i]
        op = ins[0]
        if op == c.FORK:
            stack.extend(ins[1])
        elif op in (c.SHIFT, c.ON, c.SET, c.ASSIGN, c.GSHIFT, c.RAYSCAN):
            stack.append(ins[-1])
        elif op == c.CHECK:
            stack += [ins[2], ins[4]]
    return len(instrs), len(seen)

