"""Thompson construction and epsilon elimination.

The oracle is Python's ``re`` module: random patterns over a three-letter
shift alphabet are rendered both as an automaton and as an equivalent
regular expression, and both automaton forms (raw, epsilon-eliminated)
must agree with ``re.fullmatch`` on random strings.
"""

import random
import re

from ggs.rbg import ast
from ggs.rbg.nfa import EPS, build_nfa, eliminate_epsilon

ALPHABET = ["up", "down", "left"]
LETTER = {"up": "u", "down": "d", "left": "l"}


def node_count(nfa):
    return len(nfa.edges)


class ShiftContext:
    """Resolver mapping the three direction names to symbol indices."""

    def direction_index(self, name):
        return ALPHABET.index(name)

    def piece_id(self, name):
        raise AssertionError("no pieces in this corpus")

    def player_index(self, name):
        raise AssertionError("no players in this corpus")


def random_pattern(rng, depth=0):
    roll = rng.random()
    if depth >= 3 or roll < 0.4:
        return ast.Name(rng.choice(ALPHABET))
    if roll < 0.6:
        return ast.Concat(
            tuple(random_pattern(rng, depth + 1) for _ in range(rng.randint(2, 3)))
        )
    if roll < 0.8:
        return ast.Alt(
            tuple(random_pattern(rng, depth + 1) for _ in range(rng.randint(2, 3)))
        )
    return ast.Star(random_pattern(rng, depth + 1))


def to_regex(pat):
    if isinstance(pat, ast.Name):
        return LETTER[pat.name]
    if isinstance(pat, ast.Concat):
        return "".join(f"(?:{to_regex(p)})" for p in pat.parts)
    if isinstance(pat, ast.Alt):
        return "|".join(f"(?:{to_regex(p)})" for p in pat.parts)
    return f"(?:{to_regex(pat.child)})*"


def simulate(nfa, symbols):
    """Set-of-states simulation; follows epsilon edges if present."""

    def closure(states):
        seen = set(states)
        stack = list(states)
        while stack:
            for label, target in nfa.edges[stack.pop()]:
                if label == EPS and target not in seen:
                    seen.add(target)
                    stack.append(target)
        return seen

    current = closure({nfa.start})
    for sym in symbols:
        nxt = set()
        for node in current:
            for label, target in nfa.edges[node]:
                if label == ("shift", sym):
                    nxt.add(target)
        current = closure(nxt)
        if not current:
            return False
    return bool(current & (nfa.accepting | {nfa.accept}))


def test_literal_and_concat():
    ctx = ShiftContext()
    nfa = build_nfa(ast.Concat((ast.Name("up"), ast.Name("down"))), ctx)
    assert simulate(nfa, [0, 1])
    assert not simulate(nfa, [0])
    assert not simulate(nfa, [1, 0])


def test_star_accepts_empty():
    ctx = ShiftContext()
    nfa = build_nfa(ast.Star(ast.Name("up")), ctx)
    assert simulate(nfa, [])
    assert simulate(nfa, [0, 0, 0])
    assert not simulate(nfa, [1])


def test_elimination_removes_all_epsilon_edges():
    ctx = ShiftContext()
    rng = random.Random(1)
    for _ in range(50):
        nfa = eliminate_epsilon(build_nfa(random_pattern(rng), ctx))
        for out in nfa.edges:
            assert all(label != EPS for label, _ in out)


def test_elimination_preserves_node_ids():
    ctx = ShiftContext()
    nfa = build_nfa(ast.Alt((ast.Name("up"), ast.Name("down"))), ctx)
    slim = eliminate_epsilon(nfa)
    assert node_count(slim) == node_count(nfa)
    assert slim.start == nfa.start and slim.accept == nfa.accept


def test_random_patterns_match_re_oracle():
    ctx = ShiftContext()
    rng = random.Random(2024)
    checked = 0
    for _ in range(60):
        pat = random_pattern(rng)
        regex = re.compile(to_regex(pat))
        nfa = build_nfa(pat, ctx)
        slim = eliminate_epsilon(nfa)
        for _ in range(20):
            length = rng.randint(0, 6)
            symbols = [rng.randrange(3) for _ in range(length)]
            text = "".join("udl"[s] for s in symbols)
            expected = regex.fullmatch(text) is not None
            assert simulate(nfa, symbols) == expected, (to_regex(pat), text)
            assert simulate(slim, symbols) == expected, (to_regex(pat), text)
            checked += 1
    assert checked >= 1000
