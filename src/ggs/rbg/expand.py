"""Macro expansion for the regex game dialect.

Names left after expansion (directions, pieces, players, variables) are
resolved and checked where ``nfa.build_nfa`` meets them.
"""

from __future__ import annotations

from dataclasses import replace

from . import ast


class UnknownMacro(ValueError):
    pass


class ArityMismatch(ValueError):
    pass


class RecursionDetected(ValueError):
    pass


class RbgValidationError(ValueError):
    pass


# Nodes one expansion may build or pass through.  The largest library
# expansion counts 2,352 (Reversi), while each doubling macro
# ``#mi = (m{i-1} + m{i-1})`` doubles the count, so a short description
# could otherwise build millions.
MAX_EXPANDED_NODES = 50_000


class ExpansionTooLarge(RbgValidationError):
    pass


def _subst_atom(name: str, env: dict) -> str:
    """Resolve an atom position (piece/player/var name) through the env."""
    if name in env:
        arg = env[name]
        if not isinstance(arg, ast.Name):
            raise RbgValidationError(
                f"macro argument for {name!r} used in an atom position must be"
                " a bare name"
            )
        return arg.name
    return name


def _expand(
    pat: ast.Pattern,
    macros: dict,
    directions: tuple,
    env: dict,
    depth: int,
    built: list,
) -> ast.Pattern:
    """``pat`` with macros substituted; a call of a board direction that
    is not a macro, with one argument, is that direction followed by the
    argument (``right ( [w] )`` is ``right [w]``).  ``depth`` counts every
    structural level and macro call above it, so runaway recursion and over-deep
    nesting both stop at ``ast.MAX_NESTING``.  ``built[0]`` counts the
    calls of the whole expansion, one per node it builds or passes
    through, and stops it past ``MAX_EXPANDED_NODES``."""
    if depth > ast.MAX_NESTING:
        raise RecursionDetected(
            f"patterns nest deeper than {ast.MAX_NESTING} after macro expansion"
        )
    built[0] += 1
    if built[0] > MAX_EXPANDED_NODES:
        raise ExpansionTooLarge(
            f"macro expansion builds more than {MAX_EXPANDED_NODES} nodes"
        )
    if isinstance(pat, ast.Name):
        if pat.name in env:
            # an expanded argument, walked again where it lands
            return _expand(env[pat.name], macros, directions, {}, depth, built)
        if pat.name in macros:
            params, body = macros[pat.name]
            if params:
                raise ArityMismatch(f"macro {pat.name} expects {len(params)} args")
            return _expand(body, macros, directions, {}, depth + 1, built)
        return pat
    if isinstance(pat, ast.Call):
        if pat.name not in macros:
            if pat.name in env:
                raise RbgValidationError(f"macro parameter {pat.name!r} called")
            if pat.name not in directions or len(pat.args) != 1:
                raise UnknownMacro(pat.name)
            return ast.Concat((
                ast.Name(pat.name),
                _expand(pat.args[0], macros, directions, env, depth + 1, built),
            ))
        params, body = macros[pat.name]
        if len(params) != len(pat.args):
            raise ArityMismatch(
                f"macro {pat.name} expects {len(params)} args, got {len(pat.args)}"
            )
        args = tuple(
            _expand(a, macros, directions, env, depth + 1, built) for a in pat.args
        )
        env = dict(zip(params, args))
        return _expand(body, macros, directions, env, depth + 1, built)
    depth += 1
    if isinstance(pat, ast.Concat):
        return ast.Concat(tuple(
            _expand(p, macros, directions, env, depth, built) for p in pat.parts
        ))
    if isinstance(pat, ast.Alt):
        return ast.Alt(tuple(
            _expand(p, macros, directions, env, depth, built) for p in pat.parts
        ))
    if isinstance(pat, ast.Star):
        return ast.Star(_expand(pat.child, macros, directions, env, depth, built))
    if isinstance(pat, ast.Check):
        return ast.Check(
            pat.positive, _expand(pat.child, macros, directions, env, depth, built)
        )
    if isinstance(pat, ast.On):
        return ast.On(tuple(_subst_atom(n, env) for n in pat.names))
    if isinstance(pat, ast.SetHere):
        return ast.SetHere(_subst_atom(pat.name, env))
    if isinstance(pat, ast.SwitchTo):
        return ast.SwitchTo(_subst_atom(pat.name, env))
    if isinstance(pat, ast.AssignVars):
        return ast.AssignVars(
            tuple((_subst_atom(n, env), v) for n, v in pat.assigns)
        )
    return pat


def expand_macros(game: ast.RbgGameDef) -> ast.RbgGameDef:
    """Substitute all macro calls in the rules to a fixpoint."""
    rules = _expand(
        game.rules, game.macros, game.board_directions, {}, 0, [0]
    )
    return replace(game, rules=rules, macros={})
