"""Ludeme registry and game compilation for the S-expression dialect."""

from __future__ import annotations

from dataclasses import dataclass

from ..core.board import BoardGraph, build_hex_board, build_rectangle_board
from ..core.model import NEUTRAL, PieceTable
from .sexpr import Atom, SList, SSet, parse_sexpr


class UnknownLudeme(ValueError):
    def __init__(self, name: str, line: int = 0, col: int = 0):
        super().__init__(f"unknown ludeme {name!r} at {line}:{col}")
        self.name = name


class LudemeError(ValueError):
    """A description error, placed at the offending node when given."""

    def __init__(self, message: str, node=None):
        if node is not None:
            message += f" at {node.line}:{node.col}"
        super().__init__(message)


class ArityError(LudemeError):
    pass


class UnknownPiece(LudemeError):
    pass


class OverlappingPlacement(LudemeError):
    pass


class PlacementOutOfRange(LudemeError):
    pass


class UnsupportedPlayerCount(LudemeError):
    pass


@dataclass
class PieceDef:
    name: str
    ownership: str  # "Each" or "None"
    move_rule: tuple | None
    replay: bool  # carries (then (replay))


@dataclass
class CompiledLudemicGame:
    name: str
    player_count: int
    board: BoardGraph
    board_kind: str  # "rect" or "hex"
    pieces: PieceTable
    piece_defs: dict  # base name -> PieceDef
    instance_ids: dict  # (base name, owner) -> piece id
    start_placements: tuple  # ((piece id, (vertex, ...)), ...)
    play_rule: tuple
    end_rules: tuple  # ((cond, result), ...)

    def piece_instance(self, base: str, owner: int) -> int:
        try:
            return self.instance_ids[(base, owner)]
        except KeyError:
            raise UnknownPiece(f"{base} for player {owner}") from None


_PLAYER_SELECTORS = {"mover", "next", "prev"}


def _expect_list(node, what: str) -> SList:
    if not isinstance(node, SList):
        raise ArityError(f"expected a list for {what}", node)
    return node


def _atom_text(node, what: str) -> str:
    if not isinstance(node, Atom):
        raise ArityError(f"expected an atom for {what}", node)
    return node.text


def _int(node, what: str) -> int:
    text = _atom_text(node, what)
    try:
        return int(text)
    except ValueError:
        raise ArityError(f"expected an integer {what}, got {text!r}", node) from None


def _split_instance(text: str) -> tuple[str, int]:
    """Placement name like "Queen1" -> (base "queen", owner 1)."""
    base = text.rstrip("0123456789")
    suffix = text[len(base) :]
    owner = int(suffix) if suffix else 0
    return base.lower(), owner


def _compile_condition(node) -> tuple:
    node = _expect_list(node, "condition")
    head = node.head
    args = node.children[1:]
    if head == "in":
        # (in (to) <cond>): test applies at the destination cell.
        if len(args) != 2:
            raise ArityError("(in (to) <cond>) takes two arguments")
        return _compile_condition(args[1])
    if head in ("empty", "enemy", "friend"):
        if args:
            raise ArityError(f"({head}) takes no arguments")
        return (head,)
    if head == "not":
        if len(args) != 1:
            raise ArityError("(not <cond>) takes one argument")
        return ("not", _compile_condition(args[0]))
    if head == "or":
        if len(args) < 2:
            raise ArityError("(or ...) needs at least two conditions")
        return ("or", tuple(_compile_condition(a) for a in args))
    raise UnknownLudeme(head, node.line, node.col)


def _selector(node) -> str:
    node = _expect_list(node, "player selector")
    sel = node.head
    if sel not in _PLAYER_SELECTORS:
        raise UnknownLudeme(sel, node.line, node.col)
    return sel


def _direction_set(node: SSet) -> tuple:
    return tuple(_atom_text(d, "direction") for d in node.children)


def _compile_move_rule(node) -> tuple[tuple, bool]:
    """Returns (rule tree, replay flag)."""
    node = _expect_list(node, "move rule")
    head = node.head
    args = list(node.children[1:])
    replay = False
    if args and isinstance(args[-1], SList) and args[-1].head == "then":
        then = args.pop()
        if len(then.children) != 2:
            raise ArityError("(then (replay)) takes one consequence", then)
        inner = _expect_list(then.children[1], "then body")
        if inner.head != "replay" or len(then.children) != 2:
            raise UnknownLudeme(inner.head, inner.line, inner.col)
        replay = True
    if head == "slide":
        dirs = None
        cond = ("empty",)
        for a in args:
            if isinstance(a, SSet):
                dirs = _direction_set(a)
            else:
                cond = _compile_condition(a)
        return ("slide", cond, dirs), replay
    if head == "step":
        if len(args) != 2 or not isinstance(args[0], SSet):
            raise ArityError("(step {dirs} <cond>) takes a set and a condition")
        return ("step", _direction_set(args[0]), _compile_condition(args[1])), replay
    if head == "or":
        parts = [_compile_move_rule(a) for a in args]
        if any(r for _, r in parts):
            raise ArityError("(then (replay)) belongs on the whole rule")
        return ("or", tuple(p for p, _ in parts)), replay
    raise UnknownLudeme(head, node.line, node.col)


def _compile_play(node) -> tuple:
    node = _expect_list(node, "play rule")
    head = node.head
    args = node.children[1:]
    if head == "if":
        if len(args) != 3:
            raise ArityError("(if <cond> <then> <else>) takes three arguments")
        cond = _expect_list(args[0], "play condition")
        if cond.head != "even" or _expect_list(
            cond.children[1], "turn"
        ).head != "turn":
            raise UnknownLudeme(cond.head, cond.line, cond.col)
        return ("if_even_turn", _compile_play(args[1]), _compile_play(args[2]))
    if head == "byPiece":
        if args:
            raise ArityError("(byPiece) takes no arguments")
        return ("byPiece",)
    if head == "shoot":
        if len(args) != 2:
            raise ArityError('(shoot <cond> "PieceN") takes two arguments')
        cond = _compile_condition(args[0])
        base, owner = _split_instance(_atom_text(args[1], "piece name"))
        return ("shoot", cond, base, owner)
    if head == "place":
        if len(args) != 2:
            raise ArityError('(place "Piece" <cond>) takes two arguments')
        base, _ = _split_instance(_atom_text(args[0], "piece name"))
        return ("place", base, _compile_condition(args[1]))
    if head == "drop":
        if len(args) != 1:
            raise ArityError('(drop "Piece") takes one argument')
        base, _ = _split_instance(_atom_text(args[0], "piece name"))
        return ("drop", base)
    if head == "custodialFlip":
        if len(args) != 1:
            raise ArityError('(custodialFlip "Piece") takes one argument')
        base, _ = _split_instance(_atom_text(args[0], "piece name"))
        return ("custodialFlip", base)
    raise UnknownLudeme(head, node.line, node.col)


def _compile_end_condition(node) -> tuple:
    node = _expect_list(node, "end condition")
    head = node.head
    args = node.children[1:]
    if head in ("stalemated", "connected", "reached"):
        if len(args) != 1:
            raise ArityError(f"({head} <player>) takes one player selector", node)
        who = _selector(args[0])
        if head != "stalemated":
            return (head, who)
        if who != "mover":
            raise ArityError("(stalemated (mover)) is the supported form", node)
        return ("stalemated",)
    if head == "line":
        if len(args) != 1:
            raise ArityError("(line <n>) takes a length", node)
        length = _int(args[0], "line length")
        if length < 1:
            raise ArityError(f"line length must be positive, got {length}", args[0])
        return ("line", length)
    if head == "boardFull":
        return ("boardFull",)
    if head == "noMovesAll":
        return ("noMovesAll",)
    raise UnknownLudeme(head, node.line, node.col)


def _compile_result(node) -> tuple:
    node = _expect_list(node, "result")
    head = node.head
    args = node.children[1:]
    if head == "result":
        if len(args) == 1 and _atom_text(args[0], "outcome") == "Draw":
            return ("draw",)
        if len(args) != 2:
            raise ArityError("(result (who) Win|Loss|Draw)")
        outcome = _atom_text(args[1], "outcome")
        if outcome not in ("Win", "Loss", "Draw"):
            raise ArityError(f"unknown outcome {outcome!r}")
        return (outcome.lower(), _selector(args[0]))
    if head == "byCount":
        if len(args) != 1:
            raise ArityError('(byCount "Piece") takes one piece name')
        base, _ = _split_instance(_atom_text(args[0], "piece name"))
        return ("byCount", base)
    raise UnknownLudeme(head, node.line, node.col)


# generator -> number of size arguments
_BOARD_GENERATORS = {"chessBoard": 1, "rectBoard": 2, "hexBoard": 1}


def compile_ludemic(source) -> CompiledLudemicGame:
    """Compile a parsed tree (or raw text) with head "game"."""
    tree = parse_sexpr(source) if isinstance(source, str) else source
    tree = _expect_list(tree, "game")
    if tree.head != "game":
        raise UnknownLudeme(tree.head, tree.line, tree.col)
    if len(tree.children) != 5:
        raise ArityError('(game "Name" (mode n) (equipment ...) (rules ...))')
    _, name_node, *sections = tree.children
    name = _atom_text(name_node, "game name")

    player_count = None
    board = None
    board_kind = None
    piece_defs: dict[str, PieceDef] = {}
    order: list[str] = []
    start_section = None
    play_rule = None
    end_rules: list = []

    for section in sections:
        section = _expect_list(section, "game section")
        head = section.head
        args = section.children[1:]
        if head == "mode":
            if len(args) != 1:
                raise ArityError("(mode <n>) takes a player count", section)
            player_count = _int(args[0], "player count")
            if player_count != 2:
                # relative directions, connection sides and the line end
                # rule all assume two players
                raise UnsupportedPlayerCount(
                    f"only two-player games are supported, not {player_count}",
                    args[0],
                )
        elif head == "equipment":
            if len(args) != 1 or not isinstance(args[0], SSet):
                raise ArityError("(equipment { ... })")
            for item in args[0].children:
                item = _expect_list(item, "equipment item")
                if item.head in _BOARD_GENERATORS:
                    arity = _BOARD_GENERATORS[item.head]
                    if len(item.children) != arity + 1:
                        raise ArityError(
                            f"({item.head}) takes {arity} size"
                            f"{'s' if arity > 1 else ''}",
                            item,
                        )
                    nums = [_int(a, "size") for a in item.children[1:]]
                    for n, n_node in zip(nums, item.children[1:]):
                        if n < 1:
                            raise ArityError(
                                f"board size must be positive, got {n}", n_node
                            )
                    if item.head == "chessBoard":
                        board = build_rectangle_board(nums[0], nums[0])
                        board_kind = "rect"
                    elif item.head == "rectBoard":
                        board = build_rectangle_board(nums[0], nums[1])
                        board_kind = "rect"
                    else:
                        board = build_hex_board(nums[0])
                        board_kind = "hex"
                else:
                    pname = item.head
                    if not 2 <= len(item.children) <= 3:
                        raise ArityError(
                            f"({pname} Each|None [move rule]) declares a piece",
                            item,
                        )
                    ownership = _atom_text(item.children[1], "ownership")
                    if ownership not in ("Each", "None"):
                        raise ArityError(
                            f"piece ownership must be Each or None, got {ownership}"
                        )
                    move_rule, replay = (None, False)
                    if len(item.children) > 2:
                        move_rule, replay = _compile_move_rule(item.children[2])
                    piece_defs[pname] = PieceDef(pname, ownership, move_rule, replay)
                    order.append(pname)
        elif head == "rules":
            for rule in args:
                rule = _expect_list(rule, "rule section")
                if rule.head == "start":
                    start_section = rule.children[1:]
                elif rule.head == "play":
                    if play_rule is not None:
                        raise ArityError("exactly one play rule allowed")
                    play_rule = _compile_play(rule.children[1])
                elif rule.head == "end":
                    body = list(rule.children[1:])
                    # Either one bare (cond result) pair or explicit pairs.
                    if body and isinstance(body[0], SList) and body[0].head in (
                        "stalemated", "line", "connected", "reached",
                        "boardFull", "noMovesAll",
                    ):
                        if len(body) != 2:
                            raise ArityError("(end <cond> <result>)")
                        end_rules.append(
                            (_compile_end_condition(body[0]), _compile_result(body[1]))
                        )
                    else:
                        for pair in body:
                            pair = _expect_list(pair, "end rule")
                            if len(pair.children) != 2:
                                raise ArityError("end rules are (cond result) pairs")
                            end_rules.append(
                                (
                                    _compile_end_condition(pair.children[0]),
                                    _compile_result(pair.children[1]),
                                )
                            )
                else:
                    raise UnknownLudeme(rule.head, rule.line, rule.col)
        else:
            raise UnknownLudeme(head, section.line, section.col)

    if player_count is None or board is None:
        raise ArityError("game needs (mode n) and a board generator")
    if play_rule is None:
        raise ArityError("game needs exactly one play rule")
    if not end_rules:
        raise ArityError("game needs at least one end rule")

    # Piece table: id 0 is empty; Each pieces get one id per player.
    symbols = ["empty"]
    owners = [NEUTRAL]
    instance_ids: dict = {}
    for pname in order:
        pdef = piece_defs[pname]
        if pdef.ownership == "Each":
            for p in range(1, player_count + 1):
                instance_ids[(pname, p)] = len(symbols)
                symbols.append(f"{pname}{p}")
                owners.append(p)
        else:
            instance_ids[(pname, 0)] = len(symbols)
            symbols.append(f"{pname}0")
            owners.append(NEUTRAL)
    pieces = PieceTable(tuple(symbols), 0, tuple(owners))

    placements = []
    seen_vertices: set[int] = set()
    if start_section:
        items = start_section
        if len(items) == 1 and isinstance(items[0], SSet):
            items = items[0].children
        for pl in items:
            pl = _expect_list(pl, "placement")
            if pl.head != "place" or len(pl.children) != 3:
                raise ArityError('(place "PieceN" {ids...})')
            base, owner = _split_instance(_atom_text(pl.children[1], "piece name"))
            if base not in piece_defs:
                raise UnknownPiece(base)
            key = (base, owner if piece_defs[base].ownership == "Each" else 0)
            if key not in instance_ids:
                raise UnknownPiece(f"{base} for player {owner}")
            ids_node = pl.children[2]
            if not isinstance(ids_node, SSet):
                raise ArityError("placement vertex ids must be a set")
            vertices = tuple(_int(v, "vertex id") for v in ids_node.children)
            for v, v_node in zip(vertices, ids_node.children):
                if not 0 <= v < board.vertex_count:
                    raise PlacementOutOfRange(
                        f"vertex {v} is not on the board "
                        f"(0..{board.vertex_count - 1})",
                        v_node,
                    )
                if v in seen_vertices:
                    raise OverlappingPlacement(f"vertex {v} placed twice", v_node)
                seen_vertices.add(v)
            placements.append((instance_ids[key], vertices))

    game = CompiledLudemicGame(
        name=name,
        player_count=player_count,
        board=board,
        board_kind=board_kind,
        pieces=pieces,
        piece_defs=piece_defs,
        instance_ids=instance_ids,
        start_placements=tuple(placements),
        play_rule=play_rule,
        end_rules=tuple(end_rules),
    )
    _check_piece_references(game)
    return game


def _check_piece_references(game: CompiledLudemicGame):
    def walk(rule):
        head = rule[0]
        if head in ("shoot",):
            if rule[2] not in game.piece_defs:
                raise UnknownPiece(rule[2])
        elif head in ("place", "drop", "custodialFlip"):
            if rule[1] not in game.piece_defs:
                raise UnknownPiece(rule[1])
        elif head == "if_even_turn":
            walk(rule[1])
            walk(rule[2])
    walk(game.play_rule)
    for _, result in game.end_rules:
        if result[0] == "byCount" and result[1] not in game.piece_defs:
            raise UnknownPiece(result[1])
