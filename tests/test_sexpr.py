"""S-expression reader for the ludemic dialect."""

import pytest

from ggs.ludeme.sexpr import (
    MAX_NESTING,
    Atom,
    NestingTooDeep,
    SList,
    SSet,
    Unbalanced,
    UnterminatedString,
    parse_all,
    parse_sexpr,
)


def test_atoms_lists_sets():
    node = parse_sexpr('(place "Queen1" {3 6 30 39})')
    assert isinstance(node, SList)
    assert node.head == "place"
    assert node.children[1] == Atom("Queen1", True, 1, 8)
    ids = node.children[2]
    assert isinstance(ids, SSet)
    assert [a.text for a in ids.children] == ["3", "6", "30", "39"]


def test_comments_skipped():
    nodes = parse_all("// leading\n(a) // trailing\n(b)")
    assert [n.head for n in nodes] == ["a", "b"]


def test_nested_structure_and_positions():
    node = parse_sexpr("(a\n  (b c))")
    inner = node.children[1]
    assert inner.head == "b"
    assert (inner.line, inner.col) == (2, 3)


def test_quoted_strings_preserved_verbatim():
    node = parse_sexpr('(x "a b // not a comment")')
    atom = node.children[1]
    assert atom.quoted and atom.text == "a b // not a comment"


def test_unbalanced_errors():
    with pytest.raises(Unbalanced):
        parse_all("(a (b)")
    with pytest.raises(Unbalanced):
        parse_all("a)")
    with pytest.raises(Unbalanced):
        parse_all("(a})")


def test_unterminated_string():
    with pytest.raises(UnterminatedString):
        parse_all('(a "oops)')


def test_parse_sexpr_requires_single_expression():
    with pytest.raises(Unbalanced):
        parse_sexpr("(a) (b)")


def test_nesting_past_the_bound_is_positioned():
    parse_sexpr("(a " * MAX_NESTING + ")" * MAX_NESTING)
    with pytest.raises(NestingTooDeep, match=f"at 2:{3 * MAX_NESTING + 1} "):
        parse_sexpr("\n" + "(a " * (MAX_NESTING + 1) + ")" * (MAX_NESTING + 1))
