"""Helpers the ludemic tests share."""

from ggs.ludeme.engine import _axis_tables, _line_through


def detect_line(board, contents, last_to, piece_ids, n):
    """Run of >= n cells holding any of piece_ids through last_to."""
    return _line_through(_axis_tables(board), contents, last_to, piece_ids, n)
