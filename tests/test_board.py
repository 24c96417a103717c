"""Board graph construction, coordinates, and side sets."""

import pytest

from ggs.core.board import (
    HEX_DIRECTIONS,
    OFF_BOARD,
    RECT_DIRECTIONS,
    UnknownCoordinate,
    build_hex_board,
    build_rectangle_board,
)


def test_rectangle_shape_and_directions():
    b = build_rectangle_board(10, 10)
    assert b.vertex_count == 100
    assert b.directions == RECT_DIRECTIONS


def test_coordinate_labels():
    b = build_rectangle_board(10, 10)
    # id 0 is the top-left corner: file a, rank 10.
    assert b.encode_coord(0) == "a10"
    assert b.decode_coord("d1") == 93
    assert b.decode_coord(b.encode_coord(57)) == 57
    with pytest.raises(UnknownCoordinate):
        b.decode_coord("z9")
    with pytest.raises(UnknownCoordinate):
        b.decode_coord("a11")


def test_neighbors_and_edges():
    b = build_rectangle_board(3, 3)
    up = b.direction_index("up")
    down = b.direction_index("down")
    assert b.neighbor(4, up) == 1
    assert b.neighbor(4, down) == 7
    assert b.neighbor(1, up) == OFF_BOARD
    dr = b.direction_index("down_right")
    assert b.neighbor(0, dr) == 4
    assert b.neighbor(8, dr) == OFF_BOARD


def test_sides():
    b = build_rectangle_board(3, 4)
    assert b.sides["top"] == frozenset({0, 1, 2, 3})
    assert b.sides["bottom"] == frozenset({8, 9, 10, 11})
    assert b.sides["left"] == frozenset({0, 4, 8})
    assert b.sides["right"] == frozenset({3, 7, 11})


def test_hex_board_adjacency():
    b = build_hex_board(11)
    assert b.vertex_count == 121
    assert b.directions == HEX_DIRECTIONS
    ur = b.direction_index("up_right")
    dl = b.direction_index("down_left")
    # center cell: up_right goes one row up, one column right
    v = 5 * 11 + 5
    assert b.neighbor(v, ur) == 4 * 11 + 6
    assert b.neighbor(v, dl) == 6 * 11 + 4
    # hex rhombus has exactly 6 directions
    assert len(b.directions) == 6


def test_degenerate_boards_rejected():
    with pytest.raises(ValueError):
        build_rectangle_board(0, 3)


def test_files_past_z_continue_spreadsheet_style():
    b = build_rectangle_board(1, 1200)
    assert [b.encode_coord(v) for v in (0, 25, 26, 27, 51, 52, 701, 702)] == [
        "a1", "z1", "aa1", "ab1", "az1", "ba1", "zz1", "aaa1"
    ]
    with pytest.raises(UnknownCoordinate):
        b.decode_coord("ate1")  # the 1,201st file
    with pytest.raises(UnknownCoordinate):
        b.decode_coord("{1")


@pytest.mark.parametrize("rows, cols", [(1, 1200), (30, 30)])
def test_coordinates_round_trip(rows, cols):
    b = build_rectangle_board(rows, cols)
    labels = [b.encode_coord(v) for v in range(b.vertex_count)]
    assert len(set(labels)) == len(labels)
    for v, label in enumerate(labels):
        assert b.decode_coord(label) == v
