"""Board graphs shared by both game description front-ends.

A board is a finite set of vertices with direction-labelled edges.  All
generators produce row-major vertex ids with id 0 at the top-left corner.
Coordinate labels use files a.. from the left and ranks numbered from the
bottom, so id 0 on a 10x10 board is "a10".  Files past z continue as in a
spreadsheet: z, aa, ab, ..., az, ba, ...
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

OFF_BOARD = -1

# Canonical direction order for rectangle boards.  The four diagonals are
# the pairwise composites of the orthogonal directions.
RECT_DIRECTIONS = (
    "up",
    "down",
    "left",
    "right",
    "up_left",
    "up_right",
    "down_left",
    "down_right",
)

_DIR_VECTORS = {
    "up": (-1, 0),
    "down": (1, 0),
    "left": (0, -1),
    "right": (0, 1),
    "up_left": (-1, -1),
    "up_right": (-1, 1),
    "down_left": (1, -1),
    "down_right": (1, 1),
}

# Hex rhombus adjacency: orthogonals plus one diagonal pair.
HEX_DIRECTIONS = ("up", "down", "left", "right", "up_right", "down_left")


class UnknownCoordinate(ValueError):
    """Raised when a coordinate string does not name a vertex."""


@dataclass
class BoardGraph:
    rows: int
    cols: int
    directions: tuple[str, ...]
    # neighbors[d][v] -> vertex id or OFF_BOARD
    neighbors: list[list[int]]
    coord_labels: list[str]
    # Side vertex sets, used by connection games.
    sides: dict[str, frozenset[int]] = field(default_factory=dict)

    @property
    def vertex_count(self) -> int:
        return self.rows * self.cols

    def direction_index(self, name: str) -> int:
        try:
            return self.directions.index(name)
        except ValueError:
            raise KeyError(f"unknown direction {name!r}") from None

    def neighbor(self, vertex: int, direction: int) -> int:
        return self.neighbors[direction][vertex]

    def encode_coord(self, vertex: int) -> str:
        return self.coord_labels[vertex]

    def decode_coord(self, text: str) -> int:
        m = re.fullmatch(r"([a-z]+)(\d+)", text)
        if not m:
            raise UnknownCoordinate(text)
        col = 0
        for ch in m.group(1):
            col = col * 26 + ord(ch) - ord("a") + 1
        col -= 1
        rank = int(m.group(2))
        row = self.rows - rank
        if not (0 <= col < self.cols and 0 <= row < self.rows):
            raise UnknownCoordinate(text)
        return row * self.cols + col


def _file_label(col: int) -> str:
    """Spreadsheet-style file name of a 0-based column: a..z, aa, ab, ..."""
    label = ""
    col += 1
    while col:
        col, digit = divmod(col - 1, 26)
        label = chr(ord("a") + digit) + label
    return label


def _build(rows: int, cols: int, directions: tuple[str, ...]) -> BoardGraph:
    if rows < 1 or cols < 1:
        raise ValueError("board dimensions must be positive")
    neighbors = []
    for name in directions:
        dr, dc = _DIR_VECTORS[name]
        table = []
        for r in range(rows):
            for c in range(cols):
                nr, nc = r + dr, c + dc
                if 0 <= nr < rows and 0 <= nc < cols:
                    table.append(nr * cols + nc)
                else:
                    table.append(OFF_BOARD)
        neighbors.append(table)
    files = [_file_label(c) for c in range(cols)]
    labels = [f"{files[c]}{rows - r}" for r in range(rows) for c in range(cols)]
    return BoardGraph(rows, cols, directions, neighbors, labels)


def build_rectangle_board(rows: int, cols: int) -> BoardGraph:
    """Rectangular board with the 8 queen-adjacency directions."""
    board = _build(rows, cols, RECT_DIRECTIONS)
    board.sides = {
        "top": frozenset(range(cols)),
        "bottom": frozenset(range((rows - 1) * cols, rows * cols)),
        "left": frozenset(range(0, rows * cols, cols)),
        "right": frozenset(range(cols - 1, rows * cols, cols)),
    }
    return board


def build_hex_board(size: int) -> BoardGraph:
    """Hex rhombus of the given side, 6-neighbor adjacency."""
    board = _build(size, size, HEX_DIRECTIONS)
    board.sides = {
        "top": frozenset(range(size)),
        "bottom": frozenset(range((size - 1) * size, size * size)),
        "left": frozenset(range(0, size * size, size)),
        "right": frozenset(range(size - 1, size * size, size)),
    }
    return board
