"""Seeded benchmark inputs, built without calling the program under test.

Full squares come from the classic pattern square
``value(r, c) = ((r mod k)·k + r div k + c) mod n + 1`` and its images under
Sudoku symmetries: value relabelling, row moves inside a band, band moves,
column moves inside a stack and stack moves.  Rectangles that must keep
their completion count or their non-completability (the frozen inputs in
``data/frozen.json``) only get the moves that map the filled rows onto the
filled rows: relabelling, column moves, row moves inside a full band, moves
of the full bands, and row moves inside the partial band.

Nothing here imports ``sudorect``: a change to the program cannot change the
corpus it is measured on.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Optional, Sequence

DATA = Path(__file__).resolve().parent / "data" / "frozen.json"

Rows = list[list[Optional[int]]]


def pattern_square(k: int) -> list[list[int]]:
    n = k * k
    return [[((r % k) * k + r // k + c) % n + 1 for c in range(n)] for r in range(n)]


def _relabel(rows: Sequence[Sequence[Optional[int]]], n: int, rng: random.Random) -> Rows:
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return [[None if v is None else perm[v - 1] for v in row] for row in rows]


def _column_order(k: int, rng: random.Random, move_stacks: bool) -> list[int]:
    stacks = list(range(k))
    if move_stacks:
        rng.shuffle(stacks)
    order = []
    for s in stacks:
        inner = list(range(k))
        rng.shuffle(inner)
        order.extend(s * k + i for i in inner)
    return order


def _row_order(k: int, m: int, rng: random.Random) -> list[int]:
    """Order of the first m rows that keeps full bands full and the partial band last."""
    full, r = divmod(m, k)
    bands = list(range(full))
    rng.shuffle(bands)
    order = []
    for b in bands:
        inner = list(range(k))
        rng.shuffle(inner)
        order.extend(b * k + i for i in inner)
    tail = list(range(full * k, m))
    rng.shuffle(tail)
    return order + tail


def square_image(square: Sequence[Sequence[int]], k: int, rng: random.Random) -> Rows:
    """Image of a full square under all five symmetry moves."""
    n = k * k
    rows = _relabel(square, n, rng)
    rows = [rows[i] for i in _row_order(k, n, rng)]
    cols = _column_order(k, rng, move_stacks=True)
    return [[row[c] for c in cols] for row in rows]


def rectangle_image(
    rows: Sequence[Sequence[int]], k: int, rng: random.Random, move_stacks: bool = True
) -> Rows:
    """Image of an m-row rectangle that keeps its shape and its completions.

    ``move_stacks=False`` keeps every column in its stack, so a jam in the
    first column block stays there and the work done before the program
    finds it does not depend on the seed.
    """
    m = len(rows)
    out = _relabel(rows, k * k, rng)
    out = [out[i] for i in _row_order(k, m, rng)]
    cols = _column_order(k, rng, move_stacks)
    return [[row[c] for c in cols] for row in out]


def pad(rows: Sequence[Sequence[Optional[int]]], k: int) -> Rows:
    """The rows as a full n×n grid, empty below them."""
    n = k * k
    return [list(r) for r in rows] + [[None] * n for _ in range(n - len(rows))]


def to_text(k: int, grid: Sequence[Sequence[Optional[int]]]) -> str:
    """The grid file format: ``k=<int>`` then n lines, "." for empty."""
    lines = [f"k={k}"]
    for row in grid:
        lines.append(" ".join("." if v is None else str(v) for v in row))
    return "\n".join(lines) + "\n"


def guaranteed(k: int, m: int) -> bool:
    """The paper's shape predicate on m = l·k + r."""
    l, r = divmod(m, k)
    return r == 0 or l == k - 1 or (k - r) * (k - l) >= l * k


def non_guaranteed_shapes(k: int) -> list[int]:
    return [m for m in range(k * k + 1) if not guaranteed(k, m)]


def load_frozen() -> dict:
    """Inputs frozen once from the program (see ``freeze.py``)."""
    raw = json.loads(DATA.read_text(encoding="utf-8"))

    def rows_of(entry: dict) -> list[list[int]]:
        return [[int(t) for t in line.split()] for line in entry["rows"]]

    return {
        "figure1": rows_of(raw["figure1"]),
        "rejections": [dict(e, rows=rows_of(e)) for e in raw["rejections"]],
        "counts": [dict(e, rows=rows_of(e)) for e in raw["counts"]],
    }
