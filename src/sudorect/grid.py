"""Partial Sudoku squares of order n = k².

A grid cell holds either a value in [1, n] or the empty marker ``None``.
Grids are plain mutable containers: placing a conflicting value is allowed
and later reported by :func:`validate`, so files with broken content can be
loaded and diagnosed instead of rejected at parse time.  A grid holds
only its cells: row, column and block contents and the filled count are
read from them when asked for, :meth:`SudokuGrid.from_rows` and
:func:`parse` check every entry and then fill the cells in bulk, and
:meth:`SudokuGrid.audit` detects an entry written past the API.  The gates
follow the filled rows: the bulk proof behind :func:`validate` and
:meth:`SudokuGrid.from_rows` passes over a row whose entries are all None,
and :func:`parse` maps a canonical blank line straight to an empty row, so
checking an m-rectangle reads m rows, not n.  The bulk proof type-checks
those rows first, then builds one set per row, column and block; it cuts
each band's blocks as slices of the band's entries read column by column,
and skips counting the empty cells of a unit that holds none.

All public row/column indices are 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, compress, repeat
from operator import is_, is_not
from typing import NamedTuple, Optional, Sequence


class GridError(Exception):
    """Bad use of the grid API (out-of-range index, occupied cell, ...)."""


class ParseError(GridError):
    """Grid text that does not match the file format."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", token {column}" if column is not None else "") + ")"
        super().__init__(message + where)


class CellRef(NamedTuple):
    row: int
    col: int


class BlockIndex(NamedTuple):
    block_row: int
    block_col: int


class Order:
    """Grid geometry for side n = k² with k×k blocks."""

    __slots__ = ("k", "n")

    def __init__(self, k: int):
        if type(k) is not int or k < 1:
            raise GridError(f"block side must be a positive integer, got {_clip(repr(k))}")
        self.k = k
        self.n = k * k

    def __eq__(self, other) -> bool:
        return isinstance(other, Order) and other.k == self.k

    def __hash__(self) -> int:
        return hash(("Order", self.k))

    def __repr__(self) -> str:
        return f"Order(k={self.k})"


@dataclass(frozen=True)
class RectShape:
    """Decomposition m = l·k + r of a rectangle's filled row count."""

    m: int
    l: int
    r: int

    @classmethod
    def of(cls, m: int, k: int) -> "RectShape":
        l, r = divmod(m, k)
        return cls(m=m, l=l, r=r)


@dataclass(frozen=True)
class Violation:
    """One witnessing pair of conflicting cells (or a malformed entry).

    ``kind`` is one of ``"row"``, ``"column"``, ``"block"``, ``"malformed"``.
    For ``"malformed"`` both cells name the offending entry.
    """

    kind: str
    first: CellRef
    second: CellRef

    def describe(self) -> str:
        if self.kind == "malformed":
            return f"malformed entry at ({self.first.row},{self.first.col})"
        return (
            f"{self.kind} condition violated by cells "
            f"({self.first.row},{self.first.col}) and ({self.second.row},{self.second.col})"
        )


class SudokuGrid:
    """An n×n partial Sudoku square; its cells are its only state.

    Every write goes through :meth:`set`, :meth:`clear`, :meth:`from_rows`
    or :func:`parse`, which check indices and values, so a cell holds
    either ``None`` or an int in [1, n].  Row, column and block contents
    and the filled count are read from the cells when asked for;
    :meth:`audit` checks the entries.
    """

    __slots__ = ("order", "_cells")

    def __init__(self, order: Order | int):
        self.order = order if isinstance(order, Order) else Order(order)
        n = self.order.n
        self._cells: list[list[Optional[int]]] = [[None] * n for _ in range(n)]

    # -- geometry helpers

    def _check_index(self, row: int, col: int) -> None:
        n = self.order.n
        if not (1 <= row <= n and 1 <= col <= n):
            raise GridError(f"cell ({_clip(str(row))},{_clip(str(col))}) outside 1..{n}")

    # -- cell access

    def get(self, row: int, col: int) -> Optional[int]:
        self._check_index(row, col)
        return self._cells[row - 1][col - 1]

    def set(self, row: int, col: int, value: int) -> None:
        """Place ``value``; the cell must currently be empty.

        Conflicting placements are stored, not rejected: validity is a
        property checked by :func:`validate`, not an insertion constraint.
        """
        self._check_index(row, col)
        n = self.order.n
        if type(value) is not int or not (1 <= value <= n):  # bool is not a value
            raise GridError(f"value {_clip(repr(value))} outside 1..{n}")
        if self._cells[row - 1][col - 1] is not None:
            raise GridError(f"cell ({row},{col}) already filled; clear it first")
        self._cells[row - 1][col - 1] = value

    def clear(self, row: int, col: int) -> None:
        self._check_index(row, col)
        self._cells[row - 1][col - 1] = None

    # -- queries used by the completion pipeline

    def column_values(self, col: int) -> set[int]:
        return {row[col - 1] for row in self._cells} - {None}

    def block_values(self, block: tuple[int, int]) -> set[int]:
        """The values in block (block_row, block_col): a ``BlockIndex`` or
        a plain pair, such as a witness rebuilt from the CLI's line."""
        k = self.order.k
        block_row, block_col = block
        top, left = (block_row - 1) * k, (block_col - 1) * k
        return {v for row in self._cells[top : top + k] for v in row[left : left + k]} - {None}

    def block_columns(self, block_col: int, depth: int) -> list[tuple[Optional[int], ...]]:
        """The k columns of column block ``block_col``, rows 1..depth."""
        k = self.order.k
        left = (block_col - 1) * k
        columns = list(zip(*(row[left : left + k] for row in self._cells[:depth])))
        return columns or [()] * k

    @property
    def filled_count(self) -> int:
        return self.order.n * self.order.n - sum(row.count(None) for row in self._cells)

    def is_full(self) -> bool:
        return not any(None in row for row in self._cells)

    def rows(self, stop: Optional[int] = None) -> list[tuple[Optional[int], ...]]:
        """The first ``stop`` rows (all n by default), as tuples."""
        return [tuple(row) for row in self._cells[:stop]]

    # -- value semantics

    def copy(self) -> "SudokuGrid":
        dup = SudokuGrid.__new__(SudokuGrid)
        dup.order = self.order
        dup._cells = [row[:] for row in self._cells]
        return dup

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SudokuGrid)
            and other.order == self.order
            and other._cells == self._cells
        )

    __hash__ = None  # mutable container

    def __repr__(self) -> str:
        return f"SudokuGrid(k={self.order.k}, filled={self.filled_count})"

    # -- consistency

    def audit(self) -> bool:
        """True iff every entry is one that :meth:`set` accepts; a write past
        the API shows here."""
        return _well_formed(self._cells, self.order.n)

    @classmethod
    def from_rows(cls, k: int, rows: Sequence[Sequence[Optional[int]]]) -> "SudokuGrid":
        """Build a grid from n rows of n entries (``None`` = empty).

        A bad entry raises the :class:`GridError` that :meth:`set` raises
        for the first one in row-major order.
        """
        order = Order(k)
        n = order.n
        if len(rows) != n or any(len(row) != n for row in rows):
            raise GridError(f"expected {n}×{n} entries")
        cells = [list(row) for row in rows]
        if not _well_formed(_filled_rows(cells), n):
            scratch = cls(order)
            for r, row in enumerate(cells, start=1):  # raises at the first bad entry
                for c, v in enumerate(row, start=1):
                    if v is not None:
                        scratch.set(r, c, v)
        return cls._adopt(order, cells)

    @classmethod
    def _adopt(cls, order: Order, cells: list[list[Optional[int]]]) -> "SudokuGrid":
        """A grid that owns ``cells``: n fresh lists of n entries.  Nothing
        is checked here: :func:`parse` builds its entries in range, the
        completion pipeline and the widening prove theirs with a final
        :func:`validate`, and a construction's column block is proved by
        the widening's input :func:`validate`."""
        grid = cls.__new__(cls)
        grid.order = order
        grid._cells = cells
        return grid


def validate(grid: SudokuGrid) -> Optional[Violation]:
    """Check the row, column and block conditions; None means valid.

    Validity is proved in bulk first, over the rows that hold a value: an
    empty row adds nothing to any row, column or block, so the proof of an
    m-rectangle reads m rows, not n.  Only a grid that fails that proof is
    searched, row by row, for the first offending cell in row-major order,
    which is reported paired with its earliest (row-major) conflicting
    partner.  When the pair sits in one block, the conflict is reported as
    a block violation even if the cells also share a column; a shared row
    wins over both.
    """
    if _valid_in_bulk(grid):
        return None
    return _first_violation(grid)


def _valid_in_bulk(grid: SudokuGrid) -> bool:
    """True iff every entry is an int in [1, n] and no row, column or block
    repeats a value: one set per filled row, column and block, built from
    the filled rows alone.  False is no verdict; the scan then finds the
    violation.

    The filled rows are type-checked before any set is built, which
    :func:`_distinct` relies on.  A band of h filled rows, read column by
    column, holds its k blocks one after another, each as k·h entries, so
    every block is one slice of the band's transposed columns."""
    n, k = grid.order.n, grid.order.k
    cells = grid._cells
    bands = [_filled_rows(cells[top : top + k]) for top in range(0, n, k)]
    filled = list(chain.from_iterable(bands))
    if not _well_formed(filled, n):
        return False
    blocks = []
    for band in filter(None, bands):
        entries = list(chain.from_iterable(zip(*band)))
        size = k * len(band)
        blocks += [entries[left : left + size] for left in range(0, len(entries), size)]
    return all(map(_distinct, chain(filled, zip(*filled), blocks)))


def _filled_rows(rows: Sequence[list[Optional[int]]]) -> list[list[Optional[int]]]:
    """The rows that hold an entry other than None, tested by identity: an
    object written past the API may compare equal to None (or refuse to
    compare), and its row must still reach the type check."""
    return [row for row in rows if any(map(is_not, row, repeat(None)))]


def _well_formed(cells: list[list[Optional[int]]], n: int) -> bool:
    """True iff every entry is None or an int (not a subclass) in [1, n]."""
    if not set(map(type, chain.from_iterable(cells))) <= {int, type(None)}:
        return False
    return {None, *range(1, n + 1)}.issuperset(chain.from_iterable(cells))


def _distinct(unit: Sequence[Optional[int]]) -> bool:
    """True iff no value repeats among the entries of ``unit`` that are not
    None.  Call it only on units that passed :func:`_well_formed`: with
    every entry an int or None, ``None in values`` holds exactly when the
    unit has an empty cell, so a unit without one skips the count."""
    values = set(unit)
    if None not in values:
        return len(values) == len(unit)
    return len(values) - 1 == len(unit) - unit.count(None)


def _first_violation(grid: SudokuGrid) -> Violation:
    """The row-major scan's verdict, with the per-cell scan run on one row
    only; call it only on a grid that failed the bulk proof.

    The first offending cell lies in the first row that is malformed,
    repeats a value, or repeats a value held above it in one of its
    columns or, within its band, one of its blocks.  Rows are checked
    whole at C level against one set of values per column and per block
    of the band; the first row that fails is scanned cell by cell.  A
    cell's partner is the earliest of its column's, its block's and its
    row's, and the pair counts as a row, else a block, else a column
    violation."""
    n, k = grid.order.n, grid.order.k
    cells = grid._cells
    contains, add = set.__contains__, set.add
    columns: list[set[int]] = [set() for _ in range(n)]
    for r, row in enumerate(cells):
        if r % k == 0:
            band = [set() for _ in range(k)]
            blocks = [band[c // k] for c in range(n)]  # each column's block
        # the type pass comes first: _distinct relies on it, the sets hold
        # no None, and after it exactly the values are truthy
        if (
            _well_formed([row], n)
            and _distinct(row)
            and not any(map(contains, columns, row))
            and not any(map(contains, blocks, row))
        ):
            values = list(compress(row, row))
            any(map(add, compress(columns, row), values))
            any(map(add, compress(blocks, row), values))
            continue
        top = r - r % k
        for c, v in enumerate(row):
            if v is None:
                continue
            here = CellRef(r + 1, c + 1)
            if type(v) is not int or not (1 <= v <= n):  # bool is not a value
                return Violation("malformed", here, here)
            if v in columns[c]:  # in the band, that cell is the block's too
                i = [above[c] for above in cells[:r]].index(v)
                return Violation("column" if i < top else "block", CellRef(i + 1, c + 1), here)
            if v in blocks[c]:
                left = c - c % k
                for i in range(top, r):
                    if v in cells[i][left : left + k]:
                        return Violation("block", CellRef(i + 1, cells[i].index(v, left) + 1), here)
            if v in row[:c]:
                return Violation("row", CellRef(r + 1, row.index(v) + 1), here)
    # the scan of a row that failed its check returns, and some row fails
    raise AssertionError("a grid that failed the bulk proof holds no offending cell")


def is_m_rectangle(grid: SudokuGrid) -> Optional[RectShape]:
    """Shape of the grid if its filled region is exactly the first m rows."""
    n = grid.order.n
    m = 0
    for r, row in enumerate(grid._cells):
        empty = row.count(None)
        if empty == 0 and m == r:
            m += 1
        elif empty != n:
            return None
    return RectShape.of(m, grid.order.k)


def is_pq_rectangle(grid: SudokuGrid) -> Optional[tuple[int, int]]:
    """(p, q) if exactly the top-left p×q region is filled; (0, 0) if empty.

    Cells are tested against None by identity, as in the gates."""
    rows = grid._cells
    q = sum(map(is_not, rows[0], repeat(None)))
    p = 0
    while q and p < len(rows) and _holds_first(rows[p], q):
        p += 1
    if _filled_rows(rows[p:]):
        return None
    return (p, q)


def _holds_first(row: list[Optional[int]], q: int) -> bool:
    """True iff the entries of ``row`` other than None are its first q."""
    return all(map(is_not, row[:q], repeat(None))) and all(map(is_, row[q:], repeat(None)))


def truncate_rows(grid: SudokuGrid, m: int) -> SudokuGrid:
    """Copy of the grid with rows m+1..n cleared."""
    n = grid.order.n
    if not (0 <= m <= n):
        raise GridError(f"row count {_clip(str(m))} outside 0..{n}")
    return SudokuGrid.from_rows(grid.order.k, grid.rows(m) + [(None,) * n] * (n - m))


def parse(text: str) -> SudokuGrid:
    """Parse the grid text format.

    Line 1 is ``k=<int>``; then exactly n lines of n whitespace-separated
    tokens, each a decimal in [1, n] or "." ("0" also means empty).  Lines
    starting with ``#`` are comments; blank lines are skipped.
    """
    data_lines: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        data_lines.append((lineno, stripped))
    if not data_lines:
        raise ParseError("empty input, expected a k=<int> header")
    header_line, header = data_lines[0]
    body = header[1:].lstrip()
    if not (header.startswith("k") and body.startswith("=")):
        raise ParseError("first line must be k=<int>", header_line)
    try:
        k = int(body[1:].strip())
    except ValueError:
        raise ParseError(f"bad block side {_clip(body[1:].strip())!r}", header_line) from None
    side = _clip(str(k))  # int() took these digits, so str() gives them back
    if k < 1:
        raise ParseError(f"block side must be >= 1, got {side}", header_line)
    n = k * k
    rows = data_lines[1:]
    if len(rows) != n:
        lineno = rows[-1][0] if rows else header_line
        raise ParseError(f"expected {_squared(k)} rows for k={side}, got {len(rows)}", lineno)
    table = _text_tables(n)[0]
    blank = " ".join(repeat(".", n))
    cells = []
    for lineno, line in rows:
        if line == blank:  # the canonical empty row: no tokens to map
            cells.append([None] * n)
            continue
        tokens = line.split()
        if len(tokens) != n:
            raise ParseError(f"expected {n} tokens, got {len(tokens)}", lineno)
        try:
            cells.append(list(map(table.__getitem__, tokens)))
        except KeyError:  # a token outside the canonical spellings
            cells.append([_parse_token(token, n, lineno, c) for c, token in enumerate(tokens, 1)])
    # every entry came from the token table or _parse_token: no second proof
    return SudokuGrid._adopt(Order(k), cells)


def _clip(text: str) -> str:
    """``text`` cut to 20 characters, so a diagnostic stays one short line."""
    return text if len(text) <= 20 else text[:20] + "…"


def _squared(k: int) -> str:
    """k² written out while k < 10¹⁰, else ``k²``: str() refuses ints of
    more than 4,300 digits, and a diagnostic stays one short line."""
    return str(k * k) if k < 10**10 else "k²"


def _parse_token(token: str, n: int, lineno: int, column: int) -> Optional[int]:
    if token == "." or token == "0":
        return None
    try:
        value = int(token)
    except ValueError:
        raise ParseError(f"bad token {_clip(token)!r}", lineno, column) from None
    if not (1 <= value <= n):
        raise ParseError(f"value {_clip(str(value))} outside 1..{n}", lineno, column)
    return value


@lru_cache(maxsize=32)
def _value_bits(n: int) -> dict[Optional[int], int]:
    """Value v -> bit v−1 of a value mask; an empty cell sets no bit.  The
    completion's matchers and the counter share it, so callers only read
    it."""
    return {None: 0, **{v: 1 << (v - 1) for v in range(1, n + 1)}}


@lru_cache(maxsize=32)
def _text_tables(n: int) -> tuple[dict[str, Optional[int]], dict[Optional[int], str]]:
    """Token -> entry and entry -> token for side n; shared between calls,
    so callers only read them."""
    names = {None: ".", **{v: str(v) for v in range(1, n + 1)}}
    return {"0": None, **{name: v for v, name in names.items()}}, names


def render(grid: SudokuGrid) -> str:
    """Canonical text form: single spaces, "." for empty, k=<int> header."""
    names = _text_tables(grid.order.n)[1]
    lines = [" ".join(map(names.__getitem__, row)) for row in grid._cells]
    return f"k={grid.order.k}\n" + "\n".join(lines) + "\n"
