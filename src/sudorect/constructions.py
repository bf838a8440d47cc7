"""Construction of non-completable Sudoku rectangles.

For every (k, m) that the shape predicate marks non-guaranteed, a single
k-column rectangle is built whose bottom partial block jams the first few
columns: the values their remaining cells could take are fewer than the
cells demand.  The column block is then widened to the full m×n rectangle
(which preserves non-completability, since the obstruction lives entirely
in the first column block).

Every recipe works on raw matrices stacked from Lemma 2 building blocks
(:func:`_lemma2_matrix`, a rotation of disjoint value parts).  There are
three structural recipes, selected by the shape:

* case "a" (l < k/2): two building-block rectangles side by side over
  disjoint value halves; the values of the right part's trailing rows are
  recycled, column by column, into fresh rows for the left part;
* case "b" (l >= k/2, k even): a 2×2 stack of four building blocks over
  the low/high value halves, followed by two in-block swaps and two
  overwrites that concentrate the high values in the bottom block;
* case "c" (l >= k/2, k odd): same idea with unbalanced halves; the right
  top block's part 0 takes a different low part in each block row.

Every recipe ends with the widening, which validates the column block and
the widened rectangle, and a completion run that must reject with a
witness that replays; a construction that fails any of these checks
raises instead of returning.  The column block enters the grid unchecked
(:func:`_matrix_to_grid` checks its shape only), so the widening's two
gates are the only proofs of well-formedness a construction runs.  All
placements are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .completion import (
    NotCompletable,
    _complete_valid,
    decide_guaranteed,
    extend_column_blocks,
    verify_certificate,
)
from .grid import GridError, Order, SudokuGrid, _clip


class ConstructionError(Exception):
    """Precondition failure or an internal integrity check that fired."""


@dataclass(frozen=True)
class CounterexampleReport:
    """A verified non-completable m×n rectangle."""

    rectangle: SudokuGrid
    case_used: str  # "a" | "b" | "c"
    special_elements: Optional[tuple[int, int, int]]  # (x, x1, x2) for b/c
    witness: NotCompletable


def canonical_partition(k: int, count: int, start: int = 1) -> list[list[int]]:
    """``count`` consecutive runs of k values beginning at ``start``."""
    return [list(range(start + i * k, start + (i + 1) * k)) for i in range(count)]


def _lemma2_matrix(
    a: int, b: int, k: int, parts: Sequence[Sequence[int]]
) -> list[list[int]]:
    """The paper's Lemma 2 building block: a raw a·k × b matrix from c =
    max(a, b) ordered parts of k values each.

    Column j+1 of block row i+1 holds part (i+j) mod c in the given order.
    The columns of one block row then carry pairwise disjoint parts (block
    and row conditions), and so do the block rows of one column (column
    condition).  The recipes pass well-formed parts; the widening validates
    what they build.
    """
    c = max(a, b)
    rows = [[0] * b for _ in range(a * k)]
    for i in range(a):
        for j in range(b):
            part = parts[(i + j) % c]
            for t in range(k):
                rows[i * k + t][j] = part[t]
    return rows


def figure1_fixture() -> SudokuGrid:
    """The classic 5×9 rectangle with no valid completion."""
    rows = [
        [1, 2, 3, 4, 5, 6, 7, 8, 9],
        [4, 5, 6, 7, 8, 9, 1, 2, 3],
        [7, 8, 9, 1, 2, 3, 4, 5, 6],
        [8, 3, 2, 5, 6, 1, 9, 4, 7],
        [9, 6, 5, 8, 4, 7, 2, 3, 1],
    ]
    return _matrix_to_grid(rows, 3)


# -- matrix helpers (constructions work on raw m×k column blocks) -----------


def _column(matrix: list[list[int]], col: int) -> list[int]:
    return [row[col - 1] for row in matrix]


def _beside(left: list[list[int]], right: list[list[int]]) -> list[list[int]]:
    if len(left) != len(right):
        raise ConstructionError("side-by-side pieces must have equal heights")
    return [lr + rr for lr, rr in zip(left, right)]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConstructionError("construction integrity check failed: " + message)


def _matrix_to_grid(matrix: list[list[int]], k: int) -> SudokuGrid:
    """The matrix as the top-left corner of an otherwise empty grid.

    Only the shape is checked here.  The grid adopts fresh rows without
    checking their entries: a construction's first gate is the widening's
    input :func:`~sudorect.grid.validate`, which proves every entry and
    every unit of the column block."""
    order = Order(k)
    n = order.n
    if len(matrix) > n or any(len(row) > n for row in matrix):
        raise GridError(f"expected {n}×{n} entries")
    rows = [row + [None] * (n - len(row)) for row in matrix]
    return SudokuGrid._adopt(order, rows + [[None] * n for _ in range(n - len(rows))])


# -- case a: l < k/2 ---------------------------------------------------------


def _case_a_matrix(k: int, l: int, r: int) -> list[list[int]]:
    m = l * k + r
    low = canonical_partition(k, l)  # values 1..lk
    high = canonical_partition(k, k - l, start=l * k + 1)  # values lk+1..k²
    right_full = _lemma2_matrix(l + 1, k - l, k, high)  # (l+1)k rows × k−l cols
    right = right_full[:m]
    pool = sorted({v for row in right_full[m:] for v in row})
    _require(len(pool) == (k - r) * (k - l), "recycled value pool has wrong size")
    if l + r > k:
        # the first k(l+r−k) cells of the kept partial rows, row by row, give
        # their values to the pool and take 1, 2, 3, ...; right holds only
        # values above lk, so none of these repeats in a row or column
        transfer_count = k * (l + r - k)
        _require(
            (k - l) * r > transfer_count,
            "kept partial rows cannot spare enough values",
        )
        for t in range(transfer_count):
            row, col = right[l * k + t // (k - l)], t % (k - l)
            pool.append(row[col])
            row[col] = t + 1
    _require(len(pool) >= l * r, "not enough recycled values for the new rows")
    _require(len(set(pool)) == len(pool), "recycled values repeat")
    # r new rows for the left part, filled from the pool column by column
    fresh_rows = [[pool[j * r + i] for j in range(l)] for i in range(r)]
    return _beside(_lemma2_matrix(l, l, k, low) + fresh_rows, right)


# -- case b: l >= k/2, k even ------------------------------------------------


def _case_b_matrix(k: int, l: int, r: int) -> tuple[list[list[int]], tuple[int, int, int]]:
    if k == 4:
        return _case_b_matrix_k4(l, r)
    c = k // 2
    m = l * k + r
    low = canonical_partition(k, c)  # F parts over 1..k²/2
    high = canonical_partition(k, c, start=c * k + 1)  # G parts
    perm3 = [high[1]] + [high[i] for i in range(3, c)] + [high[2], high[0]]
    perm4 = list(reversed(low))
    a_bottom = l + 1 - c
    top = _beside(_lemma2_matrix(c, c, k, low), _lemma2_matrix(c, c, k, high))
    bottom = _beside(
        _lemma2_matrix(a_bottom, c, k, perm3), _lemma2_matrix(a_bottom, c, k, perm4)
    )
    matrix = (top + bottom)[:m]

    special = (low[0][-1], high[0][-1], high[2][-1])
    return _jam(matrix, k, l, special, (1, c + 1), (c, c + 2))


def _case_b_matrix_k4(l: int, r: int) -> tuple[list[list[int]], tuple[int, int, int]]:
    """k = 4 needs its own layout: the general recipe reads ``high[2]``,
    and at k = 4 (c = 2) the high half has only two parts.

    Rows 1-8 are the general top half, except column 4, rows 5-8, which
    hold 9..12 rotated by one; the bottom-right 4×2 is
    ``_lemma2_matrix(1, 2, 4, [low[1], low[0]])``.  Only the bottom-left
    4×2 is bespoke.  Together they free two distinct high values (12 and
    9) for the bottom block."""
    _require(l == 2, f"k=4 jammed shapes all have l=2, got l={l}")
    columns = [
        [1, 2, 3, 4, 5, 6, 7, 8, 10, 13, 14, 12],
        [5, 6, 7, 8, 1, 2, 3, 4, 11, 15, 16, 9],
        [9, 10, 11, 12, 13, 14, 15, 16, 5, 6, 7, 8],
        [13, 14, 15, 16, 10, 11, 12, 9, 1, 2, 3, 4],
    ]
    matrix = [[columns[j][i] for j in range(4)] for i in range(8 + r)]
    return _jam(matrix, 4, l, (4, 12, 9), (1, 3), (2, 4))  # case b's columns at c = 2


# -- case c: l >= k/2, k odd -------------------------------------------------


def _case_c_matrix(k: int, l: int, r: int) -> tuple[list[list[int]], tuple[int, int, int]]:
    c = (k + 1) // 2  # ceil(k/2)
    m = l * k + r
    low = canonical_partition(k, c)  # F parts over 1..kc
    high = canonical_partition(k, c - 1, start=c * k + 1)  # G parts

    left_top = _lemma2_matrix(c, c - 1, k, low)
    right_top = _lemma2_matrix(c, c, k, [low[-1]] + high)
    # part 0 sits in column −i mod c of block row i; rows 1..c−1 take low[i−1]
    for i in range(1, c):
        for t, v in enumerate(low[i - 1]):
            right_top[i * k + t][-i % c] = v

    a3 = l + 1 - c
    left_bottom = _lemma2_matrix(a3, c - 1, k, list(reversed(high)))
    right_bottom = _lemma2_matrix(l + 2 - c, c, k, list(reversed(low)))[k:]
    matrix = (_beside(left_top, right_top) + _beside(left_bottom, right_bottom))[:m]

    special = (low[1][-1], high[c - 2][-1], high[0][-1])
    return _jam(matrix, k, l, special, (2, k), (1, c))


# -- the jam step shared by cases b and c ------------------------------------


def _jam(
    matrix: list[list[int]],
    k: int,
    l: int,
    special: tuple[int, int, int],
    first: tuple[int, int],
    second: tuple[int, int],
) -> tuple[list[list[int]], tuple[int, int, int]]:
    """The last step of cases b and c, in place: the two swaps and the two
    overwrites that move x1 and x2 into the bottom block.

    With ``first`` = (a1, b1) and ``second`` = (a2, b2), x sits in row k at
    column a1 and in row 2k at column a2, with x1 in row k at column b1 and
    x2 in row 2k at column b2.  Each pair is swapped, and x1 and x2 then
    overwrite columns b1 and b2 of row l·k + 1, the bottom block's first
    row.  Every placement is checked against the columns and rows first.
    """
    x, x1, x2 = special
    (a1, b1), (a2, b2) = first, second
    _require(
        matrix[k - 1][a1 - 1] == x == matrix[2 * k - 1][a2 - 1]
        and matrix[k - 1][b1 - 1] == x1
        and matrix[2 * k - 1][b2 - 1] == x2,
        "special elements are not at their anchors",
    )
    _require(
        x not in _column(matrix, b1) + _column(matrix, b2)
        and x1 not in _column(matrix, a1)
        and x2 not in _column(matrix, a2),
        "a swap would repeat a value in a column",
    )
    bottom = [v for row in matrix[l * k :] for v in row]
    _require(x1 not in bottom and x2 not in bottom, "x1 or x2 sits in the bottom block")
    top, middle, row = matrix[k - 1], matrix[2 * k - 1], matrix[l * k]
    top[a1 - 1], top[b1 - 1] = x1, x
    middle[a2 - 1], middle[b2 - 1] = x2, x
    _require(
        x1 not in _column(matrix, b1) + row and x2 not in _column(matrix, b2) + row,
        "the overwrite would repeat x1 or x2",
    )
    row[b1 - 1], row[b2 - 1] = x1, x2
    return matrix, special


# -- the public construction -------------------------------------------------


def construct_counterexample(k: int, m: int) -> CounterexampleReport:
    """Build and verify a non-completable m×n rectangle.

    Raises if (k, m) is guaranteed-completable.  The returned rectangle is
    full-width (m×n): the jammed k-column block is widened first, which
    validates it and the result, and the completion rejection and its
    witness are re-verified here.
    """
    if k < 2:
        raise ConstructionError("constructions need k >= 2")
    verdict = decide_guaranteed(k, m)
    if verdict.guaranteed:
        raise ConstructionError(
            f"every valid rectangle with k={_clip(str(k))}, m={_clip(str(m))}"
            f" is completable ({verdict.reason})"
        )
    l, r = divmod(m, k)
    special: Optional[tuple[int, int, int]] = None
    if 2 * l < k:
        case_used = "a"
        matrix = _case_a_matrix(k, l, r)
    elif k % 2 == 0:
        case_used = "b"
        matrix, special = _case_b_matrix(k, l, r)
    else:
        case_used = "c"
        matrix, special = _case_c_matrix(k, l, r)

    # extend_column_blocks validates both the column block and its output,
    # so the completion run skips its own validity gate
    rectangle = extend_column_blocks(_matrix_to_grid(matrix, k))
    outcome = _complete_valid(rectangle, None)
    _require(
        isinstance(outcome, NotCompletable),
        "constructed rectangle is unexpectedly completable",
    )
    _require(
        verify_certificate(rectangle, outcome),
        "rejection witness does not replay",
    )
    return CounterexampleReport(
        rectangle=rectangle,
        case_used=case_used,
        special_elements=special,
        witness=outcome,
    )
