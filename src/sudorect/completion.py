"""Completion of m×n Sudoku rectangles by matching plus edge coloring.

A rectangle whose first m = l·k + r rows are filled is completed row block
by row block.  For the (possibly partial) row block l+1, each of its k
blocks gets a degree-constrained matching that assigns k−r fresh values to
every column of the block (stage 1); the union of the assignments over the
whole row block is a (k−r)-regular bipartite graph whose edge coloring
names the empty row for every value (stage 2).  Full row blocks below are
the same procedure with r = 0.  Infeasibility of a stage-1 matching in the
first, partial row block is the one and only source of "not completable",
and it comes with a deficient-column-set certificate that can be replayed
against the input grid.

Both stages run in one step, ``_row_block``: stage 1 on each block it is
handed, on value bitmasks with ``bipartite._assign_on_masks``, then
stage 2 on the union of the assigned masks.  The seeded stage 1 of
:func:`complete_randomized` runs the same matcher under a random order of
the value bits, and its stage 2 colours the columns in a random order.  The
pipeline calls the step once per row block and keeps one value mask per
column: it reads a column block from the grid when stage 1 first reaches
it, and the step ORs in the values stage 1 gives each column, so later row
blocks read nothing.  Stage 2 colours the masks' (column, value) edges into
the row block's new rows along Kőnig's alternating paths with
``bipartite._color_masks``, the replay on masks of the loop behind
:func:`edge_color`: it walks the masks' bits, with no edge list, and its
partner table, read column by column, is the new rows.  Once the last row
block is coloured, the pipeline copies the given rows, adds the new ones,
builds the square from them once and proves it once with :func:`validate`;
a rejection copies nothing.  The column-block widening is the same step on
rows: one call per new column block, whose colours name the new columns.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain
from typing import Iterator, Optional, Union

from .bipartite import KernelError, _assign_on_masks, _color_masks
from .grid import (
    BlockIndex,
    SudokuGrid,
    _echo,
    _squared,
    _value_bits,
    is_m_rectangle,
    is_pq_rectangle,
    validate,
)


class CompletionError(Exception):
    """Precondition violation or an internal pipeline inconsistency."""


@dataclass(frozen=True)
class Completability:
    """Whether every valid rectangle with m filled rows is completable."""

    k: int
    m: int
    guaranteed: bool
    reason: Optional[str]  # "r=0" | "l=k-1" | "product" | None


@dataclass(frozen=True)
class NotCompletable:
    """Rejection witness: a deficient column set in one block.

    ``columns`` are absolute 1-based column indices inside ``block``;
    ``candidates`` is every value those columns could still take, which is
    too few to give each column ``quota`` fresh values.
    """

    block: BlockIndex
    quota: int
    columns: tuple[int, ...]
    candidates: tuple[int, ...]


CompletionOutcome = Union[SudokuGrid, NotCompletable]


def decide_guaranteed(k: int, m: int) -> Completability:
    """Evaluate the three shape conditions on m = l·k + r."""
    if k < 1:
        raise CompletionError(f"block side must be >= 1, got {_echo(k)}")
    if not (0 <= m <= k * k):
        raise CompletionError(f"row count {_echo(m)} outside 0..{_squared(k)}")
    l, r = divmod(m, k)
    if r == 0:
        return Completability(k, m, True, "r=0")
    if l == k - 1:
        return Completability(k, m, True, "l=k-1")
    if (k - r) * (k - l) >= l * k:
        return Completability(k, m, True, "product")
    return Completability(k, m, False, None)


def _mask_values(mask: int) -> list[int]:
    """The values whose bits are set in ``mask``, in increasing order."""
    values = []
    while mask:
        low = mask & -mask
        values.append(low.bit_length())
        mask ^= low
    return values


def _block_masks(columns: list[tuple[Optional[int], ...]], n: int) -> tuple[int, list[int]]:
    """The values in the block at the bottom of ``columns``, and in each
    whole column, as masks.

    ``columns`` are the k columns of one column block, read down to the
    last row of a block; rows below it are empty in an m-rectangle.
    """
    bits = _value_bits(n)
    k = len(columns)
    present = sum(map(bits.__getitem__, {v for column in columns for v in column[-k:]}))
    return present, [sum(map(bits.__getitem__, set(column))) for column in columns]


def _relabel(mask: int, to: list[int]) -> int:
    """``mask`` with each bit i moved to bit ``to[i]``."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << to[low.bit_length() - 1]
        mask ^= low
    return out


def _stage1(
    block: BlockIndex,
    quota: int,
    offered: int,
    taken: list[int],
    rng: random.Random | None,
) -> Union[list[int], NotCompletable]:
    """Stage 1 of one block on value masks: the mask of values each column
    of the block gets, in column order, or the deficient-set witness.

    ``offered`` holds the values absent from the block, ``taken`` the
    values already in each column; a column may take the offered values
    it lacks.  With ``rng`` the matching runs under a random order of the
    value bits, drawn once per call.
    """
    k = len(taken)  # a block has k columns, a value mask n = k² bits
    eligible = [offered & ~mask for mask in taken]
    if rng is None:
        assigned, reached = _assign_on_masks(eligible, quota, offered)
    else:
        to = list(range(k * k))
        rng.shuffle(to)
        assigned, reached = _assign_on_masks(
            [_relabel(mask, to) for mask in eligible], quota, _relabel(offered, to)
        )
        back = sorted(range(len(to)), key=to.__getitem__)
        assigned = [_relabel(mask, back) for mask in assigned]
    if not reached:
        return assigned
    candidates = 0
    for ci in reached:
        candidates |= eligible[ci]
    if candidates.bit_count() >= quota * len(reached):
        raise KernelError("deficient column set failed its own deficiency check")
    left = (block.block_col - 1) * k
    return NotCompletable(
        block=block,
        quota=quota,
        columns=tuple(left + ci + 1 for ci in reached),
        candidates=tuple(_mask_values(candidates)),
    )


def _stage2(k: int, quota: int, masks: list[int], rng: random.Random | None) -> list[list[int]]:
    """Stage 2 on one value mask per left vertex: ``quota`` lists of
    ``len(masks)`` entries, one per colour.

    The (left vertex, value) edges, in mask order and increasing value
    order, are coloured with ``quota`` colours by Kőnig's rule, the
    replay of :func:`edge_color`'s loop on masks.  In the pipeline the
    masks are the n columns' stage-1 values and each colour names a new
    row; in the widening they are the rows' assigned values and each
    colour names a new column.  With ``rng`` the left vertices are
    coloured in a random order, drawn once per call.  A value used more
    than ``quota`` times needs a colour past ``quota``, which the kernel
    refuses; a colouring that clashes leaves a hole (None), which the
    callers refuse.
    """
    for c, mask in enumerate(masks):
        if mask.bit_count() != quota:
            raise CompletionError(f"column {c + 1} got {mask.bit_count()} values, expected {quota}")
    if rng is not None:
        order = list(range(len(masks)))
        rng.shuffle(order)
        masks = [masks[c] for c in order]
    try:
        rows = _color_masks(masks, quota, k * k)
    except KernelError as err:
        raise CompletionError("assignments are not value-regular; stage-1 bug") from err
    if rng is not None:
        back = sorted(range(len(order)), key=order.__getitem__)
        rows = [[row[i] for i in back] for row in rows]
    return rows


def _row_block(
    k: int,
    quota: int,
    blocks: Iterator[tuple[BlockIndex, int, list[int]]],
    rng: random.Random | None,
) -> Union[list[list[int]], NotCompletable]:
    """Both stages for one row block: stage 2's rows, or the first witness.

    ``blocks`` yields, per block, its index, its offered values and the
    value mask of each of its left vertices; stage 1 runs on each in turn
    and ORs the values it assigns into those masks.  Stage 2 then colours
    the assigned masks, in the order the blocks came.
    """
    assigned: list[int] = []
    for block, offered, masks in blocks:
        outcome = _stage1(block, quota, offered, masks, rng)
        if isinstance(outcome, NotCompletable):
            return outcome
        for j, mask in enumerate(outcome):
            masks[j] |= mask
        assigned += outcome
    return _stage2(k, quota, assigned, rng)


def _complete(grid: SudokuGrid, rng: random.Random | None) -> CompletionOutcome:
    violation = validate(grid)
    if violation is not None:
        raise CompletionError(f"input grid is invalid: {violation.describe()}")
    return _complete_valid(grid, rng)


def _complete_valid(grid: SudokuGrid, rng: random.Random | None) -> CompletionOutcome:
    """:func:`_complete` past its validity gate, for a grid known to be valid."""
    shape = is_m_rectangle(grid)
    if shape is None:
        raise CompletionError("input is not an m-rectangle (first m rows filled)")
    n, k = grid.order.n, grid.order.k
    full = (1 << n) - 1
    masks: list[Optional[list[int]]] = [None] * k

    def blocks(b: int) -> Iterator[tuple[BlockIndex, int, list[int]]]:
        # a column block is read when stage 1 first reaches it; a row block
        # after the first is empty, so every value is offered there
        for d in range(1, k + 1):
            if masks[d - 1] is None:
                present, masks[d - 1] = _block_masks(grid.block_columns(d, b * k), n)
                yield BlockIndex(b, d), full & ~present, masks[d - 1]
            else:
                yield BlockIndex(b, d), full, masks[d - 1]

    new_rows: list[list[int]] = []
    for b in range(shape.l + 1, k + 1):
        top = max(shape.m, (b - 1) * k)
        outcome = _row_block(k, b * k - top, blocks(b), rng)
        if isinstance(outcome, NotCompletable):
            if top % k:
                return outcome
            raise CompletionError(f"full row block {b} unexpectedly infeasible; pipeline bug")
        new_rows += outcome  # b·k − top new rows of n entries
    # the given rows are copied only now, so a rejection copies nothing;
    # a hole or a clash in the new rows is caught here
    work = SudokuGrid._adopt(grid.order, [list(row) for row in grid.rows(shape.m)] + new_rows)
    if not work.is_full() or validate(work) is not None:
        raise CompletionError("completed grid failed its own validity check")
    return work


def complete(grid: SudokuGrid) -> CompletionOutcome:
    """Complete the rectangle to a full square or reject it with a witness."""
    return _complete(grid, None)


def complete_randomized(grid: SudokuGrid, seed: int) -> CompletionOutcome:
    """Like :func:`complete` but matches under random value orders and
    colours the columns in a random order; deterministic per seed, which
    must be an int (a bool is not one).  A rejection carries the same
    witness as :func:`complete`'s."""
    if type(seed) is not int:  # None would seed from the OS
        raise CompletionError(f"seed must be an int, got {_echo(seed)}")
    return _complete(grid, random.Random(seed))


def verify_certificate(grid: SudokuGrid, witness: NotCompletable) -> bool:
    """Replay a rejection witness against the grid it was issued for.

    Recomputes, independently of the matching code, the set of values still
    placeable in the witnessed columns of the witnessed block, and checks
    that it equals the witness's ``candidates`` and is smaller than
    quota × |columns|.  Each witnessed column must be a distinct column of
    the block with at least ``quota`` empty cells there: those cells need
    distinct placeable values, so the grid then has no completion.  Every
    index, the quota and every candidate must be an int, as
    :meth:`SudokuGrid.set` requires of a value: a bool is not one.
    """
    k = grid.order.k
    n = grid.order.n
    (block_row, block_col), quota, columns = witness.block, witness.quota, witness.columns
    if any(type(x) is not int for x in (block_row, block_col, quota, *columns, *witness.candidates)):
        return False
    if not (1 <= block_row <= k and 1 <= block_col <= k and quota >= 1):
        return False
    if not columns or len(set(columns)) != len(columns):
        return False
    block_cols = range((block_col - 1) * k + 1, block_col * k + 1)
    top = (block_row - 1) * k
    for col in columns:
        if col not in block_cols:
            return False
        if sum(grid.get(top + i, col) is None for i in range(1, k + 1)) < quota:
            return False
    absent = set(range(1, n + 1)) - grid.block_values(witness.block)
    reachable: set[int] = set()
    for col in columns:
        reachable |= absent - grid.column_values(col)
    if tuple(witness.candidates) != tuple(sorted(reachable)):
        return False
    return len(reachable) < quota * len(columns)


def extend_column_blocks(grid: SudokuGrid) -> SudokuGrid:
    """Extend a rectangle filled on m rows × k columns to full width m×n.

    The partial first column block is padded with k−r rows holding, in
    increasing order, the values missing from its bottom partial block, so
    every block of the scratch column is full (the padding may break column
    uniqueness, which is why this works on a raw matrix).  Each further
    column block is then one ``_row_block`` step over the row blocks: a
    k-to-1 row/value matching per row block, then a colouring whose k
    colours name the new column for every (row, value) pair.  The padding
    rows are dropped at the end.
    """
    violation = validate(grid)
    if violation is not None:
        raise CompletionError(f"input grid is invalid: {violation.describe()}")
    k = grid.order.k
    n = grid.order.n
    pq = is_pq_rectangle(grid)
    if pq is None or (pq[1] != k and pq != (0, 0)):
        raise CompletionError(f"input must fill exactly m rows × {k} columns")
    m = pq[0]
    l, r = divmod(m, k)
    height = (l + 1) * k if r > 0 else m
    matrix: list[list[int]] = [list(row[:k]) for row in grid.rows(m)]
    if r > 0:
        # the validated partial block holds r·k distinct values, so k − r
        # chunks of k take the n − r·k missing ones
        present = set(chain.from_iterable(matrix[l * k :]))
        missing = [v for v in range(1, n + 1) if v not in present]
        for chunk in range(k - r):
            matrix.append(missing[chunk * k : (chunk + 1) * k])
    bits = _value_bits(n)
    row_masks = [
        [sum(map(bits.__getitem__, set(row))) for row in matrix[top : top + k]]
        for top in range(0, height, k)
    ]
    full = (1 << n) - 1
    for t in range(2, k + 1):
        # per row block, give each row k values it lacks; the k colours of
        # the (row, value) pairs name the k new columns
        outcome = _row_block(
            k, k, ((BlockIndex(b, t), full, masks) for b, masks in enumerate(row_masks, 1)), None
        )
        if isinstance(outcome, NotCompletable):
            raise CompletionError(
                f"column block {t}, row block {outcome.block.block_row}: matching infeasible; bug"
            )
        if any(None in column for column in outcome):
            raise CompletionError(f"column block {t} left a hole; coloring bug")
        for row, values in zip(matrix, zip(*outcome)):
            row.extend(values)

    # each kept row now holds k + (k − 1)·k = n entries
    out = SudokuGrid._adopt(grid.order, matrix[:m] + [[None] * n for _ in range(m, n)])
    violation = validate(out)
    if violation is not None:
        raise CompletionError(f"extension failed validity: {violation.describe()}")
    return out
