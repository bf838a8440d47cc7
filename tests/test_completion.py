"""The shape predicate, the two-stage pipeline, and column-block extension."""

import dataclasses
import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import coloring_is_proper, core_stage1, count_extensions_4x4, sud4_brute_force
from sudorect import completion
from sudorect import grid as grid_module
from sudorect import (
    BipartiteGraph,
    BlockIndex,
    CompletionError,
    NotCompletable,
    RectShape,
    SudokuGrid,
    complete,
    complete_randomized,
    construct_counterexample,
    decide_guaranteed,
    extend_column_blocks,
    figure1_fixture,
    is_m_rectangle,
    render,
    truncate_rows,
    validate,
    verify_certificate,
)
from sudorect.constructions import _lemma2_matrix, _matrix_to_grid, canonical_partition


# -- decide_guaranteed ---------------------------------------------------------


def test_k3_only_m5_is_not_guaranteed():
    for m in range(10):
        verdict = decide_guaranteed(3, m)
        assert verdict.guaranteed == (m != 5), m


def test_k2_always_guaranteed():
    for m in range(5):
        assert decide_guaranteed(2, m).guaranteed


def test_k4_not_guaranteed_set():
    bad = {m for m in range(17) if not decide_guaranteed(4, m).guaranteed}
    assert bad == {7, 9, 10, 11}


def test_reason_precedence():
    assert decide_guaranteed(3, 6).reason == "r=0"
    assert decide_guaranteed(3, 9).reason == "r=0"  # m = n
    assert decide_guaranteed(3, 0).reason == "r=0"
    assert decide_guaranteed(3, 7).reason == "l=k-1"
    assert decide_guaranteed(3, 1).reason == "product"
    assert decide_guaranteed(3, 5).reason is None


def test_decide_range_errors():
    with pytest.raises(CompletionError):
        decide_guaranteed(3, 10)
    with pytest.raises(CompletionError):
        decide_guaranteed(0, 0)


def test_decide_takes_a_k_too_long_for_str():
    # 5,001 digits: past the int-to-str limit, so only a failing call may print k
    k = 10**5000
    assert decide_guaranteed(k, 3).k == k
    with pytest.raises(CompletionError) as caught:
        decide_guaranteed(k, -1)
    assert str(caught.value) == "row count -1 outside 0..k²"
    # n is written out below k = 10¹⁰ and as k² from there on
    with pytest.raises(CompletionError, match=r"outside 0\.\.99999999980000000001$"):
        decide_guaranteed(10**10 - 1, -1)
    with pytest.raises(CompletionError, match=r"outside 0\.\.k²$"):
        decide_guaranteed(10**10, -1)
    with pytest.raises(CompletionError, match=r"outside 0\.\.9$"):
        decide_guaranteed(3, 10)


# -- stage 1 -------------------------------------------------------------------


def test_stage1_figure1_block1_infeasible(figure1):
    shape = is_m_rectangle(figure1)
    outcome = core_stage1(figure1, shape, BlockIndex(2, 1))
    assert isinstance(outcome, NotCompletable)
    assert 1 in outcome.columns
    assert verify_certificate(figure1, outcome)


def test_stage1_figure1_prefix_partitions_all_values(figure1):
    prefix = truncate_rows(figure1, 3)
    shape = is_m_rectangle(prefix)
    assert shape.r == 0
    outcome = core_stage1(prefix, shape, BlockIndex(2, 1))
    assert isinstance(outcome, dict)
    sets = [outcome[col] for col in (1, 2, 3)]
    assert all(len(s) == 3 for s in sets)
    union = set().union(*sets)
    assert union == set(range(1, 10))
    for col, values in outcome.items():
        for v in values:
            assert v not in prefix.column_values(col)


def test_stage1_forced_split_matches_exhaustive_assignments():
    grid = SudokuGrid(2)
    for c, v in enumerate((1, 2, 3, 4), start=1):
        grid.set(1, c, v)
    for c, v in enumerate((3, 4, 1, 2), start=1):
        grid.set(2, c, v)
    shape = is_m_rectangle(grid)
    outcome = core_stage1(grid, shape, BlockIndex(2, 1))
    # brute force: every way to give each column two fresh values with the
    # block's values pairwise distinct
    valid = []
    for c1 in itertools.combinations(range(1, 5), 2):
        for c2 in itertools.combinations(range(1, 5), 2):
            if set(c1) & set(c2):
                continue
            if any(v in grid.column_values(1) for v in c1):
                continue
            if any(v in grid.column_values(2) for v in c2):
                continue
            valid.append({1: sorted(c1), 2: sorted(c2)})
    assert valid == [{1: [2, 4], 2: [1, 3]}]
    assert outcome == valid[0]


def test_completion_reads_each_column_block_once_and_only_when_reached(monkeypatch, figure1):
    five_rows = truncate_rows(complete(SudokuGrid(3)), 5)
    reads = []
    block_columns = SudokuGrid.block_columns

    def counting(grid, block_col, depth):
        reads.append((block_col, depth))
        return block_columns(grid, block_col, depth)

    monkeypatch.setattr(SudokuGrid, "block_columns", counting)
    assert isinstance(complete(SudokuGrid(4)), SudokuGrid)
    assert reads == [(d, 4) for d in range(1, 5)]
    reads.clear()
    assert isinstance(complete(five_rows), SudokuGrid)
    assert reads == [(d, 6) for d in range(1, 4)]
    reads.clear()
    assert complete(figure1).block == BlockIndex(2, 1)
    assert reads == [(1, 6)]


# -- stage 2 -------------------------------------------------------------------


def _column_masks(assignments: dict[int, list[int]]) -> list[int]:
    """Stage 1's {column -> values} as the value masks ``_stage2`` takes."""
    return [sum(1 << (v - 1) for v in assignments[col]) for col in sorted(assignments)]


def test_stage2_two_cycles_pick_one_of_the_valid_fillings():
    grid = SudokuGrid(2)
    for c, v in enumerate((1, 2, 3, 4), start=1):
        grid.set(1, c, v)
    for c, v in enumerate((3, 4, 1, 2), start=1):
        grid.set(2, c, v)
    shape = is_m_rectangle(grid)
    assignments = {}
    for d in (1, 2):
        part = core_stage1(grid, shape, BlockIndex(2, d))
        assert isinstance(part, dict)
        assignments.update(part)
    masks = _column_masks(assignments)
    rows = completion._stage2(2, 2 - shape.r, masks, None)
    # oracle: enumerate every row-3/row-4 split of each column's pair that
    # keeps both rows duplicate-free
    valid_fillings = []
    options = [assignments[c] for c in (1, 2, 3, 4)]
    for choice in itertools.product((0, 1), repeat=4):
        row3 = [options[c][choice[c]] for c in range(4)]
        row4 = [options[c][1 - choice[c]] for c in range(4)]
        if len(set(row3)) == 4 and len(set(row4)) == 4:
            valid_fillings.append((tuple(row3), tuple(row4)))
    assert len(valid_fillings) == 4  # two independent 4-cycles, 2 choices each
    assert tuple(map(tuple, rows)) in valid_fillings
    assert rows == completion._stage2(2, 2 - shape.r, masks, None)


def test_stage2_one_empty_row_is_forced():
    square = complete(SudokuGrid(2))
    grid = truncate_rows(square, 3)
    shape = is_m_rectangle(grid)
    assert shape.r == 1
    assignments = {}
    for d in (1, 2):
        part = core_stage1(grid, shape, BlockIndex(2, d))
        assert isinstance(part, dict)
        assignments.update(part)
    rows = completion._stage2(2, 2 - shape.r, _column_masks(assignments), None)
    assert rows == [[assignments[col][0] for col in range(1, 5)]]


def test_stage2_rejects_irregular_assignments():
    # two values per column, but value 4 three times: a third colour is needed
    lopsided = _column_masks({1: [2, 4], 2: [1, 3], 3: [2, 4], 4: [1, 4]})
    with pytest.raises(CompletionError, match="not value-regular"):
        completion._stage2(2, 2, lopsided, None)
    # value-regular, but one value per column where the quota is two
    short = _column_masks({1: [1], 2: [2], 3: [3], 4: [4]})
    with pytest.raises(CompletionError, match="column 1 got 1 values, expected 2"):
        completion._stage2(2, 2, short, None)


def test_stage2_completes_figure1_prefix_to_full_square(figure1):
    prefix = truncate_rows(figure1, 3)
    square = complete(prefix)
    assert isinstance(square, SudokuGrid)
    assert square.is_full()
    assert validate(square) is None
    for c in range(1, 10):
        for r in range(1, 4):
            assert square.get(r, c) == figure1.get(r, c)


# -- complete ------------------------------------------------------------------


def test_complete_rejects_figure1_with_block_witness(figure1):
    outcome = complete(figure1)
    assert isinstance(outcome, NotCompletable)
    assert outcome.block == BlockIndex(2, 1)
    assert verify_certificate(figure1, outcome)


def test_complete_m5_instance_from_prefix_pipeline(figure1):
    # m = 5 is not guaranteed, but truncations of full squares complete
    square = complete(truncate_rows(figure1, 3))
    five = truncate_rows(square, 5)
    outcome = complete(five)
    assert isinstance(outcome, SudokuGrid)
    assert validate(outcome) is None and outcome.is_full()


def test_complete_empty_order4_is_one_of_the_288_deterministically():
    result = complete(SudokuGrid(2))
    assert isinstance(result, SudokuGrid)
    board = tuple(tuple(row) for row in result.rows())
    assert board in sud4_brute_force()
    again = complete(SudokuGrid(2))
    assert again == result


def test_complete_full_grid_returns_input():
    square = complete(SudokuGrid(2))
    again = complete(square)
    assert again == square
    # a new grid: clearing one of its cells leaves the input as it was
    assert again is not square
    again.clear(1, 1)
    assert square.is_full()


def test_complete_order1_degenerate():
    done = complete(SudokuGrid(1))
    assert isinstance(done, SudokuGrid)
    assert done.get(1, 1) == 1


def test_complete_contract_errors(figure1):
    ragged = SudokuGrid(2)
    ragged.set(2, 1, 1)
    with pytest.raises(CompletionError):
        complete(ragged)
    broken = figure1.copy()
    broken.clear(5, 9)
    broken.set(5, 9, 7)
    with pytest.raises(CompletionError):
        complete(broken)


def _colors_in_column_order(edges):
    """Colours 1, 2, ... along each column's edges: every cell gets one
    value, but one value may land twice in a row."""
    seen: dict[int, int] = {}
    colors = []
    for col, _ in edges:
        seen[col] = seen.get(col, 0) + 1
        colors.append(seen[col])
    return colors


def _all_color_one(edges):
    """Every value of a column into the same cell."""
    return [1] * len(edges)


def _coloring_kernel(coloring, proper=None):
    """A stand-in for ``_color_masks`` that colours the masks' (column,
    value) edges by ``coloring`` and writes the rows as the kernel does: a
    cell given two values keeps the last.  With ``proper``, it appends
    whether the colouring was proper."""

    def color_masks(masks, quota, n):
        edges = [(c, v) for c, mask in enumerate(masks) for v in completion._mask_values(mask)]
        colors = coloring(edges)
        if proper is not None:
            graph = BipartiteGraph.build(len(masks), n + 1, edges)
            proper.append(coloring_is_proper(graph, colors))
        rows = [[None] * len(masks) for _ in range(quota)]
        for (c, v), color in zip(edges, colors):
            rows[color - 1][c] = v
        return rows

    return color_masks


@pytest.mark.parametrize("coloring", [_colors_in_column_order, _all_color_one])
def test_clashing_stage2_coloring_raises_completion_error(monkeypatch, coloring):
    proper = []
    monkeypatch.setattr(completion, "_color_masks", _coloring_kernel(coloring, proper))
    with pytest.raises(CompletionError):
        complete(SudokuGrid(3))
    assert not all(proper)


def _five_row_column_block() -> SudokuGrid:
    square = complete(SudokuGrid(3))
    rows = [row[:3] + (None,) * 6 for row in square.rows()[:5]]
    return SudokuGrid.from_rows(3, rows + [(None,) * 9] * 4)


def test_widening_refuses_a_coloring_that_leaves_a_hole(monkeypatch):
    block = _five_row_column_block()
    monkeypatch.setattr(completion, "_color_masks", _coloring_kernel(_all_color_one))
    with pytest.raises(CompletionError, match="column block 2 left a hole"):
        extend_column_blocks(block)


def _witness_for_every_block(block, quota, offered, taken, rng):
    """A stage 1 that finds every block infeasible."""
    return NotCompletable(block=block, quota=quota, columns=(1,), candidates=())


def test_a_full_row_block_that_reports_a_witness_is_a_pipeline_bug(monkeypatch):
    # only the first, partial row block can be infeasible
    square = complete(SudokuGrid(3))
    monkeypatch.setattr(completion, "_stage1", _witness_for_every_block)
    with pytest.raises(CompletionError) as exc:
        complete(truncate_rows(square, 3))
    assert str(exc.value) == "full row block 2 unexpectedly infeasible; pipeline bug"


def test_a_widening_step_that_reports_a_witness_is_a_bug(monkeypatch):
    block = _five_row_column_block()
    monkeypatch.setattr(completion, "_stage1", _witness_for_every_block)
    with pytest.raises(CompletionError) as exc:
        extend_column_blocks(block)
    assert str(exc.value) == "column block 2, row block 1: matching infeasible; bug"


def test_widening_refuses_a_coloring_that_clashes_without_a_hole(monkeypatch):
    # each row's values take colours 1, 2, 3 in order: every cell is filled,
    # but a new column repeats a value
    block = _five_row_column_block()
    monkeypatch.setattr(completion, "_color_masks", _coloring_kernel(_colors_in_column_order))
    with pytest.raises(CompletionError) as exc:
        extend_column_blocks(block)
    assert str(exc.value).startswith("extension failed validity: ")


def test_pipeline_runs_on_masks_and_whole_rows(monkeypatch):
    # stage 2 and the widening take stage 1's masks as they are and write
    # whole rows: no mask -> value list round trip, no per-cell write
    grids, blocks = [], []
    for k in range(2, 7):
        n = k * k
        square = complete_randomized(SudokuGrid(k), k)
        cuts = sorted({1, k - 1, k + 1, n // 2 + 1, n - 1})
        grids += [SudokuGrid(k)] + [truncate_rows(square, m) for m in cuts]
        for m in cuts + [n]:
            rows = [row[:k] + (None,) * (n - k) for row in square.rows()[:m]]
            blocks.append(SudokuGrid.from_rows(k, rows + [(None,) * n] * (n - m)))

    def refuse(*args, **kwargs):
        raise AssertionError("slow path taken")

    monkeypatch.setattr(completion, "_mask_values", refuse)
    monkeypatch.setattr(SudokuGrid, "set", refuse)
    for grid in grids:
        for out in [complete(grid)] + [complete_randomized(grid, seed) for seed in range(3)]:
            assert out.is_full() and validate(out) is None
    for block in blocks:
        wide = extend_column_blocks(block)
        assert validate(wide) is None and wide.filled_count == block.filled_count * block.order.k


def test_each_pipeline_proves_well_formedness_at_its_gates_only(monkeypatch):
    # once when the input is validated and once when the output is: the
    # rows in between are collected and the square is built once
    inputs, blocks = [], []
    for k in range(2, 5):
        n = k * k
        square = complete_randomized(SudokuGrid(k), k)
        inputs += [SudokuGrid(k)] + [truncate_rows(square, m) for m in range(1, n) if m % k]
        rows = [row[:k] + (None,) * (n - k) for row in square.rows()[: k + 1]]
        blocks.append(SudokuGrid.from_rows(k, rows + [(None,) * n] * (n - k - 1)))
    calls = []
    proof = grid_module._well_formed

    def counted(cells, n):
        calls.append(n)
        return proof(cells, n)

    monkeypatch.setattr(grid_module, "_well_formed", counted)
    for run, grids in ((complete, inputs), (extend_column_blocks, blocks)):
        for grid in grids:
            calls.clear()
            assert isinstance(run(grid), SudokuGrid)
            assert len(calls) == 2, (run.__name__, render(grid))
    calls.clear()
    construct_counterexample(3, 5)  # the widening's two: the column block is adopted
    assert len(calls) == 2


def test_randomized_completion_reproducible_and_varied():
    first = complete_randomized(SudokuGrid(3), 11)
    second = complete_randomized(SudokuGrid(3), 11)
    other = complete_randomized(SudokuGrid(3), 12)
    assert first == second
    assert first != other
    assert validate(first) is None and first.is_full()


@pytest.mark.parametrize(
    "seed, shown",
    [(None, "None"), (1.5, "1.5"), ("7", "'7'"), (True, "True"), ([1], r"\[1\]")],
    ids=["None", "float", "str", "bool", "list"],
)
def test_randomized_completion_refuses_a_seed_that_is_not_an_int(seed, shown):
    # None would seed from the OS, and a list is refused by random's own
    # TypeError: either breaks the per-seed contract
    with pytest.raises(CompletionError, match=rf"^seed must be an int, got {shown}$"):
        complete_randomized(SudokuGrid(3), seed)


# -- extend_column_blocks --------------------------------------------------------


def test_extend_keeps_first_column_block():
    grid = _matrix_to_grid(_lemma2_matrix(1, 3, 3, canonical_partition(3, 3)), 3)
    wide = extend_column_blocks(grid)
    assert is_m_rectangle(wide) == RectShape(m=3, l=1, r=0)
    for r in range(1, 4):
        for c in range(1, 4):
            assert wide.get(r, c) == grid.get(r, c)


def test_widening_colours_each_new_column_block_through_stage2(monkeypatch):
    # one copy of stage 2: the widening calls _stage2 once per new column
    # block on the padded height, and never colours on its own
    stage2, color_masks = completion._stage2, completion._color_masks
    calls, inside = [], []

    def counted_stage2(k, quota, masks, rng):
        calls.append((quota, len(masks)))
        inside.append(True)
        try:
            return stage2(k, quota, masks, rng)
        finally:
            inside.pop()

    def guarded_color_masks(masks, quota, n):
        assert inside, "_color_masks called outside _stage2"
        return color_masks(masks, quota, n)

    monkeypatch.setattr(completion, "_stage2", counted_stage2)
    monkeypatch.setattr(completion, "_color_masks", guarded_color_masks)
    for k in range(2, 6):
        n = k * k
        square = complete_randomized(SudokuGrid(k), k)
        for m in sorted({1, k - 1, k, k + 1, n - 1, n}):
            rows = [row[:k] + (None,) * (n - k) for row in square.rows()[:m]]
            block = SudokuGrid.from_rows(k, rows + [(None,) * n] * (n - m))
            calls.clear()
            wide = extend_column_blocks(block)
            assert wide.filled_count == m * n
            height = -(-m // k) * k
            assert calls == [(k, height)] * (k - 1), (k, m)


def test_extend_full_column_block_gives_full_square():
    square = complete(SudokuGrid(2))
    block = SudokuGrid(2)
    for r in range(1, 5):
        for c in range(1, 3):
            block.set(r, c, square.get(r, c))
    wide = extend_column_blocks(block)
    assert wide.is_full()
    assert validate(wide) is None


@pytest.mark.parametrize("k,m", [(2, 1), (2, 3), (3, 4), (3, 5), (3, 7), (4, 6)])
def test_extend_random_column_blocks(k, m):
    square = complete_randomized(SudokuGrid(k), seed=k * 100 + m)
    block = SudokuGrid(k)
    for r in range(1, m + 1):
        for c in range(1, k + 1):
            block.set(r, c, square.get(r, c))
    wide = extend_column_blocks(block)
    assert validate(wide) is None
    shape = is_m_rectangle(wide)
    assert shape is not None and shape.m == m
    for r in range(1, m + 1):
        for c in range(1, k + 1):
            assert wide.get(r, c) == block.get(r, c)


def test_extend_rejects_non_column_block_patterns(figure1):
    with pytest.raises(CompletionError):
        extend_column_blocks(figure1)  # q = 9, not k = 3


def test_extend_empty_grid_is_identity():
    empty = SudokuGrid(3)
    wide = extend_column_blocks(empty)
    assert wide == SudokuGrid(3)
    # a new grid: filling one of its cells leaves the input as it was
    assert wide is not empty
    wide.set(1, 1, 1)
    assert empty.filled_count == 0


# -- pipeline properties ---------------------------------------------------------


@pytest.mark.parametrize("k", [2, 3])
def test_roundtrip_truncate_and_complete(k):
    for seed in range(10):
        square = complete_randomized(SudokuGrid(k), seed)
        for m in range(k * k + 1):
            out = complete(truncate_rows(square, m))
            assert isinstance(out, SudokuGrid), (k, seed, m)
            assert out.is_full() and validate(out) is None


def test_completion_extends_input(squares_k3):
    for square in squares_k3[:5]:
        grid = truncate_rows(square, 5)
        out = complete(grid)
        assert isinstance(out, SudokuGrid)
        for r in range(1, 6):
            for c in range(1, 10):
                assert out.get(r, c) == grid.get(r, c)


def test_guaranteed_shapes_complete_on_random_rectangles():
    for k in (3, 4):
        n = k * k
        squares = [complete_randomized(SudokuGrid(k), seed) for seed in range(8)]
        for m in range(n + 1):
            if not decide_guaranteed(k, m).guaranteed:
                continue
            for square in squares:
                out = complete(truncate_rows(square, m))
                assert isinstance(out, SudokuGrid), (k, m)


def test_exhaustive_k2_agreement_with_oracle_sample():
    # the full sweep runs in the acceptance suite; spot-check here
    rng = random.Random(5)
    squares = list(sud4_brute_force())
    for square in rng.sample(squares, 20):
        for m in range(5):
            rows = [
                [square[r][c] if r < m else None for c in range(4)] for r in range(4)
            ]
            grid = SudokuGrid.from_rows(2, rows)
            out = complete(grid)
            assert isinstance(out, SudokuGrid)
            assert count_extensions_4x4(rows) > 0


def test_certificate_replay_rejects_tampering(figure1):
    outcome = complete(figure1)
    assert isinstance(outcome, NotCompletable)
    # replaying against a different grid must not certify
    other = truncate_rows(figure1, 3)
    assert not verify_certificate(other, outcome)


def test_certificate_replay_rejects_forged_witnesses():
    square = complete(SudokuGrid(3))
    prefix = truncate_rows(square, 3)
    five = truncate_rows(square, 5)
    assert isinstance(complete(prefix), SudokuGrid) and isinstance(complete(five), SudokuGrid)
    forged = [
        (prefix, NotCompletable(BlockIndex(1, 1), 1, (1,), ())),  # a filled block
        (prefix, NotCompletable(BlockIndex(2, 1), 7, (1, 2, 3), ())),  # quota 7 > 3 empty rows
        (prefix, NotCompletable(BlockIndex(2, 1), 0, (1,), ())),  # quota 0
        (five, NotCompletable(BlockIndex(2, 1), 1, (1,) * 9, ())),  # one column nine times
        (square, NotCompletable(BlockIndex(1, 0), 1, (0,), ())),  # column 0 outside the grid
        (prefix, NotCompletable(BlockIndex(4, 1), 1, (1,), ())),  # block row 4 at k = 3
        (prefix, NotCompletable(BlockIndex(2, 1), 1, (4,), ())),  # a column of block (2, 2)
    ]
    for grid, witness in forged:
        assert not verify_certificate(grid, witness), witness


def test_certificate_replay_accepts_a_witness_in_block_row_1():
    # complete never issues one (every shape with l = 0 is guaranteed), but
    # cell (2, 1) here has no placeable value: 3 and 4 are in its column
    rows = [[1, 2, None, None], [None] * 4, [3, None, None, None], [4, None, None, None]]
    grid = SudokuGrid.from_rows(2, rows)
    assert verify_certificate(grid, NotCompletable(BlockIndex(1, 1), 1, (1,), ()))


def test_certificate_replay_requires_the_witnessed_candidates(figure1):
    construction = construct_counterexample(4, 9).rectangle
    for grid in (figure1, construction):
        witness = complete(grid)
        assert verify_certificate(grid, witness)
        n = grid.order.n
        wrong = [tuple(range(1, n + 1)), witness.candidates[::-1] + (n,)]
        if witness.candidates:
            wrong += [witness.candidates[1:], witness.candidates[::-1]]
        for candidates in wrong:
            forged = dataclasses.replace(witness, candidates=candidates)
            assert not verify_certificate(grid, forged), candidates
    assert complete(construction).candidates == (4, 13, 14, 15, 16)


# a witness field that is not an int, on figure 1's witness (block (2, 1),
# quota 1, column 1, no candidates) or on construction (4, 9)'s (block
# (3, 1), quota 3, columns 1 and 2, candidates 4, 13, 14, 15, 16)
NOT_INT_FIELDS = {
    "float column": ("figure 1", {"columns": (1.0,)}),
    "float block row": ("figure 1", {"block": (1.0, 1)}),
    "str block row": ("figure 1", {"block": ("a", 1)}),
    "str quota": ("figure 1", {"quota": "2"}),
    "bool column": ("figure 1", {"columns": (True,)}),
    "bool quota": ("figure 1", {"quota": True}),
    "bool block column": ("figure 1", {"block": (2, True)}),
    "float candidates": ("construction", {"candidates": (4.0, 13.0, 14.0, 15.0, 16.0)}),
}


@pytest.mark.parametrize("field", sorted(NOT_INT_FIELDS))
def test_certificate_replay_refuses_a_field_that_is_not_an_int(field):
    source, changes = NOT_INT_FIELDS[field]
    grid = figure1_fixture() if source == "figure 1" else construct_counterexample(4, 9).rectangle
    witness = complete(grid)
    assert verify_certificate(grid, witness)
    assert verify_certificate(grid, dataclasses.replace(witness, **changes)) is False


def _symmetry_image(grid: SudokuGrid, seed: int) -> SudokuGrid:
    """``grid`` with its values, its column blocks, the columns inside each
    block and the filled rows inside each row block permuted at random: an
    m-rectangle stays one, and it is completable iff ``grid`` is."""
    rng = random.Random(seed)
    k, n = grid.order.k, grid.order.n
    values = rng.sample(range(1, n + 1), n)
    cols = [b * k + j for b in rng.sample(range(k), k) for j in rng.sample(range(k), k)]
    m = is_m_rectangle(grid).m
    order = []
    for top in range(0, m, k):
        order += rng.sample(range(top, min(top + k, m)), min(k, m - top))
    rows = grid.rows()
    return SudokuGrid.from_rows(
        k,
        [[values[rows[r][c] - 1] for c in cols] for r in order] + [[None] * n] * (n - m),
    )


def _rejecting_inputs() -> list[SudokuGrid]:
    """Every construction at k = 3..6, and figure 1."""
    grids = [
        construct_counterexample(k, m).rectangle
        for k in range(3, 7)
        for m in range(k * k + 1)
        if not decide_guaranteed(k, m).guaranteed
    ]
    return grids + [figure1_fixture()]


def test_genuine_witnesses_replay_on_constructions_and_symmetry_images():
    grids = _rejecting_inputs()
    grids += [_symmetry_image(grid, seed) for grid in grids[:5] + grids[-1:] for seed in range(4)]
    for grid in grids:
        witness = complete(grid)
        assert isinstance(witness, NotCompletable)
        assert verify_certificate(grid, witness)


# -- seeded completion -----------------------------------------------------------


def test_seeded_rejections_carry_the_unseeded_witness():
    for grid in _rejecting_inputs():
        witness = complete(grid)
        for seed in range(5):
            assert complete_randomized(grid, seed) == witness


@settings(max_examples=40, deadline=None)
@given(k=st.integers(2, 4), seed=st.integers(0, 10**6), cut=st.floats(0, 1))
def test_seeded_stage1_assigns_eligible_values_and_keeps_the_givens(k, seed, cut):
    n = k * k
    square = complete_randomized(SudokuGrid(k), seed)
    grid = truncate_rows(square, min(n - 1, int(cut * n)))
    shape = is_m_rectangle(grid)
    rng = random.Random(seed)
    for d in range(1, k + 1):
        block = BlockIndex(shape.l + 1, d)
        got = core_stage1(grid, shape, block, rng)
        offered = set(range(1, n + 1)) - grid.block_values(block)
        assert sorted(got) == [(d - 1) * k + j for j in range(1, k + 1)]
        for col, values in got.items():
            assert len(set(values)) == len(values) == k - shape.r
            assert offered.issuperset(values)
            assert not grid.column_values(col) & set(values)
        assert sorted(v for values in got.values() for v in values) == sorted(offered)
    done = complete_randomized(grid, seed + 1)
    assert done.is_full() and validate(done) is None
    given_cells = [(r, c) for r in range(1, n + 1) for c in range(1, n + 1) if grid.get(r, c)]
    assert all(done.get(r, c) == grid.get(r, c) for r, c in given_cells)


# -- pinned outputs --------------------------------------------------------------


def _witness_text(witness: NotCompletable) -> str:
    return repr(
        (tuple(witness.block), witness.quota, tuple(witness.columns), tuple(witness.candidates))
    )


def _relabelled_pattern_square(k: int) -> SudokuGrid:
    """The cyclic pattern square with its values permuted by a fixed seed."""
    n = k * k
    perm = list(range(1, n + 1))
    random.Random(k).shuffle(perm)
    return SudokuGrid.from_rows(
        k, [[perm[((r % k) * k + r // k + c) % n] for c in range(n)] for r in range(n)]
    )


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _pinned_witnesses() -> dict[str, str]:
    """Per k, the witnesses of every construction at that k, one per line:
    112 in all (k = 2 has none)."""
    texts = {}
    for k in range(3, 10):
        lines = []
        for m in range(k * k + 1):
            if not decide_guaranteed(k, m).guaranteed:
                lines.append(f"m={m} " + _witness_text(construct_counterexample(k, m).witness))
        texts[f"witnesses k={k}"] = "\n".join(lines)
    return {label: _digest(text) for label, text in texts.items()}


def _pinned_outputs() -> dict[str, str]:
    """Completed squares and widened rectangles."""
    texts = {}
    for k in range(2, 11):
        texts[f"empty k={k}"] = render(complete(SudokuGrid(k)))
    for k in (12, 16):
        texts[f"empty k={k}"] = render(complete(SudokuGrid(k)))
    for k, ms in ((3, (2, 4, 5)), (4, (3, 7, 10)), (12, (30, 72, 131))):
        square = _relabelled_pattern_square(k)
        for m in ms:
            out = complete(truncate_rows(square, m))
            texts[f"pattern k={k} m={m}"] = render(out)
    for k in (4, 5, 6):
        for m in range(k * k + 1):
            if not decide_guaranteed(k, m).guaranteed:
                texts[f"construct k={k} m={m}"] = render(construct_counterexample(k, m).rectangle)
    for k in range(2, 6):
        for seed in range(3):
            texts[f"seeded k={k} seed={seed}"] = render(complete_randomized(SudokuGrid(k), seed))
    return {label: _digest(text) for label, text in texts.items()}


# sha256 of each k's construction witnesses: pinned apart from the outputs
# below, so that a change to how squares are filled shows here as no change.
PINNED_WITNESSES = {
    "witnesses k=3": "2d992939cd1f1d4c2a77555696e716488eea2083c614bf6466771b817359eb6a",
    "witnesses k=4": "e88b689daafca6024d25ad9e877a57ab12f3d7451bcd1101a8e5b172b9859d0c",
    "witnesses k=5": "921d5e0066d48d5a5f930426dfd048ac0dd663957fd83d8a0366b4ad62a95491",
    "witnesses k=6": "6bf78748ad660b47074e5f05c074aaa4e8917e5e9123d8fde59246737beb203b",
    "witnesses k=7": "9d190c8d43db744c245cf4f51058f43a727d6144e6acd763d37f47affd3fed4a",
    "witnesses k=8": "42b81e3083ddb72b2bae639a7b4b180338f3c38515410d9a5da4a5b704a59186",
    "witnesses k=9": "06978e1f91d11787e30b39a2ee4ec22d1d3904bed7fc036e3aff719ad24a13fb",
}

# sha256 of each output's text.  Stage 2's colouring fills the rows, so a
# change to its swap rule moves most of these and none of the witnesses.
PINNED_DIGESTS = {
    "empty k=2": "1b9dc9dddc983fcff7390f4dc0108b137eb6dba7980f91c38396bc0c8b709190",
    "empty k=3": "8d2d4e8e7c14fdbe6e1b3a84d3feffe3fd9c9c5e0c21032e4e8cedd426091244",
    "empty k=4": "8c5b58b2dff545a2056c76563872cf833ffc753748512e9ebb9d1b033ae54ffa",
    "empty k=5": "0ef7a867f712b927965f0217c450a6a203c2c8804162e2e49a1f3f03b920eb31",
    "empty k=6": "6991183147fdd5fb5c6fae8e74332752af1629b90dd66498da64912f131c9693",
    "empty k=7": "856e757a1a6383ddc84e7445f354ee3a0f18fbeec8c97e57cbf2042dc3a1fc5e",
    "empty k=8": "e67b61187970060e4e28d2f0cd64232ea24baaa757f474658c624b15e778d263",
    "empty k=9": "2b7dba26921542a753fd16158b7cfc82d8196cd47a363ec4a43478e3d84563e3",
    "empty k=10": "bace143b7938d508059d2df2cbd263c7ca8e0101df729078ab89857c8bff562c",
    "empty k=12": "5df2e118300b7167925ba50dfaa13ab14c5e25afa08e33a0e1cfa8c89ae9f748",
    "empty k=16": "c35c48a79206777ac0a6d5d217137114dc5631d6ce43ab44d3809c867ad78a16",
    "pattern k=3 m=2": "c52622e528ecde50c2af1f9af3362c2026b26891282aea5d7378559bbab04ade",
    "pattern k=3 m=4": "f7356f53ab57d950f7ac66011b7310a94402563918f7fcfa30b2edf9a071dbaf",
    "pattern k=3 m=5": "d0bbd4c9af8991b14d448b8a0519f612228f204e90e66cd2a0e56a352d942d7f",
    "pattern k=4 m=3": "971a42835d7c81636a41abe79b74a783b226adb6cfef7a183110223779295fd1",
    "pattern k=4 m=7": "9221a97af9325fb8496a511b5ecbc762e9376fc0878c8e54743c409bf6f31012",
    "pattern k=4 m=10": "c1b25df6add8ebec7b887e3e32c209e9f9e093148a299c01c5ccc1e6a159ff46",
    "pattern k=12 m=30": "64570e243bf0094a13b4cda9d93100b7bd1a5e03025be64f7b4546eafc8398bb",
    "pattern k=12 m=72": "c870b943cdc4c49122c7eade64d7fb5a1d70e4c925d74b3fdf023dcfe7accb98",
    "pattern k=12 m=131": "66f9087b5c71d3982aaa077622c5d199b13d70b3a7838374a62401b13fedb375",
    "construct k=4 m=7": "6c28435a763e52f1e15ff862d2cba8cfaa5d8429e2b962862c16db87c28e46f6",
    "construct k=4 m=9": "a7038f409f63df76e1f9a312f71dadd81743f943ca62c0c2cd04a2aa22e204b9",
    "construct k=4 m=10": "c0861b5295ebb71a81fa4de1bf736d5fff3c79e2b5b5f1cb9b2c2d8116a1559a",
    "construct k=4 m=11": "d69074d38eb15e232e24ca72164753b4621f79c58cf5c5ded3d64bd4935a953e",
    "construct k=5 m=9": "949834c4616fc44f3c6f28db99071bc22440af32d950c1fc87c14a141158c34d",
    "construct k=5 m=12": "7369d27b61a71298317b411a3b8a298b92073ab06e4d186d31998b5e20672dee",
    "construct k=5 m=13": "7ee8bb7668d97061b3fa24eedb76f98a31dee84cfe09606f0f11f6f209390049",
    "construct k=5 m=14": "032f8adb08a4a9e8076550ccedab8a482512edfbc6e4f705ede741c09eb2d15e",
    "construct k=5 m=16": "bcbfd5f9f43e720269b97f6430f2896089efb083c35c1e929c04a3c8f450cbbc",
    "construct k=5 m=17": "24513f96214eb1cdde4b386e3d3a00e4b5e1f857bc544071a157f7000b39ee1c",
    "construct k=5 m=18": "194eb0488241c91a1d4729b5f9445e2e503e784616f6e966b034aaaa501a56df",
    "construct k=5 m=19": "18d046798c8eb2a1acd5812b42c1340eec1892ac5dcad8da4ca0a43d2eaedfd1",
    "construct k=6 m=11": "bd59606303b197c38a0f22a0edee4270ec31966954cfa1f9be462b0b0a5e30d9",
    "construct k=6 m=16": "d3bacaabc66b1257ab1b74df28a0c389312e012911c7f7956f1d981975eac92f",
    "construct k=6 m=17": "a421a8edd90b0e511d95fd47cf1b4e9cad2a75c4dfd1fa1079b2972920471bb7",
    "construct k=6 m=19": "1f1910cee3a87964af4a4284f77435de8a95ee5ae6fed2d8f38ddc616741cedb",
    "construct k=6 m=20": "11b1d942396b3235d9d1dcf356d64bdf002ea585845eb47a4c91ec663c6c8cc9",
    "construct k=6 m=21": "5f1e6841f548f1204c776fe472745c94086b58b65ca0a29ba63e8c102c620204",
    "construct k=6 m=22": "6dea47f0c05fee0524b176a13e84aa329bdad768f379089df208a9b3eb7b9930",
    "construct k=6 m=23": "c3a44559b0ad3ca0dfa92da7bce1e03f48db482569f315a7050c7520c507d737",
    "construct k=6 m=25": "4bd4e986f717f7bfd1a1298b6a9db795586c2c8f564cd19905dee15cd6813c6d",
    "construct k=6 m=26": "cf41173ea2f598c2b5320513e31cd9b90c57bc6717fd18688e6149ea3910bb8f",
    "construct k=6 m=27": "739fbbb16e95bd0302b10902293c338db4595f51945a264dd32f796dbaea322a",
    "construct k=6 m=28": "4306c3f2b1691b7990570b985313e334df27299d857ce3f8ff0e3dcc2736602b",
    "construct k=6 m=29": "718801669b1ec5783210c9a002893015357fe09236e90799a53b94b61efb3c6c",
    "seeded k=2 seed=0": "914191398eb2175cafd0594051b86a4b5be78b3d5dc5b4ba604292449b3cf67e",
    "seeded k=2 seed=1": "3f8c3ad8df80bda036c2c89371b41dd99ba7bdda663e45310b43a0b811782392",
    "seeded k=2 seed=2": "3190c78511b5781431978710a8771af82de2343d9bd7e30ac71fdde5b8941ef1",
    "seeded k=3 seed=0": "80c83d5bbffa064189cb4efe69c72419159d99985c4f610a30bb453085145dfa",
    "seeded k=3 seed=1": "bac21ffe167a12720209bcebc816d4af4d2f2dfc0c84dbfb8a5979866d049094",
    "seeded k=3 seed=2": "4cbc2a75ac08ed5d9e172dacb898a482152885665988e2250e6ae107a24a75eb",
    "seeded k=4 seed=0": "f415a8e22928462b3198474f04ec9ce1f6538bff2803f5015d4cef753727aff5",
    "seeded k=4 seed=1": "be5d0282390b677d3cc5bad1fd65eafef97cc5b3b1978ccae16bf99ec0b4fa3a",
    "seeded k=4 seed=2": "40b8c86172550cff24520887628b811655b166fed67f7805b87c998faa18dc10",
    "seeded k=5 seed=0": "0ee352292631db62fe35f8817517f90be9b34ead7ee2728b6df5cbcf6e07eb66",
    "seeded k=5 seed=1": "09286d414d8730550787d751c35c8e8c30ccc9036994a0421fed43a857838802",
    "seeded k=5 seed=2": "09f3190f1d34c6251606d9095a4496d79a1cf40f2d8838fa31f6e09f41136290",
}


def test_witnesses_match_pinned_digests():
    witnesses = _pinned_witnesses()
    assert sorted(witnesses) == sorted(PINNED_WITNESSES)
    changed = [label for label, digest in PINNED_WITNESSES.items() if witnesses[label] != digest]
    assert not changed, f"witnesses changed: {', '.join(changed)}"


def test_outputs_match_pinned_digests():
    outputs = _pinned_outputs()
    assert sorted(outputs) == sorted(PINNED_DIGESTS)
    changed = [label for label, digest in PINNED_DIGESTS.items() if outputs[label] != digest]
    assert not changed, f"outputs changed: {', '.join(changed)}"
