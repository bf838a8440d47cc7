"""The shape predicate, the two-stage pipeline, and column-block extension."""

import itertools
import random

import pytest

from oracles import coloring_is_proper, count_extensions_4x4, sud4_brute_force
from sudorect import completion
from sudorect import (
    BlockIndex,
    CompletionError,
    NotCompletable,
    RectShape,
    SudokuGrid,
    complete,
    complete_randomized,
    complete_row_block_stage1,
    complete_row_block_stage2,
    construct_lemma2,
    decide_guaranteed,
    extend_column_blocks,
    is_m_rectangle,
    truncate_rows,
    validate,
    verify_certificate,
)


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


# -- stage 1 -------------------------------------------------------------------


def test_stage1_figure1_block1_infeasible(figure1):
    shape = is_m_rectangle(figure1)
    outcome = complete_row_block_stage1(figure1, shape, BlockIndex(2, 1))
    assert isinstance(outcome, NotCompletable)
    assert 1 in outcome.columns
    assert verify_certificate(figure1, outcome)


def test_stage1_figure1_prefix_partitions_all_values(figure1):
    prefix = truncate_rows(figure1, 3)
    shape = is_m_rectangle(prefix)
    assert shape.r == 0
    outcome = complete_row_block_stage1(prefix, shape, BlockIndex(2, 1))
    assert isinstance(outcome, dict)
    sets = [outcome[col] for col in (1, 2, 3)]
    assert all(len(s) == 3 for s in sets)
    union = set().union(*sets)
    assert union == set(range(1, 10))
    for col, values in outcome.items():
        for v in values:
            assert not prefix.in_column(col, v)


def test_stage1_forced_split_matches_exhaustive_assignments():
    grid = SudokuGrid(2)
    for c, v in enumerate((1, 2, 3, 4), start=1):
        grid.set(1, c, v)
    for c, v in enumerate((3, 4, 1, 2), start=1):
        grid.set(2, c, v)
    shape = is_m_rectangle(grid)
    outcome = complete_row_block_stage1(grid, shape, BlockIndex(2, 1))
    # brute force: every way to give each column two fresh values with the
    # block's values pairwise distinct
    valid = []
    for c1 in itertools.combinations(range(1, 5), 2):
        for c2 in itertools.combinations(range(1, 5), 2):
            if set(c1) & set(c2):
                continue
            if any(grid.in_column(1, v) for v in c1):
                continue
            if any(grid.in_column(2, v) for v in c2):
                continue
            valid.append({1: sorted(c1), 2: sorted(c2)})
    assert valid == [{1: [2, 4], 2: [1, 3]}]
    assert outcome == valid[0]


def test_stage1_wrong_block_row_is_contract_error(figure1):
    shape = is_m_rectangle(figure1)
    with pytest.raises(CompletionError):
        complete_row_block_stage1(figure1, shape, BlockIndex(3, 1))


# -- stage 2 -------------------------------------------------------------------


def test_stage2_two_cycles_pick_one_of_the_valid_fillings():
    grid = SudokuGrid(2)
    for c, v in enumerate((1, 2, 3, 4), start=1):
        grid.set(1, c, v)
    for c, v in enumerate((3, 4, 1, 2), start=1):
        grid.set(2, c, v)
    shape = is_m_rectangle(grid)
    assignments = {}
    for d in (1, 2):
        part = complete_row_block_stage1(grid, shape, BlockIndex(2, d))
        assert isinstance(part, dict)
        assignments.update(part)
    placements = complete_row_block_stage2(2, shape, assignments)
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
    got_row3 = [None] * 4
    got_row4 = [None] * 4
    for row, col, value in placements:
        (got_row3 if row == 3 else got_row4)[col - 1] = value
    assert (tuple(got_row3), tuple(got_row4)) in valid_fillings
    assert placements == complete_row_block_stage2(2, shape, assignments)


def test_stage2_one_empty_row_is_forced():
    square = complete(SudokuGrid(2))
    grid = truncate_rows(square, 3)
    shape = is_m_rectangle(grid)
    assert shape.r == 1
    assignments = {}
    for d in (1, 2):
        part = complete_row_block_stage1(grid, shape, BlockIndex(2, d))
        assert isinstance(part, dict)
        assignments.update(part)
    placements = complete_row_block_stage2(2, shape, assignments)
    assert sorted(placements) == sorted(
        (4, col, assignments[col][0]) for col in range(1, 5)
    )


def test_stage2_rejects_irregular_assignments():
    shape = RectShape.of(2, 2)
    lopsided = {1: [2, 4], 2: [1, 3], 3: [2, 4], 4: [1, 4]}
    with pytest.raises(CompletionError):
        complete_row_block_stage2(2, shape, lopsided)


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
    assert complete(square) == square


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


def _colors_in_column_order(graph):
    """Colours 1, 2, ... along each column's edges: every cell gets one
    value, but one value may land twice in a row."""
    seen: dict[int, int] = {}
    colors = []
    for col, _ in graph.edges:
        seen[col] = seen.get(col, 0) + 1
        colors.append(seen[col])
    return tuple(colors)


def _all_color_one(graph):
    """Every value of a column into the same cell."""
    return (1,) * len(graph.edges)


@pytest.mark.parametrize("coloring", [_colors_in_column_order, _all_color_one])
def test_clashing_stage2_coloring_raises_completion_error(monkeypatch, coloring):
    proper = []

    def clashing(graph):
        colors = coloring(graph)
        proper.append(coloring_is_proper(graph, colors))
        return colors

    monkeypatch.setattr(completion, "edge_color", clashing)
    with pytest.raises(CompletionError):
        complete(SudokuGrid(3))
    assert not all(proper)


def test_randomized_completion_reproducible_and_varied():
    first = complete_randomized(SudokuGrid(3), 11)
    second = complete_randomized(SudokuGrid(3), 11)
    other = complete_randomized(SudokuGrid(3), 12)
    assert first == second
    assert first != other
    assert validate(first) is None and first.is_full()


# -- extend_column_blocks --------------------------------------------------------


def test_extend_keeps_first_column_block():
    grid = construct_lemma2(a=1, b=3, k=3)
    wide = extend_column_blocks(grid)
    assert is_m_rectangle(wide) == RectShape(m=3, l=1, r=0)
    for r in range(1, 4):
        for c in range(1, 4):
            assert wide.get(r, c) == grid.get(r, c)


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
    assert extend_column_blocks(SudokuGrid(3)) == SudokuGrid(3)


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
