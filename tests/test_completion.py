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


def _five_row_column_block() -> SudokuGrid:
    square = complete(SudokuGrid(3))
    rows = [row[:3] + (None,) * 6 for row in square.rows()[:5]]
    return SudokuGrid.from_rows(3, rows + [(None,) * 9] * 4)


def test_widening_refuses_a_coloring_that_leaves_a_hole(monkeypatch):
    block = _five_row_column_block()
    monkeypatch.setattr(completion, "edge_color", _all_color_one)
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
    monkeypatch.setattr(completion, "edge_color", _colors_in_column_order)
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
    stage2, edge_color = completion._stage2, completion.edge_color
    calls, inside = [], []

    def counted_stage2(k, quota, masks, rng):
        calls.append((quota, len(masks)))
        inside.append(True)
        try:
            return stage2(k, quota, masks, rng)
        finally:
            inside.pop()

    def guarded_edge_color(graph):
        assert inside, "edge_color called outside _stage2"
        return edge_color(graph)

    monkeypatch.setattr(completion, "_stage2", counted_stage2)
    monkeypatch.setattr(completion, "edge_color", guarded_edge_color)
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

# sha256 of each output's text, re-pinned when the edge colouring moved to
# Kőnig's alternating paths: every square and rectangle but empty k=2 changed.
PINNED_DIGESTS = {
    "empty k=2": "1b9dc9dddc983fcff7390f4dc0108b137eb6dba7980f91c38396bc0c8b709190",
    "empty k=3": "049a5996ec60ddeebd086c3df5d2876c8fffc2d3b08922e003d739b01df1206a",
    "empty k=4": "8c5b58b2dff545a2056c76563872cf833ffc753748512e9ebb9d1b033ae54ffa",
    "empty k=5": "b96248eb9b3dd3b30cf597cb7e39b9af381023a72916af96b52342b8fb711a9d",
    "empty k=6": "b21e88ef0e51e6e22d5698e420ba0a8a31f6fea1b8034f7c1a6e190372107910",
    "empty k=7": "30fe19eec6f0eba24867bd97e659219671543c2cb4aa1d9925934decdb1c4f35",
    "empty k=8": "e67b61187970060e4e28d2f0cd64232ea24baaa757f474658c624b15e778d263",
    "empty k=9": "1994238aa2b7358223bac217a59c53b4321ddddc6d0f9c02957c69964110a2db",
    "empty k=10": "8c20a66465e6dc38adb898816a8549f3fc871323449813b61ca86c2b1dd5463f",
    "empty k=12": "9eae942f3d3c8bee42f0e21787c04f90e9e9094b8821268a7e0740f1c73ed01b",
    "empty k=16": "c35c48a79206777ac0a6d5d217137114dc5631d6ce43ab44d3809c867ad78a16",
    "pattern k=3 m=2": "6f97e55dd6a1cc580c2493f07e0bfa68cdefecf1571fe213365fea8204766b67",
    "pattern k=3 m=4": "5113c034b834139171578a38fb2b69b0e5a153201d7512a12325cf3af34620ef",
    "pattern k=3 m=5": "bf637990ebf9ba65341998b6b0948861e6b348d5d19e20622cecf4b87a677423",
    "pattern k=4 m=3": "4bd99638f48299a5157a9678ca6c7450b949e463d5b00cc5017a1fd9114a41f1",
    "pattern k=4 m=7": "879cf18d92f5973b7ae63a72c3fb1d6644611026228001cbd319c58e1f7a7bec",
    "pattern k=4 m=10": "9358c7aecd9dde59aa602ebd70516b2fb70caf255765b0575d09d7051b7ff19c",
    "pattern k=12 m=30": "898770f50843cc444c6aa95446ff1825f892101a06a1cb3d7a5c8489c9608c14",
    "pattern k=12 m=72": "210329563a9b9388b49b6f4fb1bf651580f8b8ae26d01933cf4768534e8a2a80",
    "pattern k=12 m=131": "0fb5e93af4a41cad2f94f00562bc5cd7f075db0ce026fd36890da53ee4e832df",
    "construct k=4 m=7": "140661f8be3ba705b2329ca35f558b40434d9be5a49ba6abf137deb701450ef0",
    "construct k=4 m=9": "848a02b4487fe867035b6bf6331a3e3c42f43fec9cc4e03fe44f91694d469809",
    "construct k=4 m=10": "96407fb65ae2f616dace4ab9dbda1eaf909fe3279336216e7ac11398c7038d9b",
    "construct k=4 m=11": "815e81b675bc1cf31982053d994e1436dd7b756ac983d723af51adf651a5d831",
    "construct k=5 m=9": "437872ecaed25c4277320d0473324b55b946ca03a711d00b83d1e66a99c58e8c",
    "construct k=5 m=12": "1b4519626b997410b60bb8a3f60fe233f80f47360d49ff8fa796bd2aecee3282",
    "construct k=5 m=13": "fcc54071c483b4c582269138aa93ae26809b7f4df4642c7b811988170661bbee",
    "construct k=5 m=14": "6142be41fa628a87f0b340dbd56604f6384684d9e800c21bf6b1f599b58049db",
    "construct k=5 m=16": "9f90109afa873f10683b38385bd46fb17f6cc720a6c81c986a5a1effd8e93065",
    "construct k=5 m=17": "4f642c7ca52e036db42fb1eb104c377ffd146c2accba413cbcba2ff1531e4797",
    "construct k=5 m=18": "d9388be186767136833aec3c5979400592610c1c0f846fc49d28c240c6bef505",
    "construct k=5 m=19": "d1b56965fa5817ae8782a8ec90ddeb4dcbf6f6a3de7587ce1f17fd332c2b01e4",
    "construct k=6 m=11": "c1f6a98239f7b1e2eccc02b8eaffd6838ccd4179ed73fc37f4320027f22849a2",
    "construct k=6 m=16": "b1f3943fd3051d5adf05f12dbf60641e4cf10a00640a3d0f7d79acda222d5434",
    "construct k=6 m=17": "464b249c389e03d97fecaad9656d31769ae838b9447bafec0fc16043c29c0f41",
    "construct k=6 m=19": "ca300d857435c04e900742ed63dda9297ce696990a964851acf04ef286fbe45b",
    "construct k=6 m=20": "d38d6ab0f212688c4f1f94bf07ac6d84c98181e14d11592f153235b3250d0a90",
    "construct k=6 m=21": "57f4a7feae71910123e0cc1099f04f5f21dd6d6b834a1cdc886ac044ac7943a7",
    "construct k=6 m=22": "154a07dfa12fde1d6889f2b3ff23c3eb56263d27331c272ca8f6a4bb37648f8a",
    "construct k=6 m=23": "673c83a29eb339a2c380196fae1bf01de53fa71d07d83d4c3297d687796b9acb",
    "construct k=6 m=25": "7db6dc9c2c75f6bb3d336a9866f02e21070a70216a203c1049d15dfb7ad193b3",
    "construct k=6 m=26": "151df2012f76284d7ee7071d215b70ea9e1ea77dc7889556077e10f4213e8d35",
    "construct k=6 m=27": "58858cd7be1c86d5c4ef65d86194e3ced92faed99ac6f6066593d08f9a7d58b4",
    "construct k=6 m=28": "8aa14c5584c6d6ddeac4959cb6722ec47b3b9d8ff6dcc2363c86b392cf4a5713",
    "construct k=6 m=29": "c8fc079b4e10216646308a54025dd89d105bb147e496458fbc1ceafcfab0b83e",
    "seeded k=2 seed=0": "616c7e34a33e7d195770fb6ba2a17a121307656b85e0a80fc286fe6437f8f126",
    "seeded k=2 seed=1": "b88ca51785c600f17c03a6d54d652a8d84715245e6677824364b01745c15f4e1",
    "seeded k=2 seed=2": "3190c78511b5781431978710a8771af82de2343d9bd7e30ac71fdde5b8941ef1",
    "seeded k=3 seed=0": "70d71238894c1b9a47fe92dcf7501166cc8d0e62503e5d9e7f0fb2acd8d23856",
    "seeded k=3 seed=1": "b44a837ab8fee16bb3431955de6d6d29c1b427224d281bf0900113c1cf8e2af9",
    "seeded k=3 seed=2": "f02858e3baf8524ade4ce1d9b904a43996262c37f7a3bc912c27864171ceaec8",
    "seeded k=4 seed=0": "10b01c8d495d183f5cec21854e9b85ae3b093f33c8bdd7459ebe2ff1a5289dcd",
    "seeded k=4 seed=1": "22e4ac67b83ca4b3063c1b18db1b7dfd78b1a496e84ad31668267a469692e476",
    "seeded k=4 seed=2": "443647cd977f2f6d81bfb424fc77e0f29c0bbaf6f89b66261c1ee59d17d6f8bc",
    "seeded k=5 seed=0": "d8cf61355618741aadaacef9b2590bd540ffca1e66f6bfb7d45ecf16467b07c6",
    "seeded k=5 seed=1": "3bed931d4041d1158cbb83d598f5e90bab1603e33faff84bcb9b4acc142de625",
    "seeded k=5 seed=2": "0159ffba334e41230006688afaa701b36fa7c3f62b12de058ae877344990f37a",
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
