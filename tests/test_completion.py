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


def test_widening_refuses_a_coloring_that_leaves_a_hole(monkeypatch):
    square = complete(SudokuGrid(3))
    rows = [row[:3] + (None,) * 6 for row in square.rows()[:5]]
    block = SudokuGrid.from_rows(3, rows + [(None,) * 9] * 4)
    monkeypatch.setattr(completion, "edge_color", _all_color_one)
    with pytest.raises(CompletionError, match="column block 2 left a hole"):
        extend_column_blocks(block)


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


def _pinned_outputs() -> dict[str, str]:
    texts = {}
    for k in range(2, 11):
        texts[f"empty k={k}"] = render(complete(SudokuGrid(k)))
    for k in (12, 16):
        texts[f"empty k={k}"] = render(complete(SudokuGrid(k)))
    for k, ms in ((3, (2, 4, 5)), (4, (3, 7, 10)), (12, (30, 72, 131))):
        square = _relabelled_pattern_square(k)
        for m in ms:
            out = complete(truncate_rows(square, m))
            texts[f"pattern k={k} m={m}"] = (
                render(out) if isinstance(out, SudokuGrid) else _witness_text(out)
            )
    for k in (4, 5, 6):
        for m in range(k * k + 1):
            if not decide_guaranteed(k, m).guaranteed:
                report = construct_counterexample(k, m)
                texts[f"construct k={k} m={m}"] = render(report.rectangle) + _witness_text(
                    report.witness
                )
    for k in range(2, 6):
        for seed in range(3):
            texts[f"seeded k={k} seed={seed}"] = render(complete_randomized(SudokuGrid(k), seed))
    return {label: hashlib.sha256(text.encode()).hexdigest() for label, text in texts.items()}


# sha256 of each output's text, recorded before the stage-1 and widening
# matchings moved from the edge-list graph to value bitmasks: the pipeline's
# outputs are byte-identical across that change.
PINNED_DIGESTS = {
    "empty k=2": "1b9dc9dddc983fcff7390f4dc0108b137eb6dba7980f91c38396bc0c8b709190",
    "empty k=3": "549f556f9c90655d681cad3238ba7b2f6465c817221dc19b8bae933e6a619efb",
    "empty k=4": "46e8bc040c5f80346e6b68d93259fe613d16ffb991407e60c7ec0982b774f0c3",
    "empty k=5": "fc63cd0be31cabb03c995df320b93b0e2fe665b7c591ee034e5992237da7c225",
    "empty k=6": "662f202e19f839831333aea1d92a93cef4734ab2f595750f3a2e10b425bbb49e",
    "empty k=7": "af41cbfecd8377ef7cee71a534c22f3599db6c7a81857eef93d80191d2b9ed06",
    "empty k=8": "5bc646f8556f6f1d6f774816d97a293345a753f49f9a39a67e6fcd374424ac3e",
    "empty k=9": "ac1cd23d08ff1ae33f2f7f1912629b30831552073522cfb1de2e0b4f72eb09c0",
    "empty k=10": "a1a4a1f18d776514ec8255abe6c9631891229a8093628975ad4771b7ab3174de",
    "pattern k=3 m=2": "905dd72c8680ea336c04bfc242ac9ab95c3a1591830c93e1b27fce216b32825d",
    "pattern k=3 m=4": "16fde2b2005a05a0998543c8f2b98ba2ab6342485681ca32218129455e04cbcd",
    "pattern k=3 m=5": "c329e8d0b7e3cd214f42284fcb98785139e33a5300b958f5f73af8c35dd01c2a",
    "pattern k=4 m=3": "e441132361957bc5ceb6f5b97ad39b5981e4a474c89f50e69afed47a20233125",
    "pattern k=4 m=7": "30adae9bfd92cf05cac1b13b45c88ab2d55ea32452caf17060261029b1795345",
    "pattern k=4 m=10": "c8b9120b86cc786837563a3ddd18ee5c602842b1f87bafd3cb722910a12f5f4f",
    "construct k=4 m=7": "70f96162ca1f43cb457a353718d7853f8818c23a5a749b57a3e19796f99fb464",
    "construct k=4 m=9": "205f9c70c148a08631f539d8f622c25993b2d3151509dac077cf377b94c27afc",
    "construct k=4 m=10": "69c88c38f7f1d590e9d2c078bcd054bfb266c953311f7faef2e6fe7d1f26c802",
    "construct k=4 m=11": "9fdb03fb8ef688cd5aa09d6420eab6d05a9f9c556637c03605dd83ae38f74d8d",
    "construct k=5 m=9": "5e9428d151f9bfeb0868076bd8b2e73cc8ccc3c0f05d31ab788e689bb3e380d5",
    "construct k=5 m=12": "db5ffd94b3678576554c887d836ed79a047921f235407c7ab79863624b5fe034",
    "construct k=5 m=13": "e4a8a713694e23305b39548f7f4c9bed4b766661318fa78269a6db1fdb2e6828",
    "construct k=5 m=14": "32ca5543f47a815a5a5eb1221ba9dca2d861173a57d10b1154b4825804ba945d",
    "construct k=5 m=16": "5dfdb2de165dca04a812e7a592fef406919c8f1fe31a8bba76965836a1fb27d1",
    "construct k=5 m=17": "1997ebea868bf69ea1dd9f98b50a9e1cde311dd37269aa3ffbbf21006da55330",
    "construct k=5 m=18": "e88dbbe8a5f1d5d301ace7b28fdde3f1d45ac7654d6ba3991cf68e27d3786ea1",
    "construct k=5 m=19": "c727a9db4530c65047d12ddca6f1263db702b2de2616cc99f6123641bb5cc37c",
    "construct k=6 m=11": "955cba3007a80c369d20fe77ea265976981d6d880dfcebbff45ac8f5af23fc4d",
    "construct k=6 m=16": "365e408d951c736aa6dac8be50972438c9317fbc17e49313cf023f0a29348e47",
    "construct k=6 m=17": "b80e7a12d2cdedb938cc9251f5b1a28f692688a3558c036ca0e094ac61b278e1",
    "construct k=6 m=19": "3a5267b53297ac936729ac68b92258fb3a5c3f55636f34571d985466c3a02ba9",
    "construct k=6 m=20": "1dda9dc814e9def069b88cece6feb0e457f0a14dadb32212768f7aa94b0860c6",
    "construct k=6 m=21": "9bdc5438513504eadc3c9b6a578f6700822c54087e037142d07c4d0de27a7dab",
    "construct k=6 m=22": "902c7a96bb3fa7e9059571b497ce744fa36a85349a7d38b88c73d17f6cf21c72",
    "construct k=6 m=23": "d777db724f61fa47e40d72bb9d2aa8cad68193b2fb52c20669d5f0076bf0dc1b",
    "construct k=6 m=25": "3f195d8f19b8a44bd8a2cd85a403544c8142b062bbcdca526ad22c93bee50bbe",
    "construct k=6 m=26": "6d3da82b44f06304b12927d86da18d7f84a4618e1798cc83f779a80e8ecca56a",
    "construct k=6 m=27": "fbe76003faeaa9fc90ecc16f2afa91def2bfe08b4c4b800482b8f6b9c880abb9",
    "construct k=6 m=28": "60445f32aa00b97a01d8e54c0ed32ef842c19c8363a9cd34419d90bfef50ccc0",
    "construct k=6 m=29": "cf97b7b3ea91fb8cf57e1c600dfef1033b16b0e7b2d5e1ad547182944b1a92e2",
    # recorded before the column masks were carried across row blocks and
    # the Euler split moved to per-vertex iterators
    "empty k=12": "745a902f80a40fcb748f3eca8cc5f92f3de9d919a83c085a9ba24518fbb2d8b0",
    "empty k=16": "8a2a2b2d8ec6ac569ec446303547ee21cb02b98985b7e57e8bd914ba22a9eb22",
    "pattern k=12 m=30": "30ee2c75d050ff7fad5e2f9f64da2dcb665e4155620da312dd3e7c9fb3d4dfd2",
    "pattern k=12 m=72": "9e3821cdbe5e4e83e8f4b504eac620a2916aa8f086cbd520803bf29ddf4ed1f6",
    "pattern k=12 m=131": "e71e378caccd1e2e2878593e494269b67473f508b58f6ae3aa69ec40531ca927",
    "seeded k=2 seed=0": "48793dfa2f5870a024a1117b93c6aa37534bae83d7aac6dcc19a52d4595ef140",
    "seeded k=2 seed=1": "d0f2eb4afa46d8dc53f05ebca5a09c6329e36f45345599ebc6b6e473fe72e058",
    "seeded k=2 seed=2": "c8ceefc29787dc72dc82dfc2078a579dfd9b5ce4790040e927d8afc449f83147",
    "seeded k=3 seed=0": "a25e9e42685eb69f1c4f783009153ac3a2a554d07d99a8603a6b8bae3a2fee68",
    "seeded k=3 seed=1": "5daba28576a8908faf0e60c1e6976c21d0ecc52289c776877ed1e9ee873f8727",
    "seeded k=3 seed=2": "b9d50ad1f5dd0f0ff1d298ab333d5bd33d49a9805ce00d9fcdae8c65ac112866",
    "seeded k=4 seed=0": "588e1c5cd7a1751d4a48e298f51e03dc7146edd105a37d494b1f994595dd716b",
    "seeded k=4 seed=1": "d629ee2a4480348f4a2677c2a5c1f77be0baeb88f1436c2da52b04063f5093b3",
    "seeded k=4 seed=2": "3baa73463f13366ac91b02691dce8cf60da94d28b54ba7d0b43d82acecc24f9d",
    "seeded k=5 seed=0": "d75cdb9f77288ae7768dbb4f040d925d1833fcb91f6eef5ee8678181031560d8",
    "seeded k=5 seed=1": "3c428b68f9631b11900b5251b9d517634eaf1c9abb62c8be8a15997a3c6055da",
    "seeded k=5 seed=2": "18244453c1156506acdd1b83f681f0be1fa4185d531e62bc2e0554f12be058d7",
}


def test_outputs_match_pinned_digests():
    outputs = _pinned_outputs()
    assert sorted(outputs) == sorted(PINNED_DIGESTS)
    changed = [label for label, digest in PINNED_DIGESTS.items() if outputs[label] != digest]
    assert not changed, f"outputs changed: {', '.join(changed)}"
