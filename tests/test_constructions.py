"""Building-block rectangles, the jammed-rectangle recipes, and the fixture."""

import hashlib
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sudorect import constructions
from sudorect import (
    CompletionError,
    ConstructionError,
    GridError,
    NotCompletable,
    SudokuGrid,
    canonical_partition,
    complete,
    construct_counterexample,
    count_completions,
    decide_guaranteed,
    is_m_rectangle,
    is_pq_rectangle,
    validate,
    verify_certificate,
)
from sudorect.constructions import (
    _beside,
    _case_a_matrix,
    _case_b_matrix,
    _case_b_matrix_k4,
    _case_c_matrix,
    _lemma2_matrix,
    _matrix_to_grid,
)

FIGURE1_ROWS = [
    [1, 2, 3, 4, 5, 6, 7, 8, 9],
    [4, 5, 6, 7, 8, 9, 1, 2, 3],
    [7, 8, 9, 1, 2, 3, 4, 5, 6],
    [8, 3, 2, 5, 6, 1, 9, 4, 7],
    [9, 6, 5, 8, 4, 7, 2, 3, 1],
]


# -- figure 1 fixture ----------------------------------------------------------


def test_fixture_matches_printed_rows(figure1):
    for r, row in enumerate(FIGURE1_ROWS, start=1):
        for c, v in enumerate(row, start=1):
            assert figure1.get(r, c) == v
    for r in range(6, 10):
        assert all(figure1.get(r, c) is None for c in range(1, 10))


def test_fixture_validates(figure1):
    assert validate(figure1) is None


def test_fixture_not_completable(figure1):
    assert isinstance(complete(figure1), NotCompletable)


def test_fixture_has_zero_completions(figure1):
    result = count_completions(figure1)
    assert result.count == 0 and result.exhausted


# -- building blocks -----------------------------------------------------------


def lemma2_grid(a, b, k, parts=None):
    """The Lemma 2 building block, by default over the canonical partition,
    as the top-left corner of an otherwise empty grid."""
    if parts is None:
        parts = canonical_partition(k, max(a, b))
    return _matrix_to_grid(_lemma2_matrix(a, b, k, parts), k)


def test_lemma2_single_part_column():
    grid = lemma2_grid(a=1, b=1, k=3, parts=[[1, 2, 3]])
    assert [grid.get(r, 1) for r in (1, 2, 3)] == [1, 2, 3]
    assert is_pq_rectangle(grid) == (3, 1)


def test_lemma2_rotation_k2():
    grid = lemma2_grid(a=2, b=2, k=2, parts=[[1, 2], [3, 4]])
    rows = [[grid.get(r, c) for c in (1, 2)] for r in (1, 2, 3, 4)]
    assert rows == [[1, 3], [2, 4], [3, 1], [4, 2]]
    assert validate(grid) is None


def test_lemma2_full_row_block_holds_all_values():
    grid = lemma2_grid(a=1, b=3, k=3, parts=[[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    block = {grid.get(r, c) for r in (1, 2, 3) for c in (1, 2, 3)}
    assert block == set(range(1, 10))


def test_lemma2_canonical_partition_default():
    grid = lemma2_grid(a=2, b=3, k=3)
    assert is_pq_rectangle(grid) == (6, 3)
    assert validate(grid) is None


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_lemma2_sweep_all_shapes(k):
    for a in range(1, k + 1):
        for b in range(1, k + 1):
            grid = lemma2_grid(a, b, k)
            assert validate(grid) is None, (k, a, b)
            assert is_pq_rectangle(grid) == (a * k, b)
            used = [grid.get(r, c) for r in range(1, a * k + 1) for c in range(1, b + 1)]
            alphabet = set(range(1, k * max(a, b) + 1))
            assert set(used) <= alphabet
            # each value appears once per column it occurs in
            for value in set(used):
                per_col = [
                    sum(1 for r in range(1, a * k + 1) if grid.get(r, c) == value)
                    for c in range(1, b + 1)
                ]
                assert all(x <= 1 for x in per_col)


def test_canonical_partition_layout():
    assert canonical_partition(3, 2) == [[1, 2, 3], [4, 5, 6]]
    assert canonical_partition(2, 2, start=5) == [[5, 6], [7, 8]]


# -- counterexamples -----------------------------------------------------------


def test_counterexample_k3_m5_uses_case_a():
    report = construct_counterexample(3, 5)
    assert report.case_used == "a"
    assert report.special_elements is None
    shape = is_m_rectangle(report.rectangle)
    assert shape is not None and shape.m == 5
    assert validate(report.rectangle) is None
    assert isinstance(complete(report.rectangle), NotCompletable)


def test_counterexample_k4_m11_uses_case_b():
    report = construct_counterexample(4, 11)
    assert report.case_used == "b"
    assert report.special_elements is not None
    assert isinstance(complete(report.rectangle), NotCompletable)


def test_counterexample_k5_m19_uses_case_c():
    # l = 3 >= k/2 with k odd; note m = 21 would have l = k-1, which is
    # guaranteed-completable, so the case-c shapes for k=5 are m in 16..19
    report = construct_counterexample(5, 19)
    assert report.case_used == "c"
    x, x1, x2 = report.special_elements
    assert len({x, x1, x2}) == 3
    assert isinstance(complete(report.rectangle), NotCompletable)


def test_counterexample_guaranteed_shape_is_rejected():
    with pytest.raises(ConstructionError):
        construct_counterexample(3, 6)
    with pytest.raises(ConstructionError):
        construct_counterexample(5, 21)  # l = k-1
    with pytest.raises(ConstructionError):
        construct_counterexample(2, 3)


def test_counterexample_k2_rejected():
    for m in range(5):
        with pytest.raises(ConstructionError):
            construct_counterexample(2, m)


@pytest.mark.parametrize(
    "k,m,recipe", [(3, 5, "_case_a_matrix"), (4, 11, "_case_b_matrix"), (5, 19, "_case_c_matrix")]
)
@pytest.mark.parametrize(
    "planted,message",
    [
        ("duplicate", r"(row|column|block) condition violated"),
        (True, r"malformed entry at \(2,1\)"),
    ],
)
def test_a_bad_column_block_is_refused_at_the_widening_gate(
    monkeypatch, k, m, recipe, planted, message
):
    # the column block enters the grid unchecked, so the widening's input
    # gate is what refuses a repeated value or an entry that is not an int
    build = getattr(constructions, recipe)

    def planting(*args):
        out = build(*args)
        matrix = out[0] if isinstance(out, tuple) else out
        matrix[1][0] = matrix[0][0] if planted == "duplicate" else planted
        return out

    monkeypatch.setattr(constructions, recipe, planting)
    with pytest.raises(CompletionError, match="input grid is invalid: " + message):
        construct_counterexample(k, m)


@pytest.mark.parametrize(
    "name, replacement, message",
    [
        ("_complete_valid", lambda grid, rng: grid, "constructed rectangle is unexpectedly completable"),
        ("verify_certificate", lambda grid, witness: False, "rejection witness does not replay"),
    ],
)
def test_a_construction_that_fails_its_own_checks_is_refused(monkeypatch, name, replacement, message):
    monkeypatch.setattr(constructions, name, replacement)
    with pytest.raises(ConstructionError) as exc:
        construct_counterexample(3, 5)
    assert str(exc.value) == "construction integrity check failed: " + message


def test_matrix_helpers_refuse_a_mismatched_shape():
    with pytest.raises(ConstructionError) as exc:
        _beside([[1, 2], [3, 4]], [[5, 6]])
    assert str(exc.value) == "side-by-side pieces must have equal heights"
    with pytest.raises(GridError) as exc:
        _matrix_to_grid([[1, 2, 3]] * 10, 3)
    assert str(exc.value) == "expected 9×9 entries"
    with pytest.raises(GridError) as exc:
        _matrix_to_grid([list(range(1, 11))], 3)
    assert str(exc.value) == "expected 9×9 entries"


@pytest.mark.parametrize("k", [3, 4])
def test_counterexample_sweep_small(k):
    n = k * k
    for m in range(n + 1):
        if decide_guaranteed(k, m).guaranteed:
            continue
        report = construct_counterexample(k, m)
        rect = report.rectangle
        assert validate(rect) is None
        shape = is_m_rectangle(rect)
        assert shape is not None and shape.m == m
        outcome = complete(rect)
        assert isinstance(outcome, NotCompletable)
        assert verify_certificate(rect, outcome)


def test_counterexample_transfer_path_shapes():
    # l + r > k exercises the value-transfer branch of case a
    for k, m in ((5, 14), (6, 17)):
        report = construct_counterexample(k, m)
        assert report.case_used == "a"
        assert isinstance(complete(report.rectangle), NotCompletable)


def test_counterexample_k3_m5_has_zero_completions():
    report = construct_counterexample(3, 5)
    result = count_completions(report.rectangle, max_nodes=200_000)
    assert result.exhausted and result.count == 0


def test_case_b_k4_departs_from_the_general_recipe_only_where_its_docstring_says():
    low, high = canonical_partition(4, 2), canonical_partition(4, 2, start=9)
    assert len(high) == 2  # the general recipe reads high[2]
    top = _beside(_lemma2_matrix(2, 2, 4, low), _lemma2_matrix(2, 2, 4, high))
    for row, v in zip(top[4:], (10, 11, 12, 9)):  # 9..12 rotated by one
        row[3] = v
    bottom_right = _lemma2_matrix(1, 2, 4, [low[1], low[0]])
    matrix, special = _case_b_matrix_k4(2, 3)
    assert special == (4, 12, 9)
    for row, a, b in ((matrix[3], 0, 2), (matrix[7], 1, 3)):
        row[a], row[b] = row[b], row[a]  # undo the recipe's two swaps ...
    assert matrix[:8] == top
    assert matrix[8][2:] == [12, 9]  # ... and its overwrite of row 9
    assert [row[2:] for row in matrix[9:]] == bottom_right[1:3]



# sha256 of every recipe's raw column block for k = 2..16, recorded while
# case a still searched for its placements and case c for its part-0 column.
RECIPE_DIGEST = "427b8cb9ce8eeb892d31bedf47cedb18f36dcae787375c22b453d0e906e129ae"


def test_every_recipe_matrix_up_to_k16_is_pinned():
    digest, cases = hashlib.sha256(), {"a": 0, "b": 0, "c": 0}
    for k in range(2, 17):
        for m in range(k * k + 1):
            if decide_guaranteed(k, m).guaranteed:
                continue
            l, r = divmod(m, k)
            if 2 * l < k:
                case, matrix, special = "a", _case_a_matrix(k, l, r), None
            elif k % 2 == 0:
                case, (matrix, special) = "b", _case_b_matrix(k, l, r)
            else:
                case, (matrix, special) = "c", _case_c_matrix(k, l, r)
            cases[case] += 1
            digest.update(repr((k, m, matrix, special)).encode())
    assert cases == {"a": 229, "b": 308, "c": 224}
    assert digest.hexdigest() == RECIPE_DIGEST

# -- symmetry images ---------------------------------------------------------------

NON_GUARANTEED = [
    (k, m) for k in range(2, 7) for m in range(k * k + 1) if not decide_guaranteed(k, m).guaranteed
]


@lru_cache(maxsize=None)
def _construction(k: int, m: int) -> SudokuGrid:
    return construct_counterexample(k, m).rectangle


def symmetry_image(grid: SudokuGrid, rng: random.Random) -> SudokuGrid:
    """``grid`` with its values, column blocks, the columns within each
    block, its full row blocks and the filled rows within each row block
    permuted; an m-rectangle stays one with the same m."""
    k, n = grid.order.k, grid.order.n
    shape = is_m_rectangle(grid)

    def shuffled(items):
        items = list(items)
        rng.shuffle(items)
        return items

    values = [None] + shuffled(range(1, n + 1))
    columns = [b * k + c for b in shuffled(range(k)) for c in shuffled(range(k))]
    rows = [b * k + i for b in shuffled(range(shape.l)) for i in shuffled(range(k))]
    rows += [shape.l * k + i for i in shuffled(range(shape.r))]
    cells = grid.rows()
    image = [[values[cells[r][c]] for c in columns] for r in rows]
    return SudokuGrid.from_rows(k, image + [[None] * n] * (n - shape.m))


@pytest.mark.parametrize("k,m", NON_GUARANTEED)
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_symmetry_images_of_constructions_are_rejected_with_a_replayable_witness(k, m, seed):
    image = symmetry_image(_construction(k, m), random.Random(seed))
    assert validate(image) is None and is_m_rectangle(image).m == m
    outcome = complete(image)
    assert isinstance(outcome, NotCompletable)
    assert verify_certificate(image, outcome)
