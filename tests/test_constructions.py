"""Building-block rectangles, the jammed-rectangle recipes, and the fixture."""

import pytest

from sudorect import (
    ConstructionError,
    NotCompletable,
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
from sudorect.constructions import _lemma2_matrix, _matrix_to_grid

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
