"""Exact enumeration and log-space bounds."""

import math
import random
import sys
from dataclasses import fields
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    count_extensions_4x4,
    exact_log_bound_products,
    log_factorial_stirling_upper,
    permanent,
    reference_count,
    reference_sudoku_bounds,
    regular_bipartite_graphs,
    sud4_brute_force,
)
from sudorect import (
    BoundsReport,
    CountingError,
    CountResult,
    SudokuGrid,
    complete_randomized,
    count_completions,
    matching_bounds,
    sudoku_bounds,
    truncate_rows,
)
from sudorect.counting import bounds_table


# -- count_completions -----------------------------------------------------------


def test_figure1_has_no_completion(figure1):
    result = count_completions(figure1)
    assert result.count == 0
    assert result.exhausted


def test_sud4_matches_independent_brute_force():
    result = count_completions(SudokuGrid(2))
    assert result.count == len(sud4_brute_force()) == 288
    assert result.exhausted


def test_node_count_regression():
    # deterministic search order: most-constrained cell, lowest value first
    assert count_completions(SudokuGrid(2)).nodes_visited == 2272


def test_full_square_counts_one():
    square = complete_randomized(SudokuGrid(3), 0)
    result = count_completions(square)
    assert result.count == 1 and result.exhausted and result.nodes_visited == 0
    # the one solution reaches the cap before any placement
    assert count_completions(square, max_solutions=1) == CountResult(1, False, 0)


def test_caps_mark_search_as_partial():
    capped = count_completions(SudokuGrid(2), max_nodes=50)
    assert not capped.exhausted
    assert capped.nodes_visited == 50
    first_two = count_completions(SudokuGrid(2), max_solutions=2)
    assert first_two.count == 2 and not first_two.exhausted


def test_count_rejects_invalid_grid():
    g = SudokuGrid(2)
    g.set(1, 1, 1)
    g.set(1, 2, 1)
    with pytest.raises(CountingError):
        count_completions(g)


@pytest.mark.parametrize("caps", [{"max_solutions": 0}, {"max_solutions": -3}, {"max_nodes": -5}])
def test_count_rejects_bad_caps(caps):
    with pytest.raises(CountingError, match=next(iter(caps))):
        count_completions(SudokuGrid(2), **caps)


def test_deep_search_needs_no_recursion():
    # 256 open cells: a recursive search would go 256 frames deep
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(150)
    try:
        result = count_completions(SudokuGrid(4), max_nodes=400)
    finally:
        sys.setrecursionlimit(limit)
    assert result == CountResult(5, False, 400)


@lru_cache(maxsize=None)
def _square(k: int, seed: int) -> SudokuGrid:
    return complete_randomized(SudokuGrid(k), seed)


@st.composite
def capped_partial_grids(draw):
    """A square cut from ``complete_randomized`` (every cell of it may be
    cleared at k = 2, up to 45 at k = 3), with random caps."""
    k = draw(st.sampled_from([2, 3]))
    n = k * k
    grid = _square(k, draw(st.integers(0, 19))).copy()
    cells = [(r, c) for r in range(1, n + 1) for c in range(1, n + 1)]
    holes = draw(st.integers(0, 16 if k == 2 else 45))
    for r, c in draw(st.randoms(use_true_random=False)).sample(cells, holes):
        grid.clear(r, c)
    max_nodes = draw(st.one_of(st.none(), st.integers(0, 1), st.integers(0, 3000)))
    max_solutions = draw(st.one_of(st.none(), st.just(1), st.integers(1, 300)))
    return grid, max_nodes, max_solutions


@settings(max_examples=200, deadline=None)
@given(case=capped_partial_grids())
@example(case=(SudokuGrid(2), None, None))
@example(case=(SudokuGrid(2), 0, None))
@example(case=(SudokuGrid(2), 1, 1))
@example(case=(_square(3, 0), None, 1))
@example(case=(_square(3, 0), 0, None))
def test_count_matches_recursive_reference(case):
    grid, max_nodes, max_solutions = case
    assert count_completions(grid, max_nodes, max_solutions) == reference_count(
        grid, max_nodes, max_solutions
    )


def test_heavily_filled_k3_instances(figure1):
    square = complete_randomized(SudokuGrid(3), 4)
    grid = truncate_rows(square, 7)
    result = count_completions(grid, max_nodes=500_000)
    assert result.exhausted
    assert result.count >= 1


def _random_partial_order4(seed: int) -> list[list[int | None]]:
    rng = random.Random(seed)
    squares = sorted(sud4_brute_force())
    square = squares[rng.randrange(len(squares))]
    return [
        [square[r][c] if rng.random() < 0.4 else None for c in range(4)]
        for r in range(4)
    ]


@pytest.mark.parametrize("seed", range(12))
def test_count_invariant_under_relabeling(seed):
    rows = _random_partial_order4(seed)
    base = count_completions(SudokuGrid.from_rows(2, rows)).count
    rng = random.Random(seed + 999)
    relabel = [None] + rng.sample([1, 2, 3, 4], 4)
    relabeled = [[None if v is None else relabel[v] for v in row] for row in rows]
    assert count_completions(SudokuGrid.from_rows(2, relabeled)).count == base
    assert base == count_extensions_4x4(rows)


@pytest.mark.parametrize("seed", range(12))
def test_count_invariant_under_transposition(seed):
    rows = _random_partial_order4(seed)
    transposed = [[rows[c][r] for c in range(4)] for r in range(4)]
    assert (
        count_completions(SudokuGrid.from_rows(2, rows)).count
        == count_completions(SudokuGrid.from_rows(2, transposed)).count
    )


# -- matching bounds ---------------------------------------------------------------


def test_matching_bounds_full_regularity_collapses_to_factorial():
    for n in (1, 2, 5, 9):
        lo, up = matching_bounds(n, n)
        assert lo == pytest.approx(math.lgamma(n + 1), abs=1e-12)
        assert up == pytest.approx(math.lgamma(n + 1), abs=1e-12)


def test_matching_bounds_one_regular():
    for n in (1, 3, 8):
        lo, up = matching_bounds(n, 1)
        assert up == pytest.approx(0.0, abs=1e-12)  # exactly one matching
        assert lo == pytest.approx(math.lgamma(n + 1) - n * math.log(n), abs=1e-12)


def test_matching_bounds_4_2_against_enumeration():
    lo, up = matching_bounds(4, 2)
    assert up == pytest.approx(math.log(4.0), abs=1e-12)
    counts = [permanent(m) for m in regular_bipartite_graphs(4, 2)]
    assert max(counts) == 4  # two disjoint 4-cycles
    assert min(counts) == 2  # one 8-cycle
    assert math.exp(lo) <= min(counts) + 1e-9
    assert max(counts) <= math.exp(up) + 1e-9


@pytest.mark.parametrize("n,r", [(4, 2), (4, 3), (3, 2), (5, 2), (5, 3)])
def test_matching_bounds_sandwich_all_regular_graphs(n, r):
    lo, up = matching_bounds(n, r)
    counts = [permanent(m) for m in regular_bipartite_graphs(n, r)]
    assert counts
    assert math.exp(lo) <= min(counts) + 1e-9
    assert max(counts) <= math.exp(up) + 1e-9


def test_matching_bounds_order_and_errors():
    rng = random.Random(0)
    for _ in range(200):
        n = rng.randint(1, 10_000)
        r = rng.randint(1, n)
        lo, up = matching_bounds(n, r)
        assert lo <= up + 1e-9
    with pytest.raises(CountingError):
        matching_bounds(4, 0)
    with pytest.raises(CountingError):
        matching_bounds(4, 5)


@pytest.mark.parametrize("k", [0, -3])
def test_sudoku_bounds_refuses_a_block_side_below_1(k):
    with pytest.raises(CountingError) as exc:
        sudoku_bounds(k)
    assert str(exc.value) == f"block side must be >= 1, got {k}"


# -- bound products ----------------------------------------------------------------


def test_k2_upper_bound_is_exactly_576():
    report = sudoku_bounds(2)
    assert math.exp(report.log_upper) == pytest.approx(576.0, rel=1e-9)


def test_k2_lower_bound_matches_closed_form():
    report = sudoku_bounds(2)
    assert math.exp(report.log_lower) == pytest.approx(0.1001129150390625, rel=1e-9)
    assert abs(report.log_lower - report.log_closed_form_lower) <= 1e-9


def test_k2_bounds_sandwich_the_true_count():
    report = sudoku_bounds(2)
    assert report.log_lower <= math.log(288) <= report.log_upper


# Felgenhauer and Jarvis (2006): the number of full 9×9 squares.
SUDOKU_9X9_COUNT = 6_670_903_752_021_072_936_960


def test_9x9_count_factorization():
    assert SUDOKU_9X9_COUNT == math.factorial(9) * 72**2 * 2**7 * 27_704_267_971


def test_k3_bounds_sandwich_the_true_count():
    report = sudoku_bounds(3)
    log_count = math.log(SUDOKU_9X9_COUNT)
    assert report.log_lower == pytest.approx(11.848, abs=1e-3)
    assert log_count == pytest.approx(50.252, abs=1e-3)
    assert report.log_upper == pytest.approx(61.244, abs=1e-3)
    assert report.log_lower <= log_count <= report.log_upper


@pytest.mark.parametrize("k", [*range(2, 13), 100])
def test_bound_products_match_exact_factorial_oracle(k):
    log_lower, log_upper = exact_log_bound_products(k)
    report = sudoku_bounds(k)
    assert report.log_lower == pytest.approx(log_lower, rel=1e-12)
    assert report.log_upper == pytest.approx(log_upper, rel=1e-12)


def test_one_pass_bounds_equal_the_two_pass_reference_bit_for_bit():
    for k in range(1, 301):
        got, want = sudoku_bounds(k), reference_sudoku_bounds(k)
        for field in fields(BoundsReport):
            assert getattr(got, field.name) == getattr(want, field.name), (k, field.name)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7, 8, 9, 10, 50, 100])
def test_closed_form_equals_structural_lower(k):
    report = sudoku_bounds(k)
    assert abs(report.log_lower - report.log_closed_form_lower) <= 1e-6 * report.n**2
    assert report.log_lower <= report.log_upper


def test_bounds_finite_up_to_k_1000():
    for k in (200, 500, 1000):
        report = sudoku_bounds(k)
        for value in (
            report.log_lower,
            report.log_upper,
            report.ratio_lower,
            report.ratio_upper,
        ):
            assert math.isfinite(value)


def test_asymptotic_table_ratio_order_and_convergence():
    table = {r.k: (r.ratio_lower, r.ratio_upper) for r in bounds_table(120)}
    for k, (lo, up) in table.items():
        assert lo <= up + 1e-12, k
    # regression anchors for the normalized ratios
    lo100, up100 = table[100]
    assert lo100 == pytest.approx(1.033890, abs=1e-4)
    assert up100 == pytest.approx(1.145910, abs=1e-4)
    big = sudoku_bounds(1000)
    small = table[10]
    assert abs(big.ratio_lower - 1) < abs(small[0] - 1)
    assert abs(big.ratio_upper - 1) < abs(small[1] - 1)


def test_asymptotic_table_validates_input():
    with pytest.raises(CountingError):
        bounds_table(1)


def test_upper_ratio_first_drops_below_1_05_at_k_390():
    assert sudoku_bounds(389).ratio_upper == pytest.approx(1.05004, abs=1e-5)
    assert sudoku_bounds(390).ratio_upper == pytest.approx(1.04994, abs=1e-5)
    below = [r.k for r in bounds_table(390) if r.ratio_upper < 1.05]
    assert below == [390]


# -- Stirling helper ----------------------------------------------------------------


def test_stirling_overestimate_dominates_lgamma():
    for x in (1, 2, 3, 10, 100, 1e4):
        assert math.lgamma(x + 1) < log_factorial_stirling_upper(x)


def test_stirling_three_root_x_bound():
    # for x >= 1 the overestimate is below 3·(x/e)^x·sqrt(x)
    for x in (1, 2, 5, 50, 1000):
        assert log_factorial_stirling_upper(x) < (
            x * (math.log(x) - 1) + math.log(3.0) + 0.5 * math.log(x)
        )
