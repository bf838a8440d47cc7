"""Acceptance criteria.

Each test is one criterion, run at its stated tolerance and budget; the
terminal summary prints one PASS/FAIL line per criterion.

Criterion 8 checks that both normalized bound ratios approach 1, within
5% at k = 1000 and the lower one already at k = 100, and that the upper
ratio at k = 100 lies inside an independent Stirling envelope whose lower
edge is above 1.05, because the sqrt(2πr) factors of the Bregman-Minc
product keep any faithful evaluation more than 10% above 1 there.
"""

import math
import random
import time

import pytest

from oracles import (
    all_proper_edge_colorings,
    coloring_is_proper,
    count_extensions_4x4,
    exhaustive_degree_matching,
    max_degree,
    recount_matching,
    sud4_brute_force,
    upper_ratio_stirling_envelope,
)
from sudorect import (
    BipartiteGraph,
    DegreeDemand,
    HallCertificate,
    NotCompletable,
    SudokuGrid,
    bipartite,
    complete,
    complete_randomized,
    construct_counterexample,
    count_completions,
    decide_guaranteed,
    degree_matching,
    edge_color,
    figure1_fixture,
    is_m_rectangle,
    sudoku_bounds,
    truncate_rows,
    validate,
    verify_certificate,
)


def test_criterion_1_figure1_regression():
    started = time.monotonic()
    fig = figure1_fixture()
    assert validate(fig) is None
    outcome = complete(fig)
    assert isinstance(outcome, NotCompletable)
    assert verify_certificate(fig, outcome)
    counted = count_completions(fig)
    assert counted.count == 0 and counted.exhausted
    assert time.monotonic() - started < 1.0


def test_criterion_2_k3_characterization():
    not_guaranteed = {m for m in range(10) if not decide_guaranteed(3, m).guaranteed}
    assert not_guaranteed == {5}


def test_criterion_3_k4_characterization():
    started = time.monotonic()
    not_guaranteed = {m for m in range(17) if not decide_guaranteed(4, m).guaranteed}
    assert not_guaranteed == {7, 9, 10, 11}
    for m in sorted(not_guaranteed):
        report = construct_counterexample(4, m)
        assert validate(report.rectangle) is None
        assert isinstance(complete(report.rectangle), NotCompletable)
    squares = [complete_randomized(SudokuGrid(4), seed) for seed in range(50)]
    for square in squares:
        assert isinstance(square, SudokuGrid)
    for m in range(17):
        if m in not_guaranteed:
            continue
        for square in squares:
            out = complete(truncate_rows(square, m))
            assert isinstance(out, SudokuGrid), (4, m)
    assert time.monotonic() - started < 30.0


def test_criterion_4_counterexample_sweep():
    started = time.monotonic()
    cases_seen = set()
    for k in (3, 4, 5, 6):
        for m in range(k * k + 1):
            if decide_guaranteed(k, m).guaranteed:
                continue
            report = construct_counterexample(k, m)
            rect = report.rectangle
            assert validate(rect) is None, (k, m)
            shape = is_m_rectangle(rect)
            assert shape is not None and shape.m == m
            outcome = complete(rect)
            assert isinstance(outcome, NotCompletable), (k, m)
            assert verify_certificate(rect, outcome), (k, m)
            cases_seen.add(report.case_used)
    assert cases_seen == {"a", "b", "c"}
    assert time.monotonic() - started < 120.0


def test_criterion_5_exhaustive_oracle_k2():
    started = time.monotonic()
    oracle_squares = sud4_brute_force()
    assert len(oracle_squares) == 288
    counted = count_completions(SudokuGrid(2))
    assert counted.count == 288 and counted.exhausted
    seen = set()
    for square in sorted(oracle_squares):
        for m in range(5):
            key = (m,) + square[:m]
            if key in seen:
                continue
            seen.add(key)
            rows = [
                [square[r][c] if r < m else None for c in range(4)] for r in range(4)
            ]
            grid = SudokuGrid.from_rows(2, rows)
            ours = complete(grid)
            oracle_count = count_extensions_4x4(rows)
            assert isinstance(ours, SudokuGrid) == (oracle_count > 0), (m, square)
    assert time.monotonic() - started < 60.0


def test_criterion_6_roundtrip_completion():
    started = time.monotonic()
    for k in (2, 3):
        n = k * k
        for seed in range(100):
            square = complete_randomized(SudokuGrid(k), seed)
            assert isinstance(square, SudokuGrid)
            for m in range(n + 1):
                out = complete(truncate_rows(square, m))
                assert isinstance(out, SudokuGrid), (k, seed, m)
                assert out.is_full() and validate(out) is None
    assert time.monotonic() - started < 60.0


def test_criterion_7_bounds_sandwich_k2():
    report = sudoku_bounds(2)
    assert math.exp(report.log_lower) == pytest.approx(0.1001, abs=1e-3)
    assert math.exp(report.log_upper) == pytest.approx(576.0, rel=1e-9)
    assert report.log_lower <= math.log(288) <= report.log_upper
    assert abs(report.log_lower - report.log_closed_form_lower) <= 1e-6


def test_criterion_8_asymptotic_ratios():
    at_10 = sudoku_bounds(10)
    at_100 = sudoku_bounds(100)
    at_1000 = sudoku_bounds(1000)
    assert abs(at_1000.ratio_lower - 1) < abs(at_10.ratio_lower - 1)
    assert abs(at_1000.ratio_upper - 1) < abs(at_10.ratio_upper - 1)
    assert 0.95 <= at_100.ratio_lower <= 1.05
    assert 0.95 <= at_1000.ratio_lower <= 1.05
    assert 0.95 <= at_1000.ratio_upper <= 1.05
    for report in (at_10, at_100, at_1000):
        assert report.ratio_lower <= report.ratio_upper
    # no faithful evaluation of the upper product is within 5% at k = 100
    below, above = upper_ratio_stirling_envelope(100)
    assert below > 1.05
    assert below <= at_100.ratio_upper <= above


def test_criterion_9_kernel_properties():
    started = time.monotonic()
    rng = random.Random(20_260_811)

    # matching vs exhaustive subset search, 10^4 graphs with <= 12 edges
    for _ in range(10_000):
        left = rng.randint(1, 4)
        right = rng.randint(1, 5)
        edges = [
            (rng.randrange(left), rng.randrange(right))
            for _ in range(rng.randint(0, 12))
        ]
        total = rng.randint(0, min(len(edges), 6))
        left_quota = [0] * left
        for _ in range(total):
            left_quota[rng.randrange(left)] += 1
        right_quota = [0] * right
        for _ in range(total):
            right_quota[rng.randrange(right)] += 1
        g = BipartiteGraph.build(left, right, edges)
        demand = DegreeDemand(tuple(left_quota), tuple(right_quota))
        ours = degree_matching(g, demand)
        oracle = exhaustive_degree_matching(
            left, right, edges, tuple(left_quota), tuple(right_quota)
        )
        if isinstance(ours, HallCertificate):
            assert oracle is None
        else:
            assert oracle is not None
            assert recount_matching(g, demand, ours)

    # proper coloring within max degree, 10^3 random graphs
    for _ in range(1_000):
        left = rng.randint(1, 40)
        right = rng.randint(1, 40)
        cap = rng.randint(1, 8)
        left_deg = [0] * left
        right_deg = [0] * right
        edges = []
        for _ in range(rng.randint(0, 2 * max(left, right))):
            u = rng.randrange(left)
            v = rng.randrange(right)
            if left_deg[u] < cap and right_deg[v] < cap:
                edges.append((u, v))
                left_deg[u] += 1
                right_deg[v] += 1
        g = BipartiteGraph.build(left, right, edges)
        colors = edge_color(g)
        assert coloring_is_proper(g, colors)
        if edges:
            assert 1 <= min(colors) and max(colors) <= max_degree(g)

    # certificate replay exhibits a genuine deficiency on jammed rectangles
    for k, m in ((3, 5), (4, 9), (4, 10), (4, 11), (5, 13)):
        rect = construct_counterexample(k, m).rectangle
        outcome = complete(rect)
        assert isinstance(outcome, NotCompletable)
        assert verify_certificate(rect, outcome)
    assert time.monotonic() - started < 60.0


def test_stage2_coloring_oracle_anchor():
    # tiny independent anchor for the coloring and its replay on masks,
    # which stage 2 runs: the 8-cycle has exactly two proper 2-colorings
    # and ours is one of them
    edges = [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 0)]
    colorings = all_proper_edge_colorings(edges, 2)
    assert edge_color(BipartiteGraph.build(4, 4, edges)) in colorings
    masks = [0] * 4
    for u, v in edges:
        masks[u] |= 1 << v
    rows = bipartite._color_masks(masks, 2, 4)  # row c - 1: the value each left vertex meets by c
    assert tuple(1 + [row[u] for row in rows].index(v + 1) for u, v in edges) in colorings
