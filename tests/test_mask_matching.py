"""The value-mask matcher against degree_matching on the graph it stands for.

``_assign_on_masks`` replays the greedy seed and the Hopcroft–Karp phases
of :func:`degree_matching` on int bitmasks.  Every test here materialises
the graph the masks stand for (right vertices the bits of ``free`` in
increasing order, each left vertex's edges in increasing bit order) and
asks for the same feasibility, the same assignment, and the same
certificate left set and neighbourhood.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import core_stage1, reference_stage1
from sudorect import (
    BipartiteGraph,
    BlockIndex,
    DegreeDemand,
    HallCertificate,
    KernelError,
    NotCompletable,
    SudokuGrid,
    complete,
    complete_randomized,
    construct_counterexample,
    decide_guaranteed,
    degree_matching,
    extend_column_blocks,
    is_m_rectangle,
    truncate_rows,
)
from sudorect import completion
from sudorect.bipartite import _assign_on_masks
from sudorect.constructions import figure1_fixture


def _bits(mask: int) -> list[int]:
    return [p for p in range(mask.bit_length()) if mask >> p & 1]


def graph_replay(eligible: list[int], quota: int, free: int) -> tuple[list[int], list[int], int]:
    """(assigned, reached, neighbourhood) from degree_matching on the
    materialised graph, in the kernel's terms."""
    values = _bits(free)
    index = {p: i for i, p in enumerate(values)}
    edges = [(u, index[p]) for u, mask in enumerate(eligible) for p in _bits(mask)]
    graph = BipartiteGraph.build(len(eligible), len(values), edges)
    result = degree_matching(graph, DegreeDemand.uniform(graph, quota, 1))
    assigned = [0] * len(eligible)
    if isinstance(result, HallCertificate):
        neighbourhood = sum(1 << values[i] for i in result.neighborhood)
        return assigned, list(result.left_set), neighbourhood
    for e in result:
        u, vi = graph.edges[e]
        assigned[u] |= 1 << values[vi]
    return assigned, [], 0


def assert_replays(eligible: list[int], quota: int, free: int) -> bool:
    """Kernel and graph agree; True iff the instance is feasible."""
    assigned, reached = _assign_on_masks(list(eligible), quota, free)
    want_assigned, want_reached, neighbourhood = graph_replay(eligible, quota, free)
    assert reached == want_reached
    if reached:
        union = 0
        for u in reached:
            union |= eligible[u]
        assert union == neighbourhood
        assert union.bit_count() < quota * len(reached)
        return False
    assert assigned == want_assigned
    return True


# -- random masks ----------------------------------------------------------------


@st.composite
def mask_instances(draw) -> tuple[list[int], int, int]:
    """k = 1..6 left vertices with quota 1..4 over k·quota free bits spread
    in a slightly wider word; eligible masks thinned by ANDing 1..3 random
    draws, so sparse (often infeasible) and dense instances both occur."""
    k = draw(st.integers(1, 6))
    quota = draw(st.integers(1, 4))
    width = k * quota + draw(st.integers(0, 3))
    spots = draw(st.permutations(range(width)))[: k * quota]
    free = sum(1 << p for p in spots)
    thinning = draw(st.integers(1, 3))
    eligible = []
    for _ in range(k):
        mask = free
        for _ in range(thinning):
            mask &= draw(st.integers(0, (1 << width) - 1))
        eligible.append(mask)
    return eligible, quota, free


@settings(max_examples=800, deadline=None)
@given(instance=mask_instances())
def test_kernel_replays_degree_matching_on_random_masks(instance):
    assert_replays(*instance)


def test_random_masks_cover_both_outcomes():
    outcomes = set()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(instance=mask_instances())
    def run(instance):
        outcomes.add(assert_replays(*instance))

    run()
    assert outcomes == {True, False}


def test_kernel_quota_sum_mismatch_is_contract_error():
    with pytest.raises(KernelError, match="quota sums differ"):
        _assign_on_masks([0b11, 0b11], 1, 0b111)


def test_kernel_takes_the_greedy_seed_when_it_suffices():
    assigned, reached = _assign_on_masks([0b1111, 0b1111], 2, 0b1111)
    assert (assigned, reached) == ([0b0011, 0b1100], [])


# -- instances cut from the pipeline ---------------------------------------------


def record_kernel_calls(monkeypatch) -> list[tuple[list[int], int, int]]:
    """Patch the kernel as the completion module calls it, keeping a copy
    of every instance it is handed."""
    calls = []
    kernel = completion._assign_on_masks

    def recording(eligible, quota, free):
        calls.append((list(eligible), quota, free))
        return kernel(eligible, quota, free)

    monkeypatch.setattr(completion, "_assign_on_masks", recording)
    return calls


@settings(max_examples=60, deadline=None)
@given(k=st.integers(2, 4), seed=st.integers(0, 10**6), cut=st.floats(0, 1))
def test_stage1_instances_of_truncated_squares_replay(k, seed, cut):
    n = k * k
    square = complete_randomized(SudokuGrid(k), seed)
    grid = truncate_rows(square, min(n - 1, int(cut * n)))
    with pytest.MonkeyPatch.context() as patch:
        calls = record_kernel_calls(patch)
        assert isinstance(complete(grid), SudokuGrid)
    assert calls
    for instance in calls:
        assert assert_replays(*instance)


@settings(max_examples=40, deadline=None)
@given(k=st.integers(2, 4), seed=st.integers(0, 10**6), cut=st.floats(0, 1))
def test_widening_instances_of_column_blocks_replay(k, seed, cut):
    n = k * k
    square = complete_randomized(SudokuGrid(k), seed)
    m = max(1, int(cut * n))
    rows = [
        [v if r < m and c < k else None for c, v in enumerate(row)]
        for r, row in enumerate(square.rows())
    ]
    block = SudokuGrid.from_rows(k, rows)
    with pytest.MonkeyPatch.context() as patch:
        calls = record_kernel_calls(patch)
        extend_column_blocks(block)
    assert len(calls) == (k - 1) * ((m + k - 1) // k)  # per new column block, per row block
    for instance in calls:
        assert assert_replays(*instance)


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_construction_instances_replay(monkeypatch, k):
    """The widenings and the rejecting stage 1 of every construction."""
    calls = record_kernel_calls(monkeypatch)
    for m in range(k * k + 1):
        if not decide_guaranteed(k, m).guaranteed:
            construct_counterexample(k, m)
    outcomes = {assert_replays(*instance) for instance in calls}
    assert outcomes == {True, False}


def test_figure1_instances_replay(monkeypatch):
    calls = record_kernel_calls(monkeypatch)
    figure1 = figure1_fixture()
    for rows in (3, 4, 5):
        complete(truncate_rows(figure1, rows))
    outcomes = [assert_replays(*instance) for instance in calls]
    assert outcomes[-1] is False  # the 5-row figure is rejected


# -- stage 1 against the graph path ----------------------------------------------


def open_blocks(grid: SudokuGrid):
    shape = is_m_rectangle(grid)
    k = grid.order.k
    return shape, [BlockIndex(shape.l + 1, d) for d in range(1, k + 1)]


@settings(max_examples=60, deadline=None)
@given(k=st.integers(2, 4), seed=st.integers(0, 10**6), cut=st.floats(0, 1))
def test_stage1_matches_reference_on_truncated_squares(k, seed, cut):
    n = k * k
    square = complete_randomized(SudokuGrid(k), seed)
    grid = truncate_rows(square, min(n - 1, int(cut * n)))
    shape, blocks = open_blocks(grid)
    for block in blocks:
        got = core_stage1(grid, shape, block)
        assert got == reference_stage1(grid, shape, block)


@pytest.mark.parametrize("k", [3, 4, 5])
def test_stage1_matches_reference_on_constructions(k):
    rejected = 0
    for m in range(k * k + 1):
        if decide_guaranteed(k, m).guaranteed:
            continue
        grid = construct_counterexample(k, m).rectangle
        shape, blocks = open_blocks(grid)
        for block in blocks:
            got = core_stage1(grid, shape, block)
            assert got == reference_stage1(grid, shape, block)
            rejected += isinstance(got, NotCompletable)
    assert rejected > 0


def test_stage1_matches_reference_on_figure1():
    figure1 = figure1_fixture()
    for rows in (3, 4, 5):
        grid = truncate_rows(figure1, rows)
        shape, blocks = open_blocks(grid)
        for block in blocks:
            assert core_stage1(grid, shape, block) == reference_stage1(
                grid, shape, block
            )
