"""The value-mask matcher against degree_matching on the graph it stands for.

Both run one breadth-first augmenting search per missing unit, from every
short left vertex at once: :func:`degree_matching` on the graph, and
``_assign_on_masks`` on int bitmasks, after a greedy seed that takes each
left vertex's last-chance values first; the mask search tests a vertex
for a free bit when it first reaches it.  Both return the same reached
set, the source side of the minimal minimum cut.  Every test here
materialises the graph the masks stand for (right vertices the bits of
``free`` in increasing order, each left vertex's edges in increasing bit
order) and asks for the same feasibility and the same certificate left
set and neighbourhood, which are those of every maximum matching.  A
feasible assignment is checked on its own terms: each left vertex holds
``quota`` of its eligible bits, no bit twice, and together they are
``free``.
"""

from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import core_stage1, reference_stage1, with_replaced
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


def graph_replay(eligible: list[int], quota: int, free: int) -> tuple[list[int], int]:
    """(reached, neighbourhood) from degree_matching on the materialised
    graph, in the kernel's terms; ([], 0) when it matches in full."""
    values = _bits(free)
    index = {p: i for i, p in enumerate(values)}
    edges = [(u, index[p]) for u, mask in enumerate(eligible) for p in _bits(mask)]
    graph = BipartiteGraph.build(len(eligible), len(values), edges)
    result = degree_matching(graph, DegreeDemand.uniform(graph, quota, 1))
    if isinstance(result, HallCertificate):
        neighbourhood = sum(1 << values[i] for i in result.neighborhood)
        return list(result.left_set), neighbourhood
    return [], 0


def assert_assignment(assigned: list[int], eligible: list[int], quota: int, free: int) -> None:
    """Each left vertex holds ``quota`` of its eligible bits, the holdings
    are disjoint, and together they are ``free``."""
    assert len(assigned) == len(eligible)
    union = 0
    for mask, allowed in zip(assigned, eligible):
        assert mask.bit_count() == quota
        assert mask & ~allowed == 0
        assert union & mask == 0
        union |= mask
    assert union == free


def assert_replays(eligible: list[int], quota: int, free: int) -> bool:
    """Kernel and graph agree, and a full assignment is valid; True iff
    the instance is feasible."""
    assigned, reached = _assign_on_masks(list(eligible), quota, free)
    want_reached, neighbourhood = graph_replay(eligible, quota, free)
    assert reached == want_reached
    if reached:
        union = 0
        for u in reached:
            union |= eligible[u]
        assert union == neighbourhood
        assert union.bit_count() < quota * len(reached)
        return False
    assert_assignment(assigned, eligible, quota, free)
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


# the kernel edited to check that a search queues each left vertex once:
# one that queued a vertex again would never end on an infeasible instance
reached_once = with_replaced(
    _assign_on_masks, "queue.append(w)", "queue.append(w); assert len(queue) <= left"
)


@settings(max_examples=400, deadline=None)
@given(instance=mask_instances())
def test_a_search_reaches_each_left_vertex_once(instance):
    assert reached_once(*instance) == _assign_on_masks(*instance)


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


# Instances on which a search from one short left vertex alone would step
# into another that is itself still short, and the reached set each ends
# with.  The breadth-first search starts at every short vertex at
# once, so a held bit leads only to a vertex that has its quota: the
# edited kernel asserts that at every such step and returns the same.
THROUGH_SHORT = [
    (([0b101100110, 0b100101110, 0b101001011], 3, 0b111111111), [0, 1, 2]),
    (([0b111011, 0b000101, 0b11110000, 0b001011], 2, 0b11111111), []),
]


@pytest.mark.parametrize("instance, reached", THROUGH_SHORT)
def test_a_search_may_pass_through_a_short_left_vertex(instance, reached):
    never_short = with_replaced(
        _assign_on_masks,
        "via[w] = u, bit & -bit",
        "assert assigned[w].bit_count() == quota; via[w] = u, bit & -bit",
    )
    assert never_short(*instance)[1] == reached
    assert _assign_on_masks(*instance)[1] == reached
    assert assert_replays(*instance) == (not reached)


# the kernel cut off after its seed: it returns what each left vertex holds
# and the bits still free
seed_only = with_replaced(
    _assign_on_masks,
    "    while roots:\n",
    "    return assigned, free\n    while roots:\n",
)


def short_after_seed(eligible: list[int], quota: int, free: int) -> bool:
    """Check the premise of the search, and say whether the seed fell
    short: a vertex the seed leaves short took every free bit it could,
    and free only shrinks, so a search root never ends its own path."""
    assigned, left_free = seed_only(list(eligible), quota, free)
    short = False
    for mask, allowed in zip(assigned, eligible):
        if mask.bit_count() < quota:
            assert allowed & left_free == 0
            short = True
    return short


@settings(max_examples=400, deadline=None)
@given(instance=mask_instances())
def test_no_short_vertex_keeps_a_free_bit_after_the_seed(instance):
    short_after_seed(*instance)


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


def test_no_short_vertex_keeps_a_free_bit_on_construction_instances(monkeypatch):
    calls = record_kernel_calls(monkeypatch)
    for k in (3, 4, 5, 6):
        for m in range(k * k + 1):
            if not decide_guaranteed(k, m).guaranteed:
                construct_counterexample(k, m)
    short = sum(short_after_seed(*instance) for instance in calls)
    assert short > 0  # some seeds fall short, so the premise is put to the test


def test_figure1_instances_replay(monkeypatch):
    calls = record_kernel_calls(monkeypatch)
    figure1 = figure1_fixture()
    for rows in (3, 4, 5):
        complete(truncate_rows(figure1, rows))
    outcomes = [assert_replays(*instance) for instance in calls]
    assert outcomes[-1] is False  # the 5-row figure is rejected


# -- the greedy seed -------------------------------------------------------------


def lowest_bits_shortfall(eligible: list[int], quota: int, free: int) -> int:
    """The units a seed leaves missing when every left vertex in turn takes
    its lowest free bits, the rule before last-chance bits came first."""
    missing = 0
    for mask in eligible:
        avail = mask & free
        take = 0
        while avail and take.bit_count() < quota:
            low = avail & -avail
            take |= low
            avail ^= low
        missing += quota - take.bit_count()
        free ^= take
    return missing


def test_last_chance_seed_leaves_fewer_units_to_the_search(monkeypatch):
    calls = record_kernel_calls(monkeypatch)
    for k in (5, 6):
        for m in range(k * k + 1):
            if not decide_guaranteed(k, m).guaranteed:
                construct_counterexample(k, m)
    assert len(calls) == 394
    # the bits the kernel's own seed leaves free are the units the
    # searches would have to find
    short = sum(seed_only(*instance)[1].bit_count() for instance in calls)
    assert short == 45
    assert short < sum(lowest_bits_shortfall(*instance) for instance in calls) == 1319


# -- stage 1 against the graph path ----------------------------------------------


def open_blocks(grid: SudokuGrid):
    shape = is_m_rectangle(grid)
    k = grid.order.k
    return shape, [BlockIndex(shape.l + 1, d) for d in range(1, k + 1)]


def assert_stage1_agrees(grid: SudokuGrid, shape, block: BlockIndex) -> bool:
    """The pipeline's stage 1 and the graph path give the same witness, or
    both fill the block: each column gets ``k − r`` offered values it
    lacks, and the block's absent values are handed out once each.  True
    iff the block is rejected."""
    got = core_stage1(grid, shape, block)
    want = reference_stage1(grid, shape, block)
    if isinstance(want, NotCompletable):
        assert got == want
        return True
    assert not isinstance(got, NotCompletable)
    assert sorted(got) == sorted(want)
    for col, values in got.items():
        assert len(values) == grid.order.k - shape.r
        assert not set(values) & grid.column_values(col)
    absent = set(range(1, grid.order.n + 1)) - grid.block_values(block)
    assert sorted(chain.from_iterable(got.values())) == sorted(absent)
    return False


@settings(max_examples=60, deadline=None)
@given(k=st.integers(2, 4), seed=st.integers(0, 10**6), cut=st.floats(0, 1))
def test_stage1_matches_reference_on_truncated_squares(k, seed, cut):
    n = k * k
    square = complete_randomized(SudokuGrid(k), seed)
    grid = truncate_rows(square, min(n - 1, int(cut * n)))
    shape, blocks = open_blocks(grid)
    for block in blocks:
        assert not assert_stage1_agrees(grid, shape, block)


@pytest.mark.parametrize("k", [3, 4, 5])
def test_stage1_matches_reference_on_constructions(k):
    rejected = 0
    for m in range(k * k + 1):
        if decide_guaranteed(k, m).guaranteed:
            continue
        grid = construct_counterexample(k, m).rectangle
        shape, blocks = open_blocks(grid)
        for block in blocks:
            rejected += assert_stage1_agrees(grid, shape, block)
    assert rejected > 0


def test_stage1_matches_reference_on_figure1():
    figure1 = figure1_fixture()
    for rows in (3, 4, 5):
        grid = truncate_rows(figure1, rows)
        shape, blocks = open_blocks(grid)
        for block in blocks:
            assert_stage1_agrees(grid, shape, block)
