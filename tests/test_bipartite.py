"""Matching, Hall certificates, and edge coloring against brute force."""

import contextlib
import random
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    ExhaustiveLimitExceeded,
    all_proper_edge_colorings,
    coloring_is_proper,
    exhaustive_degree_matching,
    hall_check,
    max_degree,
    recount_matching,
    reference_edge_color,
    with_replaced,
)
from sudorect import (
    BipartiteGraph,
    BlockIndex,
    DegreeDemand,
    HallCertificate,
    KernelError,
    SudokuGrid,
    bipartite,
    complete,
    completion,
    construct_counterexample,
    decide_guaranteed,
    degree_matching,
    edge_color,
    truncate_rows,
)
from sudorect.constructions import figure1_fixture


def complete_bipartite(left, right):
    return BipartiteGraph.build(left, right, [(u, v) for u in range(left) for v in range(right)])


def figure1_block_graph(rows_kept: int) -> BipartiteGraph:
    """Columns 1..3 of the figure against the values still open for block
    (2,1) after keeping the first ``rows_kept`` rows."""
    grid = truncate_rows(figure1_fixture(), rows_kept)
    block_values = set()
    for r in range(4, rows_kept + 1):
        for c in range(1, 4):
            block_values.add(grid.get(r, c))
    values = [v for v in range(1, 10) if v not in block_values]
    edges = []
    for ci, col in enumerate((1, 2, 3)):
        for vi, v in enumerate(values):
            if v not in grid.column_values(col):
                edges.append((ci, vi))
    return BipartiteGraph.build(3, len(values), edges)


# -- degree_matching -----------------------------------------------------------


def test_complete_graph_block_quota():
    g = complete_bipartite(3, 9)
    result = degree_matching(g, DegreeDemand.uniform(g, 3, 1))
    assert not isinstance(result, HallCertificate)
    assert recount_matching(g, DegreeDemand.uniform(g, 3, 1), result)


def test_figure1_prefix_block_graph_feasible():
    g = figure1_block_graph(3)
    # all nine values are on offer; each column excludes its three above
    assert g.right_count == 9
    demand = DegreeDemand.uniform(g, 3, 1)
    result = degree_matching(g, demand)
    assert not isinstance(result, HallCertificate)
    grid = truncate_rows(figure1_fixture(), 3)
    for e in result:
        ci, vi = g.edges[e]
        assert vi + 1 not in grid.column_values(ci + 1)


def test_quota_sum_mismatch_is_contract_error():
    g = BipartiteGraph.build(2, 1, [(0, 0), (1, 0)])
    with pytest.raises(KernelError):
        degree_matching(g, DegreeDemand((1, 1), (1,)))


@pytest.mark.parametrize(
    "demand, message",
    [
        (DegreeDemand((1,), (1, 1)), "quota vectors do not match vertex counts"),
        (DegreeDemand((1, 1), (1,)), "quota vectors do not match vertex counts"),
        (DegreeDemand((2, -1), (1, 0)), "negative quota"),
        (DegreeDemand((1, 0), (-1, 2)), "negative quota"),
    ],
)
def test_degree_matching_refuses_malformed_quotas(demand, message):
    g = BipartiteGraph.build(2, 2, [(0, 0), (0, 1), (1, 1)])
    with pytest.raises(KernelError) as exc:
        degree_matching(g, demand)
    assert str(exc.value) == message


@pytest.mark.parametrize("edge", [(2, 0), (0, 3), (-1, 0)])
def test_graph_refuses_an_edge_out_of_range(edge):
    with pytest.raises(KernelError) as exc:
        BipartiteGraph.build(2, 3, [(0, 0), edge])
    assert str(exc.value) == f"edge ({edge[0]},{edge[1]}) out of range"


def test_star_matching_matches_exhaustive_search():
    edges = [(0, 0), (0, 1), (0, 2)]
    g = BipartiteGraph.build(1, 3, edges)
    demand = DegreeDemand((2,), (1, 1, 0))
    result = degree_matching(g, demand)
    oracle = exhaustive_degree_matching(1, 3, edges, (2,), (1, 1, 0))
    assert not isinstance(result, HallCertificate)
    assert set(result) == set(oracle) == {0, 1}


def test_infeasible_graph_yields_deficient_set():
    # two left vertices share one neighbor that can absorb both units
    g = BipartiteGraph.build(2, 1, [(0, 0), (1, 0)])
    result = degree_matching(g, DegreeDemand((1, 1), (2,)))
    assert result == (0, 1)
    # with unit right quotas the same shape is deficient
    g2 = BipartiteGraph.build(2, 2, [(0, 0), (1, 0)])
    result2 = degree_matching(g2, DegreeDemand((1, 1), (1, 1)))
    assert isinstance(result2, HallCertificate)
    assert result2.left_set == (0, 1)
    assert result2.neighborhood == (0,)
    assert result2.capacity < result2.required


def test_parallel_edges_count_separately():
    g = BipartiteGraph.build(1, 1, [(0, 0), (0, 0)])
    result = degree_matching(g, DegreeDemand((2,), (2,)))
    assert not isinstance(result, HallCertificate)
    assert set(result) == {0, 1}
    # a single edge cannot carry two units
    g_single = BipartiteGraph.build(1, 1, [(0, 0)])
    result = degree_matching(g_single, DegreeDemand((2,), (2,)))
    assert isinstance(result, HallCertificate)
    assert result.capacity < result.required


def test_matching_determinism():
    rng = random.Random(7)
    edges = [(rng.randrange(4), rng.randrange(5)) for _ in range(12)]
    g = BipartiteGraph.build(4, 5, edges)
    demand = DegreeDemand((1, 1, 1, 1), (1, 1, 1, 1, 0))
    first = degree_matching(g, demand)
    second = degree_matching(g, demand)
    assert first == second


@pytest.mark.parametrize("seed", range(200))
def test_matching_agrees_with_exhaustive_search(seed):
    rng = random.Random(seed)
    left = rng.randint(1, 4)
    right = rng.randint(1, 5)
    edge_count = rng.randint(0, 12)
    edges = [(rng.randrange(left), rng.randrange(right)) for _ in range(edge_count)]
    total = rng.randint(0, min(edge_count, 6))
    left_quota = [0] * left
    for _ in range(total):
        left_quota[rng.randrange(left)] += 1
    right_quota = [0] * right
    for _ in range(total):
        right_quota[rng.randrange(right)] += 1
    g = BipartiteGraph.build(left, right, edges)
    demand = DegreeDemand(tuple(left_quota), tuple(right_quota))
    ours = degree_matching(g, demand)
    oracle = exhaustive_degree_matching(left, right, edges, tuple(left_quota), tuple(right_quota))
    if isinstance(ours, HallCertificate):
        assert oracle is None
        assert ours.capacity < ours.required
    else:
        assert oracle is not None
        assert recount_matching(g, demand, ours)


def test_a_search_may_pass_through_a_short_left_vertex():
    # the seed leaves vertices 0 and 1 one unit short each; the search from
    # 0 steps into right vertex 0 and back to 1, still short, and on to 2,
    # whose unmatched edge into right vertex 1 has room
    edges = [(1, 0), (1, 1), (2, 0), (2, 0), (2, 0), (2, 1), (1, 0), (0, 0), (2, 1)]
    g = BipartiteGraph.build(3, 2, edges)
    demand = DegreeDemand((1, 3, 3), (4, 3))
    through_short = with_replaced(
        bipartite._b_matching,
        "seen[tail[f]] = True",
        "assert not need[tail[f]]; seen[tail[f]] = True",
    )
    with pytest.raises(AssertionError):
        through_short(g, demand, 7)
    ours = degree_matching(g, demand)
    assert ours == (0, 1, 4, 5, 6, 7, 8)
    assert recount_matching(g, demand, ours)
    assert exhaustive_degree_matching(3, 2, edges, demand.left_quota, demand.right_quota) is not None


# -- hall_check ----------------------------------------------------------------


def test_hall_check_satisfied_small():
    g = BipartiteGraph.build(1, 2, [(0, 0), (0, 1)])
    assert hall_check(g, 2) is None


def test_hall_check_shared_neighbor_pigeonhole():
    g = BipartiteGraph.build(2, 1, [(0, 0), (1, 0)])
    cert = hall_check(g, 1)
    assert cert is not None
    assert cert.left_set == (0, 1)
    assert cert.capacity == 1 and cert.required == 2


def test_hall_check_figure1_starred_column(figure1):
    g = figure1_block_graph(5)
    cert = hall_check(g, 1)
    assert cert is not None
    assert 0 in cert.left_set  # column 1: the starred cell has no candidates


def test_hall_check_limit_refusal():
    g = BipartiteGraph.build(21, 1, [(i, 0) for i in range(21)])
    with pytest.raises(ExhaustiveLimitExceeded):
        hall_check(g, 1)
    assert hall_check(g, 1, limit=21) is not None


def test_hall_check_bad_multiplier():
    with pytest.raises(KernelError):
        hall_check(BipartiteGraph.build(1, 1, [(0, 0)]), 0)


@pytest.mark.parametrize("seed", range(120))
def test_matching_feasibility_equals_hall_condition(seed):
    # a 1-to-t matching saturating the left side exists iff |N(S)| >= t|S|
    # for every left subset; rights that stay unmatched are absorbed by a
    # phantom left vertex so the exact-quota matcher can express "at most 1"
    rng = random.Random(1000 + seed)
    left = rng.randint(1, 6)
    multiplier = rng.randint(1, 3)
    right = left * multiplier + rng.randint(0, 3)
    density = rng.random()
    edges = [
        (u, v) for u in range(left) for v in range(right) if rng.random() < density
    ]
    g = BipartiteGraph.build(left, right, edges)
    slack = right - left * multiplier
    padded = BipartiteGraph.build(
        left + 1, right, edges + [(left, v) for v in range(right)]
    )
    demand = DegreeDemand((multiplier,) * left + (slack,), (1,) * right)
    ours = degree_matching(padded, demand)
    hall = hall_check(g, multiplier)
    if isinstance(ours, HallCertificate):
        assert hall is not None
    else:
        assert hall is None


# -- edge coloring -------------------------------------------------------------


def test_perfect_matching_gets_one_color():
    g = BipartiteGraph.build(3, 3, [(0, 1), (1, 2), (2, 0)])
    assert edge_color(g) == (1, 1, 1)


def test_k33_coloring_splits_into_perfect_matchings():
    g = complete_bipartite(3, 3)
    colors = edge_color(g)
    assert coloring_is_proper(g, colors)
    assert set(colors) == {1, 2, 3}
    for c in (1, 2, 3):
        class_edges = [g.edges[i] for i, col in enumerate(colors) if col == c]
        assert len(class_edges) == 3
        assert len({u for u, _ in class_edges}) == 3
        assert len({v for _, v in class_edges}) == 3


def test_eight_cycle_two_alternating_colors():
    edges = [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 0)]
    g = BipartiteGraph.build(4, 4, edges)
    colors = edge_color(g)
    valid = all_proper_edge_colorings(edges, 2)
    assert len(valid) == 2
    assert colors in valid


def test_empty_graph_coloring():
    assert edge_color(BipartiteGraph.build(3, 3, [])) == ()
    assert edge_color(BipartiteGraph.build(0, 0, [])) == ()


def test_coloring_determinism():
    rng = random.Random(3)
    edges = [(rng.randrange(6), rng.randrange(6)) for _ in range(18)]
    g = BipartiteGraph.build(6, 6, edges)
    assert edge_color(g) == edge_color(g)


@pytest.mark.parametrize("seed", range(60))
def test_coloring_proper_within_max_degree(seed):
    rng = random.Random(40 + seed)
    left = rng.randint(1, 200)
    right = rng.randint(1, 200)
    target = rng.randint(1, 12)
    edges = []
    left_deg = [0] * left
    right_deg = [0] * right
    attempts = rng.randint(0, 3 * max(left, right))
    for _ in range(attempts):
        u = rng.randrange(left)
        v = rng.randrange(right)
        if left_deg[u] < target and right_deg[v] < target:
            edges.append((u, v))
            left_deg[u] += 1
            right_deg[v] += 1
    g = BipartiteGraph.build(left, right, edges)
    colors = edge_color(g)
    assert coloring_is_proper(g, colors)
    if edges:
        assert max(colors) <= max_degree(g)
        assert min(colors) >= 1


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_regular_graph_color_classes_are_perfect_matchings(k):
    # k-regular: union of k disjoint shifted matchings on k+? vertices
    n = k + 2
    edges = [(u, (u + shift) % n) for shift in range(k) for u in range(n)]
    g = BipartiteGraph.build(n, n, edges)
    colors = edge_color(g)
    assert coloring_is_proper(g, colors)
    assert set(colors) == set(range(1, k + 1))
    for c in range(1, k + 1):
        class_edges = [g.edges[i] for i, col in enumerate(colors) if col == c]
        assert len(class_edges) == n
        assert len({u for u, _ in class_edges}) == n
        assert len({v for _, v in class_edges}) == n


# Each graph's last edge finds no color free at both ends.  Before it the
# colors are those of greedy first-fit; the last edge then swaps the
# alternating path from its right end v, whichever path is shorter, and
# takes a, the color that frees.
ALTERNATING_PATH_CASES = {
    # u = 2 holds 1 and v = 1 holds 2, so a = 2 and b = 1.  From v:
    # (1,1) colored 2, then (1,2) colored 1, two edges; from u: (2,0)
    # colored 1, one edge.  The longer path from v is swapped all the same,
    # and the edge takes a = 2.
    "the path from u is shorter": ([(1, 2), (1, 1), (2, 0), (2, 1)], (1, 2, 1), (2, 1, 1, 2)),
    # u = 3 holds 2 and v = 0 holds 1, so a = 1 and b = 2.  From v: (0,0)
    # colored 1, one edge; from u: (3,2) then (1,2), two.  The edge takes a = 1.
    "the path from v is shorter": ([(1, 2), (0, 0), (3, 2), (3, 0)], (1, 1, 2), (1, 2, 2, 1)),
    # u = 1 holds 2 and v = 1 holds 1, so a = 1 and b = 2.  Both paths have
    # two edges: (2,1) then (2,0) from v, (1,2) then (0,2) from u.
    "a tie goes to the path from v": (
        [(2, 1), (0, 2), (2, 0), (1, 2), (1, 1)], (1, 1, 2, 2), (2, 1, 1, 2, 1),
    ),
}


@pytest.mark.parametrize("case", sorted(ALTERNATING_PATH_CASES))
def test_an_edge_without_a_common_color_swaps_the_path_from_v(case):
    edges, before, after = ALTERNATING_PATH_CASES[case]
    assert edge_color(BipartiteGraph.build(4, 4, edges[:-1])) == before
    assert edge_color(BipartiteGraph.build(4, 4, edges)) == after
    assert reference_edge_color(BipartiteGraph.build(4, 4, edges)) == after


# -- edge coloring against the plain statement on dicts ------------------------


@st.composite
def multigraphs(draw) -> BipartiteGraph:
    """Bipartite multigraphs with unequal sides, parallel edges and max
    degree up to 17, their edges in random order."""
    left = draw(st.integers(1, 6))
    right = draw(st.integers(1, 6))
    delta = draw(st.integers(1, 17))
    room = [delta] * right
    edges = []
    for u in range(left):
        for _ in range(draw(st.integers(0, delta))):
            open_right = [v for v in range(right) if room[v]]
            if not open_right:
                break
            v = draw(st.sampled_from(open_right))
            room[v] -= 1
            edges.append((u, v))
    return BipartiteGraph.build(left, right, draw(st.permutations(edges)))


@settings(max_examples=300, deadline=None)
@given(g=multigraphs())
def test_coloring_equals_reference_on_random_multigraphs(g):
    assert edge_color(g) == reference_edge_color(g)


def test_coloring_equals_reference_on_pipeline_graphs(monkeypatch):
    graphs = []

    def recording(g):
        graphs.append(g)
        return edge_color(g)

    monkeypatch.setattr(completion, "edge_color", recording)
    for k in range(2, 7):
        complete(SudokuGrid(k))
    for k in (4, 5, 6):
        for m in range(k * k):
            if not decide_guaranteed(k, m).guaranteed:
                construct_counterexample(k, m)
    monkeypatch.undo()
    degrees = {max_degree(g) for g in graphs}
    assert degrees == set(range(2, 7)) and len(graphs) == 129
    for g in graphs:
        assert edge_color(g) == reference_edge_color(g)


def test_stage2_path_work_is_pinned(monkeypatch):
    # the edges the colouring swaps, over all of stage 2's graphs for one
    # input: a rule that shortens the alternating paths changes this count
    graphs = []

    def recording(g):
        graphs.append(g)
        return edge_color(g)

    monkeypatch.setattr(completion, "edge_color", recording)
    complete(SudokuGrid(9))
    square = list(graphs)
    graphs.clear()
    for m in range(25):
        if not decide_guaranteed(5, m).guaranteed:
            construct_counterexample(5, m)
    monkeypatch.undo()
    for recorded, edges, swapped in ((square, 6561, 2106), (graphs, 2700, 736)):
        work: list[int] = []
        for g in recorded:
            assert edge_color(g) == reference_edge_color(g, work)
        assert (sum(len(g.edges) for g in recorded), sum(work)) == (edges, swapped)


# -- all-ones quotas ---------------------------------------------------------


def permutation_union(rng: random.Random) -> BipartiteGraph:
    """A union of d random permutations (d odd, 2-40 vertices a side, so
    parallel edges occur) with its edges in a random order: a d-regular
    multigraph, which has a perfect matching by Kőnig's theorem."""
    side = rng.randint(2, 40)
    degree = rng.choice([1, 3, 5, 7, 9])
    edges = []
    for _ in range(degree):
        edges += enumerate(rng.sample(range(side), side))
    rng.shuffle(edges)
    return BipartiteGraph.build(side, side, edges)


def sparse_graph(rng: random.Random) -> BipartiteGraph:
    """1-12 vertices a side and up to three edges per vertex, drawn at
    random: often without a perfect matching."""
    side = rng.randint(1, 12)
    edges = [(rng.randrange(side), rng.randrange(side)) for _ in range(rng.randint(0, 3 * side))]
    return BipartiteGraph.build(side, side, edges)


@settings(max_examples=300, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_unit_quotas_on_permutation_unions_give_a_perfect_matching(rng):
    g = permutation_union(rng)
    unit = DegreeDemand.uniform(g, 1, 1)
    found = degree_matching(g, unit)
    assert not isinstance(found, HallCertificate) and recount_matching(g, unit, found)


@settings(max_examples=300, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_unit_quotas_on_sparse_graphs_agree_with_hall(rng):
    g = sparse_graph(rng)
    unit = DegreeDemand.uniform(g, 1, 1)
    found = degree_matching(g, unit)
    if hall_check(g, 1) is None:
        assert not isinstance(found, HallCertificate) and recount_matching(g, unit, found)
    else:
        assert isinstance(found, HallCertificate) and found.capacity < found.required


def test_sparse_graphs_reach_both_outcomes():
    rng = random.Random(16)
    outcomes = set()
    for _ in range(100):
        g = sparse_graph(rng)
        outcomes.add(isinstance(degree_matching(g, DegreeDemand.uniform(g, 1, 1)), tuple))
    assert outcomes == {True, False}


@contextlib.contextmanager
def within(seconds: float):
    """Fail with TimeoutError once the block has run ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# Per matcher: an input whose greedy seed falls one unit short, the full
# matching one augmenting path gives, the source edit that makes the step
# into a right vertex with room a dead end, and what the edited matcher
# then returns: a reached set, whose neighbourhood still has room.
NO_PATH = {
    "_b_matching": (
        (BipartiteGraph.build(2, 2, [(0, 0), (0, 0), (0, 1), (1, 0)]),
         DegreeDemand((2, 1), (2, 1)), 3),
        (1, 2, 3),
        "yield e, -1",
        "continue",
        [0, 1],
    ),
    "_assign_on_masks": (
        # every bit a vertex could take is one a later vertex may take, so
        # the seed gives vertex 0 bit 0 and leaves vertex 2 without one
        ([0b011, 0b110, 0b001], 1, 0b111),
        ([0b010, 0b100, 0b001], []),
        "scan = eligible[u] & ~assigned[u] & (free | unvisited)",
        "scan = eligible[u] & ~assigned[u] & unvisited",
        ([0b001, 0b010, 0], [0, 1, 2]),
    ),
}


@pytest.mark.parametrize("name", sorted(NO_PATH))
def test_a_matcher_that_misses_its_path_is_refused_at_the_boundary(name, monkeypatch):
    # each round either gains a unit or returns, so the edited matcher
    # ends; the reached set it returns is not deficient, and the boundary
    # that turns it into a witness must refuse it
    args, found, old, new, reached = NO_PATH[name]
    matcher = getattr(bipartite, name)
    assert matcher(*args) == found
    edited = with_replaced(matcher, old, new)
    with within(5):
        assert edited(*args) == reached
    if name == "_assign_on_masks":
        # the block's three columns already hold values 3, 1 and 2-3 of
        # the offered 1-3: the eligible masks above
        monkeypatch.setattr(completion, name, edited)
        with pytest.raises(KernelError, match="deficient column set failed its own"):
            completion._stage1(BlockIndex(2, 1), 1, 0b111, [0b100, 0b001, 0b110], None)
    else:
        monkeypatch.setattr(bipartite, name, edited)
        with pytest.raises(KernelError, match="min-cut certificate failed its own"):
            degree_matching(*args[:2])
