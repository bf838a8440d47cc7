"""degree_matching against networkx max flow on random multigraphs.

The flow network has a source arc of capacity left_quota[u] into every
left vertex u, one arc per left-right pair with the pair's edge
multiplicity as capacity, and a sink arc of capacity right_quota[v] out of
every right vertex v.  A matching meeting every quota exists iff the max
flow saturates the source; otherwise the certificate's deficiency is the
flow deficit, and its left set is the left side of the minimal min cut.
"""

import random

import pytest

from oracles import recount_matching
from sudorect import BipartiteGraph, DegreeDemand, HallCertificate, degree_matching

nx = pytest.importorskip("networkx")


def random_instance(rng: random.Random) -> tuple[BipartiteGraph, DegreeDemand]:
    left = rng.randint(1, 8)
    right = rng.randint(1, 10)
    edges = [(rng.randrange(left), rng.randrange(right)) for _ in range(rng.randint(0, 30))]
    total = rng.randint(0, 14)
    left_quota = [0] * left
    right_quota = [0] * right
    for _ in range(total):
        left_quota[rng.randrange(left)] += 1
        right_quota[rng.randrange(right)] += 1
    return BipartiteGraph.build(left, right, edges), DegreeDemand(
        tuple(left_quota), tuple(right_quota)
    )


def networkx_flow(g: BipartiteGraph, demand: DegreeDemand) -> tuple[int, set[int]]:
    """Max flow value and the left vertices reachable from the source in
    the residual network."""
    net = nx.DiGraph()
    net.add_node("s")
    net.add_node("t")
    for u, quota in enumerate(demand.left_quota):
        net.add_edge("s", ("L", u), capacity=quota)
    for v, quota in enumerate(demand.right_quota):
        net.add_edge(("R", v), "t", capacity=quota)
    for u, v in g.edges:
        if net.has_edge(("L", u), ("R", v)):
            net[("L", u)][("R", v)]["capacity"] += 1
        else:
            net.add_edge(("L", u), ("R", v), capacity=1)
    residual = nx.algorithms.flow.edmonds_karp(net, "s", "t")
    seen = {"s"}
    frontier = ["s"]
    while frontier:
        node = frontier.pop()
        for nxt, arc in residual[node].items():
            if arc["capacity"] - arc["flow"] > 0 and nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    reached = {node[1] for node in seen if isinstance(node, tuple) and node[0] == "L"}
    return residual.graph["flow_value"], reached


@pytest.mark.parametrize("seed", range(300))
def test_matching_agrees_with_networkx_max_flow(seed):
    g, demand = random_instance(random.Random(5000 + seed))
    total = sum(demand.left_quota)
    flow, reached = networkx_flow(g, demand)
    ours = degree_matching(g, demand)
    if flow == total:
        assert not isinstance(ours, HallCertificate)
        assert recount_matching(g, demand, ours)
    else:
        assert isinstance(ours, HallCertificate)
        assert ours.required - ours.capacity == total - flow
        assert set(ours.left_set) == reached
