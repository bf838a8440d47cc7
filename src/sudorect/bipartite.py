"""Bipartite combinatorial kernels: degree-constrained matching, Hall
certificates, and max-degree edge coloring.

Vertices are 0-based; parallel edges are allowed and matter (a matching is
a subset of edge *positions*).  Colorings follow Kőnig's alternating-path
proof: each edge is colored once, in edge order, and only an edge with no
color free at both ends swaps two colors along one alternating path.  The
public ``edge_color`` and the completion pipeline's stage 2 share that one
loop, ``_color_edges``, which takes the edges as parallel tail and head
lists: ``edge_color`` builds them from a checked graph, stage 2 straight
from its value masks.  Everything here is deterministic for a fixed edge
order.

Matchings are found on the graph itself by ``_b_matching``, for general
quotas: a greedy seed in edge order, then, only if it falls short, one
breadth-first augmenting search per missing unit (Ford and Fulkerson),
started at every short left vertex at once.  A search that finds no
augmenting path returns the left vertices it reached.

The completion's matching runs on value bitmasks instead:
``_assign_on_masks`` takes unit right quotas, with each left vertex's
edges in increasing value order (stage 1 and the column-block widening),
and keeps its own rules.  Its seed has each left vertex first take the
bits no later vertex is eligible for, an ordering form of Karp and
Sipser's forced choice, which leaves stage 1 and the widening far fewer
units to augment; it then runs depth-first rounds that share one
``seen`` set per round, and its search takes a free bit before any held
one.  Its assignments can differ from ``_b_matching``'s, but its reached
set cannot: in every maximum matching, the left vertices that
alternating search reaches from the short ones are the source side of
the minimal minimum cut.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections import Counter
from itertools import compress
from typing import Union


class KernelError(Exception):
    """Contract violation (mismatched quotas, malformed graph, ...)."""


@dataclass(frozen=True)
class BipartiteGraph:
    left_count: int
    right_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for u, v in self.edges:
            if type(u) is not int or type(v) is not int:  # bool is not a vertex
                raise KernelError(f"edge ({type(u).__name__},{type(v).__name__}): vertices are ints")
            if not (0 <= u < self.left_count and 0 <= v < self.right_count):
                raise KernelError(f"edge ({u},{v}) out of range")

    @classmethod
    def build(cls, left_count: int, right_count: int, edges) -> "BipartiteGraph":
        # __post_init__ unpacks every edge, so anything but a pair still fails
        return cls(left_count, right_count, tuple(map(tuple, edges)))


@dataclass(frozen=True)
class DegreeDemand:
    """Exact matched degree required of every vertex."""

    left_quota: tuple[int, ...]
    right_quota: tuple[int, ...]

    @classmethod
    def uniform(cls, g: BipartiteGraph, left: int, right: int) -> "DegreeDemand":
        return cls((left,) * g.left_count, (right,) * g.right_count)


@dataclass(frozen=True)
class HallCertificate:
    """A set S of left vertices whose neighborhood cannot absorb its demand.

    ``capacity`` is what N(S) can take in total, which with unit right
    quotas is simply |N(S)|; the certificate asserts capacity < required.
    """

    left_set: tuple[int, ...]
    neighborhood: tuple[int, ...]
    required: int
    capacity: int


MatchingResult = Union[tuple[int, ...], HallCertificate]


def degree_matching(g: BipartiteGraph, demand: DegreeDemand) -> MatchingResult:
    """Edge subset giving every vertex exactly its quota, or a certificate.

    A greedy pass in edge order seeds the matching, then one
    breadth-first augmenting search per missing unit completes it.  A
    search scans each vertex's edges at most once, so with V vertices,
    E edges and T the quota total it takes O(T·(V + E)) time in all.
    Infeasibility is witnessed by the left vertices that alternating
    search reaches from the deficient ones: the source side of the minimal
    minimum cut, the same for every maximum matching.  Their quota mass
    exceeds what their combined neighborhood can absorb.
    """
    left, right = demand.left_quota, demand.right_quota
    if len(left) != g.left_count or len(right) != g.right_count:
        raise KernelError("quota vectors do not match vertex counts")
    if any(q < 0 for q in left + right):
        raise KernelError("negative quota")
    total = sum(left)
    if total != sum(right):
        raise KernelError(f"quota sums differ: left {total}, right {sum(right)}")
    found = _b_matching(g, demand, total)
    if isinstance(found, list):
        return _certificate(g, demand, found)
    return found


def _b_matching(
    g: BipartiteGraph, demand: DegreeDemand, total: int
) -> Union[tuple[int, ...], list[int]]:
    """The matched edge positions, or the left vertices that alternating
    search reaches when the matching stays short of ``total``.

    An augmenting path leaves a left vertex along an unmatched edge and
    returns from a right vertex along a matched edge, until it reaches a
    right vertex with room.  Flipping its edges keeps every inner vertex's
    degree and adds one unit at both ends.
    """
    edges = g.edges
    need = list(demand.left_quota)  # units each left vertex still lacks
    room = list(demand.right_quota)  # units each right vertex can still take
    matched = bytearray(len(edges))
    missing = total
    for e, (u, v) in enumerate(edges):
        if need[u] and room[v]:
            need[u] -= 1
            room[v] -= 1
            matched[e] = 1
            missing -= 1
    if missing:  # every edge out of a left vertex and into a right one
        out: list[list[tuple[int, int]]] = [[] for _ in need]  # (edge, right end)
        into: list[list[tuple[int, int]]] = [[] for _ in room]  # (edge, left end)
        for e, (u, v) in enumerate(edges):
            out[u].append((e, v))
            into[v].append((e, u))
    while missing:
        # one breadth-first search from every short left vertex at once:
        # via[w] is (u, e, f) when w was first reached from u out along
        # the unmatched edge e and back along the matched edge f, and None
        # at a root; a right vertex without room is crossed once, to all
        # of its holders
        via: dict[int, tuple[int, int, int] | None] = {u: None for u in range(len(need)) if need[u]}
        queue = list(via)
        crossed = bytearray(len(room))
        end = -1
        for u in queue:
            for e, v in out[u]:
                if matched[e] or crossed[v]:
                    continue
                if room[v]:
                    end = e
                    break
                crossed[v] = 1
                for f, w in into[v]:
                    if matched[f] and w not in via:
                        via[w] = u, e, f
                        queue.append(w)
            if end >= 0:
                break
        if end < 0:
            return sorted(via)
        # flip the path from its end edge back to its root
        room[v] -= 1
        matched[end] = 1
        while via[u] is not None:
            u, e, f = via[u]
            matched[e], matched[f] = 1, 0
        need[u] -= 1
        missing -= 1
    return tuple(compress(range(len(edges)), matched))


def _assign_on_masks(
    eligible: list[int], quota: int, free: int
) -> tuple[list[int], list[int]]:
    """Degree matching with left quota ``quota`` and unit right quotas,
    on int bitmasks.

    Left vertex u may take the values whose bits are set in
    ``eligible[u]``, a subset of ``free``; each bit of ``free`` can be
    taken once.  The greedy seed has each left vertex in turn take its
    last-chance bits (free bits that no later vertex is eligible for)
    before its lowest other free bits.  Then ``while missing:`` rounds
    run: a round sets up one ``seen`` set, and every left vertex still
    short and not yet seen searches depth first along alternating paths,
    again while it is still short after a success.  ``unvisited`` is the
    OR of the bits held by the vertices not seen yet, so the candidates
    at a vertex u on the path are
    ``eligible[u] & ~assigned[u] & (free | unvisited)``, taken again at
    every step.  A free candidate ends the path at once, and the path is
    flipped; otherwise the search descends into the holder of the lowest
    candidate, read from ``assigned`` itself: the left vertex whose mask
    has its bit.  Each round gains a unit or returns, so the loop ends.
    On the graph these masks stand for, with each left vertex's edges in
    increasing bit order, the assignment can differ from the one
    degree_matching returns, but the reached set is the same.

    Returns (assigned, reached): the bits each left vertex holds, and the
    left vertices seen by a round that gained nothing, which is empty iff
    every left vertex got its quota.
    """
    left = len(eligible)
    if quota * left != free.bit_count():
        raise KernelError(
            f"quota sums differ: left {quota * left}, right {free.bit_count()}"
        )
    # greedy seed: every left vertex in turn first takes its last-chance
    # bits, the free ones no later vertex is eligible for, then its lowest
    # other free bits; each pool is taken whole unless it holds more than
    # the vertex still lacks, and then only its lowest bits
    later = [0] * left  # later[u]: the OR of eligible[u + 1:]
    for u in range(left - 1, 0, -1):
        later[u - 1] = later[u] | eligible[u]
    assigned = []
    missing = 0
    for mask, others in zip(eligible, later):
        avail = mask & free
        take = 0
        lack = quota
        for pool in (avail & ~others, avail & others):
            if pool.bit_count() > lack:
                for _ in range(lack):
                    low = pool & -pool
                    take |= low
                    pool ^= low
                lack = 0
                break
            take |= pool
            lack -= pool.bit_count()
        missing += lack
        free ^= take
        assigned.append(take)
    if missing:
        need = [quota - mask.bit_count() for mask in assigned]
    while missing:
        short = missing
        seen = [False] * left
        unvisited = sum(assigned)  # disjoint: the bits held by vertices not seen yet
        for source in range(left):
            if not need[source] or seen[source]:
                continue
            seen[source] = True
            unvisited &= ~assigned[source]
            while need[source]:
                stack = [source]
                path: list[tuple[int, int]] = []  # (bit taken, its holder or -1)
                while stack:
                    u = stack[-1]
                    scan = eligible[u] & ~assigned[u] & (free | unvisited)
                    spare = scan & free
                    if spare:  # a free bit ends the path at once
                        low = spare & -spare
                        path.append((low, -1))
                        for taker, (bit, held_by) in zip(stack, path):
                            assigned[taker] |= bit
                            if held_by >= 0:
                                assigned[held_by] ^= bit
                        free ^= low
                        need[source] -= 1
                        missing -= 1
                        break
                    if not scan:
                        stack.pop()
                        if path:
                            path.pop()
                        continue
                    # a candidate that is not free lies in unvisited: its
                    # holder is the one unseen vertex whose mask has it
                    low = scan & -scan
                    w = next(x for x, held in enumerate(assigned) if held & low)
                    seen[w] = True
                    unvisited &= ~assigned[w]
                    path.append((low, w))
                    stack.append(w)
                else:  # a failed search ends the source's turn
                    break
        if missing == short:
            return assigned, [u for u in range(left) if seen[u]]
    return assigned, []


def _certificate(
    g: BipartiteGraph, demand: DegreeDemand, left_set: list[int]
) -> HallCertificate:
    member = set(left_set)
    reach: dict[int, int] = {}
    for u, v in g.edges:
        if u in member:
            reach[v] = reach.get(v, 0) + 1
    neighborhood = tuple(sorted(reach))
    required = sum(demand.left_quota[u] for u in left_set)
    capacity = sum(min(demand.right_quota[v], reach[v]) for v in neighborhood)
    if capacity >= required:
        raise KernelError("min-cut certificate failed its own deficiency check")
    return HallCertificate(tuple(left_set), neighborhood, required, capacity)


# -- edge coloring ----------------------------------------------------------


def edge_color(g: BipartiteGraph) -> tuple[int, ...]:
    """Proper edge coloring with colors in [1, max degree Δ].

    Kőnig's alternating-path proof, run in edge order.  An edge (u, v)
    takes the lowest color free at both ends.  If there is none, let a be
    the lowest color free at u and b the lowest free at v; the edges
    colored a or b form paths and even cycles, and v ends one path, which
    starts with an a-edge.  Swapping a and b along that path frees a at v,
    and the edge takes a.  The path never reaches u: it enters left
    vertices only along a-edges, and u has none.
    """
    left = g.left_count
    tail = [u for u, _ in g.edges]
    head = [left + v for _, v in g.edges]  # right vertex v is vertex left + v
    delta = max(Counter(tail + head).values(), default=0)
    return tuple(_color_edges(tail, head, left + g.right_count, delta))


def _color_edges(tail: list[int], head: list[int], vertices: int, delta: int) -> list[int]:
    """:func:`edge_color`'s loop on edge e = (tail[e], head[e]), the two
    sides numbered apart in ``range(vertices)``: the colors in [1, delta].

    Every tail must have at most ``delta`` edges.  A head with more raises
    :class:`KernelError`, at its first edge past ``delta``: no color is
    free there, so that edge is the one that finds b > delta.
    """
    top = 1 << delta  # bit c stands for color c
    at = [[-1] * (delta + 1) for _ in range(vertices)]  # at[x][c]: x's edge of color c
    used = [1] * vertices  # the colors at each vertex; bit 0 set, so color 0 is never free
    colors = [0] * len(tail)
    for e, u in enumerate(tail):
        v = head[e]
        here, there = used[u], used[v]
        both = here | there
        low = ~both & (both + 1)
        if low > top:
            a = (~here & (here + 1)).bit_length() - 1
            b = (~there & (there + 1)).bit_length() - 1
            if b > delta:
                raise KernelError(f"vertex {v} has more than {delta} edges")
            swap = a + b
            # swap the path from v edge by edge: f leaves x and takes
            # color d, and the next edge leaves f's far end by d, which f
            # holds there from now on
            x, f, d = v, at[v][a], b
            while f >= 0:
                colors[f] = d
                at[x][d] = f
                x ^= tail[f] ^ head[f]  # f's far end
                f, at[x][d] = at[x][d], f
                d = swap - d
            at[x][d] = -1  # the far end no longer holds the last edge's old color d
            used[x] ^= (1 << a) | (1 << b)
            used[v] |= 1 << b  # v's first path edge; a follows with e
            low = 1 << a
        c = low.bit_length() - 1
        colors[e] = c
        at[u][c] = at[v][c] = e
        used[u] |= low
        used[v] |= low
    return colors
