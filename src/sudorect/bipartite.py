"""Bipartite combinatorial kernels: degree-constrained matching, Hall
certificates, and max-degree edge coloring.

Vertices are 0-based; parallel edges are allowed and matter (a matching is
a subset of edge *positions*).  Colorings follow Kőnig's alternating-path
proof: each edge is colored once, in edge order, and only an edge with no
color free at both ends swaps two colors along one alternating path.
Everything here is deterministic for a fixed edge order.

Matchings are found on the graph itself by ``_b_matching``, for general
quotas, and by a replay of it that swaps only the representation:
``_assign_on_masks`` keeps value bitmasks for unit right quotas with edges
in increasing value order (stage 1 and the column-block widening).  Both
run one skeleton, with the same local names:

* a greedy seed in edge order;
* only if it falls short, the adjacency the search needs;
* then ``while missing:`` rounds (Kuhn's augmenting search).  A round
  sets up one ``seen`` set, and every left vertex still short and not yet
  seen starts a depth-first search along alternating paths, again while
  it is still short after a success; a path that ends in a right vertex
  with room is flipped at once.  A round that gains nothing returns its
  seen vertices: exactly those alternating search reaches from the short
  ones.  So each round gains a unit or returns, and the loop ends.

The mask kernel differs in two rules.  Its seed has each left vertex
first take the bits no later vertex is eligible for, an ordering form of
Karp and Sipser's forced choice, which leaves stage 1 and the widening
far fewer units to augment; its search takes a free bit before any held
one.  Its assignments therefore differ from ``_b_matching``'s, but not
its reached set: that is the source side of the minimal minimum cut, the
same for every maximum matching.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections import Counter
from itertools import compress
from operator import xor
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
            if not (0 <= u < self.left_count and 0 <= v < self.right_count):
                raise KernelError(f"edge ({u},{v}) out of range")

    @classmethod
    def build(cls, left_count: int, right_count: int, edges) -> "BipartiteGraph":
        # __post_init__ unpacks every edge, so anything but a pair still fails
        return cls(left_count, right_count, tuple(map(tuple, edges)))

    @classmethod
    def _trusted(
        cls, left_count: int, right_count: int, edges: tuple[tuple[int, int], ...]
    ) -> "BipartiteGraph":
        """A graph whose in-range index pairs the caller built itself; skips
        the per-edge check of ``__post_init__``."""
        g = object.__new__(cls)
        object.__setattr__(g, "left_count", left_count)
        object.__setattr__(g, "right_count", right_count)
        object.__setattr__(g, "edges", edges)
        return g


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

    A greedy pass in edge order seeds the matching, then rounds of
    depth-first augmenting search complete it, in O(V·E) time.
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
    if missing:  # every edge out of a left vertex, matched edges into a right one
        tail = [u for u, _ in edges]
        out: list[list[int]] = [[] for _ in need]
        for e, u in enumerate(tail):
            out[u].append(e)
        mates: list[list[int]] = [[] for _ in room]
        for e in compress(range(len(edges)), matched):
            mates[edges[e][1]].append(e)

        def steps(u):
            # u's alternating steps in edge order: (e, -1) for an unmatched
            # edge e into a right vertex with room, else (e, f) for each
            # matched edge f into it
            for e in out[u]:
                if not matched[e]:
                    v = edges[e][1]
                    if room[v]:
                        yield e, -1
                    else:
                        for f in mates[v]:
                            yield e, f

    while missing:
        # one round: each short left vertex not seen yet searches depth
        # first, and a path found is flipped at once
        short = missing
        seen = [False] * len(need)
        for source in range(len(need)):
            if not need[source] or seen[source]:
                continue
            seen[source] = True
            while need[source]:
                scans = [steps(source)]  # one step iterator per vertex on the path
                path: list[tuple[int, int]] = []  # (unmatched edge out, matched edge back)
                while scans:
                    for e, f in scans[-1]:
                        if f < 0 or not seen[tail[f]]:
                            break
                    else:
                        scans.pop()
                        if path:
                            path.pop()
                        continue
                    path.append((e, f))
                    if f >= 0:
                        seen[tail[f]] = True
                        scans.append(steps(tail[f]))
                        continue
                    room[edges[e][1]] -= 1
                    for e, f in path:
                        matched[e] = 1
                        into = mates[edges[e][1]]
                        if f >= 0:
                            matched[f] = 0
                            into[into.index(f)] = e
                        else:
                            into.append(e)
                    need[source] -= 1
                    missing -= 1
                    break
                else:  # a failed search ends the source's turn
                    break
        if missing == short:
            return [u for u in range(len(need)) if seen[u]]
    return tuple(compress(range(len(edges)), matched))


def _assign_on_masks(
    eligible: list[int], quota: int, free: int
) -> tuple[list[int], list[int]]:
    """``_b_matching`` with left quota ``quota`` and unit right quotas,
    replayed on int bitmasks.

    Left vertex u may take the values whose bits are set in
    ``eligible[u]``, a subset of ``free``; each bit of ``free`` can be
    taken once.  The graph this stands for lists each left vertex's edges
    in increasing bit order.  The rounds run as in ``_b_matching``:
    matched edges become the bits each left vertex holds, the mates of a
    right vertex its one owner, and ``unvisited`` is the OR of the bits
    held by the vertices not seen yet, so the candidates at a vertex u on
    the path are ``eligible[u] & ~assigned[u] & (free | unvisited)``,
    taken again at every step.  Two rules are this kernel's own.  A free
    candidate ends the path at once; otherwise the search descends into
    the owner of the lowest candidate.  And the greedy seed has each left
    vertex in turn take its last-chance bits (free bits that no later
    vertex is eligible for) before its lowest other free bits.  So the
    assignment can differ from the one degree_matching returns on that
    graph, but the reached set is the same.

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
        owner = {}  # bit -> the left vertex holding it
        for u, mask in enumerate(assigned):
            while mask:
                low = mask & -mask
                owner[low] = u
                mask ^= low
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
                path: list[tuple[int, int]] = []  # (bit taken, its owner or -1)
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
                            owner[bit] = taker
                        free ^= low
                        need[source] -= 1
                        missing -= 1
                        break
                    if not scan:
                        stack.pop()
                        if path:
                            path.pop()
                        continue
                    low = scan & -scan
                    w = owner[low]
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
    edges = g.edges
    left = g.left_count
    tail = [u for u, _ in edges]
    head = [left + v for _, v in edges]  # right vertex v is vertex left + v
    link = list(map(xor, tail, head))  # node ^ link[e]: the other end of e at node
    delta = max(Counter(tail + head).values(), default=0)
    top = 1 << delta  # bit c stands for color c
    at = [[-1] * (delta + 1) for _ in range(left + g.right_count)]  # at[x][c]: x's edge of color c
    used = [1] * len(at)  # the colors at each vertex; bit 0 set, so color 0 is never free
    colors = [0] * len(edges)
    for e, u in enumerate(tail):
        v = head[e]
        here, there = used[u], used[v]
        both = here | there
        low = ~both & (both + 1)
        if low > top:
            a = (~here & (here + 1)).bit_length() - 1
            b = (~there & (there + 1)).bit_length() - 1
            swap = a + b
            # swap the path from v edge by edge: f leaves x and takes
            # color d, and the next edge leaves f's far end by d, which f
            # holds there from now on
            x, f, d = v, at[v][a], b
            while f >= 0:
                colors[f] = d
                at[x][d] = f
                x ^= link[f]
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
    return tuple(colors)
