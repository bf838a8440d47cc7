"""Bipartite combinatorial kernels: degree-constrained matching, Hall
certificates, and max-degree edge coloring.

Vertices are 0-based; parallel edges are allowed and matter (a matching is
a subset of edge *positions*).  Colorings come from alternating Euler
splits, with a perfect-matching peel for odd degree; the last, 2-regular
level is colored directly as alternating even cycles.  Each edge's ends
are numbered once per coloring, and a split walks its trails with one edge
iterator per vertex.  Everything here is deterministic for a fixed edge
order.

Matchings are found on the graph itself by ``_b_matching``, for general
quotas, and by two replays of it that swap only the representation:
``_perfect_matching`` keeps one mate per vertex for all-ones quotas (the
colouring's peel), and ``_assign_on_masks`` keeps value bitmasks for unit
right quotas with edges in increasing value order (stage 1 and the
column-block widening).  All three run one skeleton, with the same local
names:

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
from itertools import compress
from operator import add, xor
from typing import NamedTuple, Union


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
    depth-first augmenting search complete it.  That is O(V·E) in the
    worst case, against Hopcroft–Karp's O(E·√V); but the seeds leave the
    program's graphs few units to find, and there one search per unit,
    without levels, measured faster than the phases.  Infeasibility is
    witnessed by the left vertices that alternating search reaches from
    the deficient ones: the source side of the minimal minimum cut, the
    same for every maximum matching.  Their quota mass exceeds what their
    combined neighborhood can absorb.  With every quota 1 the matching is
    perfect, and ``_perfect_matching`` takes the same steps with one mate
    per vertex, so the result is the same.
    """
    left, right = demand.left_quota, demand.right_quota
    if len(left) != g.left_count or len(right) != g.right_count:
        raise KernelError("quota vectors do not match vertex counts")
    if left.count(1) == len(left) == len(right) == right.count(1):
        found = _perfect_matching(g)
    else:
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


def _perfect_matching(g: BipartiteGraph) -> Union[tuple[int, ...], list[int]]:
    """``_b_matching`` with every quota 1 on ``left_count`` vertices a side,
    replayed step for step: its greedy seed and its rounds.

    ``mate[u]`` is the edge matched at left vertex u and ``partner[v]`` the
    left vertex matched to right vertex v (-1: free), in place of quotas,
    ``matched`` flags and ``mates`` lists.  Each vertex on the path keeps
    one iterator over its edges, and a search steps to the first right
    vertex that is free or whose partner is not seen yet.  A scan skips no
    matched edge: one out of u leads back to u, which is seen already.
    """
    edges = g.edges
    count = g.left_count
    mate = [-1] * count
    partner = [-1] * count
    missing = count
    for e, (u, v) in enumerate(edges):
        if mate[u] < 0 and partner[v] < 0:
            mate[u] = e
            partner[v] = u
            missing -= 1
    if missing:
        out: list[list[int]] = [[] for _ in range(count)]  # edge ids, in edge order
        heads: list[list[int]] = [[] for _ in range(count)]  # their right ends
        for e, (u, v) in enumerate(edges):
            out[u].append(e)
            heads[u].append(v)
    while missing:
        short = missing
        seen = [False] * count
        for source in range(count):
            if mate[source] >= 0 or seen[source]:
                continue
            seen[source] = True
            stack = [source]
            scans = [enumerate(heads[source])]
            path: list[int] = []  # the position in heads[u] of each step out
            while scans:
                for i, v in scans[-1]:
                    w = partner[v]
                    if w < 0 or not seen[w]:
                        break
                else:
                    scans.pop()
                    stack.pop()
                    if path:
                        path.pop()
                    continue
                path.append(i)
                if w >= 0:
                    seen[w] = True
                    stack.append(w)
                    scans.append(enumerate(heads[w]))
                    continue
                for u, i in zip(stack, path):
                    mate[u] = out[u][i]
                    partner[heads[u][i]] = u
                missing -= 1
                break
        if missing == short:
            return [u for u in range(count) if seen[u]]
    return tuple(sorted(mate))


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
    """Proper edge coloring with colors in [1, max degree].

    The graph is first padded to a Δ-regular bipartite multigraph with dummy
    vertices/edges; regular multigraphs are colored by alternating Euler
    splits (even degree) and one perfect-matching peel (odd degree), which
    meets the max-degree bound constructively.  Dummy edges are discarded.
    Each edge's endpoints are numbered once, the right side after the left.
    """
    if not g.edges:
        return ()
    side = max(g.left_count, g.right_count)
    edges: list[tuple[int, int]] = list(g.edges)
    tail = [u for u, _ in edges]
    head = [v for _, v in edges]
    left_deg = [0] * side
    right_deg = [0] * side
    for u in tail:
        left_deg[u] += 1
    for v in head:
        right_deg[v] += 1
    delta = max(max(left_deg), max(right_deg))
    real_count = len(edges)
    u = v = 0
    while True:
        while u < side and left_deg[u] == delta:
            u += 1
        if u == side:
            break
        while right_deg[v] == delta:
            v += 1
        edges.append((u, v))
        tail.append(u)
        head.append(v)
        left_deg[u] += 1
        right_deg[v] += 1

    head = [side + v for v in head]
    ends = _Ends(side, edges, tail, head, list(map(xor, tail, head)))
    colors = [0] * len(edges)
    _color_regular(ends, list(range(len(edges))), delta, 1, colors)
    return tuple(colors[:real_count])


class _Ends(NamedTuple):
    """The padded regular multigraph: ``side`` vertices on each side, left
    vertex u numbered u and right vertex v numbered side + v; ``tail`` and
    ``head`` are each edge's two numbers and ``node ^ link[e]`` is the
    other end of edge e at ``node``."""

    side: int
    edges: list[tuple[int, int]]
    tail: list[int]
    head: list[int]
    link: list[int]


def _color_regular(
    ends: _Ends, live: list[int], degree: int, first_color: int, colors: list[int]
) -> None:
    """Color the ``degree``-regular multigraph ``live`` with ``degree``
    colors from ``first_color`` on.  An odd degree peels the perfect
    matching that :func:`degree_matching` finds on the edges in ``live``
    order, which takes ``first_color``, and keeps the other edges in that
    order; an even one splits in halves."""
    if degree == 1:
        for e in live:
            colors[e] = first_color
        return
    if degree == 2:
        _color_cycles(ends, live, first_color, colors)
        return
    if degree % 2 == 1:
        edges = ends.edges
        sub = BipartiteGraph._trusted(ends.side, ends.side, tuple(map(edges.__getitem__, live)))
        matched = degree_matching(sub, DegreeDemand.uniform(sub, 1, 1))
        if isinstance(matched, HallCertificate):
            raise KernelError("regular bipartite multigraph lost its perfect matching")
        rest: list[int] = []
        start = 0
        for i in matched:  # positions in increasing order
            colors[live[i]] = first_color
            rest += live[start:i]
            start = i + 1
        rest += live[start:]
        _color_regular(ends, rest, degree - 1, first_color + 1, colors)
        return
    half_a, half_b = _euler_split(ends, live, degree)
    _color_regular(ends, half_a, degree // 2, first_color, colors)
    _color_regular(ends, half_b, degree // 2, first_color + degree // 2, colors)


def _by_vertex(ends: _Ends, live: list[int]) -> list[int]:
    """Each edge of ``live`` at both its ends, grouped by vertex in vertex
    order, left side first; the sorts are stable, so each vertex's edges
    keep their order in ``live``."""
    return sorted(live, key=ends.tail.__getitem__) + sorted(live, key=ends.head.__getitem__)


def _euler_split(
    ends: _Ends, live: list[int], degree: int
) -> tuple[list[int], list[int]]:
    """Split an even-regular multigraph into two halves of equal degree.

    From every left vertex in turn, walks a closed trail (the unused edge
    earliest in ``live`` first) until the vertex has no edge left, and
    alternates the trail's edges between the halves.  Each vertex keeps one
    iterator over its edges, which passes each edge once per split.  Every
    vertex has even degree, so a trail can only get stuck where it
    started; bipartite closed trails have even length, so every vertex
    splits evenly.  Every edge has a left end, so once the left vertices
    are spent so is the graph.
    """
    side, link = ends.side, ends.link
    # every vertex has ``degree`` edges: cut the grouped list in chunks
    ahead = list(map(iter, zip(*[iter(_by_vertex(ends, live))] * degree)))
    used = [False] * len(link)
    trail: list[int] = []  # the closed trails, one after another
    walk = trail.append
    for start in range(side):
        node = start
        while True:
            for e in ahead[node]:
                if not used[e]:
                    break
            else:
                break
            used[e] = True
            walk(e)
            node ^= link[e]
            for e in ahead[node]:
                if not used[e]:
                    break
            else:
                raise KernelError("Euler walk stuck after an odd step; degrees are not even")
            used[e] = True
            walk(e)
            node ^= link[e]
    return trail[0::2], trail[1::2]


def _color_cycles(ends: _Ends, live: list[int], first_color: int, colors: list[int]) -> None:
    """Color a 2-regular multigraph with ``first_color`` and the next color.

    Its components are even cycles.  Each is walked from its lowest vertex
    along the edge there that comes earlier in ``live``, alternating the
    two colors: these are the trails :func:`_euler_split` walks, colored as
    its halves would be.  The edge ids at a vertex sum to ``pair[node]``,
    so the edge leaving by is the sum less the edge arriving by.  Splitting
    this level with :func:`_euler_split` instead gives the same colors but
    makes :func:`edge_color` 6-16% slower, so this walk stays.
    """
    by_vertex = _by_vertex(ends, live)
    first = by_vertex[0::2]
    pair = list(map(add, first, by_vertex[1::2]))
    link = ends.link
    second_color = first_color + 1
    for start in range(ends.side):
        e = first[start]
        if colors[e]:
            continue
        node = start
        while True:
            colors[e] = first_color
            node ^= link[e]
            e = pair[node] - e
            colors[e] = second_color
            node ^= link[e]
            if node == start:
                break
            e = pair[node] - e
