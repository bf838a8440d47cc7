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
* then ``while missing:`` Hopcroft–Karp phases.  Each labels breadth-first
  alternating levels from the deficient left vertices and stops at the
  first edge into a right vertex with room.  With no such edge it returns
  the reached left vertices; otherwise it augments along level-increasing
  paths with forward-only edge cursors, and a phase that gains nothing
  is a :class:`KernelError`.

The mask kernel's seed alone differs: each left vertex first takes the
bits no later vertex is eligible for, an ordering form of Karp and
Sipser's forced choice, which leaves stage 1 and the widening far fewer
units to augment.  Its assignments therefore differ from
``_b_matching``'s, but not its reached set: that is the source side of
the minimal minimum cut, the same for every maximum matching.
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

    A greedy pass in edge order seeds the matching, then Hopcroft–Karp
    phases augment it.  Infeasibility is witnessed by the left vertices
    that alternating search reaches from the deficient ones: the source
    side of the minimal minimum cut, the same for every maximum matching.
    Their quota mass exceeds what their combined neighborhood can absorb.
    With every quota 1 the matching is perfect, and ``_perfect_matching``
    takes the same steps with one mate per vertex, so the result is the same.
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
    while missing:
        # label levels (-1: unreached)
        frontier = [u for u, lack in enumerate(need) if lack]
        level = [-1] * len(need)
        for u in frontier:
            level[u] = 0
        depth = 0
        spare_seen = False
        while frontier and not spare_seen:
            depth += 1
            reached = []
            for u in frontier:
                for e in out[u]:
                    if matched[e]:
                        continue
                    v = edges[e][1]
                    if room[v]:
                        spare_seen = True
                        break
                    for f in mates[v]:
                        w = tail[f]
                        if level[w] < 0:
                            level[w] = depth
                            reached.append(w)
                if spare_seen:
                    break
            frontier = reached
        if not spare_seen:
            return [u for u, depth in enumerate(level) if depth >= 0]
        # augment: a vertex whose search fails is dropped for the rest of the
        # phase, and each cursor stays on the edge taken
        short = missing
        cursor = [0] * len(need)
        for source in range(len(need)):
            while need[source] and level[source] == 0:
                stack = [source]
                path: list[tuple[int, int]] = []  # (unmatched edge out, matched edge back)
                while stack:
                    u = stack[-1]
                    row = out[u]
                    target = level[u] + 1
                    i = cursor[u]
                    step = None
                    while i < len(row):
                        e = row[i]
                        if not matched[e]:
                            v = edges[e][1]
                            if room[v]:
                                step = (e, -1)
                                break
                            for f in mates[v]:
                                if level[tail[f]] == target:
                                    step = (e, f)
                                    break
                            if step is not None:
                                break
                        i += 1
                    cursor[u] = i
                    if step is None:
                        level[u] = -1
                        stack.pop()
                        if path:
                            path.pop()
                        continue
                    path.append(step)
                    if step[1] >= 0:
                        stack.append(tail[step[1]])
                        continue
                    for e, f in path:
                        matched[e] = 1
                        into = mates[edges[e][1]]
                        if f >= 0:
                            matched[f] = 0
                            into[into.index(f)] = e
                        else:
                            into.append(e)
                    need[source] -= 1
                    room[edges[step[0]][1]] -= 1
                    missing -= 1
                    break
        if missing == short:
            raise KernelError("an augmenting phase found no path")
    return tuple(compress(range(len(edges)), matched))


def _perfect_matching(g: BipartiteGraph) -> Union[tuple[int, ...], list[int]]:
    """``_b_matching`` with every quota 1 on ``left_count`` vertices a side,
    replayed step for step: its greedy seed, level labelling and augmenting
    phases.

    ``mate[u]`` is the edge matched at left vertex u and ``partner[v]`` the
    left vertex matched to right vertex v (-1: free), in place of quotas,
    ``matched`` flags and ``mates`` lists.  A scan skips no matched edge:
    one out of u leads back to u, which is labelled already and is never
    the level sought.
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
        # label levels, stopping at the first edge into a free vertex
        free = frontier = [u for u in range(count) if mate[u] < 0]
        level = [-1] * count
        for u in free:
            level[u] = 0
        depth = 0
        spare_seen = False
        while frontier and not spare_seen:
            depth += 1
            reached = []
            for u in frontier:
                for v in heads[u]:
                    w = partner[v]
                    if w < 0:
                        spare_seen = True
                        break
                    if level[w] < 0:
                        level[w] = depth
                        reached.append(w)
                if spare_seen:
                    break
            frontier = reached
        if not spare_seen:
            return [u for u, depth in enumerate(level) if depth >= 0]
        # augment: each cursor stays on the edge taken.  Only a path's source
        # leaves ``free``, and a free vertex is no path's inner vertex, so
        # each one is still free at level 0 when its turn comes.
        short = missing
        cursor = [0] * count
        for source in free:
            stack = [source]
            path: list[int] = []  # the position in heads[u] of each step out
            while stack:
                u = stack[-1]
                row = heads[u]
                target = level[u] + 1
                i = cursor[u]
                step = -2  # none yet; -1: a free right vertex
                while i < len(row):
                    w = partner[row[i]]
                    if w < 0 or level[w] == target:
                        step = w
                        break
                    i += 1
                cursor[u] = i
                if step == -2:
                    level[u] = -1
                    stack.pop()
                    if path:
                        path.pop()
                    continue
                path.append(i)
                if step >= 0:
                    stack.append(step)
                    continue
                for u, i in zip(stack, path):
                    mate[u] = out[u][i]
                    partner[heads[u][i]] = u
                missing -= 1
                break
        if missing == short:
            raise KernelError("an augmenting phase found no path")
    return tuple(sorted(mate))


def _assign_on_masks(
    eligible: list[int], quota: int, free: int
) -> tuple[list[int], list[int]]:
    """``_b_matching`` with left quota ``quota`` and unit right quotas,
    replayed on int bitmasks.

    Left vertex u may take the values whose bits are set in
    ``eligible[u]``, a subset of ``free``; each bit of ``free`` can be
    taken once.  The graph this stands for lists each left vertex's edges
    in increasing bit order.  The level labelling and the augmenting
    phases run step for step as in ``_b_matching``: matched edges become
    the bits each left vertex holds, the mates of a right vertex its one
    owner, and an edge cursor the lowest bit still to scan (0 once every
    edge is passed).  The greedy seed is this kernel's own: each left
    vertex in turn takes its last-chance bits (free bits that no later
    vertex is eligible for) before its lowest other free bits.  So the
    assignment can differ from the one degree_matching returns on that
    graph, but the reached set is the same.

    Returns (assigned, reached): the bits each left vertex holds, and the
    left vertices the last failed search reached, which is empty iff
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
        # label levels: breadth-first alternating levels from the deficient
        # vertices; ``unlabelled`` holds the bits whose owner has none yet
        level = [-1] * left
        frontier = [u for u in range(left) if need[u]]
        unlabelled = 0
        for u in range(left):
            if need[u]:
                level[u] = 0
            else:
                unlabelled |= assigned[u]
        depth = 0
        spare_seen = False
        while frontier and not spare_seen:
            depth += 1
            reached = []
            for u in frontier:
                scan = eligible[u] & ~assigned[u]
                spare = scan & free
                if spare:  # labelling stops at u's first edge with room
                    scan &= (spare & -spare) - 1
                    spare_seen = True
                scan &= unlabelled
                while scan:
                    w = owner[scan & -scan]
                    level[w] = depth
                    reached.append(w)
                    unlabelled &= ~assigned[w]
                    scan &= ~assigned[w]
                if spare_seen:
                    break
            frontier = reached
        if not spare_seen:
            return assigned, [u for u in range(left) if level[u] >= 0]
        # augment: level-increasing paths, each cursor moving forward.
        # The cursors bound the work only: an edge a cursor has passed cannot
        # become usable later in the same phase.
        short = missing
        cursor = [1] * left
        for source in range(left):
            while need[source] and level[source] == 0:
                stack = [source]
                path: list[tuple[int, int]] = []  # (bit taken, its owner or -1)
                while stack:
                    u = stack[-1]
                    target = level[u] + 1
                    scan = eligible[u] & ~assigned[u] & -cursor[u]
                    step = None
                    while scan:
                        low = scan & -scan
                        if free & low:
                            step = (low, -1)
                            break
                        w = owner[low]
                        if level[w] == target:
                            step = (low, w)
                            break
                        scan ^= low
                    if step is None:
                        cursor[u] = 0
                        level[u] = -1
                        stack.pop()
                        if path:
                            path.pop()
                        continue
                    cursor[u] = step[0]
                    path.append(step)
                    if step[1] >= 0:
                        stack.append(step[1])
                        continue
                    for taker, (bit, held_by) in zip(stack, path):
                        assigned[taker] |= bit
                        if held_by >= 0:
                            assigned[held_by] ^= bit
                        owner[bit] = taker
                    free ^= step[0]
                    need[source] -= 1
                    missing -= 1
                    break
        if missing == short:
            raise KernelError("an augmenting phase found no path")
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
