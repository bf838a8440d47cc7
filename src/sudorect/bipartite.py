"""Bipartite combinatorial kernels: degree-constrained matching, Hall
certificates, and max-degree edge coloring.

Vertices are 0-based; parallel edges are allowed and matter (a matching is
a subset of edge *positions*).  Everything here is deterministic for a
fixed edge order.

Colorings follow Kőnig's alternating-path proof.  Each edge (u, v) is
colored once, in edge order, with the lowest color free at both ends.  If
none is, let a be the lowest color free at u and b the lowest free at v:
the edges colored a or b form paths and even cycles, v ends one path,
which starts with an a-edge, and the path never reaches u, as it enters
left vertices by a-edges only and u has none.  Swapping a and b along it
frees a at v, and the edge takes a.  Both coloring loops keep a table of
slots, ``at[x][c]`` naming what vertex x meets by color c, and swap a path
by swapping slots a and b at each of its vertices, both ends included:
the walk starts at v with color a, moves on along the current color,
alternating a and b, and stops at the first vertex whose slot of the
current color is empty, whose colors then trade one for the other.
``edge_color`` holds edge positions in its slots, as on a multigraph only
the edge tells parallel edges apart, and records each swapped edge's new
color as the walk passes it.  The completion's stage 2 runs
``_color_masks``, its replay on value bitmasks, as ``_assign_on_masks`` is
the matching's: a left vertex meets a value at most once there, so the
slots hold partner vertices, and the table's left rows, transposed, are
the new rows.

Both matchers run one search rule: a greedy seed, then, only if it falls
short, one breadth-first augmenting search per missing unit (Ford and
Fulkerson), started at every short left vertex at once.  A search that
finds no augmenting path returns the left vertices it reached.
``_b_matching`` runs it on the graph itself, for general quotas, and
seeds in edge order.  The completion's matching, ``_assign_on_masks``,
runs it on value bitmasks, with unit right quotas and each left vertex's
edges in increasing value order (stage 1 and the column-block widening).
Its seed has each left vertex first take the bits no later vertex is
eligible for, an ordering form of Karp and Sipser's forced choice, which
leaves stage 1 and the widening far fewer units to augment.  Its search
tests a vertex for a free bit when it first reaches it, since on masks
that costs one AND, where the graph search tests each edge as it scans
it.  The two can pick different assignments, but not different reached
sets: in every maximum matching, the left vertices that alternating
search reaches from the short ones are the source side of the minimal
minimum cut.
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
                # str() refuses ints of more than 4,300 digits, and a
                # diagnostic stays one short line: a 20-digit end shows as …
                ends = ",".join(str(x) if -10**19 < x < 10**19 else "…" for x in (u, v))
                raise KernelError(f"edge ({ends}) out of range")

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
    found = _b_matching(g, demand)
    if isinstance(found, list):
        return _certificate(g, demand, found)
    return found


def _b_matching(g: BipartiteGraph, demand: DegreeDemand) -> Union[tuple[int, ...], list[int]]:
    """The matched edge positions, or the left vertices that alternating
    search reaches when the matching stays short of the left quotas' sum.

    An augmenting path leaves a left vertex along an unmatched edge and
    returns from a right vertex along a matched edge, until it reaches a
    right vertex with room.  Flipping its edges keeps every inner vertex's
    degree and adds one unit at both ends.
    """
    edges = g.edges
    need = list(demand.left_quota)  # units each left vertex still lacks
    room = list(demand.right_quota)  # units each right vertex can still take
    matched = bytearray(len(edges))
    missing = sum(need)  # units the matching still lacks
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
    before its lowest other free bits.  Then, per missing unit, one
    breadth-first search starts at every short left vertex at once.  From
    a vertex u it reaches, in index order, each vertex not reached yet
    that holds a bit of ``eligible[u]``, and it ends at the first vertex
    it reaches that is eligible for a free bit.  That vertex takes its
    lowest free bit, and every step back to the root hands one held bit
    on.  On the graph these masks stand for, with each left vertex's edges
    in increasing bit order, the assignment can differ from the one
    degree_matching returns, but the reached set is the same.

    Returns (assigned, reached): the bits each left vertex holds, and the
    left vertices reached by a search that found no free bit, which is
    empty iff every left vertex got its quota.
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
                break
            take |= pool
            lack -= pool.bit_count()
        free ^= take
        assigned.append(take)
    # while a left vertex is short, one breadth-first search from every
    # short one at once, the roots: via[w] is (u, bit) when w was first
    # reached from u by the lowest bit of w's that u may take, and None at
    # a root; each vertex is reached once.  A root has no free eligible
    # bit, as the seed gave it every one it could take and free only
    # shrinks, so a search ends at the first vertex it reaches with one.
    # Each search gains a root one unit or returns
    roots = [u for u, mask in enumerate(assigned) if mask.bit_count() < quota]
    while roots:
        via = dict.fromkeys(roots)
        queue = list(roots)
        end = -1
        for u in queue:
            for w, held in enumerate(assigned):
                bit = held & eligible[u]
                if bit and w not in via:
                    via[w] = u, bit & -bit
                    if eligible[w] & free:
                        end = w
                        break
                    queue.append(w)
            if end >= 0:
                break
        if end < 0:
            return assigned, sorted(via)
        # the end takes its lowest free bit; each vertex on the path hands
        # the bit it was reached by to the vertex that reached it, and the
        # root, reached by none, gains a unit
        low = eligible[end] & free
        low &= -low
        free ^= low
        while via[end] is not None:
            u, bit = via[end]
            assigned[end] ^= bit | low
            end, low = u, bit
        assigned[end] |= low
        if assigned[end].bit_count() == quota:
            roots.remove(end)
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
    """Proper edge coloring with colors in [1, max degree Δ]: Kőnig's
    alternating-path rule, run in edge order.
    """
    left = g.left_count
    tail = [u for u, _ in g.edges]
    head = [left + v for _, v in g.edges]  # right vertex v is vertex left + v
    delta = max(Counter(tail + head).values(), default=0)
    top = 1 << delta  # bit c stands for color c
    at = [[-1] * (delta + 1) for _ in range(left + g.right_count)]  # at[x][c]: x's edge of color c
    used = [1] * len(at)  # the colors at each vertex; bit 0 set, so color 0 is never free
    colors = [0] * len(tail)
    for e, u in enumerate(tail):
        v = head[e]
        here, there = used[u], used[v]
        both = here | there
        low = ~both & (both + 1)
        if low > top:
            a = (~here & (here + 1)).bit_length() - 1
            b = (~there & (there + 1)).bit_length() - 1
            x, d = v, a
            while True:
                slots = at[x]
                f = slots[d]  # the next edge, colored d before the swap
                slots[a], slots[b] = slots[b], slots[a]
                if f < 0:
                    break
                x, d = x ^ tail[f] ^ head[f], a + b - d  # f's far end
                colors[f] = d
            used[x] ^= (1 << a) | (1 << b)
            used[v] |= 1 << b  # v's first path edge; a follows with e
            low = 1 << a
        c = low.bit_length() - 1
        colors[e] = c
        at[u][c] = at[v][c] = e
        used[u] |= low
        used[v] |= low
    return tuple(colors)


def _color_masks(masks: list[int], quota: int, n: int) -> list[list]:
    """:func:`edge_color` replayed on value masks: the rows of colours
    1 … ``quota``, each holding the value every left vertex meets by that
    colour.

    Left vertex j meets value v, in [1, n], when bit v − 1 of ``masks[j]``
    is set, and has at most ``quota`` values.  Its edges are coloured in
    increasing value order, left vertex by left vertex, so where some
    vertex meets ``quota`` others the colours are those
    :func:`edge_color` gives that graph with its edges in that order.  A
    value with more than ``quota`` left vertices raises
    :class:`KernelError` at its first edge past ``quota``, where no colour
    is free.
    """
    top = 1 << quota  # bit c stands for colour c
    first = n + 1  # value v is vertex v, left vertex j is vertex first + j
    at = [[None] * (quota + 1) for _ in range(first + len(masks))]  # at[x][c]: x's partner by c
    # the colours at each vertex, bit 0 set so that colour 0 is never
    # free; a left vertex's are in ``here`` during its turn and are not
    # read after it, as it ends no later edge
    used = [1] * len(at)
    for u, mask in enumerate(masks, first):
        here = 1
        partner = at[u]
        while mask:
            bit = mask & -mask
            mask ^= bit
            v = bit.bit_length()
            there = used[v]
            both = here | there
            low = ~both & (both + 1)
            if low > top:
                # a is free at u and b at v; the a/b path from v starts
                # with an a-edge and enters left vertices by a-edges only,
                # so it never reaches u.  Swapping a and b along it swaps
                # the two slots at each of its vertices; of the colour
                # sets, v's gains b (the edge then gives a back) and the
                # far end's trades one colour for the other
                a = (~here & (here + 1)).bit_length() - 1
                b = (~there & (there + 1)).bit_length() - 1
                if b > quota:
                    raise KernelError(f"value {v} has more than {quota} edges")
                x, d = v, a
                while True:
                    slots = at[x]
                    y = slots[d]  # the next vertex, met by d before the swap
                    slots[a], slots[b] = slots[b], slots[a]
                    if y is None:
                        break
                    x, d = y, a + b - d
                used[x] ^= (1 << a) | (1 << b)
                there |= 1 << b
                low = 1 << a
            c = low.bit_length() - 1
            partner[c] = v
            at[v][c] = u
            here |= low
            used[v] = there | low
    return [list(row) for row in zip(*at[first:])][1:]
