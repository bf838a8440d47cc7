"""Independent brute-force oracles.

Everything here is deliberately written from scratch against the raw
definitions, without touching the package's algorithms, so the main code
paths can be cross-checked against a second opinion.  The two exceptions
are :func:`core_stage1`, a driver that runs the pipeline's own stage 1 on
one block of a grid, so that tests can hold it against the oracles, and
:func:`with_replaced`, which compiles a kernel again with one edit, so that
tests can break one of its steps or read a count it keeps.
"""

from __future__ import annotations

import inspect
import sys
from itertools import combinations, permutations
from math import exp, factorial, fsum, lgamma, log, pi
from typing import Sequence

from sudorect import (
    BipartiteGraph,
    BlockIndex,
    BoundsReport,
    CellRef,
    CountResult,
    DegreeDemand,
    HallCertificate,
    KernelError,
    NotCompletable,
    ParseError,
    SudokuGrid,
    Violation,
    degree_matching,
    matching_bounds,
)
from sudorect import completion


def sud4_brute_force() -> set[tuple[tuple[int, ...], ...]]:
    """All full 4×4 squares (rows, columns and 2×2 blocks all distinct),
    enumerated as row-permutation 4-tuples with direct condition checks."""
    rows = list(permutations((1, 2, 3, 4)))
    squares = set()
    for r1 in rows:
        for r2 in rows:
            if any(a == b for a, b in zip(r1, r2)):
                continue
            if len({r1[0], r1[1], r2[0], r2[1]}) != 4:
                continue
            if len({r1[2], r1[3], r2[2], r2[3]}) != 4:
                continue
            for r3 in rows:
                if any(a == b for a, b in zip(r3, r1)) or any(
                    a == b for a, b in zip(r3, r2)
                ):
                    continue
                for r4 in rows:
                    if (
                        any(a == b for a, b in zip(r4, r1))
                        or any(a == b for a, b in zip(r4, r2))
                        or any(a == b for a, b in zip(r4, r3))
                    ):
                        continue
                    if len({r3[0], r3[1], r4[0], r4[1]}) != 4:
                        continue
                    if len({r3[2], r3[3], r4[2], r4[3]}) != 4:
                        continue
                    squares.add((r1, r2, r3, r4))
    return squares


def count_extensions_4x4(rows: list[list[int | None]]) -> int:
    """How many of the 288 full squares extend the given 4×4 partial grid."""
    count = 0
    for square in sud4_brute_force():
        if all(
            rows[r][c] is None or rows[r][c] == square[r][c]
            for r in range(4)
            for c in range(4)
        ):
            count += 1
    return count


def exhaustive_degree_matching(
    left_count: int,
    right_count: int,
    edges: list[tuple[int, int]],
    left_quota: tuple[int, ...],
    right_quota: tuple[int, ...],
) -> tuple[int, ...] | None:
    """Search every edge subset (pruned by left vertex) for one meeting all
    quotas exactly; None if no subset works."""
    by_left: list[list[int]] = [[] for _ in range(left_count)]
    for i, (u, _) in enumerate(edges):
        by_left[u].append(i)
    remaining = list(right_quota)

    def go(u: int, chosen: list[int]) -> tuple[int, ...] | None:
        if u == left_count:
            return tuple(chosen) if all(r == 0 for r in remaining) else None
        need = left_quota[u]
        if need > len(by_left[u]):
            return None
        for combo in combinations(by_left[u], need):
            taken = []
            ok = True
            for i in combo:
                v = edges[i][1]
                if remaining[v] == 0:
                    ok = False
                    break
                remaining[v] -= 1
                taken.append(v)
            if ok:
                found = go(u + 1, chosen + list(combo))
                if found is not None:
                    for v in taken:
                        remaining[v] += 1
                    return found
            for v in taken:
                remaining[v] += 1
        return None

    return go(0, [])


def all_proper_edge_colorings(
    edges: list[tuple[int, int]], num_colors: int
) -> list[tuple[int, ...]]:
    """Every proper edge coloring with colors 1..num_colors, brute force."""
    results: list[tuple[int, ...]] = []
    colors = [0] * len(edges)

    def clashes(i: int, c: int) -> bool:
        u, v = edges[i]
        for j in range(i):
            if colors[j] == c and (edges[j][0] == u or edges[j][1] == v):
                return True
        return False

    def go(i: int) -> None:
        if i == len(edges):
            results.append(tuple(colors))
            return
        for c in range(1, num_colors + 1):
            if not clashes(i, c):
                colors[i] = c
                go(i + 1)
                colors[i] = 0

    go(0)
    return results


def regular_bipartite_graphs(n: int, r: int):
    """All 0/1 biadjacency matrices with every row and column sum r."""
    row_patterns = [
        tuple(1 if j in picked else 0 for j in range(n))
        for picked in combinations(range(n), r)
    ]
    matrices = []

    def go(rows: list[tuple[int, ...]], col_sums: tuple[int, ...]) -> None:
        if len(rows) == n:
            if all(s == r for s in col_sums):
                matrices.append(tuple(rows))
            return
        remaining = n - len(rows)
        for pattern in row_patterns:
            new_sums = tuple(s + p for s, p in zip(col_sums, pattern))
            if any(s > r for s in new_sums):
                continue
            if any(r - s > remaining - 1 for s in new_sums):
                continue
            go(rows + [pattern], new_sums)

    go([], tuple(0 for _ in range(n)))
    return matrices


def permanent(matrix) -> int:
    """Permanent by expansion over permutations (tiny matrices only)."""
    n = len(matrix)
    total = 0
    for perm in permutations(range(n)):
        product = 1
        for i, j in enumerate(perm):
            product *= matrix[i][j]
            if product == 0:
                break
        total += product
    return total


def reference_validate(grid) -> Violation | None:
    """The row-major validity scan: the first offending cell, paired with
    its earliest (row-major) conflicting partner.  A shared row wins, then
    a shared block, then a shared column; an entry that is not an int in
    [1, n] is reported as malformed."""
    n, k = grid.order.n, grid.order.k
    first_in_row: dict[tuple[int, int], CellRef] = {}
    first_in_col: dict[tuple[int, int], CellRef] = {}
    first_in_block: dict[tuple[int, int], CellRef] = {}
    cells = grid.rows()
    for r in range(1, n + 1):
        for c in range(1, n + 1):
            v = cells[r - 1][c - 1]
            if v is None:
                continue
            here = CellRef(r, c)
            if type(v) is not int or not (1 <= v <= n):
                return Violation("malformed", here, here)
            b = ((r - 1) // k) * k + (c - 1) // k
            partners = [
                p
                for p in (
                    first_in_row.get((r, v)),
                    first_in_col.get((c, v)),
                    first_in_block.get((b, v)),
                )
                if p is not None
            ]
            if partners:
                partner = min(partners)
                if partner.row == r:
                    kind = "row"
                elif ((partner.row - 1) // k) * k + (partner.col - 1) // k == b:
                    kind = "block"
                else:
                    kind = "column"
                return Violation(kind, partner, here)
            first_in_row.setdefault((r, v), here)
            first_in_col.setdefault((c, v), here)
            first_in_block.setdefault((b, v), here)
    return None


def reference_render(grid) -> str:
    """The text form written out cell by cell: a ``k=<int>`` header, then
    each row's entries as decimals or "." joined by single spaces."""
    lines = [f"k={grid.order.k}"]
    for row in grid.rows():
        lines.append(" ".join("." if v is None else str(v) for v in row))
    return "\n".join(lines) + "\n"


def reference_pq_rectangle(grid) -> tuple[int, int] | None:
    """``is_pq_rectangle`` as a row-by-row scan: (p, q) if exactly the
    top-left p×q region is filled, (0, 0) if nothing is."""
    n = grid.order.n
    cells = grid.rows()
    p, q = 0, None
    for r in range(n):
        filled_cols = [c for c, v in enumerate(cells[r]) if v is not None]
        if not filled_cols:
            if any(v is not None for row in cells[r + 1 :] for v in row):
                return None
            break
        if filled_cols != list(range(len(filled_cols))) or q not in (None, len(filled_cols)):
            return None
        q = len(filled_cols)
        p += 1
    return (p, q) if q is not None else (0, 0)


def reference_units(grid) -> tuple[list[set], list[set], list[set], int]:
    """Row, column and block value sets (blocks row-major) and the filled
    count, recomputed from ``grid.rows()`` alone."""
    n, k = grid.order.n, grid.order.k
    cells = grid.rows()
    rows = [{v for v in cells[r] if v is not None} for r in range(n)]
    cols = [{cells[r][c] for r in range(n) if cells[r][c] is not None} for c in range(n)]
    blocks = [set() for _ in range(n)]
    filled = 0
    for r in range(n):
        for c in range(n):
            if cells[r][c] is not None:
                blocks[(r // k) * k + c // k].add(cells[r][c])
                filled += 1
    return rows, cols, blocks, filled


def row_values(grid, row: int) -> set[int]:
    return set(grid.rows()[row - 1]) - {None}


def in_column(grid, col: int, value: int) -> bool:
    return value in grid.column_values(col)


def block_of(order, row: int, col: int) -> BlockIndex:
    k = order.k
    return BlockIndex((row - 1) // k + 1, (col - 1) // k + 1)


def block_cells(order, block: BlockIndex) -> list[CellRef]:
    k = order.k
    r0 = (block.block_row - 1) * k
    c0 = (block.block_col - 1) * k
    return [CellRef(r0 + dr, c0 + dc) for dr in range(1, k + 1) for dc in range(1, k + 1)]


def can_place(grid, row: int, col: int, value: int) -> bool:
    """True iff placing ``value`` at the empty cell keeps all conditions."""
    if grid.get(row, col) is not None:
        return False
    return (
        value not in row_values(grid, row)
        and not in_column(grid, col, value)
        and value not in grid.block_values(block_of(grid.order, row, col))
    )


def reference_parse(k: int, lines: list[str]):
    """The body of a grid file (row lines after a ``k=`` header on line 1)
    read token by token into per-cell ``set`` calls: the grid, or the
    ParseError for the first bad row length or token in row-major order."""
    n = k * k
    grid = SudokuGrid(k)
    for r, line in enumerate(lines, start=1):
        tokens = line.split()
        if len(tokens) != n:
            return ParseError(f"expected {n} tokens, got {len(tokens)}", r + 1)
        for c, token in enumerate(tokens, start=1):
            if token in (".", "0"):
                continue
            try:
                value = int(token)
            except ValueError:
                return ParseError(f"bad token {token!r}", r + 1, c)
            if not 1 <= value <= n:
                return ParseError(f"value {value} outside 1..{n}", r + 1, c)
            grid.set(r, c, value)
    return grid


def exact_log_bound_products(k: int) -> tuple[float, float]:
    """Natural logs of the lower and upper two-stage bound products for
    order n = k², from big-integer factorials (no lgamma):

        prod_{l=1..k} [ PM(n, n-k(l-1)) / (k!)^k ]^k  ·  ( prod_{r=1..k} PM(n, r) )^k

    with PM(n, r) = n!·(r/n)^n below and (r!)^(n/r) above.  The terms
    are summed with fsum."""
    n = k * k
    log_n_fact = log(factorial(n))
    log_k_fact = log(factorial(k))
    lower: list[float] = []
    upper: list[float] = []
    for s in range(n, 0, -k):  # n - k(l-1) for l = 1..k
        lower.append(k * (log_n_fact + n * log(s / n) - k * log_k_fact))
        upper.append(k * ((n / s) * log(factorial(s)) - k * log_k_fact))
    for r in range(1, k + 1):
        lower.append(k * (log_n_fact + n * log(r / n)))
        upper.append(k * (n / r) * log(factorial(r)))
    return fsum(lower), fsum(upper)


def reference_sudoku_bounds(k: int) -> BoundsReport:
    """``sudoku_bounds`` as it stood when each bound product was its own pass
    over ``matching_bounds``, the lower and the upper one after the other."""

    def log_product(upper: bool) -> float:
        side = 1 if upper else 0
        log_kfact = lgamma(k + 1)
        total = 0.0
        for l in range(1, k + 1):
            total += k * (matching_bounds(n, n - k * (l - 1))[side] - k * log_kfact)
        tail = 0.0
        for r in range(1, k + 1):
            tail += matching_bounds(n, r)[side]
        return total + k * tail

    def ratio(log_bound: float) -> float:
        return exp(log_bound / (n * n) + 3.0 - log(n))

    n = k * k
    log_lower = log_product(upper=False)
    log_upper = log_product(upper=True)
    closed = (
        2 * n * lgamma(n + 1) + k * n * lgamma(k + 1) - float(n) * n * (log(k) + log(n))
    )
    return BoundsReport(
        k=k,
        n=n,
        log_lower=log_lower,
        log_upper=log_upper,
        log_closed_form_lower=closed,
        ratio_lower=ratio(log_lower),
        ratio_upper=ratio(log_upper),
    )


def upper_ratio_stirling_envelope(k: int) -> tuple[float, float]:
    """An interval that must hold the normalized upper ratio
    bound^(1/n²)·e³/n at order n = k².

    Every factorial of the upper product is replaced by one side of
    Robbins' form of Stirling's formula, valid for all x >= 1,

        sqrt(2πx)·(x/e)^x  <=  x!  <=  sqrt(2πx)·(x/e)^x·e^(1/(12x)),

    the subtracted k! terms taking the opposite side to the rest.  The
    sqrt(2πr) factors of the stage-2 terms alone add at least
    (1/k)·Σ_{r<=k} ln(2πr)/(2r) to the ratio's log, so the envelope also
    shows how far from 1 any faithful evaluation is at finite k."""

    def low(x: int) -> float:
        return x * log(x) - x + 0.5 * log(2 * pi * x)

    def high(x: int) -> float:
        return low(x) + 1 / (12 * x)

    n = k * k
    below = above = 0.0
    for s in range(n, 0, -k):  # n - k(l-1) for l = 1..k
        below += k * ((n / s) * low(s) - k * high(k))
        above += k * ((n / s) * high(s) - k * low(k))
    for r in range(1, k + 1):
        below += k * (n / r) * low(r)
        above += k * (n / r) * high(r)

    def normalize(log_bound: float) -> float:
        return exp(log_bound / (n * n) + 3 - log(n))

    return normalize(below), normalize(above)


def reference_count(grid, max_nodes=None, max_solutions=None) -> CountResult:
    """The recursive completion counter, on plain lists of rows.

    At each node it rescans every empty cell row-major, lists the values
    missing from the cell's row, column and block, and takes the first
    cell with the fewest (stopping at a cell with none); it then tries the
    values in ascending order.  Nodes are placements tried; ``max_nodes``
    is checked before each one and ``max_solutions`` after each solution.
    The input is assumed valid and the caps in range."""
    n, k = grid.order.n, grid.order.k
    cells = [list(row) for row in grid.rows()]
    state = {"count": 0, "nodes": 0, "capped": False}

    def candidates(r: int, c: int) -> list[int]:
        top, left = r - r % k, c - c % k
        used = set(cells[r]) | {cells[i][c] for i in range(n)}
        used |= {cells[i][j] for i in range(top, top + k) for j in range(left, left + k)}
        return [v for v in range(1, n + 1) if v not in used]

    def pick_cell():
        best = None
        for r in range(n):
            for c in range(n):
                if cells[r][c] is not None:
                    continue
                cands = candidates(r, c)
                if best is None or len(cands) < len(best[2]):
                    best = (r, c, cands)
                    if not cands:
                        return best
        return best

    def search() -> None:
        spot = pick_cell()
        if spot is None:
            state["count"] += 1
            if max_solutions is not None and state["count"] >= max_solutions:
                state["capped"] = True
            return
        r, c, cands = spot
        for value in cands:
            if max_nodes is not None and state["nodes"] >= max_nodes:
                state["capped"] = True
                return
            state["nodes"] += 1
            cells[r][c] = value
            search()
            cells[r][c] = None
            if state["capped"]:
                return

    search()
    return CountResult(state["count"], not state["capped"], state["nodes"])


def log_factorial_stirling_upper(x: float) -> float:
    """log of the Stirling overestimate (x/e)^x·sqrt(2πx)·e^(1/(12x))."""
    return x * (log(x) - 1.0) + 0.5 * log(2.0 * pi * x) + 1.0 / (12.0 * x)



class ExhaustiveLimitExceeded(KernelError):
    """Left side too large for the subset-enumeration Hall check."""


def hall_check(
    g: BipartiteGraph, multiplier: int, limit: int = 20
) -> HallCertificate | None:
    """Exhaustively test |N(S)| >= multiplier·|S| for every left subset.

    Returns the first violating set in (size, lexicographic) order, or None.
    Intended for small left sides; refuses above ``limit`` vertices.
    """
    if multiplier < 1:
        raise KernelError(f"multiplier must be >= 1, got {multiplier}")
    if g.left_count > limit:
        raise ExhaustiveLimitExceeded(
            f"{g.left_count} left vertices exceed the exhaustive limit {limit}"
        )
    adj: list[set[int]] = [set() for _ in range(g.left_count)]
    for u, v in g.edges:
        adj[u].add(v)
    for size in range(1, g.left_count + 1):
        for subset in combinations(range(g.left_count), size):
            hood: set[int] = set()
            for u in subset:
                hood |= adj[u]
            if len(hood) < multiplier * size:
                return HallCertificate(
                    subset, tuple(sorted(hood)), multiplier * size, len(hood)
                )
    return None


def recount_matching(
    g: BipartiteGraph, demand: DegreeDemand, matching: Sequence[int]
) -> bool:
    """True iff the edge subset meets every quota exactly (audit helper)."""
    left = [0] * g.left_count
    right = [0] * g.right_count
    seen = set()
    for e in matching:
        if e in seen or not (0 <= e < len(g.edges)):
            return False
        seen.add(e)
        u, v = g.edges[e]
        left[u] += 1
        right[v] += 1
    return tuple(left) == demand.left_quota and tuple(right) == demand.right_quota


def max_degree(g: BipartiteGraph) -> int:
    """The largest number of edges at one vertex, either side."""
    left = [0] * g.left_count
    right = [0] * g.right_count
    for u, v in g.edges:
        left[u] += 1
        right[v] += 1
    return max(left + right, default=0)


def coloring_is_proper(g: BipartiteGraph, colors: Sequence[int]) -> bool:
    if len(colors) != len(g.edges):
        return False
    seen_left: set[tuple[int, int]] = set()
    seen_right: set[tuple[int, int]] = set()
    for (u, v), c in zip(g.edges, colors):
        if (u, c) in seen_left or (v, c) in seen_right:
            return False
        seen_left.add((u, c))
        seen_right.add((v, c))
    return True


def reference_stage1(grid, shape, block: BlockIndex):
    """Stage 1 on the columns-vs-values graph, as the pipeline ran it before
    the value masks: edges column by column in increasing value order,
    right vertices the values absent from the block's filled rows, one
    degree_matching; {column -> sorted values} or the deficient-set
    witness with the certificate's left set and neighbourhood."""
    k, n = grid.order.k, grid.order.n
    cols = [(block.block_col - 1) * k + j for j in range(1, k + 1)]
    present = grid.block_values(block)
    values = [v for v in range(1, n + 1) if v not in present]
    edges = [
        (ci, vi)
        for ci, col in enumerate(cols)
        for vi, v in enumerate(values)
        if v not in grid.column_values(col)
    ]
    graph = BipartiteGraph.build(k, len(values), edges)
    result = degree_matching(graph, DegreeDemand.uniform(graph, k - shape.r, 1))
    if isinstance(result, HallCertificate):
        return NotCompletable(
            block=block,
            quota=k - shape.r,
            columns=tuple(cols[i] for i in result.left_set),
            candidates=tuple(values[i] for i in result.neighborhood),
        )
    assigned = {col: [] for col in cols}
    for e in result:
        ci, vi = graph.edges[e]
        assigned[cols[ci]].append(values[vi])
    return {col: sorted(vals) for col, vals in assigned.items()}


def core_stage1(grid, shape, block: BlockIndex, rng=None):
    """``completion._stage1`` on one block of ``grid``, read through
    ``_block_masks`` as the pipeline reads it; ``shape`` describes the
    filled rows of the open row block.  {column -> sorted values} or the
    deficient-set witness."""
    k, n = grid.order.k, grid.order.n
    present, masks = completion._block_masks(
        grid.block_columns(block.block_col, block.block_row * k), n
    )
    offered = ((1 << n) - 1) & ~present
    outcome = completion._stage1(block, k - shape.r, offered, masks, rng)
    if isinstance(outcome, NotCompletable):
        return outcome
    left = (block.block_col - 1) * k
    return {left + j: completion._mask_values(mask) for j, mask in enumerate(outcome, 1)}


def reference_edge_color(
    g: BipartiteGraph, swapped: list[int] | None = None
) -> tuple[int, ...]:
    """Kőnig's alternating-path coloring, stated plainly on dicts.

    Edges are colored in order.  An edge takes the lowest color in
    [1, Δ] free at both its ends.  If none is, a is the lowest color free
    at its left end u and b the lowest free at its right end v; the a/b
    path from v is walked to its end and swapped, and the edge takes a.
    ``swapped``, if given, gets the length of each swapped path."""
    delta = max_degree(g)
    at: dict[tuple[str, int], dict[int, int]] = {}  # vertex -> {color: edge}
    colors: dict[int, int] = {}

    def other_end(e: int, vertex: tuple[str, int]) -> tuple[str, int]:
        u, v = g.edges[e]
        return ("r", v) if vertex == ("l", u) else ("l", u)

    for e, (u, v) in enumerate(g.edges):
        left, right = ("l", u), ("r", v)
        at.setdefault(left, {})
        at.setdefault(right, {})
        free_u = [c for c in range(1, delta + 1) if c not in at[left]]
        free_v = [c for c in range(1, delta + 1) if c not in at[right]]
        common = [c for c in free_u if c in free_v]
        if common:
            color = common[0]
        else:
            a, b = free_u[0], free_v[0]
            path, vertex, color = [], right, a
            while color in at[vertex]:
                path.append(at[vertex][color])
                vertex = other_end(path[-1], vertex)
                color = a + b - color
            for f in path:
                x, y = g.edges[f]
                del at[("l", x)][colors[f]], at[("r", y)][colors[f]]
            for f in path:
                x, y = g.edges[f]
                colors[f] = a + b - colors[f]
                at[("l", x)][colors[f]] = at[("r", y)][colors[f]] = f
            if swapped is not None:
                swapped.append(len(path))
            color = a
        colors[e] = color
        at[left][color] = at[right][color] = e
    return tuple(colors[e] for e in range(len(g.edges)))


def with_replaced(function, old: str, new: str):
    """``function`` compiled again from its source, in its module's
    namespace, with the one occurrence of ``old`` replaced by ``new``."""
    source = inspect.getsource(function)
    assert source.count(old) == 1, old
    module = sys.modules[function.__module__]
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), module.__file__, "exec"), namespace)
    return namespace[function.__name__]
