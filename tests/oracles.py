"""Independent brute-force oracles.

Everything here is deliberately written from scratch against the raw
definitions, without touching the package's algorithms, so the main code
paths can be cross-checked against a second opinion.
"""

from __future__ import annotations

from itertools import combinations, permutations

from sudorect import CellRef, Violation


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
            if not isinstance(v, int) or not (1 <= v <= n):
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
