"""Exact completion counting and log-space counting bounds.

The enumerator is a backtracking search with arbitrary-precision counts;
it is the desk-scale oracle for small orders and heavily filled grids.  It
keeps one value bitmask per row, column and block and an explicit stack of
placements, so its depth is not limited by Python's recursion limit.  Its
order is fixed, so node counts are reproducible: the first row-major cell
with the fewest candidates, then its values in ascending order.  The bounds
machinery evaluates, purely in log space via ``lgamma``, the product
formulas that sandwich the number of full squares of order n = k² between
a Van der Waerden-style lower bound and a Bregman-Minc-style upper bound
on perfect matchings of regular bipartite graphs, together with the
normalized ratios that approach 1 as k grows.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, lgamma, log
from typing import Optional

from .grid import SudokuGrid, _echo, _value_bits, validate


class CountingError(Exception):
    pass


@dataclass(frozen=True)
class CountResult:
    count: int
    exhausted: bool
    nodes_visited: int


@dataclass(frozen=True)
class BoundsReport:
    """Log-space counting bounds for order n = k² and their limit ratios.

    ``ratio_lower``/``ratio_upper`` are bound^(1/n²)·e³/n, the normalized
    forms whose common limit is 1.
    """

    k: int
    n: int
    log_lower: float
    log_upper: float
    log_closed_form_lower: float
    ratio_lower: float
    ratio_upper: float


def count_completions(
    grid: SudokuGrid,
    max_nodes: Optional[int] = None,
    max_solutions: Optional[int] = None,
) -> CountResult:
    """Count the full squares extending ``grid`` by exhaustive backtracking.

    ``exhausted`` is False iff a cap stopped the search early, in which
    case ``count`` is a lower bound.  ``max_nodes`` must be at least 0 and
    ``max_solutions`` at least 1; an invalid grid or a bad cap raises
    :class:`CountingError`.

    Deterministic: nodes are placements tried.  The search takes the first
    row-major open cell with the fewest candidates (stopping at the first
    cell with none) and tries its values in ascending order.  It runs on an
    explicit stack over one value bitmask per row, column and block, so its
    depth is not bounded by Python's recursion limit.
    """
    if max_nodes is not None and max_nodes < 0:
        raise CountingError(f"max_nodes must be >= 0, got {_echo(max_nodes)}")
    if max_solutions is not None and max_solutions < 1:
        raise CountingError(f"max_solutions must be >= 1, got {_echo(max_solutions)}")
    violation = validate(grid)
    if violation is not None:
        raise CountingError(f"input grid is invalid: {violation.describe()}")
    n, k = grid.order.n, grid.order.k
    row_mask = [0] * n
    col_mask = [0] * n
    block_mask = [0] * n
    open_cells: list[tuple[int, int, int]] = []  # (row, col, block), row-major
    bits = _value_bits(n)  # bit v−1 for value v, as in the completion's masks
    for r, values in enumerate(grid.rows()):
        for c, v in enumerate(values):
            b = (r // k) * k + c // k
            if v is None:
                open_cells.append((r, c, b))
            else:
                bit = bits[v]
                row_mask[r] |= bit
                col_mask[c] |= bit
                block_mask[b] |= bit
    full = (1 << n) - 1
    count = nodes = 0
    capped = False
    # One frame per placed cell: [index in open_cells, cell, untried values, placed bit]
    stack: list[list] = []
    while True:
        # A new node: the grid holds every placement on the stack.
        if not open_cells:
            count += 1
            if max_solutions is not None and count >= max_solutions:
                capped = True
                break
        else:
            best = -1
            most = -1  # most values taken is fewest candidates
            for i, (r, c, b) in enumerate(open_cells):
                taken = (row_mask[r] | col_mask[c] | block_mask[b]).bit_count()
                if taken > most:
                    best, most = i, taken
                    if taken == n:
                        break
            if most < n:
                r, c, b = cell = open_cells.pop(best)
                free = full & ~(row_mask[r] | col_mask[c] | block_mask[b])
                stack.append([best, cell, free, 0])
        # Place the next untried value of the deepest frame, backtracking
        # out of frames that have none left.
        while stack:
            frame = stack[-1]
            i, (r, c, b), free, bit = frame
            if bit:
                row_mask[r] ^= bit
                col_mask[c] ^= bit
                block_mask[b] ^= bit
            if not free:
                stack.pop()
                open_cells.insert(i, frame[1])
                continue
            if max_nodes is not None and nodes >= max_nodes:
                capped = True
                break
            nodes += 1
            bit = free & -free
            frame[2] = free ^ bit
            frame[3] = bit
            row_mask[r] |= bit
            col_mask[c] |= bit
            block_mask[b] |= bit
            break
        if capped or not stack:
            break
    return CountResult(count=count, exhausted=not capped, nodes_visited=nodes)


def matching_bounds(n: int, r: int) -> tuple[float, float]:
    """Natural-log bounds on the number of perfect matchings of an
    r-regular bipartite graph with n vertices per side:
    n!·(r/n)^n below, (r!)^(n/r) above.  Computed via lgamma throughout.
    """
    if not (1 <= r <= n):
        raise CountingError(f"regularity {_echo(r)} outside 1..{_echo(n)}")
    log_lower = lgamma(n + 1) + n * (log(r) - log(n))
    log_upper = (n / r) * lgamma(r + 1)
    return log_lower, log_upper


def _log_products(k: int) -> tuple[float, float]:
    """The two-stage product formula, evaluated structurally as written:

        prod_{l=1..k} [ PM(n, n-k(l-1)) / (k!)^k ]^k  ·  ( prod_{r=1..k} PM(n, r) )^k

    with PM replaced by its lower and by its upper matching bound, both in
    one pass.  Each side adds the terms of ``matching_bounds`` in the same
    order as evaluating the products one at a time would.
    """
    n = k * k
    log_nfact = lgamma(n + 1)
    log_n = log(n)
    k_log_kfact = k * lgamma(k + 1)
    lower = upper = lower_tail = upper_tail = 0.0
    for l in range(1, k + 1):
        r = n - k * (l - 1)
        lower += k * (log_nfact + n * (log(r) - log_n) - k_log_kfact)
        upper += k * ((n / r) * lgamma(r + 1) - k_log_kfact)
        lower_tail += log_nfact + n * (log(l) - log_n)
        upper_tail += (n / l) * lgamma(l + 1)
    return lower + k * lower_tail, upper + k * upper_tail


def _ratio(log_bound: float, n: int) -> float:
    return exp(log_bound / (n * n) + 3.0 - log(n))


def sudoku_bounds(k: int) -> BoundsReport:
    """Evaluate both bound products, the closed-form lower bound
    n!^(2n)·k!^(kn)/(k^(n²)·n^(n²)), and the normalized ratios."""
    if k < 1:
        raise CountingError(f"block side must be >= 1, got {_echo(k)}")
    n = k * k
    log_lower, log_upper = _log_products(k)
    closed = (
        2 * n * lgamma(n + 1) + k * n * lgamma(k + 1) - float(n) * n * (log(k) + log(n))
    )
    return BoundsReport(
        k=k,
        n=n,
        log_lower=log_lower,
        log_upper=log_upper,
        log_closed_form_lower=closed,
        ratio_lower=_ratio(log_lower, n),
        ratio_upper=_ratio(log_upper, n),
    )


def bounds_table(k_max: int) -> list[BoundsReport]:
    """The bounds report of every k = 2..k_max."""
    if k_max < 2:
        raise CountingError(f"need k_max >= 2, got {_echo(k_max)}")
    return [sudoku_bounds(k) for k in range(2, k_max + 1)]
