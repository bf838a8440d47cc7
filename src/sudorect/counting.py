"""Exact completion counting and log-space counting bounds.

The enumerator is a plain backtracking search (most-constrained cell
first, smallest value first) with arbitrary-precision counts; it is the
desk-scale oracle for small orders and heavily filled grids.  The bounds
machinery evaluates, purely in log space via ``lgamma``, the product
formulas that sandwich the number of full squares of order n = k² between
a Van der Waerden-style lower bound and a Bregman-Minc-style upper bound
on perfect matchings of regular bipartite graphs, together with the
normalized ratios that approach 1 as k grows.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, lgamma, log, pi
from typing import Optional

from .grid import SudokuGrid, validate


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
    case ``count`` is a lower bound.  Deterministic: nodes are placements
    tried, most-constrained cell first with lowest (row, col, value)
    tie-breaks, single-threaded.
    """
    violation = validate(grid)
    if violation is not None:
        raise CountingError(f"input grid is invalid: {violation.describe()}")
    work = grid.copy()
    state = {"count": 0, "nodes": 0, "capped": False}

    def pick_cell() -> Optional[tuple[int, int, list[int]]]:
        best = None
        for ref in work.empty_cells():
            cands = work.candidates(ref.row, ref.col)
            if best is None or len(cands) < len(best[2]):
                best = (ref.row, ref.col, cands)
                if len(cands) == 0:
                    break
        return best

    def search() -> None:
        if state["capped"]:
            return
        spot = pick_cell()
        if spot is None:
            state["count"] += 1
            if max_solutions is not None and state["count"] >= max_solutions:
                state["capped"] = True
            return
        row, col, cands = spot
        for value in cands:
            if max_nodes is not None and state["nodes"] >= max_nodes:
                state["capped"] = True
                return
            state["nodes"] += 1
            work.set(row, col, value)
            search()
            work.clear(row, col)
            if state["capped"]:
                return

    search()
    return CountResult(
        count=state["count"],
        exhausted=not state["capped"],
        nodes_visited=state["nodes"],
    )


def matching_bounds(n: int, r: int) -> tuple[float, float]:
    """Natural-log bounds on the number of perfect matchings of an
    r-regular bipartite graph with n vertices per side:
    n!·(r/n)^n below, (r!)^(n/r) above.  Computed via lgamma throughout.
    """
    if not (1 <= r <= n):
        raise CountingError(f"regularity {r} outside 1..{n}")
    log_lower = lgamma(n + 1) + n * (log(r) - log(n))
    log_upper = (n / r) * lgamma(r + 1)
    return log_lower, log_upper


def _log_matching(n: int, r: int, upper: bool) -> float:
    lo, up = matching_bounds(n, r)
    return up if upper else lo


def _log_product(k: int, upper: bool) -> float:
    """The two-stage product formula, evaluated structurally as written:

        prod_{l=1..k} [ PM(n, n-k(l-1)) / (k!)^k ]^k  ·  ( prod_{r=1..k} PM(n, r) )^k

    with PM replaced by its lower or upper matching bound.
    """
    n = k * k
    log_kfact = lgamma(k + 1)
    total = 0.0
    for l in range(1, k + 1):
        total += k * (_log_matching(n, n - k * (l - 1), upper) - k * log_kfact)
    tail = 0.0
    for r in range(1, k + 1):
        tail += _log_matching(n, r, upper)
    return total + k * tail


def _ratio(log_bound: float, n: int) -> float:
    return exp(log_bound / (n * n) + 3.0 - log(n))


def sudoku_bounds(k: int) -> BoundsReport:
    """Evaluate both bound products, the closed-form lower bound
    n!^(2n)·k!^(kn)/(k^(n²)·n^(n²)), and the normalized ratios."""
    if k < 1:
        raise CountingError(f"block side must be >= 1, got {k}")
    n = k * k
    log_lower = _log_product(k, upper=False)
    log_upper = _log_product(k, upper=True)
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
        raise CountingError(f"need k_max >= 2, got {k_max}")
    return [sudoku_bounds(k) for k in range(2, k_max + 1)]


def asymptotic_table(k_max: int) -> list[tuple[int, float, float]]:
    """(k, ratio_lower, ratio_upper) for k = 2..k_max; both columns → 1."""
    return [(r.k, r.ratio_lower, r.ratio_upper) for r in bounds_table(k_max)]


def log_factorial_stirling_upper(x: float) -> float:
    """log of the Stirling overestimate (x/e)^x·sqrt(2πx)·e^(1/(12x)).

    Documentation-grade helper: the bound products never use it, but it
    certifies the x! < 3·(x/e)^x·sqrt(x) step used in derivations.
    """
    if x <= 0:
        raise CountingError("the Stirling overestimate needs x > 0")
    return x * (log(x) - 1.0) + 0.5 * log(2.0 * pi * x) + 1.0 / (12.0 * x)
