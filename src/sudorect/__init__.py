"""General-order Sudoku rectangle completion, constructions, and counting.

The shape of a rectangle decides everything: with n = k² and m = l·k + r
filled rows, every valid rectangle completes exactly when r = 0, l = k−1,
or (k−r)(k−l) ≥ l·k.  This package decides that predicate, completes
rectangles by degree-constrained matching plus edge coloring, constructs
certified non-completable rectangles for every other shape, counts
completions exactly at desk scale, and evaluates the log-space counting
bounds with their asymptotic ratios.
"""

from .bipartite import (
    BipartiteGraph,
    DegreeDemand,
    HallCertificate,
    KernelError,
    degree_matching,
    edge_color,
)
from .completion import (
    Completability,
    CompletionError,
    NotCompletable,
    complete,
    complete_randomized,
    decide_guaranteed,
    extend_column_blocks,
    verify_certificate,
)
from .constructions import (
    ConstructionError,
    CounterexampleReport,
    canonical_partition,
    construct_counterexample,
    figure1_fixture,
)
from .counting import (
    BoundsReport,
    CountResult,
    CountingError,
    count_completions,
    matching_bounds,
    sudoku_bounds,
)
from .grid import (
    BlockIndex,
    CellRef,
    GridError,
    Order,
    ParseError,
    RectShape,
    SudokuGrid,
    Violation,
    is_m_rectangle,
    is_pq_rectangle,
    parse,
    render,
    truncate_rows,
    validate,
)

__all__ = [
    "BipartiteGraph",
    "BlockIndex",
    "BoundsReport",
    "CellRef",
    "Completability",
    "CompletionError",
    "ConstructionError",
    "CountResult",
    "CounterexampleReport",
    "CountingError",
    "DegreeDemand",
    "GridError",
    "HallCertificate",
    "KernelError",
    "NotCompletable",
    "Order",
    "ParseError",
    "RectShape",
    "SudokuGrid",
    "Violation",
    "canonical_partition",
    "complete",
    "complete_randomized",
    "construct_counterexample",
    "count_completions",
    "decide_guaranteed",
    "degree_matching",
    "edge_color",
    "extend_column_blocks",
    "figure1_fixture",
    "is_m_rectangle",
    "is_pq_rectangle",
    "matching_bounds",
    "parse",
    "render",
    "sudoku_bounds",
    "truncate_rows",
    "validate",
    "verify_certificate",
]

__version__ = "0.1.0"
