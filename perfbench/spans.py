"""Outside-in tracing of the program's public functions.

``Tracer.install`` replaces every public function of the six layer modules
with a wrapper that records a span (name, start, end, parent, operation id),
in every ``sudorect`` module that holds the name.  The modules import names
directly (``from .bipartite import degree_matching``), so a function has to
be replaced wherever it is bound for calls between modules to nest: the
perfect-matching peel inside ``edge_color`` then shows as a matching span
whose parent is the colouring span.  Spans stay in memory until the run
writes them out.  No file under ``src/`` changes.
"""

from __future__ import annotations

import inspect
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

LAYERS = ("grid", "bipartite", "completion", "constructions", "counting", "cli")
# Called once per term of the bounds products (thousands of times per
# table); a span per term would cost more than the term.  Its time stays in
# the self time of ``sudoku_bounds``.
UNWRAPPED = {"counting.matching_bounds"}


def _edges(args, kwargs, result) -> int:
    graph = args[0] if args else next(iter(kwargs.values()))
    return len(graph.edges)


def _matching(args, kwargs, result) -> tuple[int, bool]:
    return _edges(args, kwargs, result), not isinstance(result, tuple)


def _count(args, kwargs, result) -> tuple[int, int]:
    return result.nodes_visited, result.count


# What a span records besides its times, for the per-layer counts.
_DETAIL: dict[str, Callable[[tuple, dict, Any], Any]] = {
    "bipartite.degree_matching": _matching,
    "bipartite.edge_color": _edges,
    "counting.count_completions": _count,
}


class Tracer:
    """Collects spans while installed; one instance per run."""

    def __init__(self) -> None:
        # span: [name, start, end, parent index, operation id, detail]
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        # (module, bound name, function, wrapper), found at the first install
        self._bindings: list[tuple[Any, str, Callable, Callable]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, detail = self.spans, self._stack, _DETAIL.get(name)

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if detail is not None:
                span[5] = detail(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Bind the wrappers; cheap after the first call, so it can run per operation."""
        if not self._bindings:
            self._bindings = self._find_bindings()
        for module, bound, _, wrapper in self._bindings:
            setattr(module, bound, wrapper)

    def uninstall(self) -> None:
        for module, bound, fn, _ in self._bindings:
            setattr(module, bound, fn)

    def _find_bindings(self) -> list[tuple[Any, str, Callable, Callable]]:
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "sudorect" or key.startswith("sudorect."))]
        found = []
        for layer in LAYERS:
            layer_module = sys.modules[f"sudorect.{layer}"]
            for attr, fn in vars(layer_module).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                name = f"{layer}.{attr}"
                if fn.__module__ != layer_module.__name__ or name in UNWRAPPED:
                    continue
                wrapper = self._wrap(name, fn)
                for module in modules:
                    found += [(module, bound, fn, wrapper)
                              for bound, value in vars(module).items() if value is fn]
        return found

    def write(self, path: Path, origin: float) -> None:
        """Write every span as a tab-separated line, times relative to ``origin``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            out.write("id\tname\tstart_s\tend_s\tparent\top\n")
            for i, (name, t0, t1, parent, op, _) in enumerate(self.spans):
                out.write(f"{i}\t{name}\t{t0 - origin:.9f}\t{t1 - origin:.9f}\t{parent}\t{op}\n")


def layer_metrics(spans: list[list], ops: int, rounds: int) -> dict[str, float]:
    """Per-layer metrics per pass over the corpus, from the spans of ``rounds`` passes.

    A span's self time is its duration minus the durations of its child
    spans (one caller, so children never overlap).
    """
    child_time = [0.0] * len(spans)
    for name, t0, t1, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    total = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    for i, (name, t0, t1, _, _, _) in enumerate(spans):
        total[name] += t1 - t0
        own[name] += t1 - t0 - child_time[i]
        calls[name] += 1
    matching_edges = certificates = peels = color_edges = nodes = solutions = 0
    for name, _, _, parent, _, detail in spans:
        if name == "bipartite.degree_matching":
            matching_edges += detail[0]
            certificates += detail[1]
            peels += parent >= 0 and spans[parent][0] == "bipartite.edge_color"
        elif name == "bipartite.edge_color":
            color_edges += detail
        elif name == "counting.count_completions":
            nodes += detail[0]
            solutions += detail[1]
    search_s = own["counting.count_completions"]
    out = {
        "bipartite.matching_s": own["bipartite.degree_matching"],
        "bipartite.matching_calls": calls["bipartite.degree_matching"],
        "bipartite.matching_edges": matching_edges,
        "bipartite.certificates": certificates,
        "bipartite.peel_calls": peels,
        "bipartite.color_s": own["bipartite.edge_color"],
        "bipartite.color_calls": calls["bipartite.edge_color"],
        "bipartite.color_edges": color_edges,
        "completion.stage1_self_s": own["completion.complete_row_block_stage1"],
        "completion.stage2_self_s": own["completion.complete_row_block_stage2"],
        "completion.complete_self_s": own["completion.complete"] + own["completion.complete_randomized"],
        "completion.extend_self_s": own["completion.extend_column_blocks"],
        "completion.extend_calls": calls["completion.extend_column_blocks"],
        "completion.verify_s": total["completion.verify_certificate"],
        "grid.validate_s": total["grid.validate"],
        "grid.validate_calls": calls["grid.validate"],
        "grid.parse_s": total["grid.parse"],
        "grid.render_s": total["grid.render"],
        "constructions.recipe_self_s": own["constructions.construct_counterexample"],
        "counting.search_s": search_s,
        "counting.nodes": nodes,
        "counting.solutions": solutions,
        "counting.bounds_s": own["counting.sudoku_bounds"] + own["counting.asymptotic_table"],
        "cli.self_s": own["cli.main"],
    }
    out = {name: value / rounds for name, value in out.items()}
    out["grid.validate_calls_per_op"] = calls["grid.validate"] / ops if ops else 0.0
    out["counting.nodes_per_s"] = nodes / search_s if search_s else 0.0
    out["counting.solutions_per_node"] = solutions / nodes if nodes else 0.0
    return out


def self_time_total(spans: list[list]) -> float:
    """Sum of all self times, which equals the time covered by root spans."""
    return sum(t1 - t0 for _, t0, t1, parent, _, _ in spans if parent < 0)


def wrapper_cost(calls: int = 10000, repeats: int = 5) -> float:
    """Seconds one wrapped call adds to a call of an empty function (median of repeats)."""
    def noop():
        return None

    wrapped = Tracer()._wrap("noop", noop)
    costs = []
    for _ in range(repeats):
        t0 = perf_counter()
        for _ in range(calls):
            noop()
        t1 = perf_counter()
        for _ in range(calls):
            wrapped()
        costs.append((perf_counter() - t1 - (t1 - t0)) / calls)
    return statistics.median(costs)
