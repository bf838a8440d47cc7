"""Regenerate ``data/frozen.json``, the benchmark's frozen inputs.

    python3 perfbench/freeze.py

The file was written once and is not rewritten by the benchmark.  It holds

* figure 1, the classic 5×9 rectangle without a completion;
* rectangles built by ``construct_counterexample`` (rejection inputs);
* canonical rectangles for the counting workload, cut from squares of this
  script's own seeded backtracking generator, with their completion counts
  pinned.  Every pin is cross-checked against ``check.count_completions``,
  a counter that shares no code with the program.

Run from the repository root; it imports the program from ``src/``.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import gen  # noqa: E402
import sudorect  # noqa: E402

REJECTION_SHAPES = [(9, 17), (9, 51), (9, 71), (12, 23), (12, 92), (16, 31)]
# (k, m, generator seed) of the counting rectangles; the seeds were picked
# for search sizes of about 2.5k nodes (k=3, m=6), 20k (k=3, m=5) and
# 43k (k=4, m=13) in the program's search order.
COUNT_SHAPES = [(3, 6, 3060), (3, 6, 3063), (3, 6, 3065), (3, 6, 3067),
                (3, 5, 3055), (3, 5, 3056), (4, 13, 4130)]


def random_square(k: int, rng: random.Random) -> list[list[int]]:
    """A full square by row-major backtracking with shuffled value order."""
    n = k * k
    grid = [[0] * n for _ in range(n)]
    rows = [set() for _ in range(n)]
    cols = [set() for _ in range(n)]
    blocks = [set() for _ in range(n)]
    stack = [(0, None)]
    while stack:
        i, options = stack.pop()
        if i == n * n:
            return grid
        r, c = divmod(i, n)
        b = (r // k) * k + c // k
        if options is None:
            options = [v for v in range(1, n + 1)
                       if v not in rows[r] and v not in cols[c] and v not in blocks[b]]
            rng.shuffle(options)
        elif grid[r][c]:
            v = grid[r][c]
            rows[r].discard(v)
            cols[c].discard(v)
            blocks[b].discard(v)
            grid[r][c] = 0
        if options:
            v = options.pop()
            grid[r][c] = v
            rows[r].add(v)
            cols[c].add(v)
            blocks[b].add(v)
            stack.append((i, options))
            stack.append((i + 1, None))
    raise RuntimeError("no square found")


def lines(rows) -> list[str]:
    return [" ".join(str(v) for v in row) for row in rows]


def main() -> None:
    figure1 = [list(r) for r in sudorect.figure1_fixture().rows()[:5]]
    rejections = []
    for k, m in REJECTION_SHAPES:
        report = sudorect.construct_counterexample(k, m)
        rows = [list(r) for r in report.rectangle.rows()[:m]]
        w = report.witness
        problem = check.replay_witness(
            k, gen.pad(rows, k), (w.block.block_row, w.block.block_col),
            w.quota, w.columns, w.candidates)
        assert problem is None, problem
        rejections.append({"k": k, "m": m, "case": report.case_used, "rows": lines(rows)})
        print(f"rejection k={k} m={m} case {report.case_used}", flush=True)
    counts = []
    for k, m, seed in COUNT_SHAPES:
        rows = random_square(k, random.Random(seed))[:m]
        result = sudorect.count_completions(sudorect.SudokuGrid.from_rows(k, gen.pad(rows, k)))
        own = check.count_completions(k, gen.pad(rows, k))
        assert result.exhausted and result.count == own, (result, own)
        counts.append({"k": k, "m": m, "seed": seed, "count": own, "rows": lines(rows)})
        print(f"count k={k} m={m} seed={seed}: {own} ({result.nodes_visited} nodes)", flush=True)
    data = {"figure1": {"k": 3, "m": 5, "rows": lines(figure1)},
            "rejections": rejections, "counts": counts}
    gen.DATA.parent.mkdir(exist_ok=True)
    gen.DATA.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
