"""Output checkers of the benchmark's own.

None of these call ``sudorect``: a completion is re-parsed and re-checked
cell by cell, a witness is replayed from the input rows, counts are
compared with pinned anchors, and the bounds table with a fresh evaluation
of the paper's product formula.  Each checker returns ``None`` when the
output is right and a one-line reason otherwise.
"""

from __future__ import annotations

from math import exp, lgamma, log
from typing import Optional, Sequence

Grid = Sequence[Sequence[Optional[int]]]


def parse_text(text: str) -> tuple[int, list[list[Optional[int]]]]:
    """Read the grid file format; raises ValueError on anything malformed."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].replace(" ", "").startswith("k="):
        raise ValueError("missing k=<int> header")
    k = int(lines[0].replace(" ", "")[2:])
    n = k * k
    if len(lines) != n + 1:
        raise ValueError(f"expected {n} rows, got {len(lines) - 1}")
    rows = []
    for line in lines[1:]:
        tokens = line.split()
        if len(tokens) != n:
            raise ValueError(f"expected {n} tokens, got {len(tokens)}")
        rows.append([None if t in (".", "0") else int(t) for t in tokens])
    return k, rows


def violation(k: int, grid: Grid) -> Optional[str]:
    """First broken Sudoku condition among the filled cells, or None."""
    n = k * k
    rows = [set() for _ in range(n)]
    cols = [set() for _ in range(n)]
    blocks = [set() for _ in range(n)]
    for r, row in enumerate(grid):
        for c, v in enumerate(row):
            if v is None:
                continue
            if not 1 <= v <= n:
                return f"value {v} out of range at ({r + 1},{c + 1})"
            b = (r // k) * k + c // k
            if v in rows[r] or v in cols[c] or v in blocks[b]:
                return f"repeated value {v} at ({r + 1},{c + 1})"
            rows[r].add(v)
            cols[c].add(v)
            blocks[b].add(v)
    return None


def filled_rows(grid: Grid) -> Optional[int]:
    """m if exactly the first m rows are full and the rest empty."""
    n = len(grid)
    m = 0
    for r, row in enumerate(grid):
        filled = sum(v is not None for v in row)
        if filled == n and m == r:
            m += 1
        elif filled:
            return None
    return m


def check_completion(k: int, given: Grid, output_text: str) -> Optional[str]:
    """The output is a full valid square that keeps every given cell."""
    try:
        ok, out = parse_text(output_text)
    except ValueError as exc:
        return f"unreadable completion: {exc}"
    if ok != k:
        return f"completion has k={ok}, input has k={k}"
    for r, (row_in, row_out) in enumerate(zip(given, out)):
        for c, (a, b) in enumerate(zip(row_in, row_out)):
            if b is None:
                return f"completion leaves ({r + 1},{c + 1}) empty"
            if a is not None and a != b:
                return f"completion changes given cell ({r + 1},{c + 1})"
    return violation(k, out)


def replay_witness(
    k: int,
    given: Grid,
    block: tuple[int, int],
    quota: int,
    columns: Sequence[int],
    candidates: Sequence[int],
) -> Optional[str]:
    """Replay a rejection witness against the rectangle it was issued for.

    The witness names a block of the first open row block, a set of its
    columns and the quota of fresh values each column needs; it holds when
    the values those columns can still take are fewer than quota × |columns|.
    The reported candidate list must be exactly that set of values.
    """
    n = k * k
    m = filled_rows(given)
    if m is None:
        return "witness issued for a grid that is not an m-rectangle"
    l, r = divmod(m, k)
    block_row, block_col = block
    if r == 0 or block_row != l + 1 or not 1 <= block_col <= k:
        return f"witness block {block} is not in the open row block {l + 1}"
    if quota != k - r:
        return f"witness quota {quota}, expected {k - r}"
    own = range((block_col - 1) * k + 1, block_col * k + 1)
    if not columns or len(set(columns)) != len(columns) or not set(columns) <= set(own):
        return f"witness columns {tuple(columns)} are not columns of block {block}"
    present = {given[row][c - 1] for row in range(l * k, m) for c in own}
    reachable = set()
    for c in columns:
        in_column = {given[row][c - 1] for row in range(m)}
        reachable |= {v for v in range(1, n + 1) if v not in present and v not in in_column}
    if tuple(sorted(reachable)) != tuple(candidates):
        return "witness candidates differ from the replayed set"
    if len(reachable) >= quota * len(columns):
        return f"{len(reachable)} candidates cover quota {quota} × {len(columns)} columns"
    return None


def check_rectangle(k: int, m: int, text: str) -> Optional[str]:
    """The text holds a valid rectangle with exactly the first m rows filled."""
    try:
        got_k, grid = parse_text(text)
    except ValueError as exc:
        return f"unreadable rectangle: {exc}"
    if got_k != k:
        return f"rectangle has k={got_k}, expected {k}"
    if filled_rows(grid) != m:
        return f"rectangle is not {m}×{k * k}"
    return violation(k, grid)


def count_completions(k: int, grid: Grid) -> int:
    """Independent exact count: bitmask depth-first search, fewest options first.

    Used to cross-check pinned anchors; slow above desk scale.
    """
    n = k * k
    full = (1 << (n + 1)) - 2
    rows = [0] * n
    cols = [0] * n
    blocks = [0] * n
    empty = []
    for r in range(n):
        for c in range(n):
            v = grid[r][c]
            if v is None:
                empty.append((r, c, (r // k) * k + c // k))
            else:
                rows[r] |= 1 << v
                cols[c] |= 1 << v
                blocks[(r // k) * k + c // k] |= 1 << v

    def search(open_cells: list) -> int:
        if not open_cells:
            return 1
        best = None
        best_mask = 0
        best_bits = n + 1
        for cell in open_cells:
            r, c, b = cell
            mask = full & ~(rows[r] | cols[c] | blocks[b])
            bits = bin(mask).count("1")
            if bits < best_bits:
                best, best_mask, best_bits = cell, mask, bits
                if bits == 0:
                    return 0
        rest = [cell for cell in open_cells if cell is not best]
        r, c, b = best
        total = 0
        while best_mask:
            bit = best_mask & -best_mask
            best_mask ^= bit
            rows[r] |= bit
            cols[c] |= bit
            blocks[b] |= bit
            total += search(rest)
            rows[r] ^= bit
            cols[c] ^= bit
            blocks[b] ^= bit
        return total

    return search(empty)


def bound_ratios(k: int) -> tuple[float, float]:
    """(ratio_lower, ratio_upper) of the paper's two-stage product bounds.

    log PM(n, r) is n!·(r/n)^n from below and (r!)^(n/r) from above; the
    product is prod_l [PM(n, n−k(l−1)) / (k!)^k]^k · (prod_r PM(n, r))^k and
    the ratio is bound^(1/n²)·e³/n.
    """
    n = k * k

    def log_pm(r: int, upper: bool) -> float:
        if upper:
            return (n / r) * lgamma(r + 1)
        return lgamma(n + 1) + n * (log(r) - log(n))

    out = []
    for upper in (False, True):
        total = sum(k * (log_pm(n - k * (l - 1), upper) - k * lgamma(k + 1)) for l in range(1, k + 1))
        total += k * sum(log_pm(r, upper) for r in range(1, k + 1))
        out.append(exp(total / (n * n) + 3.0 - log(n)))
    return out[0], out[1]
