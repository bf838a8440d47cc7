"""Grid model, validation, shapes, and the text format."""

import random
import re
from enum import IntEnum
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sudorect
from oracles import (
    block_cells,
    block_of,
    can_place,
    in_column,
    reference_parse,
    reference_pq_rectangle,
    reference_render,
    reference_units,
    reference_validate,
    row_values,
)
from sudorect import (
    BlockIndex,
    CellRef,
    GridError,
    Order,
    ParseError,
    RectShape,
    SudokuGrid,
    Violation,
    complete,
    complete_randomized,
    is_m_rectangle,
    is_pq_rectangle,
    parse,
    render,
    truncate_rows,
    validate,
)
from sudorect.constructions import _lemma2_matrix, _matrix_to_grid


def test_figure1_is_valid(figure1):
    assert validate(figure1) is None


def test_empty_grid_is_valid():
    assert validate(SudokuGrid(3)) is None


def test_block_conflict_reported_with_earliest_partner(figure1):
    # overwrite (5,9): 1 -> 7.  A direct scan of the figure shows 7 at (4,9)
    # (same column and block) and at (5,6) (same row); the earliest partner
    # in row-major order is (4,9), and a shared block outranks the shared
    # column in the report.
    broken = figure1.copy()
    broken.clear(5, 9)
    broken.set(5, 9, 7)
    violation = validate(broken)
    assert violation is not None
    assert violation.kind == "block"
    assert violation.first == CellRef(4, 9)
    assert violation.second == CellRef(5, 9)


def test_row_conflict():
    g = SudokuGrid(2)
    g.set(1, 1, 3)
    g.set(1, 4, 3)
    violation = validate(g)
    assert violation.kind == "row"
    assert (violation.first, violation.second) == (CellRef(1, 1), CellRef(1, 4))


def test_column_conflict_outside_block():
    g = SudokuGrid(2)
    g.set(1, 1, 3)
    g.set(3, 1, 3)
    violation = validate(g)
    assert violation.kind == "column"


def test_malformed_entry_detected_by_validate():
    g = SudokuGrid(2)
    g._cells[0][0] = 99  # simulate drift past the API
    violation = validate(g)
    assert violation.kind == "malformed"
    assert violation.first == CellRef(1, 1)
    assert not g.audit()


def test_validate_reports_a_planted_bool_as_malformed():
    g = SudokuGrid(2)
    g._cells[0][0] = True  # simulate drift past the API; True == 1 as an int
    expected = Violation("malformed", CellRef(1, 1), CellRef(1, 1))
    assert validate(g) == reference_validate(g) == expected
    assert not g.audit()


def test_validate_is_pure(figure1):
    first = validate(figure1)
    second = validate(figure1)
    assert first is None and second is None


def test_set_rejects_bad_values_and_occupied_cells():
    g = SudokuGrid(2)
    with pytest.raises(GridError):
        g.set(1, 1, 5)
    with pytest.raises(GridError):
        g.set(0, 1, 1)
    g.set(1, 1, 1)
    with pytest.raises(GridError):
        g.set(1, 1, 2)


def test_order_rejects_bools():
    # bool is an int subclass; SudokuGrid(True) would render as "k=True"
    for k in (True, False):
        with pytest.raises(GridError, match=repr(k)):
            Order(k)
        with pytest.raises(GridError, match=repr(k)):
            SudokuGrid(k)


def test_equal_orders_hash_equal_and_repr_their_side():
    assert Order(3) == Order(3) and hash(Order(3)) == hash(Order(3))
    assert len({Order(3), Order(3), Order(2)}) == 2
    assert repr(Order(3)) == "Order(k=3)"


@pytest.mark.parametrize(
    "rows",
    [[[None] * 4] * 3, [[None] * 4] * 5, [[None] * 4] * 3 + [[None] * 3], [[None] * 4] * 3 + [[None] * 5]],
    ids=["3-rows", "5-rows", "short-row", "long-row"],
)
def test_from_rows_refuses_the_wrong_shape(rows):
    with pytest.raises(GridError) as exc:
        SudokuGrid.from_rows(2, rows)
    assert str(exc.value) == "expected 4×4 entries"


def test_writers_and_audit_reject_bools():
    # bool is an int subclass; True would render as "True", which parse rejects
    g = SudokuGrid(2)
    with pytest.raises(GridError, match="True"):
        g.set(1, 1, True)
    g.set(1, 2, 2)
    assert g.rows()[0] == (None, 2, None, None) and g.rows()[2] == (None,) * 4
    assert g.filled_count == 1
    assert g.audit()
    g._cells[0][0] = True  # simulate drift past the API
    assert not g.audit()


def test_occupancy_is_read_from_the_cells():
    # a valid value planted past the API shows in the count and in is_full
    g = SudokuGrid(2)
    g._cells[0][0] = 1
    assert g.filled_count == 1 and not g.is_full() and g.audit()


# -- shapes ------------------------------------------------------------------


def test_m_rectangle_of_figure1(figure1):
    assert is_m_rectangle(figure1) == RectShape(m=5, l=1, r=2)


def test_m_rectangle_of_empty_grid():
    assert is_m_rectangle(SudokuGrid(3)) == RectShape(m=0, l=0, r=0)


def test_m_rectangle_of_full_square():
    square = complete(SudokuGrid(2))
    assert is_m_rectangle(square) == RectShape(m=4, l=2, r=0)


def test_m_rectangle_rejects_other_patterns():
    g = SudokuGrid(2)
    g.set(2, 1, 1)
    assert is_m_rectangle(g) is None


def test_pq_rectangle_of_lemma2_output():
    grid = _matrix_to_grid(_lemma2_matrix(1, 2, 3, [[1, 2, 3], [4, 5, 6]]), 3)
    assert is_pq_rectangle(grid) == (3, 2)


def test_pq_rectangle_of_figure1(figure1):
    assert is_pq_rectangle(figure1) == (5, 9)


def test_pq_rectangle_single_cell_and_empty():
    g = SudokuGrid(3)
    g.set(1, 1, 1)
    assert is_pq_rectangle(g) == (1, 1)
    assert is_pq_rectangle(SudokuGrid(3)) == (0, 0)


def test_pq_rectangle_rejects_ragged_fill():
    g = SudokuGrid(2)
    g.set(1, 1, 1)
    g.set(2, 2, 1)
    assert is_pq_rectangle(g) is None


@settings(max_examples=200, deadline=None)
@given(k=st.integers(1, 3), data=st.data())
def test_pq_rectangle_matches_the_row_scan(k, data):
    n = k * k
    p, q = data.draw(st.integers(0, n)), data.draw(st.integers(0, n))
    filled = {(r, c) for r in range(p) for c in range(q)}
    flips = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    filled ^= set(data.draw(st.lists(flips, max_size=2)))
    grid = SudokuGrid.from_rows(k, [[1 if (r, c) in filled else None for c in range(n)] for r in range(n)])
    assert is_pq_rectangle(grid) == reference_pq_rectangle(grid)


# -- truncation --------------------------------------------------------------


def test_truncate_full_square_is_identity():
    square = complete(SudokuGrid(2))
    assert truncate_rows(square, 4) == square


def test_truncate_to_zero_clears_everything(figure1):
    assert truncate_rows(figure1, 0) == SudokuGrid(3)


def test_truncate_recovers_figure1_prefix(figure1):
    prefix = truncate_rows(figure1, 3)
    square = complete(prefix)
    assert isinstance(square, SudokuGrid)
    six = truncate_rows(square, 6)
    assert truncate_rows(six, 3) == prefix


def test_truncate_range_check(figure1):
    with pytest.raises(GridError):
        truncate_rows(figure1, 10)


@pytest.mark.parametrize("m", range(0, 10))
def test_truncate_preserves_validity(figure1, m):
    assert validate(truncate_rows(figure1, m)) is None


# -- text format --------------------------------------------------------------


def test_parse_order4_rectangle():
    text = "k=2\n1 2 3 4\n3 4 1 2\n. . . .\n. . . .\n"
    grid = parse(text)
    assert grid.order.k == 2
    assert is_m_rectangle(grid) == RectShape(m=2, l=1, r=0)
    assert grid.get(1, 1) == 1 and grid.get(2, 4) == 2 and grid.get(3, 1) is None


def test_render_empty_order9():
    text = render(SudokuGrid(3))
    lines = text.splitlines()
    assert lines[0] == "k=3"
    assert len(lines) == 10
    assert all(line == " ".join(["."] * 9) for line in lines[1:])


def test_parse_render_figure1_roundtrip(figure1):
    assert parse(render(figure1)) == figure1


def test_parse_accepts_zero_and_comments():
    text = "# header comment\nk=2\n1 0 . 4\n# mid comment\n. . . .\n. . . .\n0 0 0 0\n"
    grid = parse(text)
    assert grid.get(1, 1) == 1
    assert grid.get(1, 2) is None
    assert grid.filled_count == 2


def test_parse_accepts_conflicting_content():
    # duplicates are a validity matter, not a parse error
    grid = parse("k=2\n1 1 . .\n. . . .\n. . . .\n. . . .\n")
    assert validate(grid).kind == "row"


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("", "empty input"),
        ("n=2\n", "k=<int>"),
        ("k 3\n", "first line must be k=<int> (line 1)"),
        ("# comment\n k : 3\n", "first line must be k=<int> (line 2)"),
        ("k=x\n", "bad block side"),
        ("k=2\n1 2 3\n3 4 1 2\n. . . .\n. . . .\n", "expected 4 tokens"),
        ("k=2\n1 2 3 4\n3 4 1 2\n. . . .\n", "expected 4 rows"),
        ("k=99999\n1 2\n", "expected 9999800001 rows for k=99999,"),
        ("k=10000000000\n1 2\n", "expected k² rows for k=10000000000,"),
        ("k=2\n1 2 3 9\n3 4 1 2\n. . . .\n. . . .\n", "outside 1..4"),
        ("k=2\n1 2 3 z\n3 4 1 2\n. . . .\n. . . .\n", "bad token"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert fragment in str(exc.value)


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as exc:
        parse("k=2\n1 2 3 4\n3 4 1 z\n. . . .\n. . . .\n")
    assert exc.value.line == 3
    assert exc.value.column == 4


def test_parse_clips_long_tokens_in_its_messages():
    body = "\n. . . .\n. . . .\n. . . .\n"
    for token, message in [
        ("x" * 20, f"bad token {'x' * 20!r}"),
        ("x" * 21, f"bad token {'x' * 20 + '…'!r}"),
        ("9" * 20, f"value {'9' * 20} outside 1..4"),
        ("9" * 21, f"value {'9' * 20}… outside 1..4"),
    ]:
        with pytest.raises(ParseError) as exc:
            parse(f"k=2\n1 2 3 {token}" + body)
        assert str(exc.value) == message + " (line 2, token 4)"


def test_parse_adopts_its_rows_without_a_second_proof(monkeypatch):
    # every entry parse builds is None or in 1..n already, so the bulk
    # proof of from_rows is not run again on its rows
    grids = []
    for k in range(2, 5):
        square = complete_randomized(SudokuGrid(k), k)
        grids += [square, truncate_rows(square, k + 1), SudokuGrid(k)]
    texts = [render(grid) for grid in grids]
    texts[1] = texts[1].replace(" .", " 0").replace(" 1 ", " 01 ")  # odd spellings

    def refuse(cells, n):
        raise AssertionError("parse proved its rows twice")

    with monkeypatch.context() as patched:
        patched.setattr(sudorect.grid, "_well_formed", refuse)
        parsed = [parse(text) for text in texts]
        with pytest.raises(ParseError, match="bad token 'z'"):
            parse("k=2\n1 2 3 z\n3 4 1 2\n. . . .\n. . . .\n")
        with pytest.raises(ParseError, match="value 9 outside 1..4"):
            parse("k=2\n1 2 3 9\n3 4 1 2\n. . . .\n. . . .\n")
    for grid, got in zip(grids, parsed):  # audit runs the proof, so only now
        assert got == grid and got.filled_count == grid.filled_count and got.audit()


# -- properties ---------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), keep=st.floats(0.0, 1.0))
def test_roundtrip_random_partial_grids(seed, keep):
    rng = random.Random(seed)
    square = complete_randomized(SudokuGrid(2), seed)
    grid = SudokuGrid(2)
    for r in range(1, 5):
        for c in range(1, 5):
            if rng.random() < keep:
                grid.set(r, c, square.get(r, c))
    assert parse(render(grid)) == grid


@settings(max_examples=40, deadline=None)
@given(ops=st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)), max_size=40))
def test_audit_matches_incremental_occupancy(ops):
    g = SudokuGrid(2)
    for row, col, value in ops:
        if g.get(row, col) is None:
            g.set(row, col, value)
        else:
            g.clear(row, col)
        assert g.audit()


@st.composite
def set_clear_runs(draw) -> tuple[int, list]:
    """k and a list of set/clear calls; values are random, so placements
    conflict and calls hit filled cells."""
    k = draw(st.integers(2, 3))
    n = k * k
    call = st.tuples(
        st.sampled_from(["set", "clear"]), st.integers(1, n), st.integers(1, n), st.integers(1, n)
    )
    return k, draw(st.lists(call, max_size=4 * n))


@settings(max_examples=200, deadline=None)
@given(run=set_clear_runs())
def test_queries_match_units_recomputed_from_rows(run):
    k, calls = run
    n = k * k
    g = SudokuGrid(k)
    for op, row, col, value in calls:
        if op == "clear":
            g.clear(row, col)
        elif g.get(row, col) is None:
            g.set(row, col, value)
        else:
            before = g.rows()
            with pytest.raises(GridError, match="already filled"):
                g.set(row, col, value)
            assert g.rows() == before
    rows, cols, blocks, filled = reference_units(g)
    assert g.filled_count == filled
    assert g.is_full() == (filled == n * n)
    assert g.audit()
    for unit in range(1, n + 1):
        assert row_values(g, unit) == rows[unit - 1]
        assert g.column_values(unit) == cols[unit - 1]
        block = BlockIndex((unit - 1) // k + 1, (unit - 1) % k + 1)
        assert g.block_values(block) == blocks[unit - 1]
    for row in range(1, n + 1):
        for col in range(1, n + 1):
            b = ((row - 1) // k) * k + (col - 1) // k
            for value in range(1, n + 1):
                assert in_column(g, col, value) == (value in cols[col - 1])
                assert can_place(g, row, col, value) == (
                    g.get(row, col) is None
                    and value not in rows[row - 1] | cols[col - 1] | blocks[b]
                )


@st.composite
def rows_with_bad_entries(draw) -> tuple[int, list]:
    """k and n rows of n entries: a pattern square with cells emptied and
    up to three entries replaced by values that ``set`` refuses or accepts
    unusually (a bool)."""
    k = draw(st.integers(2, 3))
    n = k * k
    keep = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    rows = [
        [((r % k) * k + r // k + c) % n + 1 if keep[r * n + c] else None for c in range(n)]
        for r in range(n)
    ]
    bad = st.sampled_from([0, -1, n + 1, 2.0, "1", True])
    for r, c, value in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), bad), max_size=3)):
        rows[r][c] = value
    return k, rows


@settings(max_examples=200, deadline=None)
@given(case=rows_with_bad_entries())
def test_from_rows_raises_as_a_per_cell_set_loop(case):
    k, rows = case
    expected = SudokuGrid(k)
    try:
        for r, row in enumerate(rows, start=1):
            for c, value in enumerate(row, start=1):
                if value is not None:
                    expected.set(r, c, value)
    except GridError as exc:
        with pytest.raises(GridError) as got:
            SudokuGrid.from_rows(k, rows)
        assert (type(got.value), str(got.value)) == (type(exc), str(exc))
        return
    grid = SudokuGrid.from_rows(k, rows)
    assert grid == expected and grid.filled_count == expected.filled_count
    assert grid.audit()


@st.composite
def grid_bodies(draw) -> tuple[int, list[str]]:
    """k and the n row lines of a grid file: canonical tokens, some rows
    all "." (canonical blank lines, or near-blank ones: a "0", a token
    short, tab or double-space separated), plus up to three odd tokens
    (bad, out of range, or valid but unusual spellings) and sometimes a
    row with a token missing."""
    k = draw(st.integers(2, 3))
    n = k * k
    token = st.sampled_from([".", "0", *map(str, range(1, n + 1))])
    rows = draw(st.lists(st.lists(token, min_size=n, max_size=n), min_size=n, max_size=n))
    separators = [" "] * n
    blank = st.sampled_from(["blank", "zero", "short", "tab", "double"])
    for r, kind in draw(st.lists(st.tuples(st.integers(0, n - 1), blank), max_size=n)):
        rows[r] = ["."] * (n - 1 if kind == "short" else n)
        if kind == "zero":
            rows[r][draw(st.integers(0, n - 1))] = "0"
        separators[r] = {"tab": "\t", "double": "  "}.get(kind, " ")
    odd = st.sampled_from(["x", "-1", "00", str(n + 1), "1.0", "03", "+2", "\u0663"])
    for r, c, value in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), odd), max_size=3)):
        if c < len(rows[r]):
            rows[r][c] = value
    if draw(st.booleans()):
        rows[draw(st.integers(0, n - 1))].pop()
    return k, [sep.join(row) for sep, row in zip(separators, rows)]


@settings(max_examples=200, deadline=None)
@given(body=grid_bodies())
def test_parse_raises_as_a_per_token_loop(body):
    k, lines = body
    expected = reference_parse(k, lines)
    text = f"k={k}\n" + "\n".join(lines) + "\n"
    if isinstance(expected, ParseError):
        with pytest.raises(ParseError) as got:
            parse(text)
        assert str(got.value) == str(expected)
        assert (got.value.line, got.value.column) == (expected.line, expected.column)
    else:
        grid = parse(text)
        assert grid == expected and grid.filled_count == expected.filled_count


def test_only_the_grid_module_touches_cells():
    # the cells are the grid's only state; every write goes through grid.py
    package = Path(sudorect.__file__).parent
    touching = [
        path.name
        for path in sorted(package.glob("*.py"))
        if path.name != "grid.py" and re.search(r"\._cells\b", path.read_text())
    ]
    assert touching == []


PUBLIC_NAMES = [
    "BipartiteGraph", "BlockIndex", "BoundsReport", "CellRef", "Completability",
    "CompletionError", "ConstructionError", "CountResult", "CounterexampleReport",
    "CountingError", "DegreeDemand", "GridError", "HallCertificate", "KernelError",
    "NotCompletable", "Order", "ParseError", "RectShape", "SudokuGrid", "Violation",
    "canonical_partition", "complete", "complete_randomized", "construct_counterexample",
    "count_completions", "decide_guaranteed", "degree_matching", "edge_color",
    "extend_column_blocks", "figure1_fixture", "is_m_rectangle", "is_pq_rectangle",
    "matching_bounds", "parse", "render", "sudoku_bounds", "truncate_rows", "validate",
    "verify_certificate",
]


def test_public_names_are_pinned():
    # the stage cores and the Lemma 2 matrix are private; a new public
    # name is a decision, not a side effect
    assert len(PUBLIC_NAMES) == 39
    assert sudorect.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(sudorect, name).__module__.startswith("sudorect."), name


@st.composite
def planted_grids(draw) -> SudokuGrid:
    """A relabelled pattern square with cells cleared, values copied from a
    row, column or block partner, and malformed entries poked past the API.

    A copied value is first cleared from the target's other row, column and
    block peers, so that its one conflict is with the partner it came from.
    """
    k = draw(st.integers(2, 3))
    n = k * k
    label = draw(st.permutations(range(1, n + 1)))
    keep = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    grid = SudokuGrid(k)
    for r in range(n):
        for c in range(n):
            if keep[r * n + c]:
                grid.set(r + 1, c + 1, label[((r % k) * k + r // k + c) % n])
    plants = st.tuples(
        st.sampled_from(["row", "column", "block"]),
        st.integers(1, n),
        st.integers(1, n),
        st.integers(0, n - 1),
    )
    for kind, r, c, j in draw(st.lists(plants, max_size=3)):
        if kind == "row":
            source = (r, j + 1)
        elif kind == "column":
            source = (j + 1, c)
        else:
            top, left = (r - 1) // k * k, (c - 1) // k * k
            source = (top + j // k + 1, left + j % k + 1)
        value = grid.get(*source)
        if value is None or source == (r, c):
            continue
        peers = [(r, col) for col in range(1, n + 1)] + [(row, c) for row in range(1, n + 1)]
        peers += block_cells(grid.order, block_of(grid.order, r, c))
        for peer in peers:
            if tuple(peer) != source and grid.get(*peer) == value:
                grid.clear(*peer)
        grid.clear(r, c)
        grid.set(r, c, value)
    pokes = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.sampled_from([99, 1.0, True]))
    for r, c, value in draw(st.lists(pokes, max_size=2)):
        grid._cells[r][c] = value  # simulate drift past the API
    return grid


@st.composite
def grids_with_holes(draw) -> SudokuGrid:
    """A relabelled pattern square for k = 1..5 with some cells cleared."""
    k = draw(st.integers(1, 5))
    n = k * k
    labels = draw(st.permutations(range(1, n + 1)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    keep = draw(st.floats(0.0, 1.0))
    return SudokuGrid.from_rows(k, [
        [labels[((r % k) * k + r // k + c) % n] if rng.random() < keep else None for c in range(n)]
        for r in range(n)
    ])


@settings(max_examples=200, deadline=None)
@given(grid=grids_with_holes())
def test_render_equals_the_per_cell_render(grid):
    assert render(grid) == reference_render(grid)


def test_render_equals_the_per_cell_render_on_a_full_k16_square():
    square = complete(SudokuGrid(16))
    assert square.is_full() and render(square) == reference_render(square)


@settings(max_examples=300, deadline=None)
@given(grid=planted_grids())
def test_validate_matches_reference_scan(grid):
    assert validate(grid) == reference_validate(grid)


@st.composite
def grids_with_cleared_rows(draw) -> SudokuGrid:
    """A relabelled pattern square with cells cleared and one row, column or
    block conflict planted as planted_grids plants it, then whole rows
    cleared: rows anywhere, rows inside one band, and the rows strictly
    between the conflict's two cells.  Sometimes the conflict's own rows
    are cleared too, and sometimes a malformed entry is poked in first.
    k runs to 4, so blocks of 16 cells and bands of every height are cut."""
    k = draw(st.integers(2, 4))
    n = k * k
    label = draw(st.permutations(range(1, n + 1)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    keep = draw(st.floats(0.0, 1.0))
    grid = SudokuGrid.from_rows(k, [
        [label[((r % k) * k + r // k + c) % n] if rng.random() < keep else None for c in range(n)]
        for r in range(n)
    ])
    kind = draw(st.sampled_from(["row", "column", "block"]))
    r, c, j = draw(st.integers(1, n)), draw(st.integers(1, n)), draw(st.integers(0, n - 1))
    if kind == "row":
        source = (r, j + 1)
    elif kind == "column":
        source = (j + 1, c)
    else:
        source = ((r - 1) // k * k + j // k + 1, (c - 1) // k * k + j % k + 1)
    value = grid.get(*source)
    if value is not None and source != (r, c):
        peers = [(r, col) for col in range(1, n + 1)] + [(row, c) for row in range(1, n + 1)]
        peers += block_cells(grid.order, block_of(grid.order, r, c))
        for peer in peers:
            if tuple(peer) != source and grid.get(*peer) == value:
                grid.clear(*peer)
        grid.clear(r, c)
        grid.set(r, c, value)
    if draw(st.booleans()):
        pr, pc = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        grid._cells[pr][pc] = draw(st.sampled_from([99, 1.0, True]))  # drift past the API
    low, high = sorted((r, source[0]))
    cleared = set(range(low + 1, high))
    cleared |= set(draw(st.lists(st.integers(1, n), max_size=n)))
    band = draw(st.integers(0, k - 1))
    cleared |= set(draw(st.lists(st.integers(band * k + 1, band * k + k), max_size=k - 1)))
    if draw(st.booleans()):
        cleared -= {low, high}
    for row in cleared:
        for col in range(1, n + 1):
            grid.clear(row, col)
    return grid


@settings(max_examples=300, deadline=None)
@given(grid=grids_with_cleared_rows())
def test_validate_with_cleared_rows_matches_reference_scan(grid):
    expected = reference_validate(grid)
    assert validate(grid) == expected
    # the bulk proof is exact: a spurious failure would only cost the scan
    assert sudorect.grid._valid_in_bulk(grid) == (expected is None)


def planted_at(rectangle: SudokuGrid, r: int, c: int) -> list[SudokuGrid]:
    """Copies of a valid ``rectangle`` with cell (r, c) (0-based) written
    past the API: a value of its row, a value of its column from the
    filled rows before and after it (cyclically), a value of its block
    from another row and column, and a malformed entry.  A value taken
    from another row is cleared from its old place in row r, so only its
    column or block check can see the clash."""
    k, n = rectangle.order.k, rectangle.order.n
    m = sum(1 for row in rectangle.rows() if row.count(None) < n)
    top, left = r - r % k, c - c % k
    sources = [(r, (c + 1) % n), ((r - 1) % m, c), ((r + 1) % m, c)]
    sources += [(i, left + (c + 1) % k) for i in range(top, min(top + k, m)) if i != r][:1]
    planted = []
    for i, j in sources:
        if (i, j) != (r, c):
            grid = rectangle.copy()
            row, value = grid._cells[r], grid._cells[i][j]
            if i != r and value in row:
                row[row.index(value)] = None
            row[c] = value
            planted.append(grid)
    grid = rectangle.copy()
    grid._cells[r][c] = (0, n + 1, True, 1.0)[(r + c) % 4]
    return planted + [grid]


@pytest.mark.parametrize("k", [2, 3, 4])
def test_a_conflict_planted_at_any_row_is_found_as_the_scan_finds_it(k):
    # the first row that completes a violation is found by whole-row
    # checks, and only that row is scanned cell by cell
    n = k * k
    square = complete_randomized(SudokuGrid(k), k)
    kinds = set()
    for m in (k + 1, n):
        rectangle = truncate_rows(square, m)
        for r in range(m):
            for c in sorted({0, k - 1, k, n - 1}):
                for grid in planted_at(rectangle, r, c):
                    expected = reference_validate(grid)
                    assert expected is not None
                    assert validate(grid) == expected
                    kinds.add(expected.kind)
    assert kinds == {"row", "column", "block", "malformed"}


def test_a_conflict_planted_in_a_k16_rectangle_is_found_as_the_scan_finds_it():
    rectangle = truncate_rows(complete_randomized(SudokuGrid(16), 1), 31)
    for r in (0, 15, 16, 30):
        for grid in planted_at(rectangle, r, 0):
            assert validate(grid) == reference_validate(grid)
    for r in (1, 31):  # a row conflict at the top and at the bottom
        grid = rectangle.copy()
        grid._cells[r - 1][1] = grid._cells[r - 1][0]
        assert validate(grid) == Violation("row", CellRef(r, 1), CellRef(r, 2))


@pytest.mark.parametrize("k", [2, 3])
def test_blocks_are_read_band_by_band_past_cleared_rows(k):
    # k − 1 filled rows in the first band, then a block conflict lower down:
    # grouping the filled rows k at a time, not by band, would split it
    n = k * k
    for top in range(k, n, k):
        for i in range(top, top + k):
            for j in range(i + 1, top + k):
                grid = SudokuGrid(k)
                for t in range(1, k):
                    grid.set(t, t, t)
                grid.set(i + 1, 1, n)
                grid.set(j + 1, 2, n)
                expected = Violation("block", CellRef(i + 1, 1), CellRef(j + 1, 2))
                assert validate(grid) == reference_validate(grid) == expected


class _LooksLikeNone:
    """An entry written past the API that compares equal to None."""

    def __eq__(self, other):
        return other is None

    __hash__ = None


class _Incomparable:
    """An entry written past the API that refuses to be compared."""

    def __eq__(self, other):
        raise TypeError("not comparable")

    __hash__ = None


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("entry", [_LooksLikeNone, _Incomparable])
def test_a_look_alike_none_in_an_empty_row_is_malformed(k, entry):
    # the gates test an empty row by identity and never call an entry's __eq__
    n = k * k
    rectangle = truncate_rows(complete_randomized(SudokuGrid(k), k), k + 1)
    for r in (k + 1, n - 1):
        for c in (0, n - 1):
            grid = rectangle.copy()
            grid._cells[r][c] = entry()  # simulate drift past the API
            if entry is _LooksLikeNone:
                assert grid._cells[r] == [None] * n  # equality alone cannot see it
            expected = Violation("malformed", CellRef(r + 1, c + 1), CellRef(r + 1, c + 1))
            assert validate(grid) == reference_validate(grid) == expected
            assert not grid.audit()
            with pytest.raises(GridError, match="outside"):
                SudokuGrid.from_rows(k, grid._cells)


class _One(IntEnum):
    ONE = 1


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize(
    "entry",
    [_LooksLikeNone, _Incomparable, lambda: True, lambda: 1.0, lambda: _One.ONE],
    ids=["looks-like-none", "incomparable", "bool", "float", "int-enum"],
)
def test_a_malformed_entry_in_a_filled_row_fails_the_bulk_proof(k, entry):
    # the type pass runs before any unit's set is built: _distinct skips
    # counting None in a unit without an empty cell only on that ground
    n = k * k
    square = complete_randomized(SudokuGrid(k), k)
    partial = truncate_rows(square, k + 1)
    for c in range(2, n + 1, 2):
        partial.clear(k + 1, c)
    places = [
        (partial, k, 0),  # a partial row
        (truncate_rows(square, k + 1), k, n - 1),  # a full row of a rectangle
        (square, n // 2, n // 2),  # a full square
    ]
    for grid, r, c in places:
        grid = grid.copy()
        grid._cells[r][c] = entry()  # simulate drift past the API
        expected = Violation("malformed", CellRef(r + 1, c + 1), CellRef(r + 1, c + 1))
        assert validate(grid) == reference_validate(grid) == expected
        assert not sudorect.grid._valid_in_bulk(grid)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_the_bulk_proof_reads_only_the_filled_rows(k, monkeypatch):
    # an empty row adds nothing to a row, column or block check, so the
    # proof of an m-rectangle type-checks m·n cells, not n²
    n = k * k
    seen = []
    well_formed = sudorect.grid._well_formed

    def counting(cells, n):
        seen.append(sum(map(len, cells)))
        return well_formed(cells, n)

    monkeypatch.setattr(sudorect.grid, "_well_formed", counting)
    monkeypatch.setattr(sudorect.grid, "_first_violation", None)  # the bulk proof decides
    square = complete_randomized(SudokuGrid(k), k)
    for m in sorted({0, 1, k - 1, k + 1, n // 2, n - 1, n}):
        rectangle = truncate_rows(square, m)
        seen.clear()
        assert validate(rectangle) is None
        assert seen == [m * n], (m, seen)


def test_completed_square_value_counts(squares_k3):
    square = squares_k3[0]
    assert square.is_full() and validate(square) is None
    counts = {v: 0 for v in range(1, 10)}
    for row in square.rows():
        for v in row:
            counts[v] += 1
    assert all(c == 9 for c in counts.values())
    for unit in range(1, 10):
        assert row_values(square, unit) == set(range(1, 10))
        assert square.column_values(unit) == set(range(1, 10))
