"""Subcommand behavior, exit codes, and output discipline."""

import argparse
import errno
import io
import os
import random
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from sudorect import (
    NotCompletable,
    SudokuGrid,
    complete_randomized,
    construct_counterexample,
    figure1_fixture,
    is_m_rectangle,
    parse,
    render,
    truncate_rows,
    validate,
    verify_certificate,
)
from sudorect import cli, constructions, decide_guaranteed
from sudorect.cli import main


def run_cli(*argv):
    out = io.StringIO()
    err = io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def figure1_file(tmp_path):
    path = tmp_path / "figure1.txt"
    path.write_text(render(figure1_fixture()))
    return str(path)


@pytest.fixture
def empty4_file(tmp_path):
    path = tmp_path / "empty4.txt"
    path.write_text(render(SudokuGrid(2)))
    return str(path)


# -- check ----------------------------------------------------------------------


def test_check_figure1(figure1_file):
    code, out, err = run_cli("check", figure1_file)
    assert code == 0
    assert "valid" in out
    assert "5×9" in out and "k=3" in out and "l=1" in out and "r=2" in out


def test_check_corrupted_row(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("k=2\n1 1 . .\n. . . .\n. . . .\n. . . .\n")
    code, out, err = run_cli("check", str(path))
    assert code == 1
    assert "row condition" in out


def test_check_missing_file():
    code, out, err = run_cli("check", "/nonexistent/grid.txt")
    assert code == 2
    assert "parse error" in err


@pytest.mark.parametrize("command", [["check"], ["complete"], ["count", "--max-nodes", "50"]])
def test_undecodable_file_is_a_one_line_parse_error(tmp_path, command):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"k=\xff2\n")
    code, out, err = run_cli(command[0], str(path), *command[1:])
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("parse error: cannot read") and str(path) in err


def test_check_malformed_file(tmp_path):
    path = tmp_path / "short.txt"
    path.write_text("k=2\n1 2 3\n")
    code, out, err = run_cli("check", str(path))
    assert code == 2


def test_check_kv_format(figure1_file):
    code, out, err = run_cli("check", figure1_file, "--format", "kv")
    assert code == 0
    assert out.strip() == "valid=true k=3 m=5 l=1 r=2"


@pytest.mark.parametrize(
    "text, format, report, code",
    [
        ("1 1 . .\n. . . .\n", "kv", "valid=false kind=row first=1,1 second=1,2", 1),
        ("1 1 . .\n. . . .\n", "text", "row condition violated by cells (1,1) and (1,2)", 1),
        ("1 2 . .\n. 1 . .\n", "kv", "valid=false kind=block first=1,1 second=2,2", 1),
        (". 2 . .\n. . . .\n", "kv", "valid=true k=2", 0),
        (". 2 . .\n. . . .\n", "text", "valid (k=2, 1/16 filled)", 0),
        ("1 2 3 4\n3 4 1 2\n", "text", "valid (2×4 rectangle, k=2, l=1, r=0)", 0),
    ],
    ids=["row-kv", "row-text", "block-kv", "partial-kv", "partial-text", "rectangle-text"],
)
def test_check_reports_each_verdict_in_both_formats(tmp_path, text, format, report, code):
    path = tmp_path / "grid.txt"
    path.write_text("k=2\n" + text + ". . . .\n. . . .\n")
    assert run_cli("check", str(path), "--format", format) == (code, report + "\n", "")


# -- decide ---------------------------------------------------------------------


def test_decide_k3_m5():
    code, out, err = run_cli("decide", "--k", "3", "--m", "5")
    assert code == 1
    assert "not guaranteed" in out


def test_decide_k3_m6():
    code, out, err = run_cli("decide", "--k", "3", "--m", "6")
    assert code == 0
    assert "guaranteed" in out and "r=0" in out


def test_decide_k4_m7():
    code, out, err = run_cli("decide", "--k", "4", "--m", "7")
    assert code == 1


def test_decide_kv():
    code, out, err = run_cli("decide", "--k", "3", "--m", "7", "--format", "kv")
    assert code == 0
    assert out.strip() == "k=3 m=7 guaranteed=true reason=l=k-1"


def test_decide_bad_integer():
    code, out, err = run_cli("decide", "--k", "x", "--m", "1")
    assert code == 2


def test_decide_out_of_range():
    code, out, err = run_cli("decide", "--k", "3", "--m", "11")
    assert code == 2


# -- complete ---------------------------------------------------------------------


def test_complete_figure1_rejects(figure1_file):
    code, out, err = run_cli("complete", figure1_file)
    assert code == 1
    assert out == ""  # payload channel stays clean
    assert "not completable" in err
    assert "block (2,1)" in err


WITNESS_LINE = re.compile(
    r"not completable: block \((\d+),(\d+)\) columns ([\d,]+) "
    r"admit only values ([\d,]+|none) \(need (\d+) each\)"
)


@pytest.mark.parametrize("source", ["figure1", "construct 5 14"])
def test_a_witness_rebuilt_from_the_stderr_line_replays(tmp_path, figure1, source):
    grid = figure1 if source == "figure1" else construct_counterexample(5, 14).rectangle
    path = tmp_path / "rect.txt"
    path.write_text(render(grid))
    code, out, err = run_cli("complete", str(path))
    assert (code, out) == (1, "")
    row, col, columns, values, quota = WITNESS_LINE.fullmatch(err.strip()).groups()
    witness = NotCompletable(
        block=(int(row), int(col)),  # a plain pair, not a BlockIndex
        quota=int(quota),
        columns=tuple(map(int, columns.split(","))),
        candidates=() if values == "none" else tuple(map(int, values.split(","))),
    )
    assert verify_certificate(parse(path.read_text()), witness)


def test_complete_empty4(empty4_file):
    code, out, err = run_cli("complete", empty4_file)
    assert code == 0
    grid = parse(out)
    assert grid.is_full() and validate(grid) is None


def test_complete_prefix_extends_it(tmp_path, figure1):
    from sudorect import truncate_rows

    prefix = truncate_rows(figure1, 3)
    path = tmp_path / "r3prefix.txt"
    path.write_text(render(prefix))
    code, out, err = run_cli("complete", str(path))
    assert code == 0
    grid = parse(out)
    assert grid.is_full()
    for r in range(1, 4):
        for c in range(1, 10):
            assert grid.get(r, c) == prefix.get(r, c)


def test_complete_deterministic_and_seeded(empty4_file):
    code_a, out_a, _ = run_cli("complete", empty4_file)
    code_b, out_b, _ = run_cli("complete", empty4_file)
    assert (code_a, out_a) == (code_b, out_b)
    code_s1, out_s1, _ = run_cli("complete", empty4_file, "--seed", "5")
    code_s2, out_s2, _ = run_cli("complete", empty4_file, "--seed", "5")
    assert (code_s1, out_s1) == (code_s2, out_s2)
    assert code_s1 == 0
    grid = parse(out_s1)
    assert validate(grid) is None and grid.is_full()


def test_complete_rejects_non_rectangle(tmp_path):
    path = tmp_path / "ragged.txt"
    path.write_text("k=2\n. . . .\n1 . . .\n. . . .\n. . . .\n")
    code, out, err = run_cli("complete", str(path))
    assert code == 2


# -- construct ---------------------------------------------------------------------


def test_construct_k3_m5_roundtrip(tmp_path):
    target = tmp_path / "cex.txt"
    code, out, err = run_cli("construct", "--k", "3", "--m", "5", "-o", str(target))
    assert code == 0
    text = target.read_text()
    assert text.startswith("#")
    grid = parse(text)
    assert validate(grid) is None
    code2, out2, err2 = run_cli("check", str(target))
    assert code2 == 0
    code3, out3, err3 = run_cli("complete", str(target))
    assert code3 == 1


def test_construct_guaranteed_shape_fails(tmp_path):
    code, out, err = run_cli("construct", "--k", "3", "--m", "6")
    assert code == 2
    assert "completable" in err


def test_construct_k4_m10_stdout():
    code, out, err = run_cli("construct", "--k", "4", "--m", "10")
    assert code == 0
    grid = parse(out)
    shape = is_m_rectangle(grid)
    assert shape is not None and shape.m == 10
    assert "case: b" in out


@pytest.mark.parametrize(
    "k, m, header",
    [
        (4, 10, ["# non-completable 10×16 rectangle", "# case: b  k=4 m=10 l=2 r=2",
                 "# special elements: x=4 x1=12 x2=9"]),
        (3, 5, ["# non-completable 5×9 rectangle", "# case: a  k=3 m=5 l=1 r=2"]),
    ],
)
def test_construct_header_names_the_shape(k, m, header):
    code, out, err = run_cli("construct", "--k", str(k), "--m", str(m))
    assert code == 0
    lines = out.splitlines()
    assert lines[: len(header)] == header and not lines[len(header)].startswith("#")


def test_construct_unwritable_output_exits_2_with_one_line(tmp_path):
    target = tmp_path / "missing" / "x.txt"
    code, out, err = run_cli("construct", "--k", "3", "--m", "5", "-o", str(target))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and f"cannot write {target}" in err
    assert not target.exists()


def run_cli_process(argv: list[str], stdout, **options) -> subprocess.CompletedProcess:
    """The CLI in a process of its own, writing its payload to ``stdout``;
    ``options`` go to :func:`subprocess.run`."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, "-m", "sudorect.cli", *argv],
        stdout=stdout, stderr=subprocess.PIPE, env=env, timeout=60, text=True, **options,
    )


def assert_one_line_exit_2(done: subprocess.CompletedProcess, reason: str) -> None:
    assert done.returncode == 2
    assert done.stderr == f"cannot write to stdout: {reason}\n"  # no traceback


def test_a_closed_stdout_pipe_exits_2_with_one_line():
    # the pipe's reader is gone before the CLI writes, as after `| head -1`
    reader, writer = os.pipe()
    os.close(reader)
    try:
        done = run_cli_process(["bounds", "--k-max", "1000"], writer)
    finally:
        os.close(writer)
    assert_one_line_exit_2(done, "Broken pipe")


def test_a_closed_stdout_exits_2_with_one_line():
    # started with descriptor 1 closed, as by `>&-`: sys.stdout is None
    done = run_cli_process(["bounds", "--k-max", "3"], None, preexec_fn=lambda: os.close(1))
    assert_one_line_exit_2(done, "Bad file descriptor")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_full_stdout_exits_2_with_one_line():
    with open("/dev/full", "w") as full:
        done = run_cli_process(["bounds", "--k-max", "3"], full)
    assert_one_line_exit_2(done, "No space left on device")


class _FullStream(io.StringIO):
    """A stream on a full device: every write fails.  With ``fd`` it also
    has a descriptor, as a real stdout has."""

    def __init__(self, fd=None):
        super().__init__()
        self.fd = fd

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def fileno(self):
        if self.fd is None:
            raise io.UnsupportedOperation("fileno")
        return self.fd


@pytest.mark.parametrize(
    "stdout, reason",
    [(None, "Bad file descriptor"), (_FullStream(), "No space left on device")],
    ids=["closed", "full-without-descriptor"],
)
def test_a_failed_stdout_exits_2_with_one_line_in_process(stdout, reason):
    err = io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(err):
        code = main(["bounds", "--k-max", "3"])
    assert (code, err.getvalue()) == (2, f"cannot write to stdout: {reason}\n")


def test_a_failed_stdout_descriptor_is_pointed_at_the_null_device(tmp_path):
    # the interpreter's final flush must find nothing that can fail again
    with open(tmp_path / "stdout.txt", "w") as target:
        err = io.StringIO()
        with redirect_stdout(_FullStream(target.fileno())), redirect_stderr(err):
            code = main(["bounds", "--k-max", "3"])
        assert (code, err.getvalue()) == (2, "cannot write to stdout: No space left on device\n")
        assert os.path.samestat(os.fstat(target.fileno()), os.stat(os.devnull))


# -- count ------------------------------------------------------------------------


def test_count_empty4(empty4_file):
    code, out, err = run_cli("count", empty4_file)
    assert code == 0
    assert out.strip() == "288"


def test_count_figure1_zero_is_success(figure1_file):
    code, out, err = run_cli("count", figure1_file)
    assert code == 0
    assert out.strip() == "0"


def test_count_capped_exits_negative(empty4_file):
    code, out, err = run_cli("count", empty4_file, "--max-nodes", "10")
    assert code == 1
    assert "partial" in err


def test_count_kv(empty4_file):
    code, out, err = run_cli("count", empty4_file, "--format", "kv")
    assert code == 0
    assert out.strip() == "count=288 exhausted=true nodes=2272"


@pytest.mark.parametrize(
    "flag,value",
    [("--max-solutions", "0"), ("--max-solutions", "-1"), ("--max-nodes", "-5")],
)
def test_count_rejects_bad_caps(empty4_file, flag, value):
    code, out, err = run_cli("count", empty4_file, flag, value)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and flag[2:].replace("-", "_") in err


def test_count_zero_node_cap_is_partial(empty4_file):
    code, out, err = run_cli("count", empty4_file, "--max-nodes", "0", "--format", "kv")
    assert code == 1
    assert out.strip() == "count=0 exhausted=false nodes=0"


# -- bounds -----------------------------------------------------------------------


def test_bounds_table():
    code, out, err = run_cli("bounds", "--k-max", "6")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6  # header + k = 2..6
    assert lines[0].split() == ["k", "n", "ratio_lower", "ratio_upper"]


def test_bounds_kv_rows_parse():
    code, out, err = run_cli("bounds", "--k-max", "5", "--format", "kv")
    assert code == 0
    rows = [line.split() for line in out.strip().splitlines()]
    assert [int(r[0]) for r in rows] == [2, 3, 4, 5]
    for r in rows:
        assert int(r[1]) == int(r[0]) ** 2
        lo, up = float(r[4]), float(r[5])
        assert lo <= up


def test_bounds_rejects_bad_k_max():
    code, out, err = run_cli("bounds", "--k-max", "1")
    assert code == 2


class TableReached(Exception):
    pass


def test_bounds_k_max_above_the_limit_exits_2_before_any_evaluation(monkeypatch):
    def table(k_max):
        raise TableReached(k_max)

    monkeypatch.setattr(cli, "bounds_table", table)
    for k_max in (1001, 10**6):
        code, out, err = run_cli("bounds", "--k-max", str(k_max))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and str(k_max) in err
    with pytest.raises(TableReached):
        run_cli("bounds", "--k-max", "1000")


def test_construct_k_above_the_limit_exits_2_before_any_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a matrix was built")

    monkeypatch.setattr(constructions, "_lemma2_matrix", refuse)
    monkeypatch.setattr(SudokuGrid, "from_rows", refuse)
    limit = cli.CONSTRUCT_K_LIMIT
    for k in (limit + 1, limit):
        m = next(m for m in range(k * k) if not decide_guaranteed(k, m).guaranteed)
        if k > limit:
            code, out, err = run_cli("construct", "--k", str(k), "--m", str(m))
            assert code == 2 and out == ""
            assert err == f"need k <= {limit}, got {k}\n"
        else:
            with pytest.raises(AssertionError, match="a matrix was built"):
                run_cli("construct", "--k", str(k), "--m", str(m))


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--k-max", "9" * 4000],
        ["bounds", "--k-max", "-" + "9" * 4000],
        ["construct", "--k", "9" * 4000, "--m", "3"],
        ["construct", "--k", "5", "--m", "9" * 4000],
        ["decide", "--k", "-" + "9" * 4000, "--m", "3"],
        ["decide", "--k", "9" * 2200, "--m", "-1"],
    ],
    ids=["bounds-huge", "bounds-minus-huge", "construct-huge-k", "construct-huge-m",
         "decide-minus-huge-k", "decide-huge-k-negative-m"],
)
def test_huge_integers_are_clipped_in_one_short_line(argv):
    code, out, err = run_cli(*argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and len(err.encode()) < 200, err
    assert "…" in err or "0..k²" in err, err  # the integer is clipped, not dropped


@pytest.mark.parametrize("option", ["--max-nodes", "--max-solutions"])
def test_huge_negative_count_caps_are_clipped_in_one_short_line(empty4_file, option):
    code, out, err = run_cli("count", empty4_file, option, "-" + "9" * 4000)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and len(err.encode()) < 200, err
    assert err.endswith(f", got -{'9' * 19}…\n"), err


def test_decide_takes_a_k_whose_square_is_too_long_for_str():
    k = "9" * 2200  # k² has 4,400 digits, past the int-to-str limit
    code, out, err = run_cli("decide", "--k", k, "--m", "3")
    assert (code, err) == (0, "")
    assert out == "guaranteed: every valid 3×k² rectangle completes (product)\n"
    code, out, err = run_cli("decide", "--k", k, "--m", "3", "--format", "kv")
    assert (code, out, err) == (0, f"k={k} m=3 guaranteed=true reason=product\n", "")


INTEGER_OPTIONS = [
    ["decide", "--k", None, "--m", "3"],
    ["decide", "--k", "3", "--m", None],
    ["complete", "grid.txt", "--seed", None],
    ["construct", "--k", None, "--m", "3"],
    ["construct", "--k", "3", "--m", None],
    ["count", "grid.txt", "--max-nodes", None],
    ["count", "grid.txt", "--max-solutions", None],
    ["bounds", "--k-max", None],
]


@pytest.mark.parametrize("token", ["9" * 5000, "x" * 500], ids=["5000-digits", "500-letters"])
@pytest.mark.parametrize(
    "argv", INTEGER_OPTIONS, ids=[f"{a[0]}{a[a.index(None) - 1]}" for a in INTEGER_OPTIONS]
)
def test_unparsable_integer_options_are_clipped(argv, token):
    # argparse's own message, with the token clipped as in every other diagnostic
    option = argv[argv.index(None) - 1]
    code, out, err = run_cli(*[token if a is None else a for a in argv])
    assert code == 2 and out == ""
    line = err.splitlines()[-1]
    assert line == (
        f"sudorect {argv[0]}: error: argument {option}: invalid int value: {token[:20] + '…'!r}"
    )
    assert len(line.encode()) < 200 and len(err.encode()) < 300, err


HUGE = st.sampled_from([10**4000, -(10**4000)])
OPEN_SHAPES = [
    ("construct", "--k", k, "--m", m)
    for k in range(2, 9)
    for m in range(k * k)
    if not decide_guaranteed(k, m).guaranteed
]


@settings(max_examples=200, deadline=None)
@given(
    argv=st.one_of(
        st.sampled_from(OPEN_SHAPES),
        st.tuples(
            st.just("construct"),
            st.just("--k"),
            st.one_of(
                st.integers(1, 8),
                st.integers(max_value=8),
                st.integers(min_value=cli.CONSTRUCT_K_LIMIT + 1),
                HUGE,
            ),
            st.just("--m"),
            st.one_of(st.integers(0, 63), st.integers(), HUGE),
        ),
        st.tuples(
            st.just("bounds"),
            st.just("--k-max"),
            st.one_of(
                st.integers(2, 60),
                st.integers(max_value=60),
                st.integers(min_value=cli.BOUNDS_K_MAX_LIMIT + 1),
                HUGE,
            ),
        ),
    )
)
def test_guarded_commands_end_in_a_documented_exit_on_both_sides_of_their_limits(argv):
    # construct keeps k <= 8 and bounds k_max <= 60 below their limits, so
    # every run that passes a guard stays small
    code, out, err = run_cli(*map(str, argv))
    event(f"{argv[0]} exit {code}")
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert out == ""
        assert len(err.splitlines()) == 1 and len(err.encode()) < 200, err


# -- usage ------------------------------------------------------------------------


def test_missing_subcommand_is_usage_error():
    code, out, err = run_cli()
    assert code == 2


def test_unknown_subcommand_is_usage_error():
    code, out, err = run_cli("frobnicate")
    assert code == 2


CLIPPED = repr("x" * 20 + "…")
COMMANDS = "'check', 'decide', 'complete', 'construct', 'count', 'bounds'"


@pytest.mark.parametrize(
    "argv,line",
    [
        (["x" * 5000],
         f"sudorect: error: argument command: invalid choice: {CLIPPED} (choose from {COMMANDS})"),
        (["check", "grid.txt", "x" * 5000],
         "sudorect: error: unrecognized arguments: " + "x" * 20 + "…"),
        (["check", "grid.txt", "--format", "x" * 5000],
         f"sudorect check: error: argument --format: invalid choice: {CLIPPED}"
         " (choose from 'text', 'kv')"),
        (["check", "grid.txt"] + ["a"] * 5000,
         "sudorect: error: unrecognized arguments: " + "a " * 10 + "…"),
    ],
    ids=["unknown-subcommand", "unrecognised-argument", "invalid-format", "many-arguments"],
)
def test_tokens_echoed_in_usage_errors_are_clipped(argv, line):
    # argparse echoes these tokens whole; they are clipped as integers are
    code, out, err = run_cli(*argv)
    assert code == 2 and out == ""
    assert err.splitlines()[-1] == line
    assert len(err.encode()) < 300, err


def test_parser_is_built_once_per_process(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    cli._build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    per_call = []
    for _ in range(10):
        before = len(built)
        run_cli("decide", "--k", "3", "--m", "5")
        per_call.append(len(built) - before)
    assert per_call[0] > 0 and per_call[1:] == [0] * 9


def test_reused_parser_gives_the_same_answers(figure1_file, empty4_file):
    argvs = [
        ["check", figure1_file],
        ["check", figure1_file, "--format", "kv"],
        ["decide", "--k", "3", "--m", "5"],
        ["decide", "--k", "3", "--m", "5", "--format", "kv"],
        ["complete", figure1_file],
        ["complete", empty4_file, "--seed", "3"],
        ["construct", "--k", "3", "--m", "5"],
        ["count", empty4_file],
        ["count", empty4_file, "--format", "kv"],
        ["bounds", "--k-max", "5"],
        ["bounds", "--k-max", "5", "--format", "kv"],
        ["--help"],
        ["count", "--help"],
        [],
        ["frobnicate"],
        ["decide", "--k", "x", "--m", "5"],
        ["decide", "--k", "3"],
        ["check", figure1_file, "--format", "xml"],
        ["count", empty4_file, "--max-nodes", "-1"],
    ]
    first = [run_cli(*argv) for argv in argvs]
    second = [run_cli(*argv) for argv in argvs]
    fresh = []
    for argv in argvs:
        cli._build_parser.cache_clear()
        fresh.append(run_cli(*argv))
    assert first == second == fresh
    assert {code for code, _, _ in first} == {0, 1, 2}


@pytest.mark.parametrize(
    "exc,message",
    [
        (KeyboardInterrupt, "interrupted"),
        (MemoryError, "out of memory"),
        (RecursionError, "recursion limit exceeded"),
    ],
)
def test_fatal_conditions_exit_2_with_one_line(monkeypatch, empty4_file, exc, message):
    def boom(args):
        raise exc()

    monkeypatch.setattr(cli, "_cmd_count", boom)
    code, out, err = run_cli("count", empty4_file)
    assert code == 2
    assert out == ""
    assert err == message + "\n"


@pytest.mark.parametrize(
    "side",
    ["7" * 5000, "9" * 2200, "-" + "9" * 2200, "100000"],
    ids=["5000-digits", "2200-digits", "minus-2200-digits", "100000"],
)
def test_huge_header_is_a_short_parse_error(tmp_path, side):
    # a side too long for int() or whose square is too long for str()
    path = tmp_path / "grid.txt"
    path.write_text(f"k={side}\n1 2\n")
    code, out, err = run_cli("check", str(path))
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("parse error:") and len(err) <= 200, err


@pytest.mark.parametrize("token", ["x" * 5000, "9" * 2200], ids=["5000-x", "2200-digits"])
def test_huge_token_is_a_short_parse_error(tmp_path, token):
    # the echoed token is clipped, as a long header is
    path = tmp_path / "grid.txt"
    path.write_text(f"k=2\n1 2 3 {token}\n. . . .\n. . . .\n. . . .\n")
    code, out, err = run_cli("check", str(path))
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("parse error:") and len(err) <= 200, err


# -- fuzzing ------------------------------------------------------------------------
# Each example renders a valid k ≤ 4 grid (a full square, a truncation of one,
# or a rectangle with holes), mutates its text or bytes, and runs check,
# complete or a capped count on it.  construct and bounds are left out: their
# work is unbounded in the size they are given.

COMMANDS = [["check"], ["complete"], ["complete", "--seed", "3"], ["count", "--max-nodes", "50"]]
ODD_TOKENS = ["0", "00", "03", "+2", "-1", "x", "1.0", "٣", "17", "99999999999999999999"]
HEADERS = [
    "k = {k}", "K={k}", "k=", "k=abc", "k=-1", "k=0", "k=1", "k={k} extra", "# note\nk={k}",
    "k=100000", "k=" + "9" * 5000, "k=" + "9" * 2200,
]
BAD_BYTES = [b"\xff", b"\x00", b"\xc3", b"\r", b"\x0b", b"\xe2\x80\xa8"]


def base_text(k: int, seed: int, cut: int, holes: int) -> str:
    square = complete_randomized(SudokuGrid(k), seed)
    grid = truncate_rows(square, cut % (k * k + 1))
    rng = random.Random(seed)
    for _ in range(holes):
        grid.clear(rng.randint(1, k * k), rng.randint(1, k * k))
    return render(grid)


@st.composite
def mutated_files(draw) -> bytes:
    k = draw(st.integers(2, 4))
    text = base_text(k, draw(st.integers(0, 50)), draw(st.integers(0, 16)), draw(st.integers(0, 3)))
    header, *rows = text.splitlines()
    tokens = [row.split() for row in rows]
    n = k * k
    cell = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for kind in draw(st.lists(st.sampled_from(["swap", "delete", "odd", "header", "blank"]), max_size=4)):
        if kind == "swap":
            (r1, c1), (r2, c2) = draw(cell), draw(cell)
            if c1 < len(tokens[r1]) and c2 < len(tokens[r2]):
                tokens[r1][c1], tokens[r2][c2] = tokens[r2][c2], tokens[r1][c1]
        elif kind == "delete":
            r, c = draw(cell)
            del tokens[r][c : c + 1]
        elif kind == "odd":
            r, c = draw(cell)
            if c < len(tokens[r]):
                tokens[r][c] = draw(st.sampled_from(ODD_TOKENS))
        elif kind == "header":
            header = draw(st.sampled_from(HEADERS)).format(k=k)
        else:
            tokens.insert(draw(st.integers(0, n)), [])
    data = "\n".join([header] + [" ".join(row) for row in tokens]).encode() + b"\n"
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(BAD_BYTES)) + data[at:]
    return data


@settings(max_examples=300, deadline=None)
@given(data=mutated_files(), command=st.sampled_from(COMMANDS))
def test_cli_ends_every_mutated_file_in_a_documented_exit(data, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "grid.txt"
        path.write_bytes(data)
        code, out, err = run_cli(command[0], str(path), *command[1:])
    event(f"{command[0]} exit {code}")
    assert code in (0, 1, 2)
    assert "Traceback" not in out + err
    if code == 2:
        assert out == ""
        assert len(err.splitlines()) == 1 and err.endswith("\n"), err
    if command[0] == "complete" and code == 0:
        given_grid, done = parse(data.decode("utf-8")), parse(out)
        assert done.order == given_grid.order and done.is_full() and validate(done) is None
        for before, after in zip(given_grid.rows(), done.rows()):
            assert all(v is None or v == w for v, w in zip(before, after))
