"""Tests of the benchmark itself: checkers, generator and tracing.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import random
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import sudorect  # noqa: E402
import sudorect.cli  # noqa: E402
import workloads  # noqa: E402


def _api():
    return types.SimpleNamespace(sudorect=sudorect, cli=sudorect.cli, frozen=gen.load_frozen())


def _text(grid, k=3):
    return gen.to_text(k, grid)


def test_checker_accepts_a_completion_and_rejects_tampered_ones():
    square = gen.square_image(gen.pattern_square(3), 3, random.Random(1))
    given = gen.pad(square[:4], 3)
    assert check.check_completion(3, given, _text(square)) is None

    swapped = [row[:] for row in square]
    swapped[6][0], swapped[6][1] = swapped[6][1], swapped[6][0]  # breaks two columns
    assert "repeated" in check.check_completion(3, given, _text(swapped))

    relabelled = [[(v % 9) + 1 for v in row] for row in square]  # valid, but not the input
    assert "changes given cell" in check.check_completion(3, given, _text(relabelled))

    holed = [row[:] for row in square]
    holed[8][8] = None
    assert "empty" in check.check_completion(3, given, _text(holed))


def test_witness_replay_accepts_the_real_one_and_rejects_forgeries():
    rows = gen.load_frozen()["figure1"]
    grid = gen.pad(rows, 3)
    witness = sudorect.complete(sudorect.SudokuGrid.from_rows(3, grid))
    assert isinstance(witness, sudorect.NotCompletable)
    block = (witness.block.block_row, witness.block.block_col)
    real = (block, witness.quota, witness.columns, witness.candidates)
    assert check.replay_witness(3, grid, *real) is None

    other_columns = tuple(c for c in range(1, 4) if c not in witness.columns)
    forgeries = [
        ((block[0], block[1] % 3 + 1), *real[1:]),                    # wrong block
        (block, witness.quota + 1, *real[2:]),                          # wrong quota
        (block, witness.quota, other_columns, witness.candidates),      # wrong columns
        (block, witness.quota, witness.columns, witness.candidates[:-1] + (9,)),  # wrong values
        (block, witness.quota, (1, 2, 3), tuple(range(1, 10))),         # enough candidates
    ]
    for forged in forgeries:
        assert check.replay_witness(3, grid, *forged) is not None, forged


def test_checker_counter_and_bound_formula_agree_with_anchors():
    assert check.count_completions(2, gen.pad([], 2)) == 288
    assert check.count_completions(3, gen.pad(gen.load_frozen()["figure1"], 3)) == 0
    for k in range(2, 12):
        report = sudorect.sudoku_bounds(k)
        lo, up = check.bound_ratios(k)
        assert lo == pytest.approx(report.ratio_lower, rel=1e-12)
        assert up == pytest.approx(report.ratio_upper, rel=1e-12)


@pytest.mark.parametrize("k", [3, 4, 9])
def test_square_images_are_valid_and_seeded(k):
    base = gen.pattern_square(k)
    one = gen.square_image(base, k, random.Random(5))
    assert one == gen.square_image(base, k, random.Random(5))
    assert one != gen.square_image(base, k, random.Random(6))
    assert check.violation(k, one) is None
    assert all(v is not None for row in one for v in row)


def test_rectangle_images_keep_shape_count_and_jam():
    frozen = gen.load_frozen()
    pinned = frozen["counts"][0]
    for seed in range(3):
        image = gen.rectangle_image(pinned["rows"], pinned["k"], random.Random(seed))
        grid = gen.pad(image, pinned["k"])
        assert check.filled_rows(grid) == pinned["m"]
        assert check.count_completions(pinned["k"], grid) == pinned["count"]
    for entry in frozen["rejections"][:3]:
        k = entry["k"]
        image = gen.pad(gen.rectangle_image(entry["rows"], k, random.Random(9), move_stacks=False), k)
        out = sudorect.complete(sudorect.SudokuGrid.from_rows(k, image))
        assert isinstance(out, sudorect.NotCompletable) and out.block.block_col == 1


def _inputs(cases, work: Path):
    files = sorted((p.name, p.read_text()) for p in work.glob("*.txt")) if work.exists() else []

    def shown(defaults):  # grids by content, files by name
        plain = tuple(d.rows() if hasattr(d, "rows") else d for d in defaults)
        return repr(plain).replace(str(work), "<work>")

    ops = [(c.label, c.reject, shown(c.op.__defaults__)) for c in cases]
    return ops, files


@pytest.mark.parametrize("workload", sorted(workloads.GROUPS))
def test_corpus_is_deterministic_per_seed(workload, tmp_path):
    def build(seed, sub):
        return _inputs(workloads.build(workload, _api(), random.Random(seed), tmp_path / sub), tmp_path / sub)

    first, again, other = build(3, "a"), build(3, "b"), build(4, "c")
    assert first == again
    assert first != other


def _traced_pass(cases):
    tracer = spans.Tracer()
    tracer.install()
    try:
        for i, case in enumerate(cases):
            tracer.op = i
            assert case.check(case.op()) is None, case.label
    finally:
        tracer.uninstall()
    return spans.layer_metrics(tracer.spans, len(cases), 1)


def test_tracing_reaches_every_layer_and_uninstalls(tmp_path):
    api = _api()
    rng = random.Random(2)
    complete = [c for c in workloads.complete_mixed(api, rng, tmp_path)
                if " k=9 " in c.label or " k=3 " in c.label]
    construct = [c for c in workloads.construct_sweep(api, rng, tmp_path) if " k=5 " in c.label]
    count = [c for c in workloads.count_search(api, rng, tmp_path) if " k=4 " not in c.label]
    cli = workloads.cli_small(api, rng, tmp_path)

    got = _traced_pass(complete)
    for name in ("bipartite.matching_calls", "bipartite.certificates", "bipartite.color_calls",
                 "completion.stage1_self_s", "completion.stage2_self_s", "completion.complete_self_s",
                 "completion.verify_s", "grid.parse_s", "grid.render_s", "grid.validate_calls"):
        assert got[name] > 0, name
    assert got["counting.nodes"] == 0

    got = _traced_pass(construct)  # k = 5 is odd, so stage-2 colouring peels a matching
    for name in ("bipartite.peel_calls", "completion.extend_calls", "constructions.recipe_self_s"):
        assert got[name] > 0, name
    assert got["grid.validate_calls_per_op"] == 5

    got = _traced_pass(count)
    assert got["counting.nodes"] > 0 and got["counting.solutions"] > 0 and got["counting.nodes_per_s"] > 0
    assert got["bipartite.matching_calls"] == 0

    got = _traced_pass(cli)
    for name in ("cli.self_s", "counting.bounds_s", "counting.nodes", "bipartite.matching_calls",
                 "completion.extend_calls", "grid.parse_s"):
        assert got[name] > 0, name

    assert sudorect.completion.degree_matching is sudorect.bipartite.degree_matching
    assert sudorect.bipartite.degree_matching.__name__ == "degree_matching"
    assert sudorect.cli.main.__name__ == "main"


def test_peel_spans_nest_under_the_colouring():
    tracer = spans.Tracer()
    tracer.install()
    try:
        sudorect.complete(sudorect.SudokuGrid(3))  # 3-regular stage 2: one peel per row block
    finally:
        tracer.uninstall()
    names = [s[0] for s in tracer.spans]
    peels = [s for s in tracer.spans
             if s[0] == "bipartite.degree_matching" and tracer.spans[s[3]][0] == "bipartite.edge_color"]
    assert names[0] == "completion.complete" and len(peels) == 3
    assert spans.self_time_total(tracer.spans) == pytest.approx(tracer.spans[0][2] - tracer.spans[0][1])


def test_speed_scale_follows_a_change_of_machine_speed():
    fast, slow = run.REFERENCE_SECONDS, 2 * run.REFERENCE_SECONDS
    noisy = [fast] * 30 + [slow] * 30
    noisy[5] = noisy[40] = 10 * slow  # single slow loops are outvoted
    scale = run.speed_scale(noisy)
    assert scale[:20] == [1.0] * 20
    assert scale[-20:] == [0.5] * 20


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "count-cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
