"""The two workloads: seeded inputs, the timed operation, and its check.

A workload turns a seed into a list of cases.  Each case has one timed
operation, which calls the program only through attributes of the freshly
imported package (so that tracing wrappers are seen), a checker from
``check.py`` that runs outside the timed region, and a fingerprint string
for the behaviour hash.  ``reject`` marks the cases whose answer is
negative in the sense of the CLI's exit code 1: not completable, violation
found, not guaranteed, or a capped count.

Each workload joins two groups of cases: ``complete-construct`` runs the
completion and construction paths that exercise the bipartite kernels;
``count-cli`` runs the counting search and the CLI, which barely touch them.
"""

from __future__ import annotations

import contextlib
import io
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import check
import gen


@dataclass
class Case:
    label: str
    reject: bool
    op: Callable[[], Any]
    check: Callable[[Any], Optional[str]]
    fingerprint: Callable[[Any], str]


# Filled-row counts of the square truncations per block side (0 is the
# empty grid); both guaranteed and non-guaranteed shapes occur.
COMPLETE_SHAPES = {9: [0, 9, 19, 27, 31, 40, 45, 50, 63, 71], 12: [0, 30, 72, 120, 131], 16: [0, 224, 239]}
# Two images of the rejection of median cost, so that reject_p50_ms falls
# inside one input's samples rather than between two inputs.
REJECTION_COPIES = {(9, 51): 2}
# Three figure-1 images make 29 count-cli operations per pass: an odd count
# puts every median inside one input's samples.
COUNT_FIGURE1_IMAGES = 3
COUNT_CAP_K6 = 40
BOUNDS_K_MAX = 60
CONSTRUCT_KS = (5, 6, 7, 8)


def _witness_tuple(w) -> tuple:
    return (w.block.block_row, w.block.block_col, w.quota, tuple(w.columns), tuple(w.candidates))


def complete_mixed(api, rng: random.Random, work: Path) -> list[Case]:
    """parse → complete → render, or parse → complete → verify_certificate."""
    S = api.sudorect
    frozen = api.frozen
    inputs: list[tuple[str, int, list, bool]] = []
    for k, shapes in COMPLETE_SHAPES.items():
        base = gen.pattern_square(k)
        for m in shapes:
            rows = gen.square_image(base, k, rng)[:m]
            inputs.append((f"accept k={k} m={m}", k, gen.pad(rows, k), False))
    rejections = [(3, frozen["figure1"])]
    rejections += [(e["k"], e["rows"]) for e in frozen["rejections"]
                   for _ in range(REJECTION_COPIES.get((e["k"], e["m"]), 1))]
    for k, rows in rejections:
        image = gen.rectangle_image(rows, k, rng, move_stacks=False)
        inputs.append((f"reject k={k} m={len(rows)}", k, gen.pad(image, k), True))

    cases = []
    for label, k, grid, reject in inputs:
        text = gen.to_text(k, grid)

        def op(text=text):
            parsed = S.parse(text)
            out = S.complete(parsed)
            if isinstance(out, S.NotCompletable):
                return out, S.verify_certificate(parsed, out)
            return S.render(out), None

        def verdict(result, k=k, grid=grid, reject=reject) -> Optional[str]:
            out, replayed = result
            if isinstance(out, str):
                if reject:
                    return "non-completable input was completed"
                return check.check_completion(k, grid, out)
            if not reject:
                return "completable input was rejected"
            if replayed is not True:
                return "verify_certificate did not accept its own witness"
            return check.replay_witness(k, grid, (out.block.block_row, out.block.block_col),
                                        out.quota, out.columns, out.candidates)

        def fingerprint(result) -> str:
            out, _ = result
            return out if isinstance(out, str) else repr(_witness_tuple(out))

        cases.append(Case(label, reject, op, verdict, fingerprint))
    return cases


def construct_sweep(api, rng: random.Random, work: Path) -> list[Case]:
    """construct_counterexample(k, m) → render, every non-guaranteed m at k = 5…8."""
    S = api.sudorect
    shapes = [(k, m) for k in CONSTRUCT_KS for m in gen.non_guaranteed_shapes(k)]
    cases = []
    for k, m in shapes:

        def op(k=k, m=m):
            report = S.construct_counterexample(k, m)
            return report, S.render(report.rectangle)

        def verdict(result, k=k, m=m) -> Optional[str]:
            report, text = result
            problem = check.check_rectangle(k, m, text)
            if problem is not None:
                return problem
            w = report.witness
            _, grid = check.parse_text(text)
            return check.replay_witness(k, grid, (w.block.block_row, w.block.block_col),
                                        w.quota, w.columns, w.candidates)

        def fingerprint(result) -> str:
            report, text = result
            return f"{report.case_used} {_witness_tuple(report.witness)}\n{text}"

        cases.append(Case(f"construct k={k} m={m}", False, op, verdict, fingerprint))
    return cases


def count_search(api, rng: random.Random, work: Path) -> list[Case]:
    """count_completions on small exact searches and one capped wide scan."""
    S = api.sudorect
    frozen = api.frozen
    inputs: list[tuple[str, int, list, int, Optional[int]]] = [
        ("count k=2 empty", 2, gen.pad([], 2), 288, None),
        (f"count k=6 empty cap={COUNT_CAP_K6}", 6, gen.pad([], 6), 0, COUNT_CAP_K6),
    ]
    for _ in range(COUNT_FIGURE1_IMAGES):
        image = gen.rectangle_image(frozen["figure1"], 3, rng)
        inputs.append(("count figure1", 3, gen.pad(image, 3), 0, None))
    for e in frozen["counts"]:
        image = gen.rectangle_image(e["rows"], e["k"], rng)
        inputs.append((f"count k={e['k']} m={e['m']}", e["k"], gen.pad(image, e["k"]), e["count"], None))

    cases = []
    for label, k, grid, expected, cap in inputs:
        sgrid = S.SudokuGrid.from_rows(k, grid)

        def op(sgrid=sgrid, cap=cap):
            return S.count_completions(sgrid, max_nodes=cap)

        def verdict(result, expected=expected, cap=cap) -> Optional[str]:
            if cap is not None:
                if result.exhausted or result.nodes_visited != cap or result.count != expected:
                    return f"capped search returned {result}"
                return None
            if not result.exhausted or result.count != expected:
                return f"count {result.count} (exhausted={result.exhausted}), pinned {expected}"
            return None

        def fingerprint(result) -> str:
            return f"{result.count} {result.nodes_visited} {result.exhausted}"

        cases.append(Case(label, cap is not None, op, verdict, fingerprint))
    return cases


_WITNESS_LINE = re.compile(
    r"not completable: block \((\d+),(\d+)\) columns ([\d,]+) admit only values ([\d,]+|none) \(need (\d+) each\)")


def cli_small(api, rng: random.Random, work: Path) -> list[Case]:
    """``sudorect.cli.main`` in-process on k ≤ 6 files, stdout and stderr captured."""
    frozen = api.frozen
    work.mkdir(parents=True, exist_ok=True)
    grids: dict[str, tuple[int, list]] = {}

    def write(name: str, k: int, grid: list) -> str:
        path = work / f"{name}.txt"
        path.write_text(gen.to_text(k, grid), encoding="utf-8")
        grids[str(path)] = (k, grid)
        return str(path)

    square3 = gen.square_image(gen.pattern_square(3), 3, rng)
    broken3 = [row[:] for row in square3]
    broken3[0][1] = broken3[0][0]
    sq3 = write("square3", 3, square3)
    bad3 = write("broken3", 3, broken3)
    rect = {k: write(f"rect{k}", k, gen.pad(gen.square_image(gen.pattern_square(k), k, rng)[:m], k))
            for k, m in ((4, 6), (5, 12), (6, 20))}
    fig1 = write("figure1", 3, gen.pad(gen.rectangle_image(frozen["figure1"], 3, rng), 3))
    empty2 = write("empty2", 2, gen.pad([], 2))
    pinned = frozen["counts"][0]
    cnt3 = write("count3", 3, gen.pad(gen.rectangle_image(pinned["rows"], 3, rng), 3))

    def expect_stdout(pattern: str) -> Callable[[str, str], Optional[str]]:
        regex = re.compile(pattern)
        return lambda out, err: None if regex.fullmatch(out.strip()) else f"stdout {out.strip()[:80]!r}"

    def completion_of(path: str) -> Callable[[str, str], Optional[str]]:
        k, grid = grids[path]
        return lambda out, err: check.check_completion(k, grid, out)

    def witness_of(path: str) -> Callable[[str, str], Optional[str]]:
        k, grid = grids[path]

        def verdict(out: str, err: str) -> Optional[str]:
            found = _WITNESS_LINE.fullmatch(err.strip())
            if found is None or out:
                return f"no witness line: {err.strip()[:80]!r}"
            cols = tuple(int(c) for c in found[3].split(","))
            cands = () if found[4] == "none" else tuple(int(v) for v in found[4].split(","))
            return check.replay_witness(k, grid, (int(found[1]), int(found[2])), int(found[5]), cols, cands)

        return verdict

    def rectangle(k: int, m: int) -> Callable[[str, str], Optional[str]]:
        return lambda out, err: check.check_rectangle(k, m, out)

    def bounds_table(kv: bool) -> Callable[[str, str], Optional[str]]:
        def verdict(out: str, err: str) -> Optional[str]:
            lines = out.strip().splitlines()
            if not kv:
                lines = lines[1:]
            if len(lines) != BOUNDS_K_MAX - 1:
                return f"{len(lines)} bounds rows"
            for line in lines:
                fields = line.split()
                k = int(fields[0])
                lo, up = check.bound_ratios(k)
                got_lo, got_up = float(fields[-2]), float(fields[-1])
                if int(fields[1]) != k * k or abs(got_lo - lo) > 2e-6 or abs(got_up - up) > 2e-6:
                    return f"bounds row {line!r}, expected ratios {lo:.6f} {up:.6f}"
            return None

        return verdict

    construct4 = gen.non_guaranteed_shapes(4)[0]
    construct6 = gen.non_guaranteed_shapes(6)[len(gen.non_guaranteed_shapes(6)) // 2]
    commands: list[tuple[list[str], int, Callable[[str, str], Optional[str]]]] = [
        (["check", sq3], 0, expect_stdout(r"valid \(9×9 rectangle, k=3, l=3, r=0\)")),
        (["check", sq3, "--format", "kv"], 0, expect_stdout(r"valid=true k=3 m=9 l=3 r=0")),
        (["check", bad3], 1, expect_stdout(r"row condition violated by cells \(1,1\) and \(1,2\)")),
        (["check", bad3, "--format", "kv"], 1, expect_stdout(r"valid=false kind=row first=1,1 second=1,2")),
        (["decide", "--k", "3", "--m", "5"], 1, expect_stdout(r"not guaranteed: .*")),
        (["decide", "--k", "6", "--m", "18", "--format", "kv"], 0,
         expect_stdout(r"k=6 m=18 guaranteed=true reason=r=0")),
        (["complete", rect[4]], 0, completion_of(rect[4])),
        (["complete", rect[5]], 0, completion_of(rect[5])),
        (["complete", rect[6]], 0, completion_of(rect[6])),
        (["complete", fig1], 1, witness_of(fig1)),
        (["construct", "--k", "4", "--m", str(construct4)], 0, rectangle(4, construct4)),
        (["construct", "--k", "6", "--m", str(construct6)], 0, rectangle(6, construct6)),
        (["count", empty2], 0, expect_stdout(r"288")),
        (["count", fig1, "--format", "kv"], 0, expect_stdout(r"count=0 exhausted=true nodes=0")),
        (["count", cnt3, "--format", "kv"], 0,
         expect_stdout(rf"count={pinned['count']} exhausted=true nodes=\d+")),
        (["bounds", "--k-max", str(BOUNDS_K_MAX)], 0, bounds_table(kv=False)),
        (["bounds", "--k-max", str(BOUNDS_K_MAX), "--format", "kv"], 0, bounds_table(kv=True)),
    ]

    cases = []
    for argv, code, payload in commands:

        def op(argv=argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = api.cli.main(argv)
            return status, out.getvalue(), err.getvalue()

        def verdict(result, code=code, payload=payload) -> Optional[str]:
            status, out, err = result
            if status != code:
                return f"exit code {status}, expected {code}: {err.strip()[:80]!r}"
            return payload(out, err)

        def fingerprint(result) -> str:
            return f"{result[0]}\n{result[1]}\n{result[2]}"

        label = "cli " + " ".join(a if not a.startswith(str(work)) else Path(a).name for a in argv)
        cases.append(Case(label, code == 1, op, verdict, fingerprint))
    return cases


GROUPS = {
    "complete-construct": (complete_mixed, construct_sweep),
    "count-cli": (count_search, cli_small),
}


def build(workload: str, api, rng: random.Random, work: Path) -> list[Case]:
    """The workload's cases, in the same order for every seed.

    The seed changes the inputs only, so each operation follows the same
    predecessor (and finds the caches in the same state) in every run.
    """
    return [case for group in GROUPS[workload] for case in group(api, rng, work)]
