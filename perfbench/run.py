"""sudorect benchmark: one closed-loop caller, whole passes over a seeded corpus.

    python3 perfbench/run.py --workload complete-construct --seed 1 --seconds 50 --trace 0

Run from the repository root; the program is imported from ``src/``.  The
set-up (importing the package and generating the corpus) is repeated
``SETUP_REPEATS`` times and its median reported.  The run then makes whole
passes over the corpus, one operation at a time, until ``--seconds`` have
passed and the tail percentile has at least ten samples beyond it.  Only
the program's calls are timed; each output is checked between operations.

The machine's speed drifts, so a fixed piece of pure-Python work (the
reference loop) is timed before every operation and every set-up, and the
reported times are scaled to a reference speed: they read as on a machine
where that loop takes ``REFERENCE_SECONDS``.  The wall-clock figures are
printed too.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every
operation twice per pass, untraced and traced, in alternating order, prints
the per-layer metrics of the traced executions and the tracing overhead,
and writes the spans under ``perfbench/out/``.  The last stdout line is the
JSON result; the lines before it repeat every metric with its unit, the
error rate and the behaviour fingerprint.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import random
import resource
import statistics
import sys
import tempfile
import types
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

import gen  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 15
# Iterations of the reference loop (about 2 ms on the machine the settings
# were chosen on) and the loop time that reported times are scaled to.
REFERENCE_STEPS = 14000
REFERENCE_SECONDS = 0.002
# Each operation's time is scaled by the median reference time of the
# operations within this many places of it, which follows the machine's
# drift over a few seconds and smooths the loop's own jitter.
REFERENCE_WINDOW = 10
# Fixed per workload so that runs compare; each is the highest percentile
# that keeps at least ten samples beyond it at the run's minimum sample count.
TAIL_PERCENTILE = {"complete-construct": 97, "count-cli": 95}

END_TO_END_UNITS = {
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "reject_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_per_op"):
        return "count/op"
    if name.endswith("_per_node"):
        return "ratio"
    return "s" if name.endswith("_s") else "count"


def min_samples(workload: str) -> int:
    beyond = 1.0 - TAIL_PERCENTILE[workload] / 100.0
    return int(10 / beyond + 0.999999)


def fresh_import() -> types.SimpleNamespace:
    for name in [m for m in sys.modules if m == "sudorect" or m.startswith("sudorect.")]:
        del sys.modules[name]
    package = importlib.import_module("sudorect")
    cli = importlib.import_module("sudorect.cli")
    return types.SimpleNamespace(sudorect=package, cli=cli)


def reference_loop() -> float:
    """Seconds taken by a fixed piece of pure-Python work."""
    t0 = perf_counter()
    table: dict[int, int] = {}
    total = 0
    for i in range(REFERENCE_STEPS):
        table[i & 255] = total
        total += table.get(i * 7 & 255, 1) % 13
    return perf_counter() - t0


def speed_scale(reference: list[float]) -> list[float]:
    """Per sample, REFERENCE_SECONDS over the median reference time around it."""
    w = REFERENCE_WINDOW
    return [REFERENCE_SECONDS / statistics.median(reference[max(0, i - w):i + w + 1])
            for i in range(len(reference))]


def setup(workload: str, seed: int, work: Path) -> tuple[list, list[float], list[float]]:
    """Import the program and build the corpus, several times; keep the last.

    Returns the cases, the set-up times and the reference times around them.
    """
    times, reference = [], [reference_loop()]
    for _ in range(SETUP_REPEATS):
        gc.collect()  # each set-up starts from a collected heap
        t0 = perf_counter()
        api = fresh_import()
        api.frozen = gen.load_frozen()
        cases = workloads.build(workload, api, random.Random(seed), work)
        times.append(perf_counter() - t0)
        reference.append(reference_loop())
    return cases, times, reference


def run_op(case) -> tuple[float, str | None, str]:
    """Time one operation, then check it: (seconds, problem or None, fingerprint)."""
    t0 = perf_counter()
    try:
        result = case.op()
    except Exception as exc:  # a raising operation is a failed one
        return perf_counter() - t0, f"raised {type(exc).__name__}: {exc}", ""
    elapsed = perf_counter() - t0
    try:
        return elapsed, case.check(result), case.fingerprint(result)
    except Exception as exc:  # the checker could not read the output
        return elapsed, f"unreadable output: {type(exc).__name__}: {exc}", ""


class Runner:
    """Runs the cases and checks every output against the first one of its case."""

    def __init__(self, cases, tracer) -> None:
        self.cases = cases
        self.tracer = tracer
        self.reference: list[str] = []  # output digest per case

    def execute(self, i: int, op_id: int | None = None) -> tuple[float, bool]:
        """Run case ``i``, traced under ``op_id`` when one is given."""
        case = self.cases[i]
        if op_id is not None:
            self.tracer.op = op_id
            self.tracer.install()
        try:
            elapsed, problem, shown = run_op(case)
        finally:
            if op_id is not None:
                self.tracer.uninstall()
        digest = hashlib.sha256(shown.encode()).hexdigest()
        if len(self.reference) <= i:
            self.reference.append(digest)
        elif problem is None and self.reference[i] != digest:
            problem = "output differs from the first execution"
        if problem is not None:
            print(f"FAIL {case.label}: {problem}", file=sys.stderr)
        return elapsed, problem is None


def fingerprint(cases, reference: list) -> str:
    h = hashlib.sha256()
    for case, digest in zip(cases, reference):
        h.update(f"{case.label}\t{digest}\n".encode())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GROUPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sudorect" / "__init__.py").is_file():
        print(f"no program source at {SRC / 'sudorect'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(parents=True, exist_ok=True)
    # The CLI's input files, private to this run.
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{args.workload}-seed{args.seed}-") as work:
        return measure(args, Path(work))


def measure(args, work: Path) -> int:
    cases, setup_times, setup_reference = setup(args.workload, args.seed, work)
    tracer = spans.Tracer() if args.trace else None
    runner = Runner(cases, tracer)
    records: list[tuple[float, bool]] = []
    reference: list[float] = []  # reference loop time before each untraced-run operation
    pairs: list[tuple[float, float]] = []  # (untraced, traced) seconds per operation
    need = min_samples(args.workload)
    passes = 0
    # The corpus lives for the whole run; keep it out of the collector's scans.
    gc.collect()
    gc.freeze()
    origin = perf_counter()
    while True:
        for i in range(len(cases)):
            if tracer is None:
                reference.append(reference_loop())
                records.append(runner.execute(i))
                continue
            # Untraced and traced back to back, in ABBA order over the pass
            # and across passes, so that drift and warm-up cancel.
            traced_first = (passes + i) % 2 == 1
            got = {}
            for traced in (traced_first, not traced_first):
                got[traced] = runner.execute(i, passes * len(cases) + i if traced else None)
            records += [got[False], got[True]]
            pairs.append((got[False][0], got[True][0]))
        passes += 1
        wall = perf_counter() - origin
        if wall >= args.seconds and (tracer is not None or len(records) >= need):
            break

    attempted = len(records)
    failed = sum(not ok for _, ok in records)
    print(f"workload {args.workload} seed {args.seed}: closed loop, 1 caller, "
          f"{passes} passes of {len(cases)} operations{' (each untraced and traced)' if tracer else ''} "
          f"in {wall:.1f} s")
    print(f"error_rate = {failed / attempted:.6g} ({failed} of {attempted} operations failed)")
    print(f"fingerprint sha256={fingerprint(cases, runner.reference)}")

    if tracer is None:
        scale = speed_scale(reference)
        wall_times = [dt for dt, _ in records]
        times = [dt * f for dt, f in zip(wall_times, scale)]
        rejects = [dt for dt, case in zip(times, cases * passes) if case.reject]
        tail = TAIL_PERCENTILE[args.workload]
        setup_s = statistics.median(setup_times) * REFERENCE_SECONDS / statistics.median(setup_reference)
        metrics = {
            "throughput_ops_s": (attempted - failed) / sum(times),
            "latency_p50_ms": statistics.median(times) * 1e3,
            "latency_tail_ms": statistics.quantiles(times, n=100, method="inclusive")[tail - 1] * 1e3,
            "reject_p50_ms": statistics.median(rejects) * 1e3,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
        q = statistics.quantiles(reference, n=4)
        print(f"latency_tail_ms is p{tail} of {len(times)} samples; "
              f"reject_p50_ms is the median of {len(rejects)} negative answers")
        print(f"reference loop: median {statistics.median(reference) * 1e3:.3f} ms, quartiles "
              f"{q[0] * 1e3:.3f}-{q[2] * 1e3:.3f} ms; times below are scaled to "
              f"{REFERENCE_SECONDS * 1e3:g} ms")
        print(f"wall clock, unscaled: throughput {(attempted - failed) / sum(wall_times):.4f} 1/s, "
              f"p50 {statistics.median(wall_times) * 1e3:.4f} ms, "
              f"set-up {statistics.median(setup_times):.4f} s")
    else:
        untraced = sum(u for u, _ in pairs)
        traced = sum(t for _, t in pairs)
        covered = spans.self_time_total(tracer.spans)
        metrics = spans.layer_metrics(tracer.spans, len(pairs), passes)
        metrics["trace.overhead_pct"] = (traced / untraced - 1.0) * 100.0
        units = {name: per_layer_unit(name) for name in metrics}
        estimate = len(tracer.spans) * spans.wrapper_cost() / untraced * 100.0
        print(f"per pass: untraced {untraced / passes:.6f} s, traced {traced / passes:.6f} s; "
              f"{len(tracer.spans) // passes} spans at the measured cost of a wrapped empty call "
              f"would add {estimate:.2f}%")
        print(f"layer self times sum to {covered / passes:.6f} s per pass: "
              f"{covered / traced * 100:.2f}% of the traced time, "
              f"{(covered / untraced - 1) * 100:+.2f}% against the untraced time")
        path = OUT / f"spans-{args.workload}-seed{args.seed}.tsv"
        tracer.write(path, origin)
        print(f"{len(tracer.spans)} spans written to {path.relative_to(ROOT)}")

    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
