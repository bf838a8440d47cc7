"""Line coverage of ``src/sudorect`` under the tier-1 tests, standard library only.

    python tools/linecov.py [pytest arguments]

runs the tests (``tests/`` when no argument is given) in this process
under a ``sys.settrace`` line collector, then compares the lines of the
package that ran with each module's executable lines, read from
``co_lines()`` of its compiled source.  Hypothesis runs on a fixed seed,
so a line that only some draws reach cannot make the map change from run
to run.  Every line that never ran must be named in
``tools/unreached.txt`` with the reason it stays, and every named line
must still be unreached.  The tool prints each difference and exits 1 if
there is one; it exits with pytest's status if the tests fail.

The tracer starts before the tests import the package, so module-level
lines count as run.  Only frames whose code equals a code object compiled
from a module's file are traced: a kernel compiled again with an edit
(``tests/oracles.py::with_replaced``) shares the file name but not the
lines, and does not count.  Subprocesses are not traced.

Each entry of the list is one line ``<file> | <stripped source> | <reason>``
(``#`` starts a comment line).  It matches one unreached line of that
file with that text, so an entry survives edits elsewhere in the file;
two unreached lines with the same text need two entries.  ``--src`` and
``--list`` point the tool at another package and list.

The tracer makes the suite about three times slower, so this runs as its
own CI job and not in tier-1.
"""

from __future__ import annotations

import argparse
import os
import sys
import threading
from collections import Counter
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent


def _code_objects(code: CodeType):
    yield code
    for const in code.co_consts:
        if isinstance(const, CodeType):
            yield from _code_objects(const)


class Collector:
    """Records the lines run in the ``.py`` files under one directory."""

    def __init__(self, src: Path):
        self.src = src.resolve()
        self.executable: dict[str, set[int]] = {}  # file, relative to src -> lines
        self.reached: dict[str, set[int]] = {}
        self._static: dict[tuple[str, int], list[CodeType]] = {}
        self._tracers: dict[str, object] = {}
        self._seen: dict[int, tuple[CodeType, object]] = {}  # id(code) -> (code, tracer)
        self._paths: dict[str, str | None] = {}  # co_filename -> file, or None
        for path in sorted(self.src.rglob("*.py")):
            name = path.relative_to(self.src).as_posix()
            module = compile(path.read_text(encoding="utf-8"), str(path), "exec", dont_inherit=True)
            self.executable[name] = set()
            self.reached[name] = set()
            self._tracers[name] = self._line_tracer(self.reached[name])
            for code in _code_objects(module):
                self.executable[name].update(
                    line for _, _, line in code.co_lines() if line is not None and line > 0
                )
                self._static.setdefault((code.co_name, code.co_firstlineno), []).append(code)

    @staticmethod
    def _line_tracer(lines: set[int]):
        add = lines.add

        def trace(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return trace

        return trace

    def _file_of(self, filename: str) -> str | None:
        if filename not in self._paths:
            path = Path(os.path.realpath(filename))
            inside = path.suffix == ".py" and self.src in path.parents
            self._paths[filename] = path.relative_to(self.src).as_posix() if inside else None
        return self._paths[filename]

    def _classify(self, code: CodeType):
        tracer = None
        name = self._file_of(code.co_filename)
        if name is not None and any(
            code == static for static in self._static.get((code.co_name, code.co_firstlineno), ())
        ):
            tracer = self._tracers[name]
        self._seen[id(code)] = (code, tracer)  # holding the code keeps its id unused
        return tracer

    def _call(self, frame, event, arg):
        code = frame.f_code
        seen = self._seen.get(id(code))
        return seen[1] if seen is not None else self._classify(code)

    def start(self) -> None:
        threading.settrace(self._call)
        sys.settrace(self._call)

    def stop(self) -> None:
        sys.settrace(None)
        threading.settrace(None)

    def unreached(self) -> dict[str, list[int]]:
        return {
            name: sorted(lines - self.reached[name])
            for name, lines in self.executable.items()
            if lines - self.reached[name]
        }


def read_list(path: Path) -> Counter:
    """The (file, stripped source) entries of an unreached-line list."""
    entries: Counter = Counter()
    for number, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(" | ")
        if len(parts) < 3 or not parts[-1].strip():
            raise SystemExit(f"{path}:{number}: expected '<file> | <source> | <reason>'")
        entries[parts[0].strip(), " | ".join(parts[1:-1]).strip()] += 1
    return entries


def compare(src: Path, unreached: dict[str, list[int]], listed: Counter) -> list[str]:
    """One message per unreached line the list does not name, and per
    entry that names no unreached line."""
    problems = []
    remaining = Counter(listed)
    for name, lines in sorted(unreached.items()):
        source = (src / name).read_text(encoding="utf-8").splitlines()
        for line in lines:
            text = source[line - 1].strip()
            if remaining[name, text] > 0:
                remaining[name, text] -= 1
            else:
                problems.append(f"unreached and not listed: {name}:{line}: {text}")
    for (name, text), count in sorted(remaining.items()):
        problems += [f"listed but not unreached: {name} | {text}"] * count
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src" / "sudorect")
    parser.add_argument("--list", type=Path, default=ROOT / "tools" / "unreached.txt")
    options, pytest_args = parser.parse_known_args(argv)
    listed = read_list(options.list)
    collector = Collector(options.src)

    collector.start()
    import pytest  # imported under the tracer, like everything the tests import

    try:
        status = pytest.main(
            ["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0",
             *(pytest_args or [str(ROOT / "tests")])]
        )
    finally:
        collector.stop()
    if status != 0:
        print(f"linecov: the tests failed (pytest status {int(status)})")
        return int(status)
    problems = compare(collector.src, collector.unreached(), listed)
    for problem in problems:
        print(f"linecov: {problem}")
    total = sum(map(len, collector.executable.values()))
    missed = sum(map(len, collector.unreached().values()))
    print(
        f"linecov: {total - missed} of {total} executable lines reached,"
        f" {missed} unreached, {sum(listed.values())} listed"
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
