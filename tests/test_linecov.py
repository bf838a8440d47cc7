"""The line-coverage tool, run on a synthetic package: it fails on an
unreached line that its list does not name, and on an entry that names no
unreached line."""

import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "linecov.py"

MODULE = """\
def used(x):
    return x + 1


def unused(x):
    return x - 1
"""

# the second test runs an edited copy of `unused`, compiled under the
# module's file name at the module's line numbers: its lines must not count
TESTS = """\
import inspect

from synth import mod


def test_used():
    assert mod.used(1) == 2


def test_an_edited_copy_does_not_count():
    source = inspect.getsource(mod.unused).replace("x - 1", "x - 2")
    namespace = {}
    exec(compile("\\n" * 4 + source, mod.__file__, "exec"), namespace)
    assert namespace["unused"](1) == -1
"""


def run_tool(tmp_path: Path, listed: str) -> subprocess.CompletedProcess:
    package = tmp_path / "synth"
    package.mkdir(exist_ok=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(MODULE)
    (tmp_path / "test_synth.py").write_text(TESTS)
    (tmp_path / "unreached.txt").write_text(listed)
    return subprocess.run(
        [sys.executable, str(TOOL), "--src", str(package), "--list", str(tmp_path / "unreached.txt"),
         str(tmp_path / "test_synth.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )


def problems(done: subprocess.CompletedProcess) -> list[str]:
    lines = done.stdout.splitlines()
    return [line for line in lines if line.startswith("linecov: ") and "lines reached" not in line]


@pytest.mark.parametrize(
    "listed, code, expected",
    [
        ("", 1, ["linecov: unreached and not listed: mod.py:6: return x - 1"]),
        ("# a comment\nmod.py | return x - 1 | never called\n", 0, []),
        (
            "mod.py | return x - 1 | never called\nmod.py | return x + 1 | stale\n",
            1,
            ["linecov: listed but not unreached: mod.py | return x + 1"],
        ),
    ],
    ids=["unlisted", "listed", "stale"],
)
def test_the_list_must_name_exactly_the_unreached_lines(tmp_path, listed, code, expected):
    done = run_tool(tmp_path, listed)
    assert (done.returncode, problems(done)) == (code, expected), done.stdout + done.stderr
    assert "linecov: 3 of 4 executable lines reached, 1 unreached" in done.stdout
