"""What importing sosforge and running one command loads, each in a fresh interpreter."""

import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import sosforge

ENGINE = ("axioms", "bisim", "commform", "simulator")

# Prints the modules that the code in argv[1] loaded, one a line.
RECORD = """
import sys
before = set(sys.modules)
exec(sys.argv[1])
print(*sorted(set(sys.modules) - before), sep="\\n")
"""

# Runs the command in argv[2:] and leaves its modules loaded; its output is dropped.
COMMAND = """
import contextlib, io
from sosforge import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(sys.argv[2:]) in (0, 1)
"""


def loaded(code: str, *argv: str) -> set[str]:
    proc = subprocess.run(
        [sys.executable, "-c", RECORD, code, *argv], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def corpus_path(name: str) -> str:
    return str(resources.files("sosforge") / "corpus" / f"{name}.sos")


def test_import_sosforge_loads_no_submodule():
    assert {m for m in loaded("import sosforge") if m.startswith("sosforge.")} == set()


def test_import_cli_loads_no_slow_stdlib_module():
    """Start-up imports none of these. `-S` keeps `site`, and whatever its
    path configuration files import, out of the interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(sosforge.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, sosforge.cli; print(*sys.modules)"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    mods = set(proc.stdout.split())
    assert "sosforge.cli" in mods
    assert mods.isdisjoint({"dataclasses", "inspect", "typing", "pathlib"}), sorted(mods)


def test_import_cli_loads_no_engine_module_and_no_json():
    mods = loaded("import sosforge.cli")
    assert "sosforge.cli" in mods
    assert mods.isdisjoint({f"sosforge.{m}" for m in ENGINE} | {"json"})


@pytest.mark.parametrize(
    "argv, unused",
    [
        (["validate", corpus_path("full")], ENGINE),
        (["simulate", corpus_path("bccsp_par"), "| . 0 || a . 0"], ("bisim", "axioms", "commform")),
        (["bisim", corpus_path("bccsp_par"), "a . 0", "a . 0"], ("axioms", "commform")),
        (["eq", corpus_path("recursion"), "p1", "q1"], ("axioms", "commform")),
        (["normalize", corpus_path("linda"), "ask(u) ; tell(v)"], ("bisim", "commform")),
        (["axioms", corpus_path("bccsp_par")], ("bisim", "commform")),
        (["comm", corpus_path("linda")], ("simulator", "bisim", "axioms")),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else None,
)
def test_each_command_loads_only_its_engine_modules(argv, unused):
    mods = {m for m in loaded(COMMAND, *argv) if m.startswith("sosforge.")}
    assert "sosforge.cli" in mods
    assert mods.isdisjoint(f"sosforge.{m}" for m in unused), sorted(mods)
