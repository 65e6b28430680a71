"""What importing sosforge and running one command loads, each in a fresh interpreter."""

import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import sosforge

# The modules that only some commands load: the engine and the label matcher.
ENGINE = ("axioms", "bisim", "commform", "matching", "simulator")

# Prints the modules that the code in argv[1] loaded, one a line.
RECORD = """
import sys
before = set(sys.modules)
exec(sys.argv[1])
print(*sorted(set(sys.modules) - before), sep="\\n")
"""

# Runs the command in argv[2:] and leaves its modules loaded; its output goes to stderr.
COMMAND = """
import contextlib, io
from sosforge import cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    assert cli.main(sys.argv[2:]) in (0, 1)
sys.stderr.write(out.getvalue())
"""

# Parses and checks every bundled spec, as the benchmark's set-up does.
FRONT_END = """
import os, sosforge.cli
from sosforge.parser import parse_spec
corpus = os.path.join(os.path.dirname(sosforge.__file__), "corpus")
for name in sorted(os.listdir(corpus)):
    with open(os.path.join(corpus, name), encoding="utf-8") as f:
        parse_spec(f.read()).check()
"""

# The spec of CI's GENERAL-premise check: g's premise label `mix(k, l)` is matched.
GEN_SPEC = """spec GEN
actions a b ;
labelop mix : Label Label -> Label [comm] ;
op g : 1 ;
var x x2 : Proc ;
var k l : Label ;
rule x -(mix(k, l))-> x2 ==> g(x) -(mix(l, k))-> x2 ;
"""


def run(code: str, *argv: str, flags: tuple[str, ...] = (), env=None) -> tuple[set[str], str]:
    """The modules the code loaded, and what it wrote to stderr."""
    proc = subprocess.run(
        [sys.executable, *flags, "-c", RECORD, code, *argv], capture_output=True, text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split()), proc.stderr


def loaded(code: str, *argv: str) -> set[str]:
    return run(code, *argv)[0]


def package_modules(mods: set[str]) -> set[str]:
    return {m for m in mods if m.startswith("sosforge.")}


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
    assert mods.isdisjoint({f"sosforge.{m}" for m in ENGINE} | {"json"}), sorted(mods)


@pytest.mark.parametrize(
    "argv, unused",
    [
        (["validate", corpus_path("full")], ENGINE),
        (["simulate", corpus_path("bccsp_par"), "| . 0 || a . 0"],
         ("bisim", "axioms", "commform", "matching")),
        (["bisim", corpus_path("bccsp_par"), "a . 0", "a . 0"], ("axioms", "commform", "matching")),
        (["eq", corpus_path("recursion"), "p1", "q1"], ("axioms", "commform", "matching")),
        (["normalize", corpus_path("linda"), "ask(u) ; tell(v)"], ("bisim", "commform", "matching")),
        (["axioms", corpus_path("bccsp_par")], ("simulator", "bisim", "commform", "matching")),
        (["comm", corpus_path("linda")], ("simulator", "bisim", "axioms")),
        # full.sos's only GENERAL label is the conclusion label mix(k,l):
        # substituted, not matched
        pytest.param(["simulate", corpus_path("full"), "g(a . 0, b . 0)"],
                     ("bisim", "axioms", "commform", "matching"), id="simulate-full"),
        pytest.param(["normalize", corpus_path("full"), "g(a . 0, b . 0)"],
                     ("bisim", "commform", "matching"), id="normalize-full"),
        # four operands against `;`'s three rules: `commform` proves `;` associative
        pytest.param(["normalize", corpus_path("linda"), "ask(u) ; tell(v) ; get(u) ; ask(d)"],
                     ("bisim", "matching"), id="normalize-long-nest"),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else None,
)
def test_each_command_loads_only_its_engine_modules(argv, unused):
    """Of the bundled specs, only `comm` may load the matcher."""
    mods = package_modules(loaded(COMMAND, *argv))
    assert "sosforge.cli" in mods
    assert mods.isdisjoint(f"sosforge.{m}" for m in unused), sorted(mods)


def test_a_general_premise_loads_the_matcher(tmp_path):
    """A positive premise label that only the matcher can read, `mix(k, l)`,
    loads `sosforge.matching` on its first firing."""
    spec = tmp_path / "gen.sos"
    spec.write_text(GEN_SPEC, encoding="utf-8")
    mods, out = run(COMMAND, "simulate", str(spec), "g(mix(b, a) . 0)")
    assert "sosforge.matching" in mods
    assert out == "Possible steps:\n < mix(a,b) # 0 >\n"


def test_front_end_loads_only_the_start_up_modules():
    """Parsing and checking every bundled spec after `import sosforge.cli`,
    the benchmark's set-up, loads no module beyond the start-up path."""
    assert package_modules(loaded(FRONT_END)) == {
        f"sosforge.{m}" for m in ("cli", "errors", "parser", "terms", "tss", "validator")}


def test_load_corpus_loads_no_resource_machinery():
    """A bundled spec is read next to the package, without `importlib.resources`
    and what it pulls in. `-S` keeps `site` out, as above."""
    env = dict(os.environ, PYTHONPATH=str(Path(sosforge.__file__).parents[1]))
    mods, _ = run("import sosforge; sosforge.load_corpus('linda')", flags=("-S",), env=env)
    assert "sosforge.parser" in mods
    slow = {"importlib.resources", "pathlib", "typing", "zipfile", "tempfile", "bz2", "lzma"}
    assert mods.isdisjoint(slow), sorted(mods & slow)


def test_corpus_text_refuses_an_unknown_name():
    with pytest.raises(FileNotFoundError):
        sosforge.corpus_text("no_such_spec")
