"""A spec that fails the rule format is refused by every command and entry point."""

import subprocess
import sys

import pytest

from sosforge import (
    are_equal,
    axiom_report,
    bisimilar,
    build_lts,
    check_all,
    check_comm,
    normalize,
    parse_spec,
    parse_term,
    solve_rule,
    step,
)
from sosforge.cli import main
from sosforge.errors import InvalidSpec
from sosforge.terms import DefConst
from sosforge.validator import ALL_KINDS

# One planted violation: rule 1's premise tests y, which is not an argument of f.
BAD = """spec BAD
actions a ;
op f : 1 ;
op h : 2 ;
var x y x' y' : Proc ;
rule y -(a)-> x' ==> f(x) -(a)-> x' ;
rule x -(a)-> x' ==> h(x, y) -(a)-> h(x', y) ;
def p = a . 0 ;
def q = a . 0 ;
"""
VIOLATION = "rule 1: PremiseOnNonArgument: premise tests y, not a source argument"
REFUSAL = f"error: invalid specification\n{VIOLATION}\n"


@pytest.fixture
def bad_path(tmp_path):
    path = tmp_path / "bad.sos"
    path.write_text(BAD, encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- the command line ---------------------------------------------------------------


def test_simulate_refuses_the_roadmap_example(bad_path, capsys):
    code, out, err = run(capsys, "simulate", bad_path, "f(a . 0)")
    assert (code, out, err) == (2, "", REFUSAL)


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "a . 0", "--json"),
        ("bisim", "f(a . 0)", "a . 0"),
        ("bisim", "a . 0", "a . 0", "--json"),
        ("eq", "p", "q"),
        ("normalize", "f(a . 0)"),
        ("normalize", "a . 0", "--json"),
        ("axioms",),
        ("axioms", "--json"),
        ("comm",),
        ("comm", "--json"),
    ],
)
def test_every_command_refuses(bad_path, capsys, argv):
    code, out, err = run(capsys, argv[0], bad_path, *argv[1:])
    assert (code, out, err) == (2, "", REFUSAL)


def test_comm_refuses_before_writing_formats(bad_path, tmp_path, capsys):
    target = tmp_path / "formats.sos"
    code, out, err = run(capsys, "comm", bad_path, "--emit-formats", str(target))
    assert (code, out, err) == (2, "", REFUSAL)
    assert not target.exists()


def test_validate_output_is_unchanged(bad_path, capsys):
    assert run(capsys, "validate", bad_path) == (1, VIOLATION + "\n", "")
    assert run(capsys, "validate", bad_path, "--json") == (
        1,
        "[\n"
        "  {\n"
        '    "kind": "PremiseOnNonArgument",\n'
        '    "rule": 1,\n'
        '    "message": "premise tests y, not a source argument",\n'
        "    \"span\": \"y -(a)-> x' ==> f(x) -(a)-> x'\"\n"
        "  }\n"
        "]\n",
        "",
    )


def test_module_entry_point_exits_2(bad_path):
    proc = subprocess.run(
        [sys.executable, "-m", "sosforge.cli", "simulate", bad_path, "f(a . 0)"],
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", REFUSAL)


# -- the library --------------------------------------------------------------------


def _calls():
    def term(spec, text):
        return parse_term(text, spec)

    return {
        "step": lambda s: step(s, term(s, "f(a . 0)")),
        "step_definition": lambda s: step(s, DefConst("p")),
        "solve_rule": lambda s: solve_rule(s.plans_for("h")[0], (term(s, "a . 0"),) * 2,
                                           lambda k: [], s.theory),
        "normalize": lambda s: normalize(s, term(s, "f(a . 0)")),
        "build_lts": lambda s: build_lts(s, [term(s, "h(a . 0, 0)")]),
        "bisimilar": lambda s: bisimilar(s, term(s, "f(a . 0)"), term(s, "a . 0")),
        "are_equal": lambda s: are_equal(s, "p", "q"),
        "check_comm": check_comm,
        "associative": lambda s: s.associative("h"),
        "axiom_report": axiom_report,
        "rules_for": lambda s: s.rules_for("h"),
        "definition": lambda s: s.definition("p"),
    }


@pytest.mark.parametrize("entry", sorted(_calls()))
def test_every_entry_point_raises_invalid_spec(entry):
    spec = parse_spec(BAD)
    with pytest.raises(InvalidSpec) as e:
        _calls()[entry](spec)
    assert [str(v) for v in e.value.violations] == [VIOLATION]
    assert str(e.value) == f"invalid specification\n{VIOLATION}"


HEADER = """spec MUT
actions a b ;
op f : 2 ;
op h : 1 ;
var x y z x' y' z' : Proc ;
var alpha beta : Action ;
"""

# One spec per violation kind; each also has a valid rule for h, which step reads.
PLANTED = {
    "NonVariableSource": "rule x -(a)-> x' ==> f(a . x, y) -(a)-> x' ;",
    "RepeatedVariable": "rule x -(a)-> x' ==> f(x, x) -(a)-> x' ;",
    "PremiseOnNonArgument": "rule y -(a)-> y' ==> f(x, z) -(a)-> y' ;",
    "TargetVarReuse": "rule x -(a)-> z' , y -(b)-> z' ==> f(x, y) -(a)-> z' ;",
    "ConclVarEscape": "rule x -(a)-> x' ==> f(x, y) -(a)-> x' + z ;",
    "NegLabelUnbound": "rule x -(beta)/> ==> f(x, y) -(a)-> x + y ;",
    "RedefinesBccsp": "rule ==> alpha . x -(alpha)-> x ;",
    "UnguardedDef": "def p = p + a . 0 ;",
    "DefOutsideBccsp": "def p = a . 0 + f(0, 0) ;",
}


def test_planted_specs_cover_every_kind():
    assert set(PLANTED) == set(ALL_KINDS)


@pytest.mark.parametrize("kind", sorted(PLANTED))
def test_each_violation_kind_is_refused(kind, tmp_path, capsys):
    text = HEADER + "rule x -(a)-> x' ==> h(x) -(a)-> x' ;\n" + PLANTED[kind] + "\n"
    spec = parse_spec(text)
    violations = check_all(spec)
    assert kind in [v.kind for v in violations]
    with pytest.raises(InvalidSpec) as e:
        step(spec, parse_term("h(a . 0)", spec))
    assert e.value.violations == violations

    path = tmp_path / "mut.sos"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "simulate", str(path), "h(a . 0)")
    lines = "".join(f"{v}\n" for v in violations)
    assert (code, out, err) == (2, "", "error: invalid specification\n" + lines)
