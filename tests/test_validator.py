"""Rule format and definition checks, one mutation per violation kind."""

import json
from pathlib import Path

import pytest

from sosforge import check_all, corpus_text, parse_spec
from sosforge.cli import main
from sosforge.validator import (
    ALL_KINDS,
    CONCL_VAR_ESCAPE,
    DEF_OUTSIDE_BCCSP,
    NEG_LABEL_UNBOUND,
    NON_VARIABLE_SOURCE,
    PREMISE_ON_NON_ARGUMENT,
    REDEFINES_BCCSP,
    REPEATED_VARIABLE,
    TARGET_VAR_REUSE,
    UNGUARDED_DEF,
    violations_to_json,
)

HEADER = """
spec MUT
actions a b ;
op f : 2 ;
op h : 1 ;
var x y z x' y' z' : Proc ;
var alpha beta : Action ;
"""


def kinds_of(text):
    return [v.kind for v in check_all(parse_spec(text))]


def test_corpus_is_clean():
    for name in ("bccsp", "bccsp_par", "g", "linda", "recursion", "full"):
        assert check_all(parse_spec(corpus_text(name))) == [], name


def test_non_variable_source():
    text = HEADER + "rule x -(a)-> x' ==> f(a . x, y) -(a)-> x' ;\n"
    assert NON_VARIABLE_SOURCE in kinds_of(text)


def test_repeated_variable():
    text = HEADER + "rule x -(a)-> x' ==> f(x, x) -(a)-> x' ;\n"
    assert REPEATED_VARIABLE in kinds_of(text)


def test_premise_on_non_argument():
    text = HEADER + "rule y -(a)-> y' ==> h(x) -(a)-> y' ;\n"
    assert PREMISE_ON_NON_ARGUMENT in kinds_of(text)


def test_target_var_reuse_between_premises():
    text = HEADER + "rule x -(a)-> z' , y -(b)-> z' ==> f(x, y) -(a)-> z' ;\n"
    assert TARGET_VAR_REUSE in kinds_of(text)


def test_target_var_reuse_of_source_arg():
    text = HEADER + "rule x -(a)-> x ==> h(x) -(a)-> x ;\n"
    assert TARGET_VAR_REUSE in kinds_of(text)


def test_concl_var_escape_process():
    text = HEADER + "rule x -(a)-> x' ==> f(x, y) -(a)-> x' + z ;\n"
    assert CONCL_VAR_ESCAPE in kinds_of(text)


def test_concl_var_escape_label():
    text = HEADER + "rule x -(alpha)-> x' ==> f(x, y) -(beta)-> x' ;\n"
    assert CONCL_VAR_ESCAPE in kinds_of(text)


def test_neg_label_unbound():
    text = HEADER + "rule x -(beta)/> ==> f(x, y) -(a)-> x + y ;\n"
    assert NEG_LABEL_UNBOUND in kinds_of(text)


def test_redefines_base_prefix():
    text = HEADER + "rule ==> alpha . x -(alpha)-> x ;\n"
    assert REDEFINES_BCCSP in kinds_of(text)


def test_redefines_base_choice():
    text = HEADER + "rule x -(alpha)-> x' ==> x + y -(alpha)-> x' ;\n"
    assert REDEFINES_BCCSP in kinds_of(text)


def test_unguarded_def():
    text = HEADER + "def p = p + a . 0 ;\n"
    got = check_all(parse_spec(text))
    assert [v.kind for v in got] == [UNGUARDED_DEF]
    assert got[0].rule == "p"


def test_guarded_def_is_fine():
    text = HEADER + "def p = a . p + b . p ;\n"
    assert kinds_of(text) == []


def test_def_outside_base_fragment():
    text = HEADER + "def p = a . 0 + f(0, 0) ;\n"
    assert kinds_of(text) == [DEF_OUTSIDE_BCCSP]


def test_all_kinds_covered():
    """The mutations above exercise every advertised violation kind."""
    texts = [
        HEADER + "rule x -(a)-> x' ==> f(a . x, y) -(a)-> x' ;\n",
        HEADER + "rule x -(a)-> x' ==> f(x, x) -(a)-> x' ;\n",
        HEADER + "rule y -(a)-> y' ==> h(x) -(a)-> y' ;\n",
        HEADER + "rule x -(a)-> z' , y -(b)-> z' ==> f(x, y) -(a)-> z' ;\n",
        HEADER + "rule x -(a)-> x' ==> f(x, y) -(a)-> x' + z ;\n",
        HEADER + "rule x -(alpha)-> x' ==> f(x, y) -(beta)-> x' ;\n",
        HEADER + "rule x -(beta)/> ==> f(x, y) -(a)-> x + y ;\n",
        HEADER + "rule ==> alpha . x -(alpha)-> x ;\n",
        HEADER + "def p = p + a . 0 ;\n",
        HEADER + "def p = a . 0 + f(0, 0) ;\n",
    ]
    seen = set()
    for text in texts:
        seen.update(kinds_of(text))
    assert seen == set(ALL_KINDS)


def test_violation_str_and_json():
    text = HEADER + "rule x -(a)-> x ==> h(x) -(a)-> x ;\n"
    got = check_all(parse_spec(text))
    assert got, "expected a violation"
    s = str(got[0])
    assert s.startswith("rule 1: ")
    js = violations_to_json(got)
    assert js[0]["kind"] == got[0].kind
    assert js[0]["rule"] == 1


# Rules that each break several conditions at once: a `0` source with a
# negative premise, `f(x, x)` with a premise on `y`, a reused target and two
# escapes, non-variable slots, prefix and choice sources with unbound
# negative labels, escapes of both sorts; then an unguarded definition and
# one outside the base fragment.
MULTI = """spec MULTI
actions a b ;
datasort Data [assoc comm id: empty] ;
dataconst d : Data ;
labelop mix : Label Label -> Label [comm] ;
op f : 2 ;
op h : 1 ;
op tell : 1 ;
var x y z x' y' z' : Proc ;
var alpha beta : Action ;
var k l : Label ;
var mu nu : Data ;
rule x -(beta)/> ==> 0 -(a)-> x ;
rule y -(a)-> x , x -(alpha)-> x' ==> f(x, x) -(beta)-> x' + z ;
rule z -(beta)/> ==> h(a . x) -(a)-> z ;
rule x -(mix(l, k))/> , x -(beta)/> ==> alpha . x -(alpha)-> x ;
rule y -(alpha)-> y' , x -(beta)/> ==> x + y -(alpha)-> y' + z ;
rule x -(a)-> x' , y -(mix(k, l))/> ==> a . y -(k)-> x' ;
rule x -(alpha)-> a . 0 , y -(mix(beta, k))/> ==> f(x, y) -(mix(l, alpha))-> z' + y' + x' ;
rule ==> tell(mu) -( < {d}, -, {d, mu, mu} > )-> tell(nu) + h(z) ;
def p = p + a . 0 ;
def q = a . 0 + f(0, 0) ;
"""

# `validate MULTI`, as recorded before the check became one walk per rule.
MULTI_TEXT = (
    "rule 1: NonVariableSource: conclusion source 0 is not an operator over variables\n"
    "rule 1: NegLabelUnbound: negative premise label uses unbound variable beta\n"
    "rule 1: RedefinesBccsp: rule concludes about built-in 0\n"
    "rule 2: RepeatedVariable: variable x occurs twice in the conclusion source\n"
    "rule 2: PremiseOnNonArgument: premise tests y, not a source argument\n"
    "rule 2: TargetVarReuse: premise target x is not fresh\n"
    "rule 2: ConclVarEscape: conclusion target uses unbound variable z\n"
    "rule 2: ConclVarEscape: conclusion label uses unbound variable beta\n"
    "rule 3: NonVariableSource: source argument a . x is not a variable\n"
    "rule 3: NegLabelUnbound: negative premise label uses unbound variable beta\n"
    "rule 4: NegLabelUnbound: negative premise label uses unbound variable k\n"
    "rule 4: NegLabelUnbound: negative premise label uses unbound variable l\n"
    "rule 4: NegLabelUnbound: negative premise label uses unbound variable beta\n"
    "rule 4: RedefinesBccsp: rule concludes about built-in prefixing\n"
    "rule 5: ConclVarEscape: conclusion target uses unbound variable z\n"
    "rule 5: NegLabelUnbound: negative premise label uses unbound variable beta\n"
    "rule 5: RedefinesBccsp: rule concludes about built-in choice\n"
    "rule 6: NonVariableSource: source argument a is not a variable\n"
    "rule 6: NegLabelUnbound: negative premise label uses unbound variable k\n"
    "rule 6: NegLabelUnbound: negative premise label uses unbound variable l\n"
    "rule 6: RedefinesBccsp: rule concludes about built-in prefixing\n"
    "rule 7: TargetVarReuse: premise target a . 0 is not a fresh variable\n"
    "rule 7: ConclVarEscape: conclusion target uses unbound variable x'\n"
    "rule 7: ConclVarEscape: conclusion target uses unbound variable y'\n"
    "rule 7: ConclVarEscape: conclusion target uses unbound variable z'\n"
    "rule 7: ConclVarEscape: conclusion label uses unbound variable l\n"
    "rule 7: NegLabelUnbound: negative premise label uses unbound variable beta\n"
    "rule 7: NegLabelUnbound: negative premise label uses unbound variable k\n"
    "rule 8: ConclVarEscape: conclusion target uses unbound variable nu\n"
    "rule 8: ConclVarEscape: conclusion target uses unbound variable z\n"
    "def p: UnguardedDef: p occurs outside the scope of a prefix\n"
    "def q: DefOutsideBccsp: operator f is not allowed in a definition body\n"
)
MULTI_JSON = json.loads((Path(__file__).parent / "golden" / "validate_multi_json.json").read_text(encoding="utf-8"))


def test_violation_order_is_pinned(capsys, tmp_path):
    path = tmp_path / "multi.sos"
    path.write_text(MULTI, encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().out == MULTI_TEXT
    assert main(["validate", "--json", str(path)]) == MULTI_JSON["exit"]
    assert capsys.readouterr().out == MULTI_JSON["stdout"]
    assert main(["simulate", str(path), "0"]) == 2
    assert capsys.readouterr() == ("", "error: invalid specification\n" + MULTI_TEXT)
