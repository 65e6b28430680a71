"""Commutativity checking: mirror search, the fixed point, reports."""

import collections
import json
import random
from pathlib import Path

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

import sosforge
from sosforge import check_all, corpus_text, load_corpus, normalize, parse_spec, parse_term, step
from sosforge.bisim import bisimilar
from sosforge.cli import main
from sosforge.commform import (
    CHOICE_OP,
    check_comm,
    comm_report_json,
    comm_report_text,
    formats_spec,
    render_spec,
)
from sosforge.matching import match
from sosforge.terms import (
    App,
    Choice,
    LVar,
    Var,
    canon_label,
    render_label,
    render_term,
    replace,
    substitute_label,
    substitute_term,
)
from sosforge.tss import ProcOp, Rule
import mirror_oracle
from mirror_oracle import BUNDLED, cc_canon, differences, oracle_mirrors, oracle_report
from termgen import front_spec_text, random_bccsp_term

# -- targets equal up to commutative swaps ------------------------------------------

# h's rules mirror each other, k's one rule has no mirror, and f's two rules
# have the targets of each case below.
SWAPS_HEADER = (
    "actions a b c ; datasort A [assoc comm id: ea] ; datasort B [assoc comm id: eb] ; dataconst a1 : A ; "
    "op f : 2 ; op h : 2 ; op k : 2 ; var x y x' y' : Proc ;\n"
    "rule x -(a)-> x' ==> h(x, y) -(a)-> x' ;\nrule y -(a)-> y' ==> h(x, y) -(a)-> y' ;\n"
    "rule x -(a)-> x' ==> k(x, y) -(a)-> x' ;\n"
    "def p = a . p ;\ndef q = a . q ;\n"
)
# The targets of f's rules on x and on y, and whether they mirror each other.
SWAPS = {
    "known_operator": ("h(x', y)", "h(x, y')", True),
    "unknown_operator": ("k(x', y)", "k(x, y')", False),
    "choice": ("x' + y", "x + y'", True),
    "choice_regrouped": ("(a . x' + b . y) + c . 0", "a . y' + (b . x + c . 0)", True),
    "repeated_summand": ("x' + x'", "y'", False),
    "sorts_in_a_choice": ("< a1, -, ea > . x' + < a1, -, eb > . y", "< a1, -, eb > . x + < a1, -, ea > . y'", True),
    "sorts": ("< a1, -, ea > . x'", "< a1, -, eb > . y'", False),
    # recursion constants compare by name, bisimilar or not
    "definition": ("x' + p", "p + y'", True),
    "other_definition": ("x' + p", "q + y'", False),
}


@pytest.mark.parametrize("key", sorted(SWAPS))
def test_mirror_targets_equal_up_to_known_swaps_and_choice(key):
    """Targets mirror up to swapping the arguments of known-commutative
    operators and regrouping and reordering a choice's summands, and no
    further: a repeated summand still counts, labels keep their sorts and
    recursion constants their names."""
    on_x, on_y, mirrored = SWAPS[key]
    spec = parse_spec(f"spec SWAPS {SWAPS_HEADER}rule x -(a)-> x' ==> f(x, y) -(a)-> {on_x} ;\n"
                      f"rule y -(a)-> y' ==> f(x, y) -(a)-> {on_y} ;\n")
    report = check_comm(spec)
    assert ("f" in report.proven, report.failed.get("f")) == (mirrored, None if mirrored else [4, 5])
    assert differences(report, oracle_report(spec)[0]) == []


REGROUPED_CHOICE = """
spec CH
actions a b c ;
op f : 2 ;
var x y x2 y2 : Proc ;
rule x -(a)-> x2 ==> f(x, y) -(a)-> (a . x2 + b . y) + c . 0 ;
rule y -(a)-> y2 ==> f(x, y) -(a)-> a . y2 + (b . x + c . 0) ;
"""


def test_mirror_targets_whose_choices_group_differently():
    """Choice is associative, so targets that group a choice differently
    mirror each other; `f` is commutative on closed terms too."""
    spec = parse_spec(REGROUPED_CHOICE)
    report = check_comm(spec)
    assert list(report.proven) == ["f"] and not report.failed
    p, q = parse_term("a . b . 0", spec), parse_term("a . c . 0 + b . 0", spec)
    assert bisimilar(spec, App("f", (p, q)), App("f", (q, p)))[0]


# Two data sorts whose empty multisets both print `{}`, and a binary operator.
SORTS_HEADER = (
    "actions a ; datasort A [assoc comm id: ea] ; datasort B [assoc comm id: eb] ; "
    "dataconst a1 : A ; dataconst b1 : B ; op p : 2 ; var x y x' y' : Proc ;\n"
)
# Each pair of rules mirrors only up to the sort of one empty store.
SORTS_RULES = {
    "neg": ("x -(a)-> x' , y -(< a1, -, ea >)/> ==> p(x,y) -(a)-> x'",
            "y -(a)-> y' , x -(< a1, -, eb >)/> ==> p(x,y) -(a)-> y'"),
    "conc": ("x -(a)-> x' ==> p(x,y) -(< a1, -, ea >)-> x'",
             "y -(a)-> y' ==> p(x,y) -(< a1, -, eb >)-> y'"),
    "tgt": ("x -(a)-> x' ==> p(x,y) -(a)-> < a1, -, ea > . x'",
            "y -(a)-> y' ==> p(x,y) -(a)-> < a1, -, eb > . y'"),
}


def sorts_spec_text(key, same_sort=False):
    rules = SORTS_RULES[key]
    if same_sort:
        rules = tuple(r.replace("eb", "ea") for r in rules)
    return f"spec {key.upper()} {SORTS_HEADER}" + "".join(f"rule {r} ;\n" for r in rules)


# -- mirror search ----------------------------------------------------------------


def _witnesses(spec, op):
    return [(w.rule_a, w.rule_b, dict(w.mapping)) for w in check_comm(spec).proven[op]]


def test_interleaving_rules_mirror_each_other(par):
    """Rule 1's first mirror is rule 2, not itself: an interleaving rule is
    not its own mirror."""
    assert _witnesses(par, "_||_")[0] == (1, 2, {"alpha": "alpha", "x": "y", "x'": "y'", "y": "x", "y'": "x'"})


def test_sync_rule_is_self_mirror(par):
    assert _witnesses(par, "_||_")[1] == (3, 3, {"x": "y", "x'": "y'", "y": "x", "y'": "x'"})


def test_mixer_mirror_swaps_labels(gspec):
    assert _witnesses(gspec, "g")[0] == (1, 1, {"k": "l", "l": "k", "x": "y", "x'": "y'", "y": "x", "y'": "x'"})


TWO_MIRRORS = """spec TWO
actions a ;
op f : 2 ;
var x x1 x2 y y1 y2 : Proc ;
var k l : Action ;
rule x -(k)-> x1 , x -(l)-> x2 , y -(k)-> y1 , y -(l)-> y2 ==> f(x, y) -(a)-> 0 ;
"""


def test_mirror_search_returns_the_first_mirror(capsys, tmp_path):
    """The rule mirrors itself under two mappings; the search returns the
    one it finds first in premise order, `k <- k`, and `comm` prints it."""
    first = {"k": "k", "l": "l", "x": "y", "x1": "y1", "x2": "y2", "y": "x", "y1": "x1", "y2": "x2"}
    assert _witnesses(parse_spec(TWO_MIRRORS), "f") == [(1, 1, first)]
    path = tmp_path / "two.sos"
    path.write_text(TWO_MIRRORS, encoding="utf-8")
    assert main(["comm", str(path)]) == 0
    assert "  with: k <- k  l <- l  x <- y  x1 <- y1  x2 <- y2  y <- x  y1 <- x1  y2 <- x2\n" \
        in capsys.readouterr().out


INJECTIVE_SPEC = """spec INJ
actions a ;
op f : 2 ;
var x y x' y' : Proc ;
var alpha beta : Action ;
rule x -(alpha)-> x' , y -(beta)-> y' ==> f(x,y) -(a)-> 0 ;
rule x -(alpha)-> x' , y -(alpha)-> y' ==> f(x,y) -(a)-> 0 ;
"""


def test_mirror_mapping_is_injective(capsys, tmp_path):
    """Rule 1 would be rule 2's first mirror if both alpha and beta could
    map to alpha; they cannot, so rule 2 mirrors itself, and rule 1 mirrors
    itself by swapping alpha and beta."""
    spec = parse_spec(INJECTIVE_SPEC)
    assert _witnesses(spec, "f") == [
        (1, 1, {"alpha": "beta", "beta": "alpha", "x": "y", "x'": "y'", "y": "x", "y'": "x'"}),
        (2, 2, {"alpha": "alpha", "x": "y", "x'": "y'", "y": "x", "y'": "x'"})]
    assert oracle_mirrors(spec, spec.rules[1], spec.rules[0], {"f", "+"}) == []
    path = tmp_path / "inj.sos"
    path.write_text(INJECTIVE_SPEC, encoding="utf-8")
    assert main(["comm", str(path)]) == 0
    assert [line for line in capsys.readouterr().out.splitlines() if "mirrors" in line] == [
        "  rule 1 mirrors rule 1:", "  rule 2 mirrors rule 2:"]


SEGMENT_SPEC = (
    "spec SEG\nactions a e ;\nlabelop cat : Label Label -> Label [assoc id: e] ;\nop f : 2 ;\n"
    "var x y x' y' : Proc ;\nvar k l m : Label ;\n"
    "rule x -(cat(k, l))-> x' ==> f(x, y) -(k)-> x' ;\n"
    "rule y -(cat(k, l, m))-> y' ==> f(x, y) -(k)-> y' ;\n"
)


def test_mirror_maps_no_variable_to_an_identity_or_a_segment(capsys, tmp_path):
    """`cat(k, l, m)` matches `cat(k, l)` with m the identity, and `cat(k, l)`
    matches `cat(k, l, m)` with l the segment `cat(l, m)`; a renaming takes
    neither value, so no mirror is found and f stays unproven."""
    spec = parse_spec(SEGMENT_SPEC)
    th = spec.theory
    two, three = (canon_label(r.positives[0].label, th) for r in spec.rules)
    assert "e" in [render_label(s["m"]) for s in match(three, two, th)]
    assert "cat(l,m)" in [render_label(s["l"]) for s in match(two, three, th)]
    assert check_comm(spec).failed == {"f": [1, 2]}
    path = tmp_path / "seg.sos"
    path.write_text(SEGMENT_SPEC, encoding="utf-8")
    assert main(["comm", str(path)]) == 1
    assert capsys.readouterr().out.startswith("Could not prove commutativity for: f\n")


# Rule 1 has a premise on each side, its candidate rule 2 one: a mirror only
# needs the candidate's premises to land among rule 1's, as in the format of
# Mousavi, Reniers & Groote.  An index that pairs rules only when their
# mirror forms are equal would lose this proof.
SUBSET_SPEC = """spec SUBSET
actions a b ;
op f : 2 ;
var x y x' y' : Proc ;
rule x -(a)-> x' , y -(b)-> y' ==> f(x,y) -(a)-> x' ;
rule y -(a)-> y' ==> f(x,y) -(a)-> y' ;
rule x -(a)-> x' ==> f(x,y) -(a)-> x' ;
"""
# The same with a negative premise on rule 1 that its candidate lacks.
NEG_SUBSET_SPEC = SUBSET_SPEC.replace("SUBSET", "NEGSUBSET").replace("y -(b)-> y'", "y -(b)/>")
SUBSET_MAPPING = {"x": "y", "x'": "y'", "y": "x", "y'": "x'"}
SUBSET_TAIL = (
    "  with: x <- y  x' <- y'  y <- x  y' <- x'\n"
    "  rule 2 mirrors rule 3:\n"
    "    y -(a)-> y'        |   x -(a)-> x'\n"
    "    ===                |   ===\n"
    "    f(x,y) -(a)-> y'   |   f(x,y) -(a)-> x'\n"
    "  with: x <- y  x' <- y'  y <- x  y' <- x'\n"
)
SUBSET_TEXT = (
    "f is commutative\n"
    "  rule 1 mirrors rule 2:\n"
    "    x -(a)-> x' , y -(b)-> y'   |   y -(a)-> y'\n"
    "    ===                         |   ===\n"
    "    f(x,y) -(a)-> x'            |   f(x,y) -(a)-> y'\n"
) + SUBSET_TAIL
NEG_SUBSET_TEXT = (
    "f is commutative\n"
    "  rule 1 mirrors rule 2:\n"
    "    x -(a)-> x' , y -(b)/>   |   y -(a)-> y'\n"
    "    ===                      |   ===\n"
    "    f(x,y) -(a)-> x'         |   f(x,y) -(a)-> y'\n"
) + SUBSET_TAIL


@pytest.mark.parametrize("text, report", [(SUBSET_SPEC, SUBSET_TEXT), (NEG_SUBSET_SPEC, NEG_SUBSET_TEXT)],
                         ids=["positive", "negative"])
def test_mirror_premises_land_among_the_candidates(capsys, tmp_path, text, report):
    """Rule 2 mirrors rule 1 though rule 1 has one premise more, positive or
    negative; the converse fails, so rule 2's first mirror is rule 3."""
    assert _witnesses(parse_spec(text), "f") == [(1, 2, SUBSET_MAPPING), (2, 3, SUBSET_MAPPING)]
    path = tmp_path / "subset.sos"
    path.write_text(text, encoding="utf-8")
    assert main(["comm", str(path)]) == 0
    assert capsys.readouterr().out == report
    assert main(["comm", "--json", str(path)]) == 0
    witness = lambda a, b: {"rule_a": a, "rule_b": b, "mapping": SUBSET_MAPPING}  # noqa: E731
    assert json.loads(capsys.readouterr().out) == {
        "proven": {"f": [witness(1, 2), witness(2, 3)]}, "assumed": [], "failed": {}}


# Rule 1 has two mirrors, rule 2 with a premise fewer and rule 3 with the
# same premises: the report shows the first, and pairs rule 3 with rule 1.
FIRST_OF_TWO = SUBSET_SPEC.replace("SUBSET", "FIRST").replace(
    "rule x -(a)-> x' ==> f(x,y) -(a)-> x' ;\n",
    "rule y -(a)-> y' , x -(b)-> x' ==> f(x,y) -(a)-> y' ;\nrule x -(a)-> x' ==> f(x,y) -(a)-> x' ;\n")


def test_mirror_is_the_first_candidate_that_mirrors():
    assert [w[:2] for w in _witnesses(parse_spec(FIRST_OF_TWO), "f")] == [(1, 2), (2, 4), (3, 1)]


def test_sequencing_has_no_mirror(linda, capsys, tmp_path):
    """No rule of `;` mirrors any: `comm` lists all three."""
    assert check_comm(linda).failed == {"_;_": [4, 5, 6]}
    path = tmp_path / "linda.sos"
    path.write_text(corpus_text("linda"), encoding="utf-8")
    assert main(["comm", str(path)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("_||_ is commutative\n") and "\nCould not prove commutativity for: _;_\n" in out
    assert [line for line in out.splitlines() if line.endswith("has no mirror:")] == [
        f"  rule {i} has no mirror:" for i in (4, 5, 6)]


# -- the fixed point -------------------------------------------------------------


@pytest.mark.parametrize("key", sorted(SORTS_RULES))
def test_mirror_keeps_label_sorts(capsys, tmp_path, key):
    """Negative premise labels, conclusion labels and targets that print
    alike but differ in a data sort do not mirror each other."""
    path = tmp_path / f"{key}.sos"
    path.write_text(sorts_spec_text(key), encoding="utf-8")
    assert main(["comm", str(path)]) == 1
    assert capsys.readouterr().out.startswith("Could not prove commutativity for: p\n")
    assert check_comm(parse_spec(sorts_spec_text(key, same_sort=True))).proven.keys() == {"p"}
    if key == "conc":
        spec = parse_spec(sorts_spec_text(key))
        p, q = (parse_term(t, spec) for t in ("p(a . 0, 0)", "p(0, a . 0)"))
        assert not bisimilar(spec, p, q)[0]


def test_check_comm_parallel(par):
    rep = check_comm(par)
    assert sorted(rep.proven) == ["_||_"]
    assert rep.assumed == [] and rep.failed == {}
    pairs = [(w.rule_a, w.rule_b) for w in rep.proven["_||_"]]
    assert pairs == [(1, 2), (3, 3)]


def test_check_comm_mixer(gspec):
    rep = check_comm(gspec)
    assert sorted(rep.proven) == ["g"]
    mappings = [dict(w.mapping) for w in rep.proven["g"]]
    assert {"k": "l", "l": "k"}.items() <= mappings[0].items()


def test_check_comm_linda(linda):
    rep = check_comm(linda)
    assert sorted(rep.proven) == ["_||_"]
    assert rep.failed == {"_;_": [4, 5, 6]}


def test_check_comm_combined(full):
    rep = check_comm(full)
    assert sorted(rep.proven) == ["_||_", "g"]
    assert rep.failed == {"_;_": [6, 7, 8]}


def test_declared_comm_is_assumed():
    spec = parse_spec(
        "spec DECL\nactions a ;\nop f : 2 [comm] ;\nvar x y x' : Proc ;\n"
        "var alpha : Action ;\n"
        "rule x -(alpha)-> x' ==> f(x, y) -(alpha)-> x' ;\n"
    )
    rep = check_comm(spec)
    assert rep.assumed == ["f"]
    assert "f" not in rep.proven and "f" not in rep.failed


# f's targets lean on h: with h symmetric both are proved, with h lopsided
# h fails in the first round and f in the second.  In "mutual" h leans back
# on f, which an unmirrored third rule sinks in the first round.
CASCADE_BASE = (
    "spec CASC\nactions a ;\nop f : 2 ;\nop h : 2 ;\n"
    "var x y x' y' : Proc ;\nvar alpha : Action ;\n"
    "rule x -(alpha)-> x' ==> f(x, y) -(alpha)-> h(x', y) ;\n"
    "rule y -(alpha)-> y' ==> f(x, y) -(alpha)-> h(x, y') ;\n"
)
CASCADE_SPECS = {
    "sym_h": CASCADE_BASE
    + "rule x -(alpha)-> x' ==> h(x, y) -(alpha)-> h(x', y) ;\n"
    + "rule y -(alpha)-> y' ==> h(x, y) -(alpha)-> h(x, y') ;\n",
    "lop_h": CASCADE_BASE + "rule x -(alpha)-> x' ==> h(x, y) -(alpha)-> h(x', y) ;\n",
    "mutual": CASCADE_BASE
    + "rule x -(a)-> x' ==> f(x, y) -(a)-> 0 ;\n"
    + "rule x -(alpha)-> x' ==> h(x, y) -(alpha)-> f(x', y) ;\n"
    + "rule y -(alpha)-> y' ==> h(x, y) -(alpha)-> f(x, y') ;\n",
}


def test_fixpoint_cascade():
    """An operator loses its claim when the op its targets lean on fails."""
    both = check_comm(parse_spec(CASCADE_SPECS["sym_h"]))
    assert sorted(both.proven) == ["f", "h"]
    broken = check_comm(parse_spec(CASCADE_SPECS["lop_h"]))
    assert sorted(broken.failed) == ["f", "h"]
    assert broken.proven == {}


def test_failed_rules_are_listed_under_the_final_set():
    # f's rules 1 and 2 mirror each other while h is known commutative; h
    # falls only after f, and then they no longer do.
    rep = check_comm(parse_spec(CASCADE_SPECS["mutual"]))
    assert rep.failed == {"f": [1, 2, 3], "h": [4, 5]}


def test_witness_mappings_are_independently_valid(full):
    """Replaying a witness mapping reproduces the mirrored rule."""
    rep = check_comm(full)
    th = full.theory
    comm = set(rep.proven) | set(rep.assumed) | {"+"}
    for op, witnesses in rep.proven.items():
        by_index = dict(full.rules_for(op))
        for w in witnesses:
            rule_a, rule_b = by_index[w.rule_a], by_index[w.rule_b]
            sub = {}
            for v, img in w.mapping:
                sort = full.variables.get(v, "Proc")
                sub[v] = Var(img) if sort == "Proc" else LVar(img, full.variables.get(img, sort))
            pos_a = {
                (
                    render_term(p.source),
                    render_label(canon_label(p.label, th)),
                    render_term(p.target),
                )
                for p in rule_a.positives
            }
            for p in rule_b.positives:
                img = (
                    render_term(substitute_term(p.source, sub)),
                    render_label(canon_label(substitute_label(p.label, sub), th)),
                    render_term(substitute_term(p.target, sub)),
                )
                assert img in pos_a, (op, w.rule_a, w.rule_b, img)
            neg_a = {
                (render_term(n.source), render_label(canon_label(n.label, th)))
                for n in rule_a.negatives
            }
            for n in rule_b.negatives:
                img = (
                    render_term(substitute_term(n.source, sub)),
                    render_label(canon_label(substitute_label(n.label, sub), th)),
                )
                assert img in neg_a
            la = render_label(canon_label(rule_a.conclusion.label, th))
            lb = render_label(
                canon_label(substitute_label(rule_b.conclusion.label, sub), th)
            )
            assert la == lb
            assert cc_canon(substitute_term(rule_b.conclusion.target, sub), comm, th) == \
                cc_canon(rule_a.conclusion.target, comm, th)


def test_alpha_renaming_does_not_change_verdicts():
    from sosforge import corpus_text

    original = check_comm(parse_spec(corpus_text("g")))
    renamed = check_comm(
        parse_spec(corpus_text("g").replace("k", "kk"))
    )
    assert sorted(original.proven) == sorted(renamed.proven)
    assert original.failed.keys() == renamed.failed.keys()


def test_proven_ops_commute_semantically(par):
    rng = random.Random(51)
    assert "_||_" in check_comm(par).proven
    for _ in range(40):
        p = random_bccsp_term(rng, 3)
        q = random_bccsp_term(rng, 3)
        ok, _ = bisimilar(par, App("_||_", (p, q)), App("_||_", (q, p)))
        assert ok, (render_term(p), render_term(q))


# -- reports and the derived spec ---------------------------------------------------


def test_comm_report_text_golden(par):
    assert comm_report_text(par, check_comm(par)) == (
        "_||_ is commutative\n"
        "  rule 1 mirrors rule 2:\n"
        "    x -(alpha)-> x'             |   y -(alpha)-> y'\n"
        "    ===                         |   ===\n"
        "    x || y -(alpha)-> x' || y   |   x || y -(alpha)-> x || y'\n"
        "  with: alpha <- alpha  x <- y  x' <- y'  y <- x  y' <- x'\n"
        "  rule 3 mirrors rule 3:\n"
        "    x -(|)-> x' , y -(|)-> y'   |   x -(|)-> x' , y -(|)-> y'\n"
        "    ===                         |   ===\n"
        "    x || y -(|)-> 0             |   x || y -(|)-> 0\n"
        "  with: x <- y  x' <- y'  y <- x  y' <- x'\n"
    )


def test_comm_report_text_renders_each_rule_once(par, linda, monkeypatch):
    """A rule that mirrors itself, or stands in two witnesses, is rendered once."""
    reports = [(spec, check_comm(spec)) for spec in (par, linda)]
    want = [comm_report_text(spec, report) for spec, report in reports]
    rendered = []
    premises_str = Rule.premises_str
    monkeypatch.setattr(Rule, "premises_str", lambda r: rendered.append(r) or premises_str(r))
    for (spec, report), text in zip(reports, want):
        rendered.clear()
        assert comm_report_text(spec, report) == text
        shown = {i for ws in report.proven.values() for w in ws for i in (w.rule_a, w.rule_b)}
        shown |= {i for idxs in report.failed.values() for i in idxs}
        assert sorted(map(id, rendered)) == sorted(id(spec.rules[i - 1]) for i in shown)


def test_comm_report_text_failures(linda):
    text = comm_report_text(linda, check_comm(linda))
    assert "Could not prove commutativity for: _;_" in text
    assert "rule 4 has no mirror:" in text
    assert "rule 5 has no mirror:" in text
    assert "rule 6 has no mirror:" in text


def test_comm_report_json(linda):
    js = comm_report_json(check_comm(linda))
    assert js["failed"] == {"_;_": [4, 5, 6]}
    w = js["proven"]["_||_"][0]
    assert w["rule_a"] == 7 and w["rule_b"] == 8
    assert w["mapping"]["x"] == "y"


def test_formats_spec_adds_declared_attribute(par):
    derived = formats_spec(par, check_comm(par))
    assert derived.proc_ops["_||_"].comm
    assert not par.proc_ops["_||_"].comm  # the input is untouched
    text = render_spec(derived)
    assert "[comm]" in text
    again = check_comm(parse_spec(text))
    assert "_||_" in again.assumed


# -- differential check against the oracle's fixed point --------------------------------

def _check_against_oracle(spec) -> collections.Counter:
    """check_comm's report against `oracle_report`, which shares no code
    with the search: the same fixed point, first mirrors, pairs and failed
    rules, and each mapping one of the oracle's for its pair.  Counts the
    pairs the oracle was asked about by how many mappings it found."""
    want, asked = oracle_report(spec)
    assert differences(check_comm(spec), want) == []
    return collections.Counter(min(len(found), 2) for found in asked.values())


def removal_rounds(spec):
    """How many rounds drop an operator before the known set is stable."""
    binaries = [op for op in spec.proc_ops.values() if op.arity == 2]
    comm_set = {CHOICE_OP} | {op.name for op in binaries}
    rounds = 0
    while True:
        failing = {
            op.name for op in binaries
            if op.name in comm_set and not op.comm and not all(
                any(oracle_mirrors(spec, ra, rb, comm_set) for _, rb in spec.rules_for(op.name))
                for _, ra in spec.rules_for(op.name)
            )
        }
        if not failing:
            return rounds
        comm_set -= failing
        rounds += 1


@pytest.mark.parametrize("name", BUNDLED)
def test_check_comm_matches_reference_on_corpus(name):
    """In another rule order, with a rule repeated, each rule's first
    mirror, and so each pair and mapping reported, may change."""
    assert mirror_oracle.sweep(range(1, 3), 0, (name,)) == ([], 0)


@pytest.mark.parametrize("key", sorted(CASCADE_SPECS))
def test_check_comm_matches_reference_on_cascade(key):
    spec = parse_spec(CASCADE_SPECS[key])
    _check_against_oracle(spec)
    assert removal_rounds(spec) == {"sym_h": 0, "lop_h": 2, "mutual": 2}[key]


def _mirror_units(spec):
    """Each binary operator's rules, in the mirror pairs and unmirrored single
    rules that the spec's own report finds."""
    rep = oracle_report(spec)[0]
    groups = [[(a, b) for a, b, _ in ws] for ws in rep.proven.values()]
    groups += [[(i,) for i in idxs] for idxs in rep.failed.values()]
    return [[tuple(spec.rules[i - 1] for i in dict.fromkeys(u)) for u in g] for g in groups]


# The binary-operator rules of three bundled specs; full.sos declares every
# symbol and variable they use.
FULL_SPEC = load_corpus("full")
UNIT_GROUPS = [g for name in ("full", "g", "bccsp_par") for g in _mirror_units(load_corpus(name))]
POOL_OPS = sorted({g[0][0].conclusion.source.op for g in UNIT_GROUPS})


def _rename_ops(t, rename):
    if isinstance(t, App):
        return App(rename.get(t.op, t.op), tuple(_rename_ops(a, rename) for a in t.args))
    if isinstance(t, Choice):
        return Choice(_rename_ops(t.left, rename), _rename_ops(t.right, rename))
    return t


@st.composite
def mixed_specs(draw):
    """A spec over ops f0, f1, ..., each defined by some mirror units of one
    operator, less at most one rule.  A drawn map per op renames the operators
    in its conclusion targets to other ops, so an op's proof can lean on
    another's and removals cascade."""
    ops = [f"f{i}" for i in range(draw(st.integers(2, 5)))]
    rules = []
    for new in ops:
        group = draw(st.sampled_from(UNIT_GROUPS))
        picked = draw(st.sets(st.integers(0, len(group) - 1), min_size=1))
        own = [r for i in sorted(picked) for r in group[i]]
        dropped = draw(st.sets(st.integers(0, len(own) - 1), max_size=1))
        others = st.sampled_from([op for op in ops if op != new])
        rename = {op: draw(others) for op in POOL_OPS}
        for rule in (r for i, r in enumerate(own) if i not in dropped):
            c = rule.conclusion
            source = App(new, c.source.args)
            target = _rename_ops(c.target, rename)
            rules.append(replace(rule, conclusion=replace(c, source=source, target=target)))
    declared = draw(st.sets(st.sampled_from(ops), max_size=1))
    return replace(
        FULL_SPEC,
        proc_ops={op: ProcOp(op, 2, op in declared) for op in ops},
        rules=tuple(draw(st.permutations(rules))),
    )


def test_drawn_specs_reach_cascades():
    found = find(
        mixed_specs(),
        lambda spec: removal_rounds(spec) >= 2,
        settings=settings(max_examples=2000, database=None, phases=[Phase.generate]),
    )
    assert removal_rounds(found) >= 2


# -- against an oracle that enumerates renamings ----------------------------------------

# Rules that no renaming mirrors, each for one reason: a conclusion label
# that names the other variable, or another constant; data arguments of a
# known-commutative operator in swapped order (only process arguments may
# swap); sources of two sorts, which a mirror would have to swap.
NO_MIRROR_HEADER = (
    "actions a b ; datasort Data [assoc comm id: empty] ; dataconst d : Data ; op f : 2 ; op put : 2 ; "
    "var x y x' y' : Proc ; var k l : Action ; var mu xD xD' : Data ;\n"
)
NO_MIRROR_RULES = {
    "label_names": ("x -(k)-> x' , y -(l)-> y' ==> f(x,y) -(k)-> x' + y'",),
    "label_constants": ("x -(a)-> x' ==> f(x,y) -(a)-> x'", "y -(a)-> y' ==> f(x,y) -(b)-> y'"),
    "data_arguments": ("x -(< xD, -, xD' >)-> x' ==> f(x,y) -(a)-> put(xD, xD')",
                       "y -(< xD, -, xD' >)-> y' ==> f(x,y) -(a)-> put(xD', xD)"),
    "source_sorts": ("==> put(mu, x) -(a)-> 0",),
}


def no_mirror_spec_text(key):
    return f"spec {key.upper()} {NO_MIRROR_HEADER}" + "".join(f"rule {r} ;\n" for r in NO_MIRROR_RULES[key])


@pytest.mark.parametrize("key", sorted(NO_MIRROR_RULES))
def test_rules_without_a_mirror(key):
    report = check_comm(parse_spec(no_mirror_spec_text(key)))
    op = "put" if key == "source_sorts" else "f"
    assert report.failed == {op: list(range(1, len(NO_MIRROR_RULES[key]) + 1))}


ORACLE_SPECS = {
    **{name: corpus_text(name) for name in BUNDLED},
    **{f"no_mirror_{key}": no_mirror_spec_text(key) for key in NO_MIRROR_RULES},
    "two": TWO_MIRRORS, "segment": SEGMENT_SPEC, "subset": SUBSET_SPEC, "neg_subset": NEG_SUBSET_SPEC,
    "first_of_two": FIRST_OF_TWO, "injective": INJECTIVE_SPEC,
    **{f"sorts_{key}": sorts_spec_text(key) for key in SORTS_RULES},
    **{f"cascade_{key}": text for key, text in CASCADE_SPECS.items()},
}


@pytest.mark.parametrize("name", sorted(ORACLE_SPECS))
def test_mirror_search_agrees_with_the_oracle(name):
    _check_against_oracle(parse_spec(ORACLE_SPECS[name]))


def test_oracle_sees_every_kind_of_pair():
    """The specs above give the oracle pairs with no mirror, with one and
    with several mappings (TWO_MIRRORS has two)."""
    seen = sum((_check_against_oracle(parse_spec(text)) for text in ORACLE_SPECS.values()),
               collections.Counter())
    assert all(seen[n] >= 5 for n in (0, 1)) and seen[2] >= 1
    spec = parse_spec(TWO_MIRRORS)
    rule = spec.rules[0]
    assert len(oracle_mirrors(spec, rule, rule, {"f", "+"})) == 2


@settings(max_examples=200, deadline=None)
@given(mixed_specs())
def test_mirror_search_agrees_with_the_oracle_on_drawn_specs(spec):
    _check_against_oracle(spec)


# -- the mirror search's cost and full output -------------------------------------


def test_rule_variables_walked_once(monkeypatch):
    """The format check and the mirror search walk each premise label,
    conclusion label and conclusion target once, however often the search
    runs; the check runs once per spec, and firing rules, which compiles
    their plans, walks nothing again."""
    spec = parse_spec(front_spec_text(9, 10))
    terms = [parse_term(f"{op.name}(d)" if op.arity == 1 else f"{op.name}(a . 0 + | . 0, b . | . 0)", spec)
             for op in spec.proc_ops.values()]
    walks = collections.Counter()
    free_vars = sosforge.terms.free_vars
    check_rules = sosforge.validator.check_rules

    def counted(t):
        walks["free_vars"] += 1
        return free_vars(t)

    def counted_pass(s):
        walks["pass"] += 1
        return check_rules(s)

    for name in ("terms", "tss", "validator", "commform", "parser", "simulator", "axioms"):
        module = getattr(sosforge, name)
        if hasattr(module, "free_vars"):
            monkeypatch.setattr(module, "free_vars", counted)
    monkeypatch.setattr(sosforge.validator, "check_rules", counted_pass)
    parts = sum(len(r.positives) + len(r.negatives) + 2 for r in spec.rules)
    assert (len(spec.rules), parts) == (130, 430)
    spec.check()
    check_comm(spec)
    assert walks["free_vars"] <= parts
    once = walks["free_vars"]
    check_comm(spec)
    assert sum(len(step(spec, t)) for t in terms) > 0
    normalize(spec, terms[-1])
    for _ in range(3):
        assert check_all(spec) == []
        spec.check()
        for op in spec.proc_ops:
            spec.rules_for(op)
    assert walks == {"free_vars": once, "pass": 1}


# `comm --json` of each bundled spec and of the first spec_front spec of seed 9
# (130 rules), mappings included, as recorded before the mirror search was
# reworked.
COMM_JSON = json.loads((Path(__file__).parent / "golden" / "comm_json.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(COMM_JSON))
def test_comm_json_is_pinned(capsys, tmp_path, name):
    text = front_spec_text(9, 10) if name == "front10" else corpus_text(name)
    path = tmp_path / f"{name}.sos"
    path.write_text(text, encoding="utf-8")
    code = main(["comm", "--json", str(path)])
    assert (code, capsys.readouterr().out) == (COMM_JSON[name]["exit"], COMM_JSON[name]["stdout"])
