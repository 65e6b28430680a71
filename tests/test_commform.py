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
    CommReport,
    MirrorWitness,
    cc_equal,
    check_comm,
    comm_report_json,
    comm_report_text,
    find_mirror,
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
from mirror_oracle import oracle_mirrors
from termgen import front_spec_text, random_bccsp_term

# -- equality up to commutative swaps ------------------------------------------


def test_cc_equal_swaps_only_known_ops(par):
    x_y = parse_term("x || y", par, closed=False)
    y_x = parse_term("y || x", par, closed=False)
    assert cc_equal(x_y, y_x, {"_||_", "+"}, par.theory)
    assert not cc_equal(x_y, y_x, {"+"}, par.theory)


def test_cc_equal_sequencing_is_ordered(linda):
    a = parse_term("x' ; y'", linda, closed=False)
    b = parse_term("y' ; x'", linda, closed=False)
    assert not cc_equal(a, b, {"_||_", "+"}, linda.theory)


def test_cc_equal_choice_swap_no_assoc(par):
    th = par.theory
    swapped = cc_equal(
        Choice(Var("x"), Var("y")), Choice(Var("y"), Var("x")), {"+"}, th
    )
    assert swapped
    left = Choice(Choice(Var("x"), Var("y")), Var("z"))
    right = Choice(Var("x"), Choice(Var("y"), Var("z")))
    assert not cc_equal(left, right, {"+"}, th)


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


def test_cc_equal_keeps_label_sorts():
    spec = parse_spec(sorts_spec_text("tgt"))
    ea, eb = (parse_term(f"< a1, -, {e} > . x", spec, closed=False) for e in ("ea", "eb"))
    assert not cc_equal(ea, eb, {"+"}, spec.theory)
    assert cc_equal(ea, parse_term("< a1, -, ea > . x", spec, closed=False), {"+"}, spec.theory)
    assert not cc_equal(Choice(ea, Var("y")), Choice(Var("y"), eb), {"+"}, spec.theory)
    assert cc_equal(Choice(ea, eb), Choice(eb, ea), {"+"}, spec.theory)


# -- mirror search ----------------------------------------------------------------


def test_interleaving_rules_mirror_each_other(par):
    comm = {"_||_", "+"}
    got = find_mirror(par, par.rules[0], par.rules[1], comm)
    assert got == {"alpha": "alpha", "x": "y", "x'": "y'", "y": "x", "y'": "x'"}
    # an interleaving rule is not its own mirror
    assert find_mirror(par, par.rules[0], par.rules[0], comm) is None


def test_sync_rule_is_self_mirror(par):
    got = find_mirror(par, par.rules[2], par.rules[2], {"_||_", "+"})
    assert got == {"x": "y", "x'": "y'", "y": "x", "y'": "x'"}


def test_mixer_mirror_swaps_labels(gspec):
    got = find_mirror(gspec, gspec.rules[0], gspec.rules[0], {"g", "+"})
    assert got == {"k": "l", "l": "k", "x": "y", "x'": "y'", "y": "x", "y'": "x'"}


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
    spec = parse_spec(TWO_MIRRORS)
    rule = spec.rules[0]
    first = {"k": "k", "l": "l", "x": "y", "x1": "y1", "x2": "y2", "y": "x", "y1": "x1", "y2": "x2"}
    assert find_mirror(spec, rule, rule, {"f", "+"}) == first
    path = tmp_path / "two.sos"
    path.write_text(TWO_MIRRORS, encoding="utf-8")
    assert main(["comm", str(path)]) == 0
    assert "  with: k <- k  l <- l  x <- y  x1 <- y1  x2 <- y2  y <- x  y1 <- x1  y2 <- x2\n" \
        in capsys.readouterr().out


def test_mirror_mapping_is_injective():
    # mirroring rule 2 onto rule 1 would need both alpha and beta to map to alpha
    spec = parse_spec(
        "spec INJ\nactions a ;\nop f : 2 ;\nvar x y x' y' : Proc ;\n"
        "var alpha beta : Action ;\n"
        "rule x -(alpha)-> x' , y -(alpha)-> y' ==> f(x,y) -(alpha)-> f(x',y') ;\n"
        "rule x -(alpha)-> x' , y -(beta)-> y' ==> f(x,y) -(alpha)-> f(x',y') ;\n"
    )
    assert find_mirror(spec, spec.rules[0], spec.rules[1], {"f", "+"}) is None


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
    for a, b in ((0, 1), (1, 0)):
        assert find_mirror(spec, spec.rules[a], spec.rules[b], {"f", "+"}) is None
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
    spec = parse_spec(text)
    r1, r2, r3 = spec.rules
    comm = {"f", "+"}
    assert find_mirror(spec, r1, r2, comm) == SUBSET_MAPPING
    assert find_mirror(spec, r2, r1, comm) is None
    assert find_mirror(spec, r2, r3, comm) == SUBSET_MAPPING
    path = tmp_path / "subset.sos"
    path.write_text(text, encoding="utf-8")
    assert main(["comm", str(path)]) == 0
    assert capsys.readouterr().out == report
    assert main(["comm", "--json", str(path)]) == 0
    witness = lambda a, b: {"rule_a": a, "rule_b": b, "mapping": SUBSET_MAPPING}  # noqa: E731
    assert json.loads(capsys.readouterr().out) == {
        "proven": {"f": [witness(1, 2), witness(2, 3)]}, "assumed": [], "failed": {}}


def test_sequencing_has_no_mirror(linda):
    comm = {"_||_", "_;_", "+"}
    seq_rules = [r for i, r in linda.rules_for("_;_")]
    for a in seq_rules:
        for b in seq_rules:
            assert find_mirror(linda, a, b, comm) is None


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
            assert cc_equal(
                substitute_term(rule_b.conclusion.target, sub),
                rule_a.conclusion.target,
                comm,
                th,
            )


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


# -- differential check against the one-at-a-time fixed point -------------------------

CORPUS = ("bccsp", "bccsp_par", "g", "linda", "recursion", "full")


def reference_check_comm(spec):
    """The fixed point as first written: one operator discarded at a time, and
    a report that searches for every mirror again under the final set."""
    binaries = [op for op in spec.proc_ops.values() if op.arity == 2]
    declared = {op.name for op in binaries if op.comm}
    comm_set = {CHOICE_OP} | {op.name for op in binaries}

    def rule_has_mirror(name, rule):
        return any(find_mirror(spec, rule, rb, comm_set) is not None for _, rb in spec.rules_for(name))

    changed = True
    while changed:
        changed = False
        for op in binaries:
            name = op.name
            if name not in comm_set or name in declared:
                continue
            if any(not rule_has_mirror(name, r) for _, r in spec.rules_for(name)):
                comm_set.discard(name)
                changed = True

    proven, failed = {}, {}
    for op in binaries:
        name = op.name
        if name in declared:
            continue
        if name in comm_set:
            witnesses = []
            covered = set()
            for ia, ra in spec.rules_for(name):
                for ib, rb in spec.rules_for(name):
                    m = find_mirror(spec, ra, rb, comm_set)
                    if m is None:
                        continue
                    pair = (min(ia, ib), max(ia, ib))
                    if pair not in covered:
                        covered.add(pair)
                        witnesses.append(
                            MirrorWitness(name, ia, ib, tuple(sorted(m.items())))
                        )
                    break
            proven[name] = witnesses
        else:
            failed[name] = [
                ia for ia, ra in spec.rules_for(name) if not rule_has_mirror(name, ra)
            ]
    return CommReport(proven, sorted(declared), failed)


def removal_rounds(spec):
    """How many rounds drop an operator before the known set is stable."""
    binaries = [op for op in spec.proc_ops.values() if op.arity == 2]
    comm_set = {CHOICE_OP} | {op.name for op in binaries}
    rounds = 0
    while True:
        failing = {
            op.name for op in binaries
            if op.name in comm_set and not op.comm and not all(
                any(find_mirror(spec, ra, rb, comm_set) is not None for _, rb in spec.rules_for(op.name))
                for _, ra in spec.rules_for(op.name)
            )
        }
        if not failing:
            return rounds
        comm_set -= failing
        rounds += 1


@pytest.mark.parametrize("name", CORPUS)
def test_check_comm_matches_reference_on_corpus(name):
    spec = load_corpus(name)
    assert check_comm(spec) == reference_check_comm(spec)


@pytest.mark.parametrize("key", sorted(CASCADE_SPECS))
def test_check_comm_matches_reference_on_cascade(key):
    spec = parse_spec(CASCADE_SPECS[key])
    assert check_comm(spec) == reference_check_comm(spec)
    assert removal_rounds(spec) == {"sym_h": 0, "lop_h": 2, "mutual": 2}[key]


def _mirror_units(spec):
    """Each binary operator's rules, in the mirror pairs and unmirrored single
    rules that the spec's own report finds."""
    rep = reference_check_comm(spec)
    groups = [[(w.rule_a, w.rule_b) for w in ws] for ws in rep.proven.values()]
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


@settings(max_examples=200, deadline=None)
@given(mixed_specs())
def test_check_comm_matches_reference_on_drawn_specs(spec):
    assert check_comm(spec) == reference_check_comm(spec)


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
    **{name: corpus_text(name) for name in CORPUS},
    **{f"no_mirror_{key}": no_mirror_spec_text(key) for key in NO_MIRROR_RULES},
    "two": TWO_MIRRORS, "segment": SEGMENT_SPEC, "subset": SUBSET_SPEC, "neg_subset": NEG_SUBSET_SPEC,
    **{f"sorts_{key}": sorts_spec_text(key) for key in SORTS_RULES},
    **{f"cascade_{key}": text for key, text in CASCADE_SPECS.items()},
}


def _check_against_oracle(spec) -> collections.Counter:
    """find_mirror against `oracle_mirrors` on every ordered pair of rules of
    each binary operator, with every binary operator known commutative and
    with none: both find nothing, or find_mirror's mapping is one the oracle
    finds.  Counts the pairs by how many mappings the oracle finds."""
    binaries = [op.name for op in spec.proc_ops.values() if op.arity == 2]
    seen = collections.Counter()
    for comm in ({CHOICE_OP, *binaries}, {CHOICE_OP}):
        for name in binaries:
            for ia, ra in spec.rules_for(name):
                for ib, rb in spec.rules_for(name):
                    want = oracle_mirrors(spec, ra, rb, comm)
                    got = find_mirror(spec, ra, rb, comm)
                    assert (got is None) == (not want), (name, ia, ib, sorted(comm), got, want)
                    assert got is None or got in want, (name, ia, ib, sorted(comm), got, want)
                    seen[min(len(want), 2)] += 1
    return seen


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


@settings(max_examples=100, deadline=None)
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
    for op in spec.proc_ops.values():
        if op.arity == 2:
            for _, ra in spec.rules_for(op.name):
                for _, rb in spec.rules_for(op.name):
                    find_mirror(spec, ra, rb, {CHOICE_OP})
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
