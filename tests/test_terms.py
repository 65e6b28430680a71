"""Term and label algebra: rendering, canonical forms, matching."""

import dataclasses
import itertools
import random

import pytest

from sosforge import parse_label, parse_spec, parse_term, terms
from sosforge.errors import NonBccspTerm, OpenTerm, SortError
from sosforge.terms import (
    EMPTY_THEORY,
    NIL,
    ActConst,
    App,
    Choice,
    DataConst,
    DefConst,
    LVar,
    MSet,
    Prefix,
    Substitution,
    Var,
    canon_label,
    canon_term,
    free_vars,
    match,
    render_label,
    render_term,
    sort_accepts,
    substitute_label,
    substitute_term,
    summands,
)
from termgen import is_canonical, mset, random_full_term, random_label, random_mset

# -- rendering ---------------------------------------------------------------


def test_render_pins(par):
    cases = [
        "0",
        "a . 0",
        "a . b . 0 + b . a . 0",
        "| . 0 || 0",
        "| . 0 + b . 0 || c . 0 + | . 0",
        "a . (b . 0 + c . 0)",
        "(a . 0 + b . 0) + c . 0",
        "a . 0 || b . 0 || c . 0",
        "a . 0 || (b . 0 || c . 0)",
    ]
    for text in cases:
        assert render_term(parse_term(text, par)) == text, text


def test_render_label_pins(linda, full):
    assert render_label(parse_label("{d, u}", linda)) == "{d, u}"
    assert render_label(parse_label("{}", linda)) == "{}"
    assert (
        render_label(parse_label("< {d, u}, - , {d}>", linda)) == "< {d, u},-,{d} >"
    )
    assert render_label(parse_label("mix(a, b)", full)) == "mix(a,b)"


def test_render_roundtrip_random(full):
    rng = random.Random(11)
    for _ in range(300):
        t = random_full_term(rng, 4)
        text = render_term(t)
        assert render_term(parse_term(text, full)) == text


# -- canonical labels ---------------------------------------------------------


def test_canon_label_identity_and_sort(linda):
    th = linda.theory
    # the declared identity element collapses away and elements sort
    assert render_label(canon_label(parse_label("{u, empty, d}", linda), th)) == "{d, u}"
    assert render_label(canon_label(parse_label("empty", linda), th)) == "{}"
    # a lone constant in a triple slot reads as a singleton multiset
    got = canon_label(parse_label("< d, -, {u, d} >", linda), th)
    assert render_label(got) == "< {d},-,{d, u} >"


def test_canon_label_mix_commutes(full):
    th = full.theory
    ab = canon_label(parse_label("mix(b, a)", full), th)
    ba = canon_label(parse_label("mix(a, b)", full), th)
    assert render_label(ab) == render_label(ba)


def uncached(x):
    """A structurally equal copy of a node with no cached render or canonical form."""
    if dataclasses.is_dataclass(x):
        return type(x)(**{f.name: uncached(getattr(x, f.name)) for f in dataclasses.fields(x)})
    if isinstance(x, tuple):
        return tuple(uncached(e) for e in x)
    return x


def test_canon_label_idempotent_random(full):
    rng = random.Random(12)
    th = full.theory
    for _ in range(500):
        l = random_label(rng)
        once = canon_label(l, th)
        assert canon_label(uncached(once), th) is once
        assert canon_label(once, th) is once


def test_canon_cache_is_per_theory(linda):
    """One node canonicalized under two theories, in either order, gets each theory's form."""
    plain = (EMPTY_THEORY, "< {d, empty, u},-,{d} >")
    store = (linda.theory, "< {d, u},-,{d} >")
    for order in ([plain, store], [store, plain]):
        label = parse_label("< {u, empty, d}, -, d >", linda)
        term = Prefix(label, NIL)
        for th, want in order + order:
            assert render_label(canon_label(label, th)) == want
            assert render_term(canon_term(term, th)) == want + " . 0"


def test_canonical_nodes_are_shared_per_theory(linda):
    """Equal canonical forms are one node per theory, whatever the shape or
    the theory a node was last canonicalized under; `{}` of two sorts is
    two nodes."""
    th = linda.theory
    p = parse_term("< u, -, empty > . 0 + ask(d) + 0", linda)
    q = parse_term("ask(d) + < {u}, -, {} > . (0 + 0)", linda)
    c = canon_term(p, th)
    assert canon_term(q, th) is c and is_canonical(c, th)
    assert canon_term(c, th) is c and canon_term(uncached(c), th) is c
    plain = canon_term(c, EMPTY_THEORY)
    assert plain is not c and plain == c and canon_term(q, EMPTY_THEORY) is plain
    assert canon_term(c, th) is c and is_canonical(c, th)
    assert canon_term(NIL, th) is canon_term(parse_term("0 + 0", linda), th)
    assert NIL._cth is None
    a, b = (MSet((), sort) for sort in ("A", "B"))
    assert canon_label(a, th) is not canon_label(b, th)
    assert canon_label(a, th) is canon_label(MSet((), "A"), th)


# -- canonical terms ----------------------------------------------------------


def test_canon_term_choice_aci(par):
    th = par.theory
    t = parse_term("b . 0 + a . 0 + 0 + a . 0", par)
    assert render_term(canon_term(t, th)) == "a . 0 + b . 0"
    left = parse_term("(a . 0 + b . 0) + c . 0", par)
    right = parse_term("a . 0 + (b . 0 + c . 0)", par)
    assert render_term(canon_term(left, th)) == render_term(canon_term(right, th))


def test_canon_term_zero(par):
    assert render_term(canon_term(parse_term("0 + 0", par), par.theory)) == "0"


def test_canon_idempotent_random(full):
    rng = random.Random(13)
    th = full.theory
    for _ in range(1000):
        t = random_full_term(rng, 6)
        once = canon_term(t, th)
        assert canon_term(uncached(once), th) is once
        assert canon_term(once, th) is once


def test_canon_invariant_under_choice_shuffle(full):
    rng = random.Random(14)
    th = full.theory

    def shuffle(t):
        if isinstance(t, Prefix):
            return Prefix(t.label, shuffle(t.body))
        if isinstance(t, Choice):
            a, b = shuffle(t.left), shuffle(t.right)
            if rng.random() < 0.5:
                a, b = b, a
            if rng.random() < 0.3:
                return Choice(a, Choice(b, a))
            return Choice(a, b)
        if isinstance(t, App):
            return App(
                t.op,
                tuple(x if not isinstance(x, (Prefix, Choice, App)) else shuffle(x)
                      for x in t.args),
            )
        return t

    for _ in range(300):
        t = random_full_term(rng, 5)
        assert canon_term(t, th) is canon_term(shuffle(t), th)


# -- summands -----------------------------------------------------------------


def test_summands_pins(par):
    th = par.theory
    got = summands(parse_term("b . 0 + a . c . 0", par), th)
    assert [(render_label(l), render_term(t)) for l, t in got] == [
        ("a", "c . 0"),
        ("b", "0"),
    ]
    assert summands(NIL, th) == []


def test_summands_rejects_non_fragment(par):
    with pytest.raises(OpenTerm):
        summands(Var("x"), par.theory)
    with pytest.raises(NonBccspTerm):
        summands(parse_term("a . 0 || 0", par), par.theory)


def test_summands_takes_any_continuation(par):
    """A head normal form is a choice of prefixes; only that spine is checked."""
    got = summands(parse_term("a . (b . 0 || c . 0)", par), par.theory)
    assert [(render_label(l), render_term(t)) for l, t in got] == [("a", "b . 0 || c . 0")]


def test_summands_reports_spine_atoms_in_order(par):
    par_app = parse_term("a . 0 || 0", par)
    with pytest.raises(OpenTerm, match="^free variable x$"):
        summands(Choice(Var("x"), par_app), par.theory)
    # an operator is reported before a recursion constant, wherever each stands
    with pytest.raises(NonBccspTerm, match="^operator _\\|\\|_ outside the base fragment$"):
        summands(Choice(DefConst("X"), par_app), par.theory)
    with pytest.raises(NonBccspTerm, match="^recursion constant X is not a head normal form$"):
        summands(Choice(DefConst("X"), parse_term("a . (a . 0 || 0)", par)), par.theory)


# -- substitution -------------------------------------------------------------


def test_substitute_label_sort_check():
    sub = Substitution()
    sub.labels["xD"] = ActConst("a")
    with pytest.raises(SortError):
        substitute_label(LVar("xD", "Data"), sub)


def test_substitute_term_replaces_vars(par):
    sub = Substitution()
    sub.terms["x"] = parse_term("a . 0", par)
    sub.labels["alpha"] = ActConst("b")
    t = Prefix(LVar("alpha", "Action"), Choice(Var("x"), NIL))
    assert render_term(substitute_term(t, sub)) == "b . (a . 0 + 0)"


def test_free_vars_and_closed(par):
    t = App("_||_", (Var("x"), Prefix(LVar("alpha", "Action"), NIL)))
    procs, labels = free_vars(t)
    assert procs == {"x"} and labels == {"alpha"}
    assert free_vars(parse_term("a . 0 || b . 0", par)) == (set(), set())


def test_sort_accepts():
    assert sort_accepts("Label", "Action")
    assert sort_accepts("Label", "Predicate")
    assert sort_accepts("Label", "Label")
    assert not sort_accepts("Action", "Predicate")
    assert sort_accepts("Data", "Data")
    assert not sort_accepts("Data", "Action")


# -- matching -----------------------------------------------------------------


def _rule_labels(spec):
    """Every premise and conclusion label of the spec's rules."""
    return [p.label for r in spec.rules for p in r.positives + r.negatives + (r.conclusion,)]


def _acu_key(sub, spec, th):
    """A substitution's key modulo ACU: a data value `d` and `{d}` are one multiset."""
    out = []
    for name, value in sorted(sub.labels.items()):
        if spec.variables[name] == "Data":
            value = MSet((value,), "Data")
        out.append((name, render_label(canon_label(value, th))))
    return tuple(out)


def test_match_soundness_on_rule_labels(full):
    """Every rule label matches a random closed instance of itself."""
    rng = random.Random(15)
    th = full.theory
    for label in _rule_labels(full):
        for _ in range(20):
            sub = Substitution()
            for name in sorted(free_vars(label)[1]):
                sort = full.variables[name]
                if sort == "Data":
                    sub.labels[name] = mset(["d", "u"][: rng.randint(0, 2)])
                elif sort == "Action":
                    sub.labels[name] = ActConst(rng.choice("abc"))
                else:
                    sub.labels[name] = random_label(rng)
            instance = substitute_label(label, sub)
            got = match(label, instance, th)
            for s in got:
                image = canon_label(substitute_label(label, s), th)
                assert render_label(image) == render_label(canon_label(instance, th))
            keys = {_acu_key(s, full, th) for s in got}
            assert _acu_key(sub, full, th) in keys, render_label(instance)


def _share_value(names):
    if len(names) == 1:
        return names[0]
    return "{" + ", ".join(sorted(names)) + "}"


def _brute_shares(pat_elems, subj_elems):
    """Every binding that gives each constant one equal element and each variable a share."""
    found = set()
    for owner in itertools.product(range(len(pat_elems)), repeat=len(subj_elems)):
        parts = [[s.name for s, o in zip(subj_elems, owner) if o == i]
                 for i in range(len(pat_elems))]
        bind: dict[str, str] = {}
        ok = True
        for p, part in zip(pat_elems, parts):
            if isinstance(p, LVar):
                value = _share_value(part)
                ok = bind.setdefault(p.name, value) == value
            else:
                ok = part == [p.name]
            if not ok:
                break
        if ok:
            found.add(frozenset(bind.items()))
    return found


def test_match_mset_completeness_bruteforce(linda):
    """Multiset matching is sound and agrees with brute force over every share."""
    rng = random.Random(16)
    th = linda.theory
    names = ("d", "u", "v")
    sizes = set()
    for _ in range(300):
        subj_elems = [DataConst(rng.choice(names), "Data") for _ in range(rng.randint(0, 4))]
        pat_elems = []
        for _ in range(rng.randint(0, 4)):
            if rng.random() < 0.5:
                pat_elems.append(LVar(rng.choice(("xD", "xD'", "yD")), "Data"))
            else:
                pat_elems.append(DataConst(rng.choice(names), "Data"))
        pat = MSet(tuple(pat_elems), "Data")
        subj = MSet(tuple(subj_elems), "Data")
        got = set()
        for s in match(pat, subj, th):
            image = canon_label(substitute_label(pat, s), th)
            assert render_label(image) == render_label(canon_label(subj, th))
            got.add(frozenset((k, render_label(v)) for k, v in s.labels.items()))
            sizes.update(len(v.elements) if isinstance(v, MSet) else 1
                         for v in s.labels.values())
        assert got == _brute_shares(pat_elems, subj_elems), (
            render_label(pat), render_label(subj))
    assert {0, 1, 2, 3} <= sizes  # empty, single and larger shares all occur


def test_match_mset_shares(linda):
    th = linda.theory

    def shares(pat, subj):
        return [str(s) for s in match(parse_label(pat, linda), parse_label(subj, linda), th)]

    assert shares("{d, xD}", "{d}") == ["{xD <- {}}"]
    assert shares("{d, xD}", "{d, u}") == ["{xD <- u}"]
    assert shares("{d, xD}", "{d, u, v}") == ["{xD <- {u, v}}"]
    assert shares("{xD}", "{}") == ["{xD <- {}}"]
    assert shares("{xD, xD}", "{u, u, v, v}") == ["{xD <- {u, v}}"]
    assert shares("{xD, xD}", "{u, v}") == []
    assert shares("{xD, xD'}", "{u, v}") == [
        "{xD <- {}, xD' <- {u, v}}",
        "{xD <- u, xD' <- v}",
        "{xD <- v, xD' <- u}",
        "{xD <- {u, v}, xD' <- {}}",
    ]
    assert shares("< {xD}, -, {d, xD} >", "< {u, v},-,{d, u, v} >") == ["{xD <- {u, v}}"]
    assert shares("{d, d, xD}", "{d, u}") == []
    # each share is tried once, though u occurs twice: {}, u and {u, u}
    pat, subj = (canon_label(parse_label(t, linda), th) for t in ("{xD, xD'}", "{u, u}"))
    assert len(list(terms._match_label(pat, subj, Substitution(), th, terms._bind_label))) == 3


def _match_keying_every_result(pattern, subject, th):
    """`match` as a reference: a result is dropped when an earlier one binds
    every variable to an equal value (value equality tells sorts apart)."""
    pat, subj = canon_label(pattern, th), canon_label(subject, th)
    results = []
    for sub in terms._match_label(pat, subj, Substitution(), th, terms._bind_label):
        if sub not in results:
            results.append(sub)
    return results


def _check_same_matches(pattern, subject, th) -> int:
    got = match(pattern, subject, th)
    want = _match_keying_every_result(pattern, subject, th)
    assert got == want, (pattern, subject)
    for sub in got:
        assert all(is_canonical(v, th) for v in sub.labels.values()), str(sub)
    return len(got)


def _random_instance(rng, pattern, spec):
    sub = Substitution()
    for name in sorted(free_vars(pattern)[1]):
        sort = spec.variables[name]
        if sort == "Data":
            sub.labels[name] = random_mset(rng)
        elif sort == "Action":
            sub.labels[name] = ActConst(rng.choice("abc"))
        else:
            sub.labels[name] = random_label(rng)
    return substitute_label(pattern, sub)


def test_match_dedup_same_results_linda_labels(linda):
    """`match` returns what the matcher yields, in order, less repeats by value."""
    rng = random.Random(19)
    th = linda.theory
    patterns = _rule_labels(linda)
    patterns += [parse_label(text, linda) for text in ("{d, xD}", "{xD, xD'}", "{d, xD, xD}")]
    counts = []
    for pat in patterns:
        for _ in range(30):
            counts.append(_check_same_matches(pat, _random_instance(rng, pat, linda), th))
            subj = MSet(random_mset(rng, 4).elements, "Data") if isinstance(pat, MSet) else None
            if subj is not None:
                counts.append(_check_same_matches(pat, subj, th))
    assert max(counts) >= 2 and min(counts) == 0


def test_match_dedup_same_results_random_full_labels(full):
    rng = random.Random(20)
    th = full.theory
    patterns = _rule_labels(full)  # mix(k, l) pairs up in both orders
    counts = []
    for pat in patterns:
        for _ in range(25):
            counts.append(_check_same_matches(pat, _random_instance(rng, pat, full), th))
            counts.append(_check_same_matches(pat, random_label(rng), th))
    assert max(counts) >= 2 and min(counts) == 0


# Two data sorts whose empty multisets both print `{}`.
TWO_SORTS = (
    "spec TWO predicates | ; datasort A [assoc comm id: ea] ; datasort B [assoc comm id: eb] ; "
    "dataconst a1 : A ; dataconst b1 : B ; "
    "labelop pr : Label Label -> Label ; labelop mix : Label Label -> Label [comm] ; "
    "var k l : Label ; var xA : A ; var xB : B ;\n"
)


@pytest.mark.parametrize("pattern, subject, count", [
    ("pr(k, k)", "pr(< a1, -, ea >, < a1, -, eb >)", 0),
    ("pr(k, k)", "pr(< a1, -, eb >, < a1, -, eb >)", 1),
    ("pr(k, l)", "pr(< a1, -, ea >, < a1, -, eb >)", 1),
    ("mix(k, l)", "mix(< a1, -, ea >, < a1, -, eb >)", 2),
    ("mix(k, k)", "mix(< a1, -, ea >, < a1, -, eb >)", 0),
    ("mix(< {a1, xA}, -, xB >, l)", "mix(< a1, -, eb >, < a1, -, ea >)", 1),
    ("mix(< {a1, xA}, -, xA >, l)", "mix(< a1, -, eb >, < a1, -, ea >)", 1),
])
def test_match_dedup_same_results_empty_stores_of_two_sorts(pattern, subject, count):
    """Bindings that print alike but differ in a data sort are two results,
    and a variable bound twice must get one node both times."""
    spec = parse_spec(TWO_SORTS)
    th = spec.theory
    pat, subj = parse_label(pattern, spec), parse_label(subject, spec)
    assert _check_same_matches(pat, subj, th) == count


@pytest.mark.parametrize("spec_of", ["linda", "default"])
def test_match_binds_canonical_nodes(linda, spec_of):
    """Every label `match` binds is a canonical node of the theory, a
    share of two or more elements too."""
    th = linda.theory if spec_of == "linda" else EMPTY_THEORY
    pat, subj = parse_label("{xD, xD'}", linda), parse_label("{u, v, d}", linda)
    got = match(pat, subj, th)
    values = [v for sub in got for v in sub.labels.values()]
    assert len(got) == 8 and all(is_canonical(v, th) for v in values)
    assert canon_label(MSet((DataConst("u", "Data"), DataConst("v", "Data")), "Data"), th) in values


def test_match_binds_a_lone_constant_and_its_slot_as_one_value(linda):
    """A store slot holds a lone constant `d` as `{d}`, and a one-element
    share of a multiset binds `d`: a variable bound both ways is bound to
    one value, and to the first binding's node."""
    th = linda.theory
    pat = parse_label("< xD, -, {xD, u} >", linda)
    got = match(pat, parse_label("< d, -, {d, u} >", linda), th)
    assert len(got) == 1 and render_label(got[0].labels["xD"]) == "{d}"
    assert match(pat, parse_label("< u, -, {d, u} >", linda), th) == []
    assert match(pat, parse_label("< d, -, {d, d, u} >", linda), th) == []
