"""Term and label algebra: rendering, canonical forms, matching."""

import dataclasses
import itertools
import random

import pytest

from sosforge import parse_label, parse_term, terms
from sosforge.errors import NonBccspTerm, OpenTerm, SortError
from sosforge.terms import (
    EMPTY_THEORY,
    NIL,
    ActConst,
    App,
    Choice,
    DataConst,
    LabelTerm,
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
from termgen import mset, random_bccsp_term, random_full_term, random_label, random_mset

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
        assert canon_label(uncached(once), th) == once
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
        assert canon_term(uncached(once), th) == once
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
        assert render_term(canon_term(t, th)) == render_term(canon_term(shuffle(t), th))


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


def test_match_choice_pattern_covers_whole_subject(par):
    th = par.theory
    # two summand variables cannot split a single summand
    assert match(Choice(Var("x"), Var("y")), parse_term("a . 0", par), th) == []
    got = match(Choice(Var("x"), Var("y")), parse_term("a . 0 + b . 0", par), th)
    keys = {s.key() for s in got}
    assert len(keys) == 2  # both orders of claiming the summands


def test_match_repeated_var_collapses_by_idempotence(par):
    th = par.theory
    # x + x and a.0 + a.0 both canonicalize away the duplicate
    got = match(Choice(Var("x"), Var("x")), parse_term("a . 0 + a . 0", par), th)
    assert [str(s) for s in got] == ["x := a . 0"] or len(got) == 1
    assert render_term(got[0].terms["x"]) == "a . 0"
    # the collapsed pattern is a bare variable, so it claims whole subjects
    two = match(Choice(Var("x"), Var("x")), parse_term("a . 0 + b . 0", par), th)
    assert [render_term(s.terms["x"]) for s in two] == ["a . 0 + b . 0"]


def test_match_soundness_on_rule_sources(full):
    """Every rule source matches a random closed instance of itself."""
    rng = random.Random(15)
    th = full.theory
    for _, rule in [(i, r) for op in full.proc_ops for i, r in full.rules_for(op)]:
        src = rule.conclusion.source
        for _ in range(20):
            sub = Substitution()
            procs, labels = free_vars(src)
            for name in sorted(procs):
                sub.terms[name] = random_full_term(rng, 3)
            for name in sorted(labels):
                sort = full.variables[name]
                if sort == "Data":
                    sub.labels[name] = mset(["d", "u"][: rng.randint(0, 2)])
                else:
                    sub.labels[name] = random_label(rng)
            instance = substitute_term(src, sub)
            expect = Substitution()
            for name, v in sub.terms.items():
                expect.terms[name] = canon_term(v, th)
            for name, v in sub.labels.items():
                expect.labels[name] = canon_label(v, th)
            keys = {s.key() for s in match(src, instance, th)}
            assert expect.key() in keys, render_term(instance)


def test_match_mset_completeness_bruteforce(linda):
    """Multiset matching agrees with brute force over element assignments."""
    rng = random.Random(16)
    th = linda.theory

    def brute(pat_elems, subj_elems):
        if len(pat_elems) != len(subj_elems):
            return set()
        found = set()
        for perm in itertools.permutations(range(len(subj_elems))):
            bind = {}
            ok = True
            for p, j in zip(pat_elems, perm):
                s = subj_elems[j]
                if isinstance(p, LVar):
                    if bind.get(p.name, s.name) != s.name:
                        ok = False
                        break
                    bind[p.name] = s.name
                elif p.name != s.name:
                    ok = False
                    break
            if ok:
                found.add(frozenset(bind.items()))
        return found

    names = ("d", "u", "v")
    for _ in range(200):
        n = rng.randint(0, 4)
        subj_elems = [DataConst(rng.choice(names), "Data") for _ in range(n)]
        pat_elems = []
        for k in range(n):
            if rng.random() < 0.5:
                pat_elems.append(LVar(rng.choice(("xD", "xD'", "yD")), "Data"))
            else:
                pat_elems.append(DataConst(rng.choice(names), "Data"))
        pat = MSet(tuple(pat_elems), "Data")
        subj = MSet(tuple(subj_elems), "Data")
        got = set()
        for s in match(pat, subj, th):
            got.add(frozenset((k, render_label(v)) for k, v in s.labels.items()))
        assert got == brute(pat_elems, subj_elems), (render_label(pat), render_label(subj))


def test_match_is_sound_generic(full):
    """Whatever match returns really maps the pattern onto the subject."""
    rng = random.Random(17)
    th = full.theory
    pat = App("_||_", (Var("x"), Var("y")))
    for _ in range(100):
        subj = App("_||_", (random_bccsp_term(rng, 3), random_bccsp_term(rng, 3)))
        for s in match(pat, subj, th):
            image = substitute_term(pat, s)
            assert render_term(canon_term(image, th)) == render_term(canon_term(subj, th))


def _match_keying_every_result(pattern, subject, th):
    """`match` as it deduplicated before: a key built for every result."""
    if isinstance(pattern, LabelTerm):
        pat, subj = canon_label(pattern, th), canon_label(subject, th)
    else:
        pat, subj = canon_term(pattern, th), canon_term(subject, th)
    results, seen = [], set()
    for sub in terms._match_any(pat, subj, Substitution(), th, terms._bind_label):
        k = sub.key()
        if k not in seen:
            seen.add(k)
            results.append(sub)
    return results


def _check_same_matches(pattern, subject, th) -> int:
    got = match(pattern, subject, th)
    want = _match_keying_every_result(pattern, subject, th)
    assert [s.key() for s in got] == [s.key() for s in want], (pattern, subject)
    return len(got)


def _random_instance(rng, pattern, spec):
    sub = Substitution()
    procs, labels = free_vars(pattern)
    for name in sorted(procs):
        sub.terms[name] = random_full_term(rng, 2)
    for name in sorted(labels):
        sort = spec.variables[name]
        if sort == "Data":
            sub.labels[name] = random_mset(rng)
        elif sort == "Action":
            sub.labels[name] = ActConst(rng.choice("abc"))
        else:
            sub.labels[name] = random_label(rng)
    if isinstance(pattern, LabelTerm):
        return substitute_label(pattern, sub)
    return substitute_term(pattern, sub)


def test_match_dedup_same_results_linda_labels(linda):
    """Results and their order do not depend on when keys are built."""
    rng = random.Random(19)
    th = linda.theory
    patterns = [p.label for r in linda.rules for p in r.positives + r.negatives + (r.conclusion,)]
    patterns += [parse_label(text, linda) for text in ("{d, xD}", "{xD, xD'}", "{d, xD, xD}")]
    counts = []
    for pat in patterns:
        for _ in range(30):
            counts.append(_check_same_matches(pat, _random_instance(rng, pat, linda), th))
            subj = MSet(random_mset(rng, 4).elements, "Data") if isinstance(pat, MSet) else None
            if subj is not None:
                counts.append(_check_same_matches(pat, subj, th))
    assert max(counts) >= 2 and min(counts) == 0


def test_match_dedup_same_results_random_full_terms(full):
    rng = random.Random(20)
    th = full.theory
    patterns = [r.conclusion.source for r in full.rules]
    patterns += [r.conclusion.target for r in full.rules]
    patterns += [r.conclusion.label for r in full.rules]  # mix(k, l) pairs up in both orders
    patterns += [Choice(Var("x"), Var("y")), Choice(Var("x"), Choice(Var("y"), Var("x'")))]
    counts = []
    for pat in patterns:
        for _ in range(25):
            counts.append(_check_same_matches(pat, _random_instance(rng, pat, full), th))
            other = random_label(rng) if isinstance(pat, LabelTerm) else random_full_term(rng, 3)
            counts.append(_check_same_matches(pat, other, th))
    assert max(counts) >= 2 and min(counts) == 0
