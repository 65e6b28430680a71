"""Term and label algebra: rendering, canonical forms, matching."""

import itertools
import random
from collections import Counter

import pytest

from sosforge import matching, parse_label, parse_spec, parse_term
from sosforge.errors import SortError
from sosforge.matching import match
from sosforge.terms import (
    EMPTY_THEORY,
    NIL,
    ActConst,
    App,
    Choice,
    DataConst,
    DefConst,
    LApp,
    LVar,
    MSet,
    Prefix,
    Triple,
    Var,
    LabelTerm,
    Nil,
    PredConst,
    canon_choice,
    canon_label,
    canon_term,
    choice_atoms,
    free_vars,
    label_sort,
    render_label,
    render_term,
    sort_accepts,
    substitute_label,
    substitute_term,
)
from termgen import is_canonical, mset, random_full_term, random_label, random_mset, render_substitution

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


def _reference_render(t, level=0):
    """`render_term` as a plain recursion over both operands of every node."""
    if isinstance(t, LabelTerm):
        return render_label(t)
    if isinstance(t, Nil):
        return "0"
    if isinstance(t, (Var, DefConst)):
        return t.name
    if isinstance(t, Prefix):
        return f"{render_label(t.label)} . {_reference_render(t.body, 2)}"
    if isinstance(t, Choice):
        s = f"{_reference_render(t.left, 2)} + {_reference_render(t.right, 1)}"
        return f"({s})" if level > 1 else s
    sym = t.op[1:-1]
    s = f"{_reference_render(t.args[0], 0)} {sym} {_reference_render(t.args[1], 1)}"
    return f"({s})" if level > 0 else s


def _random_choice(rng, width, depth=2):
    """A choice of `width` operands, nested to the right, to the left or
    both, over prefixes, infix applications and (at depth) choices again."""

    def operand():
        roll = rng.random()
        if depth and roll < 0.2:
            return _random_choice(rng, rng.randint(2, 4), depth - 1)
        if depth and roll < 0.4:
            return App("_||_", (_random_choice(rng, rng.randint(1, 3), depth - 1),
                                _random_choice(rng, rng.randint(1, 3), depth - 1)))
        body = NIL if rng.random() < 0.5 else operand()
        return Prefix(ActConst(rng.choice("abc")), body)

    parts = [operand() for _ in range(width)]
    shape = rng.choice(("right", "left", "mixed"))
    while len(parts) > 1:
        i = {"right": len(parts) - 2, "left": 0, "mixed": rng.randrange(len(parts) - 1)}[shape]
        parts[i:i + 2] = [Choice(parts[i], parts[i + 1])]
    return parts[0]


def test_render_walks_the_choice_spine_as_the_recursion_did():
    rng = random.Random(27)
    for _ in range(400):
        t = _random_choice(rng, rng.randint(1, 12))
        want = _reference_render(t)
        # render a suffix of the spine first, now and then, so that the
        # spine's walk stops at a node that already has its string
        suffix = t
        while isinstance(suffix, Choice) and rng.random() < 0.7:
            suffix = suffix.right
        rendered = suffix is not t and rng.random() < 0.5
        if rendered:
            assert render_term(suffix) == _reference_render(suffix)
        kept = suffix._s
        assert render_term(t) == want
        if rendered:
            assert suffix._s is kept  # not rendered again
        assert render_term(App("_||_", (t, t))) == _reference_render(App("_||_", (t, t)))


def _reference_atoms(t):
    if isinstance(t, Choice):
        return _reference_atoms(t.left) + _reference_atoms(t.right)
    return [t]


def test_choice_atoms_keep_syntactic_order():
    rng = random.Random(28)
    for _ in range(300):
        t = _random_choice(rng, rng.randint(1, 12))
        assert [id(a) for a in choice_atoms(t)] == [id(a) for a in _reference_atoms(t)]


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
    names = getattr(type(x), "_value_names", None)
    if names is not None:
        return type(x)(**{name: uncached(getattr(x, name)) for name in names})
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
    fresh = uncached(c)
    assert fresh == c and fresh is not c and fresh._s is None and fresh._cth is None
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


def test_canon_choice_is_the_canonical_choice(full):
    rng = random.Random(29)
    th = full.theory
    assert canon_choice([], th) is canon_term(NIL, th)
    for _ in range(500):
        a, b = random_full_term(rng, 5), random_full_term(rng, 5)
        got = canon_choice([canon_term(a, th), canon_term(b, th)], th)
        assert got is canon_term(Choice(a, b), th)
        assert is_canonical(got, th)


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


# -- sorts --------------------------------------------------------------------


def test_label_sort_of_every_label_kind():
    d = DataConst("d", "Data")
    cases = [(ActConst("a"), "Action"), (PredConst("|"), "Predicate"), (d, "Data"),
             (LVar("k", "Label"), "Label"), (MSet((d, d), "Data"), "Data"),
             (LApp("mix", (ActConst("a"), d)), "Label"), (Triple(d, MSet((), "Data")), "Label")]
    assert [label_sort(l) for l, _ in cases] == [sort for _, sort in cases]
    # the sort of a constant or a triple is no field: it takes no part in equality
    assert ActConst("a") == ActConst("a") and repr(PredConst("|")) == "PredConst(name='|')"
    for not_a_label in (NIL, Var("x"), "a"):
        with pytest.raises(TypeError):
            label_sort(not_a_label)


# -- substitution -------------------------------------------------------------


def test_substitute_label_sort_check():
    with pytest.raises(SortError):
        substitute_label(LVar("xD", "Data"), {"xD": ActConst("a")})


def test_substitute_term_replaces_vars(par):
    sub = {"x": parse_term("a . 0", par), "alpha": ActConst("b")}
    t = Prefix(LVar("alpha", "Action"), Choice(Var("x"), NIL))
    assert render_term(substitute_term(t, sub)) == "b . (a . 0 + 0)"


def _reference_substitute_term(t, sub):
    """`substitute_term` as a plain recursion that walks a choice pairwise."""
    if isinstance(t, Var):
        return sub.get(t.name, t)
    if isinstance(t, Prefix):
        return Prefix(substitute_label(t.label, sub), _reference_substitute_term(t.body, sub))
    if isinstance(t, Choice):
        return Choice(_reference_substitute_term(t.left, sub), _reference_substitute_term(t.right, sub))
    if isinstance(t, App):
        return App(t.op, tuple(substitute_label(a, sub) if isinstance(a, LabelTerm)
                               else _reference_substitute_term(a, sub) for a in t.args))
    return t


def _opened(rng, t):
    """t with some deadlocks made process variables, some prefix labels
    label variables or operators over one, and some data arguments data
    variables."""
    if isinstance(t, Nil):
        return Var(rng.choice("xy")) if rng.random() < 0.5 else t
    if isinstance(t, Prefix):
        roll, label = rng.random(), t.label
        if roll < 0.2:
            label = LVar("k", "Label")
        elif roll < 0.3:
            label = LApp("mix", (LVar("k", "Label"), label))
        return Prefix(label, _opened(rng, t.body))
    if isinstance(t, Choice):
        return Choice(_opened(rng, t.left), _opened(rng, t.right))
    if isinstance(t, App):
        return App(t.op, tuple(
            _opened(rng, a) if not isinstance(a, LabelTerm)
            else LVar("xD", "Data") if rng.random() < 0.5 else a
            for a in t.args))
    return t


def test_substitute_term_agrees_with_a_pairwise_recursion():
    """`substitute_term` walks a choice down its right spine in a loop, and
    builds what a pairwise recursion builds: the same nodes in the same
    shape, left-nested choices and unbound variables included."""
    rng = random.Random(28)
    bound = Counter()
    for _ in range(400):
        p, q, r = (_opened(rng, random_full_term(rng, 3)) for _ in range(3))
        t = rng.choice([p, Choice(Choice(p, q), r), Choice(p, Choice(q, r)),
                        Choice(p, Choice(Choice(q, r), p)), Prefix(ActConst("a"), Choice(Choice(p, q), r))])
        sub = {}
        for name in "xy":
            if rng.random() < 0.8:
                sub[name] = random_full_term(rng, 2)
        if rng.random() < 0.8:
            sub["k"] = random_label(rng)
        if rng.random() < 0.8:
            sub["xD"] = random_mset(rng)
        got, want = substitute_term(t, sub), _reference_substitute_term(t, sub)
        assert got == want and render_term(got) == render_term(want), render_term(t)
        bound.update(free_vars(t) & set(sub))
    assert min(bound[n] for n in ("x", "y", "k", "xD")) >= 50


def test_free_vars_and_closed(par):
    t = App("_||_", (Var("x"), Prefix(LVar("alpha", "Action"), NIL)))
    assert free_vars(t) == {"x", "alpha"}
    assert free_vars(parse_term("a . 0 || b . 0", par)) == set()


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
    for name, value in sorted(sub.items()):
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
            sub = {}
            for name in sorted(free_vars(label)):
                sort = full.variables[name]
                if sort == "Data":
                    sub[name] = mset(["d", "u"][: rng.randint(0, 2)])
                elif sort == "Action":
                    sub[name] = ActConst(rng.choice("abc"))
                else:
                    sub[name] = random_label(rng)
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
            got.add(frozenset((k, render_label(v)) for k, v in s.items()))
            sizes.update(len(v.elements) if isinstance(v, MSet) else 1
                         for v in s.values())
        assert got == _brute_shares(pat_elems, subj_elems), (
            render_label(pat), render_label(subj))
    assert {0, 1, 2, 3} <= sizes  # empty, single and larger shares all occur


def test_match_mset_shares(linda):
    th = linda.theory

    def shares(pat, subj):
        return [render_substitution(s)
                for s in match(parse_label(pat, linda), parse_label(subj, linda), th)]

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
    assert len(list(matching._match_label(pat, subj, {}, th, matching._bind_label))) == 3


def _match_keying_every_result(pattern, subject, th):
    """`match` as a reference: a result is dropped when an earlier one binds
    every variable to an equal value (value equality tells sorts apart)."""
    pat, subj = canon_label(pattern, th), canon_label(subject, th)
    results = []
    for sub in matching._match_label(pat, subj, {}, th, matching._bind_label):
        if sub not in results:
            results.append(sub)
    return results


def _check_same_matches(pattern, subject, th) -> int:
    got = match(pattern, subject, th)
    want = _match_keying_every_result(pattern, subject, th)
    assert got == want, (pattern, subject)
    for sub in got:
        assert all(is_canonical(v, th) for v in sub.values()), render_substitution(sub)
    return len(got)


def _random_instance(rng, pattern, spec):
    sub = {}
    for name in sorted(free_vars(pattern)):
        sort = spec.variables[name]
        if sort == "Data":
            sub[name] = random_mset(rng)
        elif sort == "Action":
            sub[name] = ActConst(rng.choice("abc"))
        else:
            sub[name] = random_label(rng)
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
    values = [v for sub in got for v in sub.values()]
    assert len(got) == 8 and all(is_canonical(v, th) for v in values)
    assert canon_label(MSet((DataConst("u", "Data"), DataConst("v", "Data")), "Data"), th) in values


def test_match_binds_a_lone_constant_and_its_slot_as_one_value(linda):
    """A store slot holds a lone constant `d` as `{d}`, and a one-element
    share of a multiset binds `d`: a variable bound both ways is bound to
    one value, and to the first binding's node."""
    th = linda.theory
    pat = parse_label("< xD, -, {xD, u} >", linda)
    got = match(pat, parse_label("< d, -, {d, u} >", linda), th)
    assert len(got) == 1 and render_label(got[0]["xD"]) == "{d}"
    assert match(pat, parse_label("< u, -, {d, u} >", linda), th) == []
    assert match(pat, parse_label("< d, -, {d, d, u} >", linda), th) == []


# -- matching against a brute-force oracle -------------------------------------

ORACLE_SPEC = """spec ORACLE
actions a b c e ;
datasort Data [assoc comm id: empty] ;
dataconst d u : Data ;
labelop cat : Label Label -> Label [assoc id: e] ;
labelop mix : Label Label -> Label [comm id: e] ;
labelop cc : Label Label -> Label [assoc comm] ;
labelop ca : Label Label -> Label [assoc] ;
labelop pr : Label Label -> Label ;
var k l m : Label ;
var xD yD : Data ;
"""
ORACLE_OPS = ("cat", "mix", "cc", "ca", "pr")
ORACLE_ASSOC = ("cat", "cc", "ca")
ORACLE_MAX = 5  # nodes of the largest subject
# An argument of an operator with an identity collapses into a segment of an
# `assoc` operator above it: `mix(k, l)` with l bound to e is k, so under
# `cat` it meets a segment.  Random patterns seldom do this, so these do.
ORACLE_COLLAPSES = [
    ("cat(mix(k, l), c)", "cat(a, b, c)"),
    ("cat(a, mix(k, l))", "cat(a, b, c)"),
    ("ca(mix(k, l), c)", "ca(a, b, c)"),
    ("cc(cat(l, m), l)", "cc(b, b, b, b)"),
    ("cc(l, mix(l, m))", "cc(b, c, c, e)"),
]


def _kids(t):
    if isinstance(t, MSet):
        return t.elements
    if isinstance(t, LApp):
        return t.args
    return (t.pre, t.post) if isinstance(t, Triple) else ()


def _size(t) -> int:
    return 1 + sum(_size(a) for a in _kids(t))


def _constants(t) -> Counter:
    if isinstance(t, (ActConst, DataConst)):
        return Counter([t.name])
    return sum((_constants(a) for a in _kids(t)), Counter())


def _variables(t) -> list:
    return [t] if isinstance(t, LVar) else [v for a in _kids(t) for v in _variables(a)]


def _oracle_universe(th):
    """Every canonical Label value and Data multiset of at most ORACLE_MAX
    nodes over the spec's constants, by sort, with its size, its count of
    e and its other constants."""
    msets = {canon_label(MSet(elems, "Data"), th)
             for j in range(ORACLE_MAX)
             for elems in itertools.combinations_with_replacement(
                 (DataConst("d", "Data"), DataConst("u", "Data")), j)}
    by_size = {1: {canon_label(ActConst(n), th) for n in "abce"}}
    for s in range(2, ORACLE_MAX + 1):
        found = {canon_label(Triple(p, q), th) for p in msets for q in msets
                 if _size(p) + _size(q) == s - 1}
        for op in ORACLE_OPS:
            for arity in range(2, (s - 1 if op in ORACLE_ASSOC else 2) + 1):
                for sizes in itertools.product(range(1, s - 1), repeat=arity):
                    if sum(sizes) != s - 1:
                        continue
                    for args in itertools.product(*(by_size[n] for n in sizes)):
                        found.add(canon_label(LApp(op, args), th))
        by_size[s] = {v for v in found if _size(v) == s}
    out = {}
    for sort, values in ("Label", set().union(*by_size.values())), ("Data", msets):
        out[sort] = []
        for v in values:
            cs = _constants(v)
            out[sort].append((v, _size(v), cs.pop("e", 0), cs))
    return out


def _brute_matches(pat, subj, universe, th):
    """Every substitution over the universe's labels no larger than the
    subject under which the pattern canonicalizes to the subject.

    Canonical forms keep every constant but the identity e, and a value
    other than e keeps its own e's too (in canonical form they sit under
    `cc`, `ca` or `pr`), so the constants the variables take are counted
    against the subject's before anything is canonicalized.
    """
    s = canon_label(subj, th)
    have, need = _constants(s), _constants(pat)
    e_left = have.pop("e", 0)
    need.pop("e", None)
    if need - have:
        return set()
    budget, most = have - need, _size(s)
    occurs = Counter(v.name for v in _variables(pat))
    names = sorted({v.name: v.sort for v in _variables(pat)}.items())
    ident = canon_label(ActConst("e"), th)
    pools = []
    for _, sort in names:
        pool = []
        for x, size, es, cs in universe[sort]:
            es *= x is not ident
            if size <= most and es <= e_left and not cs - budget:
                pool.append((x, cs, es))
        pools.append(pool)
    found = set()

    def walk(i, left, e_left, chosen):
        if i == len(names):
            sub = {n: x for (n, _), x in zip(names, chosen)}
            if not +left and canon_label(substitute_label(pat, sub), th) is s:
                found.add(frozenset((n, id(x)) for (n, _), x in zip(names, chosen)))
            return
        k = occurs[names[i][0]]
        for x, cs, es in pools[i]:
            use = Counter({c: k * n for c, n in cs.items()})
            if k * es <= e_left and not use - left:
                walk(i + 1, left - use, e_left - k * es, chosen + [x])

    walk(0, budget, e_left, [])
    return found


def _oracle_label(rng, depth, variables, top=False):
    r = 0.5 if top else rng.random()
    if depth == 0 or r < 0.35:
        if variables and rng.random() < 0.5:
            return LVar(rng.choice("klm"), "Label")
        return ActConst(rng.choice("abce"))
    if r < 0.45:
        return Triple(_oracle_mset(rng, variables, 2), _oracle_mset(rng, variables, 2))
    op = rng.choice(ORACLE_OPS)
    arity = rng.choice((2, 2, 3)) if op in ORACLE_ASSOC else 2
    return LApp(op, tuple(_oracle_label(rng, depth - 1, variables) for _ in range(arity)))


def _oracle_mset(rng, variables, most):
    return MSet(tuple(
        LVar(rng.choice(("xD", "yD")), "Data") if variables and rng.random() < 0.5
        else DataConst(rng.choice("du"), "Data")
        for _ in range(rng.randint(0, most))), "Data")


def test_match_agrees_with_brute_force_over_every_label_theory():
    """`match` returns exactly the substitutions, each once, under which
    the pattern canonicalizes to the subject, for free, C, A, AU, CU and AC
    label operators, nested in one another (ORACLE_COLLAPSES too), and ACU
    data multisets.

    A data variable bound to `d` and one bound to `{d}` are one value (as
    a store slot holds it), so results compare with `d` read as `{d}`.
    """
    spec = parse_spec(ORACLE_SPEC)
    th = spec.theory
    universe = _oracle_universe(th)

    def value(v):
        return canon_label(MSet((v,), "Data"), th) if isinstance(v, DataConst) else v

    def check(pat, subj):
        got = [frozenset((n, id(value(v))) for n, v in s.items())
               for s in match(pat, subj, th)]
        want = _brute_matches(pat, subj, universe, th)
        assert len(set(got)) == len(got) and set(got) == want, (
            render_label(canon_label(pat, th)), render_label(canon_label(subj, th)))
        return want

    for pat, subj in ORACLE_COLLAPSES:
        assert check(parse_label(pat, spec), parse_label(subj, spec)), pat
    rng = random.Random(22)
    cases = solved = 0
    theories = Counter()
    while cases < 150:
        if rng.random() < 0.85:
            pat = _oracle_label(rng, 2, True, top=True)
        else:
            pat = _oracle_mset(rng, True, 3)
        if rng.random() < 0.6:  # an instance of the pattern, so that it matches
            sub = {n: _oracle_label(rng, 1, False) for n in "klm"}
            sub.update((n, _oracle_mset(rng, False, 2)) for n in ("xD", "yD"))
            subj = substitute_label(pat, sub)
        elif isinstance(pat, MSet):
            subj = _oracle_mset(rng, False, 4)
        else:
            subj = _oracle_label(rng, 2, False)
        if _size(canon_label(subj, th)) > ORACLE_MAX:
            continue
        cases += 1
        want = check(pat, subj)
        solved += bool(want)
        top = canon_label(pat, th)
        theories[top.op if isinstance(top, LApp) else type(top).__name__] += bool(want)
    assert solved >= 50 and all(theories[op] >= 3 for op in (*ORACLE_OPS, "MSet"))


@pytest.mark.parametrize("pattern, subject, results", [
    ("{d, xD}", "{d, d, d, u}", 1),
    ("cc(a, k)", "cc(a, a, a, b)", 1),
    # k = l = a, and mix(a, a) read as mix(mix(a, a), e) in both orders
    ("mix(k, l)", "mix(a, a)", 3),
])
def test_match_claims_equal_arguments_once(pattern, subject, results):
    """An argument that claims one of several equal subject arguments
    yields one raw result, not one per copy: the matcher itself makes no
    result twice, before `match` drops repeats."""
    spec = parse_spec(ORACLE_SPEC)
    th = spec.theory
    pat, subj = (canon_label(parse_label(t, spec), th) for t in (pattern, subject))
    raw = list(matching._match_label(pat, subj, {}, th, matching._bind_label))
    assert len(raw) == len(match(pat, subj, th)) == results
