"""One-step semantics: rule solving, caching, caps, determinism."""

import collections
import random

import pytest

from sosforge import load_corpus, matching, parse_label, parse_spec, parse_term, simulator
from sosforge.axioms import normalize
from sosforge.bisim import bisimilar, build_lts
from sosforge.cli import main
from sosforge.errors import BudgetExceeded, InvalidSpec
from sosforge.matching import match
from sosforge.simulator import (
    APP,
    BOUND,
    FIXED,
    FRESH,
    GENERAL,
    GROUND,
    SOLVE,
    SUBST,
    THROUGH,
    TRIPLE,
    VAR,
    fire_through,
    solve_rule,
    step,
)
from sosforge.terms import (
    NIL,
    ActConst,
    App,
    Choice,
    DefConst,
    LabelTerm,
    LVar,
    Prefix,
    Term,
    Var,
    canon_label,
    canon_term,
    free_vars,
    label_sort,
    render_label,
    render_term,
    sort_accepts,
    substitute_label,
    substitute_term,
)
from termgen import is_canonical, random_bccsp_term, random_full_term, render_substitution

# -- transcript pins -----------------------------------------------------------


def test_single_parallel_step(par):
    got = step(par, parse_term("| . 0 || a . 0", par))
    assert [str(s) for s in got] == ["< a # | . 0 || 0 >"]


def test_three_way_parallel_step(par):
    got = step(par, parse_term("| . 0 + b . 0 || c . 0 + | . 0", par))
    assert [str(s) for s in got] == [
        "< b # 0 || c . 0 + | . 0 >",
        "< c # | . 0 + b . 0 || 0 >",
        "< | # 0 >",
    ]


def test_deadlock_has_no_steps(par):
    assert step(par, NIL) == []
    assert step(par, parse_term("0", par)) == []


def test_store_operator_step(linda):
    got = step(linda, parse_term("ask(u)", linda))
    assert [str(s) for s in got] == ["< < {d, u},-,{d, u} > # | . 0 >"]


def test_sequencing_steps(linda):
    got = step(linda, parse_term("ask(u) ; tell(v)", linda))
    assert [str(s) for s in got] == [
        "< < {d, u},-,{d, u} > # | . 0 ; tell(v) >"
    ]


# -- negative premises ----------------------------------------------------------


def test_mixer_fires_on_distinct_labels(gspec):
    got = step(gspec, parse_term("g(a . 0, b . 0)", gspec))
    assert [str(s) for s in got] == ["< mix(a,b) # 0 + 0 >"]


def test_mixer_blocked_by_shared_label(gspec):
    got = step(gspec, parse_term("g(a . 0, a . 0)", gspec))
    assert [str(s) for s in got] == ["< a # 0 >"]


def test_mixer_mixed_choice(gspec):
    got = step(gspec, parse_term("g(a . 0 + b . 0, b . 0 + c . 0)", gspec))
    assert [str(s) for s in got] == [
        "< b # 0 >",
        "< mix(a,c) # 0 + 0 >",
    ]


def test_step_through_definitions(rec):
    got = step(rec, DefConst("p2"))
    assert [str(s) for s in got] == ["< i # p3 >", "< o # p1 >"]


# -- invariants -----------------------------------------------------------------


def test_sync_label_only_from_sync_rule(par):
    """Interleaving never carries the termination signal across."""
    from sosforge.terms import render_label

    rng = random.Random(21)
    for _ in range(200):
        p = random_bccsp_term(rng, 3)
        q = random_bccsp_term(rng, 3)
        for s in step(par, App("_||_", (p, q))):
            if render_label(s.label) == "|":
                assert render_term(s.target) == "0"


def test_branching_is_finite_and_bounded(full):
    rng = random.Random(22)
    from termgen import random_full_term

    for _ in range(120):
        t = random_full_term(rng, 4)
        got = step(full, t)
        assert len(got) <= 200


def test_step_is_deterministic(full):
    rng = random.Random(23)
    from termgen import random_full_term

    for _ in range(60):
        t = random_full_term(rng, 4)
        a = [str(s) for s in step(full, t)]
        b = [str(s) for s in step(full, t)]
        assert a == b


def test_step_results_unique(full):
    rng = random.Random(24)
    from termgen import random_full_term
    from sosforge.terms import canon_term, render_label

    th = full.theory
    for _ in range(100):
        t = random_full_term(rng, 4)
        keys = [
            (render_label(s.label), render_term(canon_term(s.target, th)))
            for s in step(full, t)
        ]
        assert len(keys) == len(set(keys))
        assert keys == sorted(keys)


def test_choice_of_same_term_dedups(par):
    t = parse_term("a . b . 0", par)
    assert [str(s) for s in step(par, Choice(t, t))] == ["< a # b . 0 >"]


# -- caps ------------------------------------------------------------------------


def test_unguarded_definition_is_refused():
    spec = parse_spec(
        "spec U\nactions a ;\ndef p = p + a . 0 ;\n"
    )
    with pytest.raises(InvalidSpec) as e:
        step(spec, DefConst("p"))
    assert [(v.kind, v.rule) for v in e.value.violations] == [("UnguardedDef", "p")]


def test_step_set_cap(par, monkeypatch):
    t = parse_term("a . 0 + b . 0 + c . 0", par)
    monkeypatch.setattr(simulator, "DEFAULT_SET_CAP", 2)
    with pytest.raises(BudgetExceeded):
        step(par, t)
    monkeypatch.setattr(simulator, "DEFAULT_SET_CAP", 3)
    assert len(step(par, t)) == 3


def test_step_keeps_target_shape_across_calls(par):
    """A call steps with its own cache: a permuted term stepped earlier lends no shape."""
    term = "b . 0 + | . 0 || c . 0"
    want = ["< b # 0 || c . 0 >", "< c # b . 0 + | . 0 || 0 >"]
    assert [str(s) for s in step(par, parse_term(term, par))] == want
    step(par, parse_term("| . 0 + b . 0 || c . 0", par))
    assert [str(s) for s in step(par, parse_term(term, par))] == want


# -- repeated source variables ---------------------------------------------------------

REPEATED_SOURCE = """spec REP
actions a ;
datasort Data ;
dataconst d u : Data ;
op f : 2 ;
op h : 2 ;
var x x' : Proc ;
var k : Data ;
rule x -(a)-> x' ==> f(x, x) -(a)-> x' ;
rule ==> h(k, k) -(a)-> 0 ;
"""


@pytest.mark.parametrize(
    "text",
    [
        "f(a . 0, a . 0)",
        "f(a . 0 + a . 0, a . 0)",
        "f(0, a . 0)",
        "f(a . 0, 0)",
        "h(u, u)",
        "h(d, u)",
        "h(u, d)",
    ],
)
def test_repeated_source_variable_is_refused(text):
    spec = parse_spec(REPEATED_SOURCE)
    with pytest.raises(InvalidSpec) as e:
        step(spec, parse_term(text, spec))
    assert [(v.kind, v.rule) for v in e.value.violations] == [
        ("RepeatedVariable", 1),
        ("RepeatedVariable", 2),
    ]


# -- differential: solve_rule against the solver that checked the rule format itself --


def _reference_bind_term(sub, name, value):
    old = sub.get(name)
    if old is not None:
        if render_term(old) == render_term(value):
            yield sub
        return
    yield {**sub, name: value}


def reference_solve_rule(rule, args, moves, th):
    """`solve_rule` as it was before specs were checked at load: it guarded
    every rule shape itself and matched repeated source variables."""
    src = rule.conclusion.source
    if not isinstance(src, App) or len(src.args) != len(args):
        return []
    base = {}
    pos_of = {}
    for k, (slot, actual) in enumerate(zip(src.args, args)):
        if isinstance(slot, Var):
            if not isinstance(actual, Term):
                return []
            old = base.get(slot.name)
            if old is None:
                base[slot.name] = actual
                pos_of[slot.name] = k
            elif render_term(canon_term(old, th)) != render_term(canon_term(actual, th)):
                return []
        elif isinstance(slot, LVar):
            if not isinstance(actual, LabelTerm):
                return []
            value = canon_label(actual, th)
            if not sort_accepts(slot.sort, label_sort(value)):
                return []
            old_label = base.setdefault(slot.name, value)
            if render_label(old_label) != render_label(value):
                return []
        else:
            return []

    subs = [base]
    for prem in rule.positives:
        if not (isinstance(prem.source, Var) and prem.source.name in pos_of):
            return []
        offered = moves(pos_of[prem.source.name])
        if not isinstance(prem.target, Var):
            return []
        nxt = []
        for s in subs:
            pat = substitute_label(prem.label, s)
            for lbl, cont in offered:
                for m in match(pat, lbl, th):
                    nxt.extend(_reference_bind_term({**s, **m}, prem.target.name, cont))
        subs = nxt
        if not subs:
            return []

    for neg in rule.negatives:
        if not (isinstance(neg.source, Var) and neg.source.name in pos_of):
            return []
        offered_labels = {
            render_label(canon_label(l, th)) for l, _ in moves(pos_of[neg.source.name])
        }
        kept = []
        for s in subs:
            lbl = substitute_label(neg.label, s)
            if free_vars(lbl):
                continue
            if render_label(canon_label(lbl, th)) not in offered_labels:
                kept.append(s)
        subs = kept
        if not subs:
            return []
    return subs


def _through_firing(plan, sub, th):
    """What `fire_through` gives for a firing under a substitution: the
    conclusion label's canonical node and the target's arguments."""
    concl = plan.rule.conclusion
    return canon_label(substitute_label(concl.label, sub), th), [sub[a.name] for a in concl.target.args]


def _same_firings(got, want):
    """Whether two lists of (label, arguments) firings hold the same nodes."""
    return len(got) == len(want) and all(
        gl is wl and len(ga) == len(wa) and all(g is w for g, w in zip(ga, wa))
        for (gl, ga), (wl, wa) in zip(got, want))


@pytest.fixture
def against_reference(monkeypatch):
    """Route every rule firing of step and normalize, through `solve_rule`
    and through `fire_through` alike, through a check against the
    reference: `solve_rule` must return the reference's substitutions in
    its order as the plan names the bindings, and `fire_through` the label
    and target arguments each of them gives. Yields the list of result
    counts, one per call."""
    counts = []

    def checked(plan, args, moves, th):
        got = solve_rule(plan, args, moves, th)
        want = reference_solve_rule(plan.rule, args, moves, th)
        assert [render_substitution(plan.substitution(b)) for b in got] \
            == [render_substitution(s) for s in want], str(plan.rule)
        counts.append(len(got))
        return got

    def checked_through(plan, args, moves):
        assert plan.kind == THROUGH, str(plan.rule)
        got = fire_through(plan, args, moves)
        th = plan.theory
        want = reference_solve_rule(plan.rule, args, moves, th)
        assert _same_firings(got, [_through_firing(plan, s, th) for s in want]), str(plan.rule)
        counts.append(len(got))
        return got

    # normalize imports both from there
    monkeypatch.setattr(simulator, "solve_rule", checked)
    monkeypatch.setattr(simulator, "fire_through", checked_through)
    return counts


def _random_op_term(rng, ops, depth):
    """A closed term over deadlock, prefixing, choice and the given binary operators."""
    if depth <= 0 or rng.random() < 0.15:
        return NIL
    roll = rng.random()
    if roll < 0.35:
        return Prefix(ActConst(rng.choice("abc")), _random_op_term(rng, ops, depth - 1))
    if roll < 0.6:
        return Choice(_random_op_term(rng, ops, depth - 1), _random_op_term(rng, ops, depth - 1))
    op = rng.choice(ops)
    return App(op, (_random_op_term(rng, ops, depth - 1), _random_op_term(rng, ops, depth - 1)))


def _linda_chain(rng, n):
    return " ; ".join(f"{rng.choice(('ask', 'tell', 'get'))}({rng.choice('duv')})" for _ in range(n))


def _bundled_terms(name, spec, rng):
    if name == "recursion":
        return [DefConst(c) for c in spec.defs]
    if name == "linda":
        texts = [_linda_chain(rng, rng.randint(1, 5)) for _ in range(20)]
        texts += [f"({_linda_chain(rng, 2)}) || ({_linda_chain(rng, 2)})" for _ in range(10)]
        return [parse_term(t, spec) for t in texts]
    if name == "full":
        return [random_full_term(rng, 3) for _ in range(40)]
    ops = [op for op, decl in spec.proc_ops.items() if decl.arity == 2]
    if not ops:
        return [random_bccsp_term(rng, 4) for _ in range(20)]
    return [_random_op_term(rng, ops, 4) for _ in range(40)]


@pytest.mark.parametrize("name", ["bccsp", "bccsp_par", "g", "linda", "recursion", "full"])
def test_solve_rule_matches_reference_on_bundled_specs(name, against_reference):
    spec = load_corpus(name)
    rng = random.Random(f"solve_rule:{name}")
    for t in _bundled_terms(name, spec, rng):
        step(spec, t)
        if not isinstance(t, DefConst):
            normalize(spec, t)
    if spec.rules:
        assert any(against_reference), "no rule fired"


def test_solve_rule_matches_reference_on_random_full_terms(full, against_reference):
    rng = random.Random(31)
    for _ in range(150):
        step(full, random_full_term(rng, 4))
    for _ in range(60):
        normalize(full, random_full_term(rng, 3))
    fired = sum(1 for n in against_reference if n)
    assert fired > 100 and len(against_reference) > 2 * fired


def test_solve_rule_matches_reference_on_linda_chains(linda, against_reference):
    rng = random.Random(32)
    for n in (8, 16, 24):
        t = parse_term(_linda_chain(rng, n), linda)
        normalize(linda, t)
        for _ in range(n):  # walk the chain to its end, one step at a time
            steps = step(linda, t)
            assert steps
            t = steps[0].target
    assert any(against_reference)


# Every kind of label a rule plan reads, in a spec written for it: a fresh
# `alpha : Action` offered `|` (rule 1), a ground negative (1), a ground
# premise and conclusion (2), a label source slot reused in a premise (3),
# a general triple pattern (3, 11), a store triple of two fresh slots with
# its slots swapped in the conclusion (4), a bound variable in a second
# premise with a general negative (5), a general pattern over a bound and a
# fresh variable with a bound negative (6), a store triple of two fresh
# slots with a negative of its slots swapped (9), and the store triples
# that go through the matcher: a repeated slot variable (7), a constant
# store slot with a constant store in the conclusion (8), a source slot
# variable in a slot (10) and two bound slots, one bound to a lone data
# constant by a one-element multiset share (11).
KINDS = """spec KINDS
actions a b ;
predicates | ;
datasort Data [assoc comm id: empty] ;
dataconst d u : Data ;
labelop mix : Label Label -> Label [comm] ;
op n : 1 ;  op h : 2 ;  op r : 1 ;  op q : 2 ;
op e : 1 ;  op g : 1 ;  op p : 2 ;  op w : 2 ;  op f : 2 ;
var x y x' y' : Proc ;
var alpha : Action ;
var k l : Label ;
var mu xD xD' : Data ;
rule x -(alpha)-> x' , x -(a)/> ==> n(x) -(alpha)-> x' ;
rule x -(|)-> x' ==> n(x) -(|)-> 0 ;
rule x -(< {d, mu}, -, {d, mu} >)-> x' ==> h(mu, x) -(< {d, mu}, -, {d, mu} >)-> h(mu, x') ;
rule x -(< xD, -, xD' >)-> x' ==> r(x) -(< xD', -, xD >)-> r(x') ;
rule x -(k)-> x' , y -(k)-> y' , y -(mix(k, k))/> ==> q(x, y) -(k)-> q(x', y') ;
rule x -(k)-> x' , y -(mix(k, l))-> y' , x -(l)/> ==> q(x, y) -(mix(l, k))-> x' ;
rule x -(< xD, -, xD >)-> x' ==> e(x) -(< xD, -, xD >)-> e(x') ;
rule x -(< d, -, xD' >)-> x' ==> g(x) -(< {d, u}, -, xD' >)-> g(x') ;
rule x -(< xD, -, xD' >)-> x' , y -(< xD', -, xD >)/> ==> p(x, y) -(< xD, -, xD' >)-> p(x', y) ;
rule x -(< mu, -, xD' >)-> x' ==> w(mu, x) -(< xD', -, mu >)-> w(mu, x') ;
rule x -(< {d, xD}, -, xD' >)-> x' , y -(< xD, -, xD' >)-> y' ==> f(x, y) -(< xD, -, xD' >)-> f(x', y') ;
"""
KINDS_LABELS = ("a", "b", "|", "mix(a, b)", "mix(a, a)", "mix(b, |)",
                "< {d, u}, -, {d, u} >", "< {d}, -, {d} >", "< {d, d}, -, {d, d} >",
                "< {}, -, {u} >", "< {u}, -, {d, u} >", "< u, -, u >", "< d, -, {d, u} >")
KINDS_DATA = ("d", "u", "{}", "{d, u}")


def _kinds_text(rng, depth):
    """A closed KINDS term: a sum of one to three prefixes, or an operator."""
    if depth <= 0:
        return "0"
    if rng.random() < 0.5:
        return " + ".join(f"{rng.choice(KINDS_LABELS)} . {_kinds_text(rng, depth - 1)}"
                          for _ in range(rng.randint(1, 3)))
    op = rng.choice("nhrqegpwf")
    if op in "hw":
        return f"{op}({rng.choice(KINDS_DATA)}, {_kinds_text(rng, depth - 1)})"
    if op in "qpf":
        return f"{op}({_kinds_text(rng, depth - 1)}, {_kinds_text(rng, depth - 1)})"
    return f"{op}({_kinds_text(rng, depth - 1)})"


def _rule_plans(spec):
    """The firing plan of each rule of a spec, in rule order."""
    by_rule = {id(p.rule): p for op in spec.proc_ops for p in spec.plans_for(op)}
    return [by_rule[id(r)] for r in spec.rules]


def test_solve_rule_matches_reference_on_every_plan_kind(against_reference):
    spec = parse_spec(KINDS)
    plans = _rule_plans(spec)
    assert [[lp.kind for _, _, lp in p.positives] for p in plans] == [
        [FRESH], [GROUND], [GENERAL], [TRIPLE], [FRESH, BOUND], [FRESH, GENERAL],
        [GENERAL], [GENERAL], [TRIPLE], [GENERAL], [GENERAL, GENERAL]]
    assert [[lp.kind for _, lp in p.negatives] for p in plans] == [
        [GROUND], [], [], [], [GENERAL], [BOUND], [], [], [GENERAL], [], []]
    # a conclusion label written as a premise's TRIPLE or GENERAL label
    # (rules 3, 7, 9, 11) reads the node that premise met
    assert [p.conclusion.kind for p in plans] == [
        BOUND, GROUND, BOUND, GENERAL, BOUND, GENERAL, BOUND, GENERAL, BOUND, GENERAL, BOUND]
    for i in (2, 6, 8, 10):
        assert plans[i].conclusion.key == plans[i].positives[-1][2].key >= 0
    for i in (3, 8):  # both slots fresh: bound after a sort check each
        assert [sp.kind for sp in plans[i].positives[0][2].slots] == [FRESH, FRESH]
    # the other store triples: what `match` substitutes and what it binds
    general = [plans[6].positives[0][2], plans[7].positives[0][2], plans[9].positives[0][2],
               plans[10].positives[1][2], plans[8].negatives[0][1]]
    assert [([r[0] for r in lp.reads], [n for n, _ in lp.binds]) for lp in general] == [
        ([], ["xD"]), ([], ["xD'"]), (["mu"], ["xD'"]), (["xD", "xD'"], []), (["xD", "xD'"], [])]
    assert plans[2].positives[0][2].reads and plans[5].positives[1][2].reads
    assert not plans[10].positives[0][2].reads

    assert [str(s) for s in step(spec, parse_term("n(| . 0 + b . 0)", spec))] == [
        "< b # 0 >", "< | # 0 >"]
    assert step(spec, parse_term("n(a . 0 + b . 0)", spec)) == []
    assert [str(s) for s in step(spec, parse_term("h(u, < {u, d}, -, {d, u} > . 0)", spec))] == [
        "< < {d, u},-,{d, u} > # h(u,0) >"]
    assert step(spec, parse_term("h(d, < {u, d}, -, {d, u} > . 0)", spec)) == []
    assert [str(s) for s in step(spec, parse_term("r(< d, -, u > . 0 + a . 0)", spec))] == [
        "< < {u},-,{d} > # r(0) >"]
    assert [str(s) for s in step(spec, parse_term("q(a . 0 + b . 0, a . 0)", spec))] == [
        "< a # q(0,0) >"]
    assert [str(s) for s in step(spec, parse_term("q(a . 0, mix(a, b) . 0)", spec))] == [
        "< mix(a,b) # 0 >"]
    assert step(spec, parse_term("q(a . 0 + b . 0, mix(a, b) . 0)", spec)) == []
    assert [str(s) for s in step(spec, parse_term("e(< u, -, u > . 0 + < d, -, u > . 0)", spec))] == [
        "< < {u},-,{u} > # e(0) >"]
    assert [str(s) for s in step(spec, parse_term("g(< d, -, u > . 0 + < {d, u}, -, u > . 0)", spec))] == [
        "< < {d, u},-,{u} > # g(0) >"]
    assert [str(s) for s in step(spec, parse_term("p(< d, -, u > . 0, < u, -, {} > . 0)", spec))] == [
        "< < {d},-,{u} > # p(0,< u,-,{} > . 0) >"]
    assert step(spec, parse_term("p(< d, -, u > . 0, < u, -, d > . 0)", spec)) == []
    assert [str(s) for s in step(spec, parse_term("w(u, < u, -, {} > . 0 + < d, -, {} > . 0)", spec))] == [
        "< < {},-,{u} > # w(u,0) >"]
    assert [str(s) for s in step(spec, parse_term("f(< {d, u}, -, d > . 0, < u, -, d > . 0)", spec))] == [
        "< < {u},-,{d} > # f(0,0) >"]
    rng = random.Random(33)
    for _ in range(300):
        t = parse_term(_kinds_text(rng, 4), spec)
        step(spec, t)
        normalize(spec, t)
    fired = sum(1 for c in against_reference if c)
    assert fired > 200 and len(against_reference) > 2 * fired


# -- the kernel against the substitution its plan names --


def _reads_met_label(plan):
    """Whether a plan's conclusion label is the label node a premise met."""
    return plan.conclusion.kind == BOUND and any(
        lp.key == plan.conclusion.key for _, _, lp in plan.positives if lp.kind in (TRIPLE, GENERAL))


@pytest.fixture
def against_substitution(monkeypatch):
    """Route every rule firing of step and normalize through a check that
    its conclusion label and target are the canonical forms of the
    conclusion under the substitution `plan.substitution` names: as the
    plan builds them from `solve_rule`'s bindings, and as `fire_through`
    gives them, firing for firing with the bindings `solve_rule` finds for
    the same plan. Yields counts of the calls, of the firings and of the
    firings whose conclusion label is a premise's."""
    counts = collections.Counter()

    def named(plan, b, th):
        sub = plan.substitution(b)
        concl = plan.rule.conclusion
        return (canon_label(substitute_label(concl.label, sub), th),
                canon_term(substitute_term(concl.target, sub), th))

    def count(plan, fired):
        counts["calls"] += 1
        counts["fired"] += fired
        counts["reused"] += fired if _reads_met_label(plan) else 0

    def checked(plan, args, moves, th):
        rows = solve_rule(plan, args, moves, th)
        for b in rows:
            label, target = named(plan, b, th)
            assert plan.conclusion.under(b, th) is label, str(plan.rule)
            assert canon_term(plan.target.under(b, th), th) is target, str(plan.rule)
        count(plan, len(rows))
        return rows

    def checked_through(plan, args, moves):
        got = fire_through(plan, args, moves)
        th = plan.theory
        rows = solve_rule(plan, args, moves, th)
        assert len(got) == len(rows), str(plan.rule)
        for (got_label, moved), b in zip(got, rows):
            label, target = named(plan, b, th)
            assert got_label is label, str(plan.rule)
            assert canon_term(App(plan.target.op, moved), th) is target, str(plan.rule)
        count(plan, len(got))
        return got

    # normalize imports both from there
    monkeypatch.setattr(simulator, "solve_rule", checked)
    monkeypatch.setattr(simulator, "fire_through", checked_through)
    return counts


# A GENERAL premise label repeated in the conclusion (rule 2) and one that is
# not (rule 1), over a commutative label operator.
GEN = """spec GEN
actions a b ;
labelop mix : Label Label -> Label [comm] ;
op g : 1 ;  op h : 2 ;
var x y x2 y2 : Proc ;
var k l : Label ;
rule x -(mix(k, l))-> x2 ==> g(x) -(mix(l, k))-> x2 ;
rule x -(mix(k, l))-> x2 , y -(k)-> y2 , y -(l)/> ==> h(x, y) -(mix(k, l))-> x2 + y2 ;
"""
GEN_LABELS = ("a", "b", "mix(a, b)", "mix(b, a)", "mix(a, a)", "mix(mix(a, b), b)")


def _gen_text(rng, depth):
    """A closed GEN term: a sum of one to three prefixes, or an operator."""
    if depth <= 0:
        return "0"
    if rng.random() < 0.5:
        return " + ".join(f"{rng.choice(GEN_LABELS)} . {_gen_text(rng, depth - 1)}"
                          for _ in range(rng.randint(1, 3)))
    if rng.random() < 0.5:
        return f"g({_gen_text(rng, depth - 1)})"
    return f"h({_gen_text(rng, depth - 1)}, {_gen_text(rng, depth - 1)})"


def _kernel_terms(name, spec, rng):
    if name == "full":
        return [random_full_term(rng, 3) for _ in range(80)]
    if name == "linda":
        texts = [_linda_chain(rng, n) for n in (4, 8, 16, 24)]
        texts += [f"({_linda_chain(rng, 2)}) || ({_linda_chain(rng, 3)})" for _ in range(10)]
        return [parse_term(t, spec) for t in texts]
    if name == "kinds":
        return [parse_term(_kinds_text(rng, 4), spec) for _ in range(200)]
    return [parse_term(_gen_text(rng, 4), spec) for _ in range(200)]


@pytest.mark.parametrize("name", ["full", "linda", "gen", "kinds"])
def test_kernel_builds_what_the_named_substitution_builds(name, against_substitution):
    written = {"gen": GEN, "kinds": KINDS}
    spec = parse_spec(written[name]) if name in written else load_corpus(name)
    rng = random.Random(f"kernel:{name}")
    for t in _kernel_terms(name, spec, rng):
        normalize(spec, t)
        for _ in range(4):  # the term and a few steps down from it
            steps = step(spec, t)
            if not steps:
                break
            t = rng.choice(steps).target
    assert against_substitution["fired"] > 100 and against_substitution["reused"] > 20


# -- rules that move one argument --


@pytest.mark.parametrize("name, moving", [
    ("bccsp", []), ("bccsp_par", [1, 2]), ("g", []), ("linda", [4, 7, 8]), ("recursion", []),
    ("full", [6, 9, 10, 11, 12]),
])
def test_bundled_rules_that_move_one_argument(name, moving):
    """The interleaving and sequencing rules `x -(l)-> x' ==> f(x, y) -(l)->
    f(x', y)` are THROUGH plans, numbered from 1; every other rule is solved."""
    plans = _rule_plans(load_corpus(name))
    assert [i for i, p in enumerate(plans, 1) if p.kind == THROUGH] == moving
    assert all(p.kind in (THROUGH, SOLVE) for p in plans)


# Rules 1, 2 and 5 move one argument: a fresh premise label repeated in the
# conclusion, a ground premise label with another ground conclusion label
# and another operator in the target, and a fresh premise label with a
# ground conclusion label.  The others do not: their targets swap the
# arguments (3), they have a negative premise (4), their target is a
# variable (6), they read a label argument (7) or a store triple that
# swaps its slots (8).
SHAPES = """spec SHAPES
actions a b ;
predicates | ;
datasort Data [assoc comm id: empty] ;
dataconst d : Data ;
op f : 2 ;  op g : 2 ;  op h : 1 ;  op s : 2 ;  op r : 1 ;
var x y x2 y2 : Proc ;
var k : Label ;
var mu xD xD2 : Data ;
rule x -(k)-> x2 ==> f(x, y) -(k)-> f(x2, y) ;
rule y -(a)-> y2 ==> f(x, y) -(b)-> g(x, y2) ;
rule x -(k)-> x2 ==> g(x, y) -(k)-> g(y, x2) ;
rule x -(k)-> x2 , x -(a)/> ==> g(x, y) -(k)-> g(x2, y) ;
rule x -(k)-> x2 ==> h(x) -(a)-> h(x2) ;
rule x -(|)-> x2 ==> h(x) -(|)-> x2 ;
rule x -(a)-> x2 ==> s(mu, x) -(a)-> s(mu, x2) ;
rule x -(< xD, -, xD2 >)-> x2 ==> r(x) -(< xD2, -, xD >)-> r(x2) ;
"""


def test_rule_shapes_that_move_one_argument(against_reference):
    spec = parse_spec(SHAPES)
    plans = _rule_plans(spec)
    assert [p.kind == THROUGH for p in plans] == [True, True, False, False, True, False, False, False]
    cases = {
        "f(a . 0 + | . 0, b . 0 + a . 0)": ["< a # f(0,b . 0 + a . 0) >", "< b # g(a . 0 + | . 0,0) >",
                                            "< | # f(0,b . 0 + a . 0) >"],
        "g(b . 0, a . 0)": ["< b # g(0,a . 0) >", "< b # g(a . 0,0) >"],
        "g(a . 0, b . 0)": ["< a # g(b . 0,0) >"],
        "h(a . 0 + | . b . 0)": ["< a # h(0) >", "< a # h(b . 0) >", "< | # b . 0 >"],
        "s(d, a . 0)": ["< a # s(d,0) >"],
        "r(< d, -, {} > . 0)": ["< < {},-,{d} > # r(0) >"],
    }
    for text, want in cases.items():
        t = parse_term(text, spec)
        assert [str(st) for st in step(spec, t)] == want, text
        normalize(spec, t)
    assert sum(1 for c in against_reference if c) >= 8


# A rule that moves its first argument, on an operator given a data
# constant where a process stands: no argument of the source may be a label.
DATAARG = """spec DATAARG
actions a ;
datasort Data ;
dataconst d : Data ;
op f : 2 ;
var x y x2 : Proc ;
rule x -(a)-> x2 ==> f(x, y) -(a)-> f(x2, y) ;
"""


@pytest.mark.parametrize("text", ["f(a . 0, d)", "f(d, a . 0)", "f(d, d)"])
def test_data_argument_refuses_a_rule_that_moves_one_argument(text, tmp_path, capsys):
    spec = parse_spec(DATAARG)
    assert spec.plans_for("f")[0].kind == THROUGH
    t = parse_term(text, spec)
    assert step(spec, t) == [] and render_term(normalize(spec, t)) == "0"
    assert bisimilar(spec, t, NIL)[0]
    path = tmp_path / "dataarg.sos"
    path.write_text(DATAARG, encoding="utf-8")
    for argv, want in [(["simulate", str(path), text], "Possible steps:\n"),
                       (["normalize", str(path), text], "0\n"),
                       (["bisim", str(path), text, "0"], f"true\n < {render_term(t)} ; 0 >\n")]:
        assert main(argv) == 0
        assert capsys.readouterr().out == want, argv
    # the rule still fires on two processes
    assert [str(s) for s in step(spec, parse_term("f(a . 0, a . 0)", spec))] == ["< a # f(0,a . 0) >"]


# -- when a rule asks for its arguments' moves --

# Rules whose ground premises test arguments that the source checks may
# refuse first: a data label where a process stands, or a label of the
# wrong sort.
GROUND_FIRST = """spec GROUND_FIRST
actions a ;
predicates | ;
datasort Data [assoc comm id: empty] ;
dataconst d u : Data ;
op f : 2 ;
op s : 2 ;
var x y x' y' : Proc ;
var mu : Data ;
rule x -(|)-> x' , y -(|)-> y' ==> f(x, y) -(|)-> 0 ;
rule x -(|)-> x' ==> s(mu, x) -(a)-> x' ;
"""


def test_ground_premises_wait_for_the_source_checks():
    """A rule asks for an argument's moves only once its source arguments
    pass their checks, then in premise order, each once, up to the first
    premise that leaves no bindings: the step cache keeps the first shape
    of a target it meets, so that order is part of what is printed."""
    spec = parse_spec(GROUND_FIRST)
    th = spec.theory
    both, one = (p for op in ("f", "s") for p in spec.plans_for(op))
    assert [k for k, _, _ in both.positives] == [0, 1] and [k for k, _, _ in one.positives] == [1]

    def solved(plan, text):
        args = parse_term(text, spec).args
        calls = []

        def recorded(k):
            calls.append(k)
            return simulator.moves(spec, args[k], {})

        return solve_rule(plan, args, recorded, th), calls

    cases = [
        (both, "f(d, | . 0)", []), (both, "f(| . 0, {d, u})", []),
        (one, "s(< d, -, d >, | . 0)", []), (one, "s(u, a . 0)", [1]),
        (both, "f(a . 0, | . 0)", [0]), (both, "f(| . 0, a . 0)", [0, 1]),
    ]
    for plan, text, asked in cases:
        assert solved(plan, text) == ([], asked), text
    rows, calls = solved(one, "s({d, u}, | . 0 + | . a . 0)")
    target = one.positives[0][1]
    assert calls == [1] and [render_term(r[target]) for r in rows] == ["0", "a . 0"]


TARGETS = """spec TARGETS
actions a b ;
predicates | ;
datasort Data [assoc comm id: none] ;
dataconst d u : Data ;
labelop mix : Label Label -> Label [comm] ;
op g : 1 ;  op f : 2 ;  op t : 1 ;  op s : 1 ;  op r : 1 ;  op v : 1 ;  op c : 1 ;
var x x' y : Proc ;
var k : Label ;
var xD xD' : Data ;
rule x -(k)-> x' ==> g(x) -(k)-> k . x' ;
rule x -(k)-> x' ==> f(x, y) -(k)-> x' + mix(b, a) . y ;
rule x -(k)-> x' ==> t(x) -(k)-> f(mix(k, a) . 0, | . 0) ;
rule x -(< xD, -, xD' >)-> x' ==> s(x) -(|)-> f(s(x'), < xD, -, none > . 0) ;
rule x -(k)-> x' ==> r(x) -(k)-> r(x') ;
rule x -(k)-> x' ==> v(x) -(k)-> x' ;
rule x -(k)-> x' ==> c(x) -(k)-> | . 0 ;
"""


def test_target_plans_build_what_substitution_builds():
    """A compiled target builds a term equal to the target with the bindings
    substituted, and one canonical node when an application over variables
    is built from canonical nodes only; a target that is neither a
    variable, nor ground, nor an application over variables is substituted
    as written."""
    spec = parse_spec(TARGETS)
    th = spec.theory
    plans = [p.target for p in _rule_plans(spec)]
    assert [p.kind for p in plans] == [SUBST, SUBST, SUBST, SUBST, APP, VAR, FIXED]
    written = plans[1].term.right.label  # mix(b, a): its canonical form differs
    assert str(written) == "mix(b,a)" and not is_canonical(written, th)
    assert is_canonical(plans[6].term, th)  # | . 0
    assert plans[4].slots == (2,) and plans[5].slot == 2  # x' comes after x and k
    built = 0
    for text in ["g(a . b . 0 + b . 0)", "f(a . 0 + mix(a, b) . 0, b . 0)", "t(a . 0 + b . 0)",
                 "s(< d, -, u > . 0 + < {d, u}, -, u > . b . 0)", "r(a . (b . 0 + a . 0))",
                 "v(a . b . 0 + b . 0)", "c(a . 0 + b . 0)"]:
        term = parse_term(text, spec)
        for args in (term.args, tuple(canon_term(a, th) for a in term.args)):
            for plan in spec.plans_for(term.op):
                moves = [[(s.label, s.target) for s in step(spec, a)] for a in args]
                for b in solve_rule(plan, args, moves.__getitem__, th):
                    sub = plan.substitution(b)
                    got = plan.target.under(b, th)
                    assert got == substitute_term(plan.rule.conclusion.target, sub), text
                    canonical = all(is_canonical(v, th) for v in sub.values())
                    if canonical and term.op == "r":
                        assert got is canon_term(got, th)
                    built += 1
    assert built >= 10


def test_store_slots_keep_their_sort(against_reference):
    """A store slot reads its sort as `match` does, though `{}` prints the
    same in every data sort."""
    spec = parse_spec("""spec SORTS
datasort Data [assoc comm id: none] ;  datasort Key [assoc comm id: nokey] ;
dataconst d : Data ;  dataconst k : Key ;
op r : 1 ;  op s : 1 ;  op t : 1 ;
var x x' : Proc ;
var xD xD' : Data ;
rule x -(< xD, -, xD' >)-> x' ==> r(x) -(< xD', -, xD >)-> r(x') ;
rule x -(< xD, -, none >)-> x' ==> s(x) -(< xD, -, xD >)-> s(x') ;
rule x -(< xD, -, xD >)-> x' ==> t(x) -(< xD, -, none >)-> t(x') ;
""")
    # `< d, -, none >` and `< d, -, nokey >` print alike.  Each is offered
    # alone here, as the reference compares negative premises by string;
    # `test_step_keeps_summands_that_print_alike` offers them together.
    cases = [
        ("r(< d, -, d > . 0 + < k, -, k > . 0 + < d, -, k > . 0)", "< {d},-,{d} >", "r"),
        ("s(< d, -, nokey > . 0)", None, "s"),
        ("s(< d, -, none > . 0)", "< {d},-,{d} >", "s"),
        ("t(< none, -, nokey > . 0 + < d, -, d > . 0)", "< {d},-,{} >", "t"),
    ]
    for text, label, op in cases:
        t = parse_term(text, spec)
        assert [str(s) for s in step(spec, t)] == ([f"< {label} # {op}(0) >"] if label else [])
        assert render_term(normalize(spec, t)) == (f"{label} . 0" if label else "0")
    assert against_reference == [1, 1, 0, 0, 0, 1, 1, 0, 1, 1, 0]


def test_bound_premise_label_keeps_its_sort():
    """A bound label variable meets only an offered label of its own sort,
    though `{}` prints the same in every data sort: through `solve_rule`
    with the offers built by hand, and through `step`, whose cache keeps the
    two arguments apart."""
    spec = parse_spec("""spec BOUND
datasort A [assoc comm id: ea] ;  datasort B [assoc comm id: eb] ;
dataconst a1 : A ;
op f : 2 ;
var x x2 y y2 : Proc ;
var k : Label ;
rule x -(k)-> x2 , y -(k)-> y2 ==> f(x, y) -(k)-> 0 ;
""")
    plan = spec.plans_for("f")[0]
    assert plan.positives[1][2].kind == BOUND
    th = spec.theory
    a, b = (canon_label(parse_label(f"< a1, -, {e} >", spec), th) for e in ("ea", "eb"))
    assert render_label(a) == render_label(b) and a != b
    for offered, fires in [((a, a), True), ((a, b), False), ((b, a), False)]:
        rows = solve_rule(plan, (NIL, NIL), lambda k: [(offered[k], NIL)], th)
        assert bool(rows) == fires, offered
    for e1, e2, fires in [("ea", "ea", True), ("ea", "eb", False), ("eb", "ea", False)]:
        t = parse_term(f"f(< a1, -, {e1} > . 0, < a1, -, {e2} > . 0)", spec)
        assert len(step(spec, t)) == fires, (e1, e2)
        assert len(build_lts(spec, [t]).states) == 1 + fires


def test_step_keeps_summands_that_print_alike():
    """Two summands whose labels print alike but differ in a data sort are
    two steps, and each meets only the premises of its own sort."""
    spec = parse_spec("""spec SORTS
datasort Data [assoc comm id: none] ;  datasort Key [assoc comm id: nokey] ;
dataconst d : Data ;
op s : 1 ;
var x x' : Proc ;
var xD : Data ;
rule x -(< xD, -, none >)-> x' ==> s(x) -(< xD, -, xD >)-> s(x') ;
""")
    th = spec.theory
    both = parse_term("< d, -, none > . 0 + < d, -, nokey > . 0", spec)
    steps = step(spec, both)
    assert [str(s) for s in steps] == ["< < {d},-,{} > # 0 >"] * 2
    assert steps[0].label != steps[1].label
    assert render_term(canon_term(both, th)) == "< {d},-,{} > . 0 + < {d},-,{} > . 0"
    for text in ("s(< d, -, nokey > . 0 + < d, -, none > . 0)",
                 "s(< d, -, none > . 0 + < d, -, nokey > . 0)"):
        assert [str(s) for s in step(spec, parse_term(text, spec))] == ["< < {d},-,{d} > # s(0) >"]


# -- work counts --------------------------------------------------------------


def test_bccsp_par_exploration_makes_no_match_call(par, monkeypatch):
    """`bccsp_par.sos`'s premise labels are a bare `alpha` or the ground `|`,
    so its rule plans never call the matcher."""
    calls = []

    def counted(*args):
        calls.append(args)
        return match(*args)

    monkeypatch.setattr(matching, "match", counted)
    lts = build_lts(par, [parse_term(" || ".join(["a . b . | . 0"] * 6), par)])
    assert len(lts.states) == 3 ** 6 + 1 and calls == []


def test_store_triples_make_no_match_call(linda, full, monkeypatch):
    """`linda.sos`'s and `full.sos`'s premise labels are a bare variable,
    ground, or a store triple over two slot variables, so neither `step`
    nor `normalize` calls the matcher on them."""
    calls = []

    def counted(*args):
        calls.append(args)
        return match(*args)

    monkeypatch.setattr(matching, "match", counted)
    rng = random.Random(34)
    normalize(linda, parse_term(_linda_chain(rng, 24), linda))
    pair = parse_term(f"({_linda_chain(rng, 3)}) || ({_linda_chain(rng, 3)})", linda)
    assert len(build_lts(linda, [pair]).states) > 10
    fired = 0
    for _ in range(100):
        t = random_full_term(rng, 3)
        fired += len(step(full, t))
        normalize(full, t)
    assert fired > 100 and calls == []
