"""One-step semantics: rule solving, caching, caps, determinism."""

import random

import pytest

from sosforge import parse_spec, parse_term
from sosforge.errors import BudgetExceeded
from sosforge.simulator import step
from sosforge.terms import NIL, App, Choice, DefConst, render_term
from termgen import random_bccsp_term

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


def test_unguarded_definition_hits_depth_cap():
    spec = parse_spec(
        "spec U\nactions a ;\ndef p = p + a . 0 ;\n"
    )
    with pytest.raises(BudgetExceeded) as e:
        step(spec, DefConst("p"))
    assert "unguarded" in str(e.value)


def test_step_set_cap(par):
    t = parse_term("a . 0 + b . 0 + c . 0", par)
    with pytest.raises(BudgetExceeded):
        step(par, t, set_cap=2)
    assert len(step(par, t, set_cap=3)) == 3


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
    "text, want",
    [
        ("f(a . 0, a . 0)", ["< a # 0 >"]),
        ("f(a . 0 + a . 0, a . 0)", ["< a # 0 >"]),
        ("f(0, a . 0)", []),
        ("f(a . 0, 0)", []),
        ("h(u, u)", ["< a # 0 >"]),
        ("h(d, u)", []),
        ("h(u, d)", []),
    ],
)
def test_repeated_source_variable_needs_equal_arguments(text, want):
    spec = parse_spec(REPEATED_SOURCE)
    assert [str(s) for s in step(spec, parse_term(text, spec))] == want
