"""Specification language: tokenizing, declarations, rules, error reporting."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sosforge import corpus_text, parse_label, parse_spec, parse_term
from sosforge.errors import (
    ArityMismatch,
    DuplicateDeclaration,
    ParseError,
    UnboundVariable,
    UnknownSymbol,
)
from sosforge.tss import render_spec
from sosforge.terms import render_label, render_term
from termgen import random_bccsp_term, random_full_term

CORPUS = ("bccsp", "bccsp_par", "g", "linda", "recursion", "full")


# -- round trips ---------------------------------------------------------------


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_render_fixpoint(name):
    spec = parse_spec(corpus_text(name))
    text = render_spec(spec)
    assert parse_spec(text) == spec
    again = render_spec(parse_spec(text))
    assert again == text


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), depth=st.integers(0, 4))
def test_full_term_render_parse_roundtrip(full, seed, depth):
    t = random_full_term(random.Random(seed), depth)
    assert parse_term(render_term(t), full) == t


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), depth=st.integers(0, 5), rich=st.booleans())
def test_bccsp_term_render_parse_roundtrip(full, seed, depth, rich):
    t = random_bccsp_term(random.Random(seed), depth, rich)
    assert parse_term(render_term(t), full) == t


def test_explicit_base_rules_parse():
    """The base fragment written out as rules is valid input syntax."""
    text = """
    spec BASE_EXPL
    actions a b ;
    var x y x' : Proc ;
    var alpha : Action ;
    rule ==> alpha . x -(alpha)-> x ;
    rule x -(alpha)-> x' ==> x + y -(alpha)-> x' ;
    rule y -(alpha)-> x' ==> x + y -(alpha)-> x' ;
    """
    spec = parse_spec(text)
    assert len(spec.rules) == 3
    assert str(spec.rules[0]) == "==> alpha . x -(alpha)-> x"
    assert str(spec.rules[1]) == "x -(alpha)-> x' ==> x + y -(alpha)-> x'"


def test_infix_and_predicate_tokens(par):
    t = parse_term("| . 0 || | . 0", par)
    assert render_term(t) == "| . 0 || | . 0"


def test_semicolon_infix_vs_terminator(linda):
    t = parse_term("ask(u) ; tell(v)", linda)
    assert render_term(t) == "ask(u) ; tell(v)"
    # and the declaration terminator still closes rules containing infix ;
    assert len(linda.rules) == 9


def test_triple_prefix_label_roundtrip(linda):
    text = "< {d, u},-,{d, u} > . < {d},-,{d, v} > . | . 0"
    assert render_term(parse_term(text, linda)) == text


def test_empty_mset_single_data_sort(linda):
    assert render_label(parse_label("{}", linda)) == "{}"


def test_comments_and_primes():
    text = """
    # leading comment
    spec TICK
    actions a ;  # trailing comment
    var x x' x'' : Proc ;
    var alpha : Action ;
    rule x -(alpha)-> x'' ==> tick(x) -(alpha)-> x'' ;
    op tick : 1 ;
    """
    spec = parse_spec(text)
    assert spec.name == "TICK"
    assert "x''" in spec.variables


# -- errors ---------------------------------------------------------------------


def test_duplicate_declaration_position():
    text = "spec D\nactions a ;\nactions a ;\n"
    with pytest.raises(DuplicateDeclaration) as e:
        parse_spec(text)
    assert e.value.line == 3


def test_unknown_symbol(par):
    with pytest.raises(UnknownSymbol):
        parse_term("zap(0)", par)


def test_arity_mismatch(gspec):
    with pytest.raises(ArityMismatch):
        parse_term("g(0)", gspec)
    with pytest.raises(ArityMismatch):
        parse_term("g(0, 0, 0)", gspec)


def test_closed_term_rejects_free_vars(par):
    with pytest.raises(UnboundVariable):
        parse_term("x", par)
    with pytest.raises(UnboundVariable):
        parse_term("a . 0 || y", par)
    # closed=False admits them
    t = parse_term("x || y", par, closed=False)
    assert render_term(t) == "x || y"


def test_unbound_def_body():
    text = """
    spec UD
    actions a ;
    var x : Proc ;
    def p = a . x ;
    """
    with pytest.raises(UnboundVariable):
        parse_spec(text)


def test_undeclared_variable_in_rule():
    text = """
    spec UV
    actions a ;
    op f : 1 ;
    var x : Proc ;
    rule x -(a)-> z ==> f(x) -(a)-> z ;
    """
    with pytest.raises(ParseError):
        parse_spec(text)


def test_negative_conclusion_rejected():
    text = """
    spec NC
    actions a ;
    op f : 1 ;
    var x : Proc ;
    rule ==> f(x) -(a)/> ;
    """
    with pytest.raises(ParseError) as e:
        parse_spec(text)
    assert "negative" in str(e.value)


def test_data_literal_not_a_process(linda):
    with pytest.raises(ParseError):
        parse_term("{d} . 0", linda)


def test_error_carries_position():
    with pytest.raises(ParseError) as e:
        parse_spec("spec X\nactions ;\n")
    assert e.value.line == 2


# -- generated specs --------------------------------------------------------------


def _random_spec_text(rng: random.Random, k: int) -> str:
    lines = [f"spec GEN{k}", "actions a b c ;"]
    if rng.random() < 0.5:
        lines.append("predicates | ;")
    attrs = " [comm]" if rng.random() < 0.4 else ""
    lines.append(f"op f : 2{attrs} ;")
    if rng.random() < 0.5:
        lines.append("op h : 1 ;")
        lines.append("rule x -(alpha)-> x' ==> h(x) -(alpha)-> x' ;")
    lines.append("var x y x' y' : Proc ;")
    lines.append("var alpha beta : Action ;")
    shapes = [
        "rule x -(alpha)-> x' ==> f(x,y) -(alpha)-> f(x',y) ;",
        "rule y -(alpha)-> y' ==> f(x,y) -(alpha)-> f(x,y') ;",
        "rule x -(alpha)-> x' , y -(alpha)-> y' ==> f(x,y) -(alpha)-> x' + y' ;",
        "rule x -(alpha)-> x' , y -(beta)/> ==> f(x,y) -(alpha)-> x' ;",
        "rule ==> f(x,y) -(a)-> x + y ;",
    ]
    for s in shapes:
        if rng.random() < 0.6:
            lines.append(s)
    if rng.random() < 0.4:
        lines.append("def w = a . w + b . 0 ;")
    return "\n".join(lines) + "\n"


def test_generated_specs_roundtrip():
    rng = random.Random(18)
    for k in range(80):
        text = _random_spec_text(rng, k)
        spec = parse_spec(text)
        rendered = render_spec(spec)
        assert render_spec(parse_spec(rendered)) == rendered, text
