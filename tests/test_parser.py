"""Specification language: tokenizing, declarations, rules, error reporting."""

import random
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sosforge import corpus_text, load_corpus, parse_label, parse_spec, parse_term
from sosforge.commform import render_spec
from sosforge.errors import (
    ArityMismatch,
    DuplicateDeclaration,
    ParseError,
    UnboundVariable,
    UnknownSymbol,
)
from sosforge.parser import Tokens
from sosforge.terms import ActConst, LApp, LVar, canon_label, render_label, render_term
from termgen import front_spec_text, random_bccsp_term, random_full_term

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


# A comment the tokenizer reads on its Unicode path: a letter, a digit that
# is not decimal and a numeral beyond ASCII.
UNICODE_COMMENT = "# é ² ½\n"


def test_generated_specs_roundtrip():
    """Generated, bundled and benchmark specs render back to themselves, and
    parse the same when a non-ASCII comment takes the tokenizer off its
    ASCII path."""
    rng = random.Random(18)
    texts = [_random_spec_text(rng, k) for k in range(80)]
    texts += [corpus_text(name) for name in CORPUS]
    texts += [front_spec_text(9, 10), front_spec_text(9, 40)]
    for text in texts:
        spec = parse_spec(text)
        assert parse_spec(text + UNICODE_COMMENT) == spec, text
        rendered = render_spec(spec)
        assert render_spec(parse_spec(rendered)) == rendered, text


# -- tokenizer against the character-by-character reference --------------------


@dataclass(frozen=True)
class OracleToken:
    kind: str  # IDENT NAT OPNAME SYM PUNCT EOF
    text: str
    line: int
    col: int


_ORACLE_SYM = set("|!?~^&*%@/")
_ORACLE_PUNCT = set("(){}[]<>,;:=.+-")
_ORACLE_OPNAME_INNER = _ORACLE_SYM | {";", "+", "."}


def oracle_tokenize(text: str) -> list[OracleToken]:
    """The tokenizer the regular expression replaced, one character at a time."""
    toks: list[OracleToken] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if c.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            toks.append(OracleToken("IDENT", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(OracleToken("NAT", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if c == "_":
            j = i + 1
            while j < n and text[j] in _ORACLE_OPNAME_INNER:
                j += 1
            if j == i + 1 or j >= n or text[j] != "_":
                raise ParseError("malformed operator name", line, start_col)
            toks.append(OracleToken("OPNAME", text[i:j + 1], line, start_col))
            col += j + 1 - i
            i = j + 1
            continue
        if c in _ORACLE_SYM:
            j = i
            while j < n and text[j] in _ORACLE_SYM:
                j += 1
            toks.append(OracleToken("SYM", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if c in _ORACLE_PUNCT:
            toks.append(OracleToken("PUNCT", c, line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {c!r}", line, start_col)
    toks.append(OracleToken("EOF", "", line, col))
    return toks


def token_kind(t: str) -> str:
    """A token's kind, read off its first character."""
    c = t[:1]
    if not c:
        return "EOF"
    if c in _ORACLE_PUNCT:
        return "PUNCT"
    if c in _ORACLE_SYM:
        return "SYM"
    if c == "_":
        return "OPNAME"
    return "IDENT" if c.isalpha() else "NAT"


def regex_tokenize(text: str) -> list[OracleToken]:
    src = Tokens(text)
    out = []
    for i, t in enumerate(src.toks):
        out.append(OracleToken(token_kind(t), t, *src.position(i)))
        if not t:
            return out
    raise AssertionError("no end-of-input token")


def _outcome(tokenize, text):
    try:
        return tokenize(text)
    except ParseError as e:
        return ("error", str(e))


# The spec alphabet, blanks and comments, and letters and digits beyond ASCII:
# `é` is a letter, `١` a decimal digit, `²` a digit that is not decimal, `½`
# a numeral that is neither.
TOKEN_CHARS = list("abxyz0179_'|!?~^&*%@/(){}[]<>,;:=.+-#$ \t\r\n") + ["é", "²", "١", "½", " "]
TOKEN_CHUNKS = [
    "spec", "rule", "x'", "_||_", "_;_", "_+._", "# note\n", "#", "\r\n", "\t", "  ",
    "é", "x²", "1²", "²a", "١٢", "a١", "½", "a½", "ab_c", "->", "==>", "-(", ")/>",
]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(TOKEN_CHARS), st.sampled_from(TOKEN_CHUNKS)), max_size=40))
def test_tokenizer_matches_reference(parts):
    text = "".join(parts)
    assert _outcome(regex_tokenize, text) == _outcome(oracle_tokenize, text)


@pytest.mark.parametrize("name", CORPUS)
def test_tokenizer_matches_reference_on_corpus(name):
    text = corpus_text(name)
    assert regex_tokenize(text) == oracle_tokenize(text)


# -- exact error messages ------------------------------------------------------------

ERR_HEAD = "spec E\nactions a b ;\nop f : 1 ;\nvar x x' : Proc ;\n"

# (what is parsed, input, exception type, str(exception)); recorded from the
# character-by-character tokenizer and the backtracking term parser, and rows
# added since from the parser of their day
ERROR_TABLE = [
    # tokenizer
    ("spec", "spec X\nactions a $ ;\n", "ParseError", "2:11: unexpected character '$'"),
    ("spec", "spec X\nop _ : 2 ;\n", "ParseError", "2:4: malformed operator name"),
    ("spec", "spec X\nop _||x_ : 2 ;\n", "ParseError", "2:4: malformed operator name"),
    ("spec", "spec X\nop _||", "ParseError", "2:4: malformed operator name"),
    # end of input, with and without a trailing newline or comment
    ("spec", ERR_HEAD + "rule x -(a)-> x' ==> f(x) -(a)-> x'",
     "ParseError", "5:36: missing ; at end of declaration"),
    ("spec", ERR_HEAD + "rule x -(a)-> x' ==> f(x) -(a)-> x'\n",
     "ParseError", "6:1: missing ; at end of declaration"),
    ("spec", ERR_HEAD + "rule x -(a)-> x' ==> f(x) -(a)-> x' # no terminator",
     "ParseError", "5:37: missing ; at end of declaration"),
    ("spec", "spec X\nactions a b\n", "ParseError", "3:1: expected ';'"),
    ("spec", "spec X\nactions a b", "ParseError", "2:12: expected ';'"),
    ("spec", "spec X\nactions a b # comment", "ParseError", "2:13: expected ';'"),
    ("spec", "spec X\r\nactions a b\r\n", "ParseError", "3:1: expected ';'"),
    # right after a comment
    ("spec", "spec X\nactions a ; # note\n  zap ;\n",
     "ParseError", "3:3: expected a declaration keyword, got 'zap'"),
    ("spec", "# lead\n\tspec X # c\n# only a comment\n\t actions a ; op ;\n",
     "ParseError", "4:18: expected operator name"),
    # declarations
    ("spec", "actions a ;\n", "ParseError", "1:1: specification must start with 'spec'"),
    ("spec", "spec X\nactions a ;\nactions a ;\n",
     "DuplicateDeclaration", "3:9: a already declared as an action"),
    # a variable's name is declared once, so its node alone says its kind
    ("spec", "spec X\nvar x : Proc ;\nvar x : Label ;\n",
     "DuplicateDeclaration", "3:5: x already declared as a variable"),
    ("spec", "spec X\nvar x : Proc ;\nactions x ;\n",
     "DuplicateDeclaration", "3:9: x already declared as a variable"),
    ("spec", "spec X\nop f : ١ ;\nop g : x ;\n", "ParseError", "3:8: expected arity"),
    ("spec", "spec X\nop f : ١ ;\nop g : ² ;\n", "ParseError", "3:8: expected arity"),
    ("spec", "spec X\nactions a ;\nspec Y\n", "ParseError", "3:1: only one spec header is allowed"),
    ("spec", "spec X\nop _+_ : 2 ;\n", "DuplicateDeclaration", "2:4: + is built in"),
    ("spec", "spec X\ndatasort Proc ;\n", "DuplicateDeclaration", "2:10: sort Proc already exists"),
    ("spec", "spec X\ndatasort D ;\ndatasort D ;\n",
     "DuplicateDeclaration", "3:10: sort D already exists"),
    ("spec", "spec X\ndataconst c : Zed ;\n", "ParseError", "unknown data sort Zed for constant c"),
    ("spec", "spec X\nvar v : Zed ;\n", "ParseError", "unknown sort Zed for variable v"),
    ("spec", "spec X\ndatasort A [id: e] ;\ndatasort B [id: e] ;\n",
     "ParseError", "identity e is not a B constant"),
    ("spec", "spec X\nactions a ;\nlabelop m : Label Label -> Label [id: zz] ;\n",
     "UnknownSymbol", "unknown identity constant zz"),
    ("spec", "spec X\nlabelop m : Proc -> Label ;\n",
     "ParseError", "invalid sort Proc in label operator m"),
    ("spec", "spec X\nop f : 1 [comm zap] ;\n", "ParseError", "2:16: unknown attribute 'zap'"),
    # `op` takes only `comm`; an identity names a data constant, not a name of another kind
    ("spec", "spec X\nop f : 1 [assoc id: zz] ;\n",
     "ParseError", "2:11: op does not take attribute 'assoc'"),
    ("spec", "spec X\nop f : 1 [comm id: zz] ;\n", "ParseError", "2:16: op does not take attribute 'id'"),
    ("spec", "spec X\nactions a ;\ndatasort D [id: a] ;\n",
     "ParseError", "identity a is not a D constant"),
    ("spec", "spec X\ndatasort D [id: x] ;\nvar x : Proc ;\n",
     "ParseError", "identity x is not a D constant"),
    # an attribute block left open; an identity that is a keyword
    ("spec", "spec X\nop f : 1 [comm ;\n", "ParseError", "2:16: expected ']'"),
    ("spec", "spec X\nop f : 1 [comm", "ParseError", "2:15: expected ']'"),
    ("spec", "spec X\nactions e ;\nlabelop m : Label Label -> Label [comm id: e ;\n",
     "ParseError", "3:46: expected ']'"),
    ("spec", "spec X\ndatasort D [id: e\nop f : 1 ;\n", "ParseError", "3:1: expected ']'"),
    ("spec", "spec X\ndatasort D [id: op] ;\n", "ParseError", "2:17: expected identity constant"),
    ("spec", "spec X\nactions e ;\nlabelop m : Label Label -> Label [assoc id: var] ;\n",
     "ParseError", "3:45: expected identity constant"),
    # rules and definitions
    ("spec", ERR_HEAD + "rule x -(a)-> z ==> f(x) -(a)-> z ;\n",
     "UnknownSymbol", "5:15: undeclared identifier z"),
    ("spec", ERR_HEAD + "rule x -(c)-> x' ==> f(x) -(a)-> x' ;\n",
     "UnknownSymbol", "5:10: undeclared label c"),
    ("spec", ERR_HEAD + "rule x -(a)-> x' ==> f(x, x) -(a)-> x' ;\n",
     "ArityMismatch", "5:22: f expects 1 arguments, got 2"),
    ("spec", ERR_HEAD + "def p = a . b ;\n",
     "ParseError", "5:13: label constant b cannot stand alone as a process"),
    ("spec", ERR_HEAD + "def p = a . x ;\n", "UnboundVariable", "definition p is not closed: x"),
    ("spec", ERR_HEAD + "def p a . 0 ;\n", "ParseError", "5:7: expected = after definition name"),
    ("spec", ERR_HEAD + "rule ==> f(x) -(a)/> ;\n",
     "ParseError", "5:22: a conclusion cannot be negative"),
    ("spec", ERR_HEAD + "rule x -(a)-> x' f(x) -(a)-> x' ;\n", "ParseError", "5:18: expected ==>"),
    ("spec", ERR_HEAD + "datasort A ;\ndataconst p : A ;\nrule x -(p)-> x' ==> f(x) -(a)-> x' ;\n",
     "ParseError", "7:10: data term cannot be a transition label"),
    ("spec", ERR_HEAD + "datasort A ;\ndatasort B ;\ndataconst p : A ;\ndataconst q : B ;\n"
     "rule x -(< {p, q}, -, p >)-> x' ==> f(x) -(a)-> x' ;\n",
     "ParseError", "9:12: multiset elements must share one sort"),
    ("spec", ERR_HEAD + "datasort A ;\ndatasort B ;\nrule x -(< {}, -, {} >)-> x' ==> f(x) -(a)-> x' ;\n",
     "ParseError", "7:12: cannot infer the sort of an empty multiset"),
    # terms
    ("term", "zap . 0", "UnknownSymbol", "1:1: undeclared identifier zap"),
    ("term", "zap(0)", "UnknownSymbol", "1:1: undeclared identifier zap"),
    ("term", "g(0)", "ArityMismatch", "1:1: g expects 2 arguments, got 1"),
    ("term", "g(0, 0, 0)", "ArityMismatch", "1:1: g expects 2 arguments, got 3"),
    ("term", "a . 0\n  + é . 0", "UnknownSymbol", "2:5: undeclared identifier é"),
    # a prefix body that is a label
    ("term", "a . b", "ParseError", "1:5: label constant b cannot stand alone as a process"),
    ("term", "a . {d}", "ParseError", "1:5: data term in process position"),
    ("term", "a . mu", "ParseError", "1:5: variable mu : Data cannot appear here"),
    ("term", "a . mix(a, b)", "UnknownSymbol", "1:5: undeclared identifier mix"),
    ("term", "a . (b)", "ParseError", "1:6: label constant b cannot stand alone as a process"),
    # labels that fail where a prefix could start
    ("term", "mix(a) . 0", "ArityMismatch", "1:1: mix expects 2 arguments, got 1"),
    ("term", "mix(a, b) + 0", "UnknownSymbol", "1:1: undeclared identifier mix"),
    ("term", "(mix(a, b, c)) . 0", "ArityMismatch", "1:2: mix expects 2 arguments, got 3"),
    ("term", "< {x}, -, {d} > . 0", "ParseError", "1:1: data term in process position"),
    ("term", "< {d}, -, {d} > + 0", "ParseError", "1:1: data term in process position"),
    ("term", "{d} . 0", "ParseError", "1:1: data term in process position"),
    ("term", "(a) + 0", "ParseError", "1:2: label constant a cannot stand alone as a process"),
    ("term", "((a . 0)", "ParseError", "1:9: expected ')'"),
    ("term", "((a# c)) . (b . 0)",
     "ParseError", "1:3: label constant a cannot stand alone as a process"),
    ("term", "a . 0 +", "ParseError", "1:8: expected a term"),
    ("term", "a . 0 ||", "ParseError", "1:7: unexpected '||' after term"),
    ("term", "1 . 0", "ParseError", "1:1: the only numeric process is 0"),
    ("term", "| . 0 )", "ParseError", "1:7: unexpected ')' after term"),
    ("term", "|", "ParseError", "1:1: label constant | cannot stand alone as a process"),
    ("term", "x . 0", "ParseError", "1:3: unexpected '.' after term"),
    ("term", "g(x, 0)", "UnboundVariable", "term is not closed: x"),
    ("term", "ask(a)", "ParseError", "1:5: label constant a cannot stand alone as a process"),
    ("term", "w1 . 0", "ParseError", "1:4: unexpected '.' after term"),
    ("term", "ask(d + 0)", "ParseError", "1:10: choice combines process terms"),
    ("term", "ask(0 + d)", "ParseError", "1:10: choice combines process terms"),
    # labels
    ("label", "mix(a)", "ArityMismatch", "1:1: mix expects 2 arguments, got 1"),
    ("label", "mix(a, d)", "ParseError", "1:1: mix argument d is not of sort Label"),
    ("label", "x", "ParseError", "1:1: process variable x in label position"),
    ("label", "{a}", "ParseError", "1:1: multiset elements must be data terms"),
    ("label", "{d, mix(a, b)}", "ParseError", "1:1: multiset elements must be data terms"),
    ("label", "< d, +, d >", "ParseError", "1:6: expected '-'"),
    ("label", "a b", "ParseError", "1:3: unexpected 'b' after term"),
    ("label", "0", "ParseError", "1:1: expected a label"),
    ("label", "(a", "ParseError", "1:3: expected ')'"),
    ("label", "< a, -, d >", "ParseError", "1:3: store slots hold data terms"),
    ("label", "< d, -, mix(a, b) >", "ParseError", "1:9: store slots hold data terms"),
]


@pytest.mark.parametrize("what, text, kind, message", ERROR_TABLE)
def test_error_messages_exact(full, what, text, kind, message):
    with pytest.raises(ParseError) as e:
        if what == "spec":
            parse_spec(text)
        elif what == "term":
            parse_term(text, full)
        else:
            parse_label(text, full)
    assert (type(e.value).__name__, str(e.value)) == (kind, message)


def test_prefix_labels_in_parentheses(full):
    """A parenthesized label still prefixes; a parenthesized process groups."""
    assert parse_term("(a) . 0", full) == parse_term("a . 0", full)
    assert parse_term("((mix(a, b))) . 0", full) == parse_term("mix(a, b) . 0", full)
    t = parse_term("(< {d}, -, {d} > . 0 + a . 0) || (b . 0)", full)
    assert t.op == "_||_" and render_term(t.args[0]) == "< {d},-,{d} > . 0 + a . 0"
    assert parse_term("ask(< {d}, -, {d} >)", full) == parse_term("ask(< {d},-,{d} >)", full)
    assert parse_label("mix((a), b)", full) == parse_label("mix(a, b)", full)
    assert parse_term("mix((a), (b)) . 0", full) == parse_term("mix(a, b) . 0", full)


def test_leaves_are_shared_nodes(full):
    """A process variable, a recursion constant and 0 are one node per spec,
    and so is a data variable or constant, as an argument or as a label."""
    t = parse_term("g(x, x) || (w1 + 0)", full, closed=False)
    assert t.args[0].args[0] is t.args[0].args[1]
    again = parse_term("x || a . w1 + 0", full, closed=False)
    assert again.args[0] is t.args[0].args[0]
    assert again.args[1].left.body is t.args[1].left
    assert again.args[1].right is t.args[1].right
    data = parse_term("ask(mu) || tell(d)", full, closed=False)
    leaf = full.parse_context.leaf_labels
    assert data.args[0].args[0] is leaf["mu"] and data.args[1].args[0] is leaf["d"]


# -- label operators declared assoc ----------------------------------------------

LID = """spec LID
actions a b e ;
labelop cat : Label Label -> Label [assoc id: e] ;
labelop mix : Label Label -> Label [comm id: e] ;
labelop seq : Label Label -> Label ;
op f : 1 ;
var x x' : Proc ;
var k l : Label ;
var alpha : Action ;
rule x -(k)-> x' ==> f(x) -(cat(k, a))-> x' ;
"""


def test_assoc_label_takes_more_arguments():
    """An `assoc` operator reads back the flat application it canonicalizes to."""
    lid = parse_spec(LID)
    flat = parse_label("cat(a, b, a)", lid)
    assert flat == LApp("cat", (ActConst("a"), ActConst("b"), ActConst("a")))
    assert render_label(flat) == "cat(a,b,a)"
    for nested in ("cat(cat(a, b), a)", "cat(a, cat(b, a))"):
        assert canon_label(parse_label(nested, lid), lid.theory) == flat
    assert parse_label(render_label(flat), lid) == flat
    assert parse_label("cat(k, alpha, b, l)", lid).args == (
        LVar("k", "Label"), LVar("alpha", "Action"), ActConst("b"), LVar("l", "Label"))


@pytest.mark.parametrize("text, kind, message", [
    ("cat(a)", "ArityMismatch", "1:1: cat expects 2 arguments, got 1"),
    ("cat()", "ArityMismatch", "1:1: cat expects 2 arguments, got 0"),
    ("cat(a, b, x)", "ParseError", "1:11: process variable x in label position"),
    ("mix(a, b, a)", "ArityMismatch", "1:1: mix expects 2 arguments, got 3"),
    ("seq(a, b, a)", "ArityMismatch", "1:1: seq expects 2 arguments, got 3"),
])
def test_operators_keep_their_arity_errors(text, kind, message):
    with pytest.raises(ParseError) as e:
        parse_label(text, parse_spec(LID))
    assert (type(e.value).__name__, str(e.value)) == (kind, message)


def test_assoc_arguments_keep_their_sorts():
    text = LID.replace("labelop cat : Label Label", "labelop cat : Action Action")
    lid = parse_spec(text.replace("rule x -(k)-> x' ==> f(x) -(cat(k, a))-> x' ;\n", ""))
    assert parse_label("cat(a, alpha, b)", lid).sort == "Label"
    with pytest.raises(ParseError) as e:
        parse_label("cat(a, b, k)", lid)
    assert str(e.value) == "1:1: cat argument k is not of sort Action"


def test_canon_label_assoc_and_identity():
    """`canon_label` flattens `assoc`, drops an `id:` constant, sorts `comm`."""
    lid = parse_spec(LID)
    th = lid.theory

    def canon(text):
        return render_label(canon_label(parse_label(text, lid), th))

    assert canon("cat(cat(a, b), cat(b, a))") == "cat(a,b,b,a)"
    assert canon("cat(a, cat(e, b))") == "cat(a,b)"
    assert canon("cat(e, a)") == "a"
    assert canon("cat(e, e)") == "e"
    assert canon("cat(e, cat(e, a), e)") == "a"
    assert canon("mix(b, a)") == "mix(a,b)"
    assert canon("mix(b, e)") == "b"
    assert canon("mix(cat(b, a), cat(a, b))") == "mix(cat(a,b),cat(b,a))"
    assert canon("cat(mix(b, a), k)") == "cat(mix(a,b),k)"
    assert canon("seq(seq(a, b), e)") == "seq(seq(a,b),e)"  # no attributes, no equations


def test_parse_context_built_once_per_spec():
    spec = parse_spec(corpus_text("full"))
    ctx = vars(spec).get("parse_context")
    assert ctx is not None  # parse_spec built it for the rules and kept it
    parse_term("a . 0 || g(b . 0, 0)", spec)
    parse_label("mix(a, b)", spec)
    assert spec.parse_context is ctx


# -- layout does not matter --------------------------------------------------------

SEPARATORS = [" ", "  ", "\n", "\t", "\r\n", " # a comment\n", "\n# ( ; _ $ é\n\n", " \t\r\n "]


@settings(max_examples=30, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("name", CORPUS)
def test_relaid_corpus_parses_equal(name, data):
    toks = Tokens(corpus_text(name)).toks
    toks = toks[:toks.index("")]
    seps = data.draw(st.lists(st.sampled_from(SEPARATORS), min_size=len(toks) + 1,
                              max_size=len(toks) + 1))
    text = "".join(sep + tok for sep, tok in zip(seps, toks)) + seps[-1]
    assert parse_spec(text) == load_corpus(name)
