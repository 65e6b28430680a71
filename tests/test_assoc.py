"""Associativity proved from the rules, and the regrouping `normalize` does with it."""

import random

import pytest

import assoc_oracle
from sosforge import commform, corpus_text, load_corpus, parse_spec, parse_term
from sosforge.axioms import NormalizeBudget, normalize
from sosforge.bisim import bisimilar
from sosforge.cli import main
from sosforge.commform import proves_assoc
from sosforge.errors import BudgetExceeded
from sosforge.terms import App, render_term, replace

# -- the proof on the bundled specs ---------------------------------------------------

VERDICTS = {
    "bccsp_par": {"_||_": True},
    "g": {"g": False},
    "linda": {"_;_": True, "_||_": True},
    "full": {"g": False, "_;_": True, "_||_": True},
}


@pytest.mark.parametrize("name", sorted(VERDICTS))
def test_bundled_binary_operators(name):
    spec = load_corpus(name)
    binaries = {op.name for op in spec.proc_ops.values() if op.arity == 2}
    assert binaries == set(VERDICTS[name])
    assert {op: proves_assoc(spec, op) for op in binaries} == VERDICTS[name]


@pytest.mark.parametrize("name", sorted(VERDICTS))
def test_verdict_ignores_rule_order_and_variable_names(name):
    spec = load_corpus(name)
    shuffled = replace(spec, rules=tuple(reversed(spec.rules)))
    renamed = parse_spec(corpus_text(name).replace("x'", "xx").replace("xD", "zD"))
    for other in (shuffled, renamed):
        assert {op: proves_assoc(other, op) for op in VERDICTS[name]} == VERDICTS[name]


@pytest.mark.parametrize("seed", [1, 2])
def test_proved_operators_are_associative_on_random_terms(seed):
    rng = random.Random(seed)
    for name in assoc_oracle.BUNDLED:
        assert assoc_oracle.check(load_corpus(name), rng, 10) == [], name


def test_proved_operators_of_mutated_specs_are_associative():
    failures, proved = assoc_oracle.sweep(range(1, 2), 150)
    assert failures == []
    assert proved >= 3


def test_associative_is_proved_once_per_operator_and_spec(monkeypatch):
    calls = []
    monkeypatch.setattr(commform, "proves_assoc", lambda spec, op: calls.append(op) or True)
    spec = load_corpus("linda")
    chain = " ; ".join(["tell(u)", "get(u)"] * 4)
    normalize(spec, parse_term(f"({chain}) || ({chain})", spec))
    normalize(spec, parse_term(chain, spec))
    assert calls == ["_;_"]
    assert load_corpus("linda").associative("_;_") and calls == ["_;_", "_;_"]


# -- shapes the proof refuses ----------------------------------------------------------

HEADER = ("actions a b c ; predicates | ; datasort Data [assoc comm id: empty] ; dataconst d u : Data ; "
          "labelop pr : Label Label -> Label ; labelop plus : Data Data -> Data ; op f : 2 ; "
          "var x y x' y' x2 : Proc ; var alpha : Action ; var k : Label ; var P : Predicate ; var xD xD' : Data ;\n")
REFUSED = {
    # the second argument moves into the first place
    "swapped": ("x -(a)-> x' ==> f(x,y) -(a)-> f(y, x')",
                "x -(|)-> x' , y -(b)-> y' ==> f(x,y) -(b)-> y'"),
    # y may move only while x cannot do a
    "negative": ("x -(a)-> x' ==> f(x,y) -(a)-> f(x', y)",
                 "y -(b)-> y' , x -(a)/> ==> f(x,y) -(b)-> y'"),
    # alpha takes the actions among the labels k stands for
    "partial": ("x -(alpha)-> x' ==> f(x,y) -(alpha)-> f(x', y)",
                "y -(k)-> y' ==> f(x,y) -(k)-> y'"),
    # two premises on x
    "two_premises": ("x -(a)-> x' , x -(b)-> x2 ==> f(x,y) -(a)-> f(x', y)",
                     "y -(c)-> y' ==> f(x,y) -(c)-> y'"),
    # a conclusion label under a label operator meets the premise on x
    "operator_label": ("x -(k)-> x' ==> f(x,y) -(pr(k, k))-> f(x', y)",),
    # the ground store triple meets some of the triples rule 2 concludes
    "ground_premise": ("x -(< d, -, u >)-> x' ==> f(x,y) -(a)-> f(x', y)",
                       "y -(< xD, -, xD' >)-> y' ==> f(x,y) -(< xD, -, xD' >)-> y'"),
    # the store triple premise meets some of the labels k stands for
    "triple_premise": ("x -(< xD, -, xD' >)-> x' ==> f(x,y) -(a)-> f(x', y)",
                       "y -(k)-> y' ==> f(x,y) -(k)-> y'"),
    # the slot variable xD meets some of the data plus(xD, d) stands for
    "operator_slot": ("x -(< xD, -, xD' >)-> x' ==> f(x,y) -(< xD, -, xD' >)-> f(x', y)",
                      "y -(< xD, -, xD' >)-> y' ==> f(x,y) -(< plus(xD, d), -, xD' >)-> f(x, y')"),
    # rule 2 fires on y's a only, which the nest f(y, z) never does
    "ground_triple": ("x -(< xD, -, xD' >)-> x' ==> f(x,y) -(< xD, -, xD' >)-> f(x', y)",
                      "y -(a)-> y' ==> f(x,y) -(< d, -, u >)-> f(x, y')"),
}
# Where the operator is not associative: p, q and r whose groupings differ.
SEPARATED = {
    "swapped": ("a . 0", "0", "a . 0"),
    "negative": ("0", "a . 0", "b . 0"),
    "two_premises": ("a . 0 + b . 0", "0", "0"),
    "operator_label": ("a . 0", "0", "0"),
    "ground_premise": ("< d, -, u > . 0", "0", "0"),
    "triple_premise": ("< d, -, d > . 0", "0", "0"),
    "operator_slot": ("0", "0", "< d, -, d > . 0"),
    "ground_triple": ("0", "0", "a . 0"),
}
PROVED = {
    # the ground store triple rule 2 concludes meets rule 1's premise on x
    "ground_triple": ("x -(< xD, -, xD' >)-> x' ==> f(x,y) -(< xD, -, xD' >)-> f(x', y)",
                      "y -(< xD, -, xD' >)-> y' ==> f(x,y) -(< d, -, u >)-> f(x, y')"),
    # an action variable meets no predicate
    "unrelated_sorts": ("x -(alpha)-> x' ==> f(x,y) -(alpha)-> f(x', y)",
                        "y -(P)-> y' ==> f(x,y) -(P)-> y'"),
}


def shape_spec(key, rules=REFUSED):
    return parse_spec(f"spec {key.upper()} {HEADER}" + "".join(f"rule {r} ;\n" for r in rules[key]))


@pytest.mark.parametrize("key", sorted(REFUSED))
def test_refused_shapes(key):
    spec = shape_spec(key)
    assert not spec.associative("f")
    if key in SEPARATED:
        p, q, r = (parse_term(t, spec) for t in SEPARATED[key])
        same, _ = bisimilar(spec, App("f", (App("f", (p, q)), r)), App("f", (p, App("f", (q, r)))))
        assert not same


@pytest.mark.parametrize("key", sorted(PROVED))
def test_proved_shapes(key):
    spec = shape_spec(key, PROVED)
    assert spec.associative("f")
    assert assoc_oracle.check(spec, random.Random(key), 40) == []


def test_a_refused_operator_stays_as_written():
    """The negative f walks its left operand but is not associative: its
    nests keep their grouping."""
    spec = shape_spec("negative")
    assert not spec.associative("f")
    written = parse_term("f(f(f(0, 0), a . 0), b . 0)", spec)
    regrouped = parse_term("f(0, f(0, f(a . 0, b . 0)))", spec)
    assert render_term(normalize(spec, written)) == "b . 0"
    assert render_term(normalize(spec, regrouped)) == "0"


# -- regrouping in normalize -------------------------------------------------------------

# `;` with its rules mirrored: it walks its right operand and hands over to
# the left one, so its nests are regrouped to the left.
MIRRORED = """
spec MIRRORED
predicates | ;
datasort Data [assoc comm id: empty] ;
dataconst d u v : Data ;
op ask : 1 ;
op tell : 1 ;
op _;_ : 2 ;
var x y x' y' : Proc ;
var mu xD xD' : Data ;
rule ==> ask(mu) -( < {d, mu}, -, {d, mu} > )-> | . 0 ;
rule ==> tell(mu) -( < {d}, -, {d, mu} > )-> | . 0 ;
rule y -(< xD, -, xD' >)-> y' ==> x ; y -(< xD, -, xD' >)-> x ; y' ;
rule y -(|)-> y' , x -(< xD, -, xD' >)-> x' ==> x ; y -(< xD, -, xD' >)-> x' ;
rule x -(|)-> x' , y -(|)-> y' ==> x ; y -(|)-> x' ;
"""


def _chain(n, ops=("ask", "tell", "get")):
    """n store operations in a fixed cycle: past its period, each more
    operation costs the same rewrites."""
    cycle = [f"{op}({mu})" for op in ops for mu in "duv"]
    return " ; ".join(cycle[i % len(cycle)] for i in range(n))


def _least_budget(spec, t):
    lo, hi = 1, 4096
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            normalize(spec, t, NormalizeBudget(mid))
            hi = mid
        except BudgetExceeded:
            lo = mid + 1
    return lo


def test_a_right_walking_operator_is_regrouped_to_the_left():
    """The mirrored `;` walks its right operand: written grouped to the
    right, a chain is read grouped to the left, as the parser groups it, and
    takes as many rewrites."""
    spec = parse_spec(MIRRORED)
    assert spec.associative("_;_")
    budgets = []
    for n in (16, 32, 64):
        text = _chain(n, ("ask", "tell"))
        left = parse_term(text, spec)
        right = parse_term(text.replace(" ; ", " ; (") + ")" * (n - 1), spec)
        assert render_term(normalize(spec, left)) == render_term(normalize(spec, right))
        budgets.append(_least_budget(spec, right))
        assert budgets[-1] == _least_budget(spec, left)
    assert budgets[2] - budgets[1] == 2 * (budgets[1] - budgets[0])


def _assert_least_budget(spec, t, least):
    normalize(spec, t, NormalizeBudget(least))
    with pytest.raises(BudgetExceeded):
        normalize(spec, t, NormalizeBudget(least - 1))


LONG = "(" + " . ".join(["< {d},-,{d} >"] * 400) + " . | . 0)"


@pytest.mark.parametrize("head, rewrites", [("0", 1), ("< {d},-,{d} > . 0", 2)])
def test_the_fold_stops_at_an_operand_that_never_hands_over(head, rewrites):
    """A nest whose first operand deadlocks or never terminates is that
    operand's rewrite: the long operands after it are normalized, not
    walked.  Folded past it, they would take 12,000 rewrites."""
    spec = load_corpus("linda")
    t = parse_term(" ; ".join([head] + [LONG] * 30), spec)
    assert render_term(normalize(spec, t)) == render_term(normalize(spec, parse_term(head, spec)))
    _assert_least_budget(spec, t, rewrites)


def test_an_operand_that_is_a_state_of_another_still_hands_over():
    """The normal form of ask(d) is a state of the first operand's, met
    first on the way to its `|`: it hands over all the same."""
    spec = load_corpus("linda")
    t = parse_term("< {d},-,{d} > . ask(d) ; ask(d) ; tell(u) ; tell(v)", spec)
    assert render_term(normalize(spec, t)) == (
        "< {d},-,{d} > . < {d, d},-,{d, d} > . < {d, d},-,{d, d} > . "
        "< {d},-,{d, u} > . < {d},-,{d, v} > . | . 0")


def test_a_right_walking_fold_stops_at_an_operand_that_never_hands_over():
    spec = parse_spec(MIRRORED)
    long = LONG.replace(" . | . 0)", " . 0)")
    t = parse_term(" ; (".join([f"{long}"] * 30 + ["< {d},-,{d} > . 0"]) + ")" * 30, spec)
    assert render_term(normalize(spec, t)) == "< {d},-,{d} > . 0"
    _assert_least_budget(spec, t, 2)


def test_linda_chains_take_linear_rewrites():
    spec = load_corpus("linda")
    budgets = [_least_budget(spec, parse_term(_chain(n), spec)) for n in (16, 32, 64)]
    assert budgets[2] - budgets[1] == 2 * (budgets[1] - budgets[0])
    # as written, each operation walks the normal form of all before it
    # until a period of the cycle repeats: 549 rewrites for 64
    assert budgets[2] <= 3 * 64, budgets


def _balanced(operands):
    while len(operands) > 1:
        pairs = [operands[i:i + 2] for i in range(0, len(operands), 2)]
        operands = [App("_;_", tuple(p)) if len(p) == 2 else p[0] for p in pairs]
    return operands[0]


def test_a_regrouped_nest_counts_as_one_level_of_depth():
    """Balanced, 512 operations nest nine deep and normalize as written; a
    chain of 2,000 would exceed the depth limit as written.  Regrouped,
    both normalize, to the normal form of their operations in order."""
    spec = load_corpus("linda")
    ops = [parse_term(op, spec) for op in _chain(2000).split(" ; ")]
    chain = normalize(spec, parse_term(_chain(2000), spec))
    assert render_term(chain).count(" . ") == 2001
    balanced = normalize(spec, _balanced(ops[:512]))
    assert render_term(balanced) == render_term(normalize(spec, parse_term(_chain(512), spec)))


def test_short_nests_stay_as_written(monkeypatch):
    calls = []
    proved = commform.proves_assoc
    monkeypatch.setattr(commform, "proves_assoc", lambda spec, op: calls.append(op) or proved(spec, op))
    spec = load_corpus("linda")
    normalize(spec, parse_term("(ask(u) ; tell(v) ; get(u)) || (tell(u) ; get(u) ; ask(d))", spec))
    assert calls == []
    normalize(spec, parse_term("ask(u) ; tell(v) ; get(u) ; tell(u)", spec))
    assert calls == ["_;_"]


# -- forms one level deep per term level ---------------------------------------------

def _wide_spec(tmp_path, mirrored):
    summands = " + ".join(f"{'ab'[i % 2]} . x2" for i in range(1500))
    rules = f"rule x -(a)-> x2 ==> f(x, y) -(a)-> {summands} ;\n"
    if mirrored:
        rules += f"rule y -(a)-> x2 ==> f(x, y) -(a)-> {summands} ;\n"
    path = tmp_path / "wide.sos"
    path.write_text("spec WIDE\nactions a b ;\nop f : 2 ;\nvar x y x2 : Proc ;\n" + rules, encoding="utf-8")
    return path


@pytest.mark.parametrize("mirrored", [False, True])
def test_comm_reads_a_target_of_1500_summands(tmp_path, capsys, mirrored):
    path = _wide_spec(tmp_path, mirrored)
    code = main(["comm", str(path)])
    out, err = capsys.readouterr()
    assert err == ""
    if mirrored:
        assert code == 0 and out.startswith("f is commutative\n  rule 1 mirrors rule 2:\n")
    else:
        assert code == 1 and out.startswith("Could not prove commutativity for: f\n  rule 1 has no mirror:\n")
