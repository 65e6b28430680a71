"""Head-normalization through rules and the derived equation report."""

import collections
import random

import pytest

from sosforge import axioms, parse_spec, parse_term, simulator, terms
from sosforge.axioms import (
    DEFAULT_BUDGET,
    MAX_DEPTH,
    NormalizeBudget,
    axiom_report,
    axiom_report_json,
    axiom_report_text,
    normalize,
)
from sosforge.bisim import bisimilar
from sosforge.cli import main as cli_main
from sosforge.errors import (
    BudgetExceeded,
    NonBccspTerm,
    OpenTerm,
    SosError,
)
from sosforge.simulator import fire_through, solve_rule
from sosforge.terms import (
    NIL,
    ActConst,
    App,
    Choice,
    DefConst,
    LabelTerm,
    Nil,
    Prefix,
    Term,
    Var,
    canon_label,
    canon_term,
    choice_atoms,
    render_label,
    render_term,
    substitute_label,
    substitute_term,
)
from termgen import random_full_term, render_substitution

# -- premise satisfaction ---------------------------------------------------------


def _fire(spec, args, i):
    """The substitutions under which spec.rules[i] fires on head-normal
    arguments, through its plan: positive premises are witnessed by summands
    of the tested argument, negative ones by the absence of any summand with
    that label."""
    rule = spec.rules[i]
    plan = next(p for p in spec.plans_for(rule.conclusion.source.op) if p.rule is rule)
    offers = {k: terms.summands(a, spec.theory) for k, a in enumerate(args)}
    return [plan.substitution(b) for b in solve_rule(plan, args, offers.__getitem__, spec.theory)]


def test_premises_of_interleave_rule(par):
    got = _fire(par, (parse_term("a . 0", par), parse_term("b . 0", par)), 0)
    assert len(got) == 1
    assert render_label(got[0]["alpha"]) == "a"
    assert render_term(got[0]["x'"]) == "0"


def test_premises_blocked_by_negative(gspec):
    a_a = (parse_term("a . 0", gspec), parse_term("a . 0", gspec))
    assert _fire(gspec, a_a, 0) == []
    a_b = (parse_term("a . 0", gspec), parse_term("b . 0", gspec))
    got = _fire(gspec, a_b, 0)
    assert len(got) == 1
    assert render_label(got[0]["k"]) == "a"
    assert render_label(got[0]["l"]) == "b"


def test_premises_take_any_continuation(par):
    """Head normal arguments are checked on their choice spine only."""
    args = (parse_term("a . (b . 0 || c . 0)", par), parse_term("0", par))
    got = _fire(par, args, 0)
    assert [render_substitution(s) for s in got] == ["{x <- a . (b . 0 || c . 0), x' <- b . 0 || c . 0, "
                                     "y <- 0, alpha <- a}"]


# -- normalization ----------------------------------------------------------------


def test_normalize_expansion_law(par):
    t = parse_term("a . 0 || b . 0", par)
    assert render_term(normalize(par, t)) == "a . b . 0 + b . a . 0"


def test_normalize_base_terms_is_canonicalization(par):
    t = parse_term("b . 0 + a . 0 + a . 0", par)
    assert render_term(normalize(par, t)) == "a . 0 + b . 0"
    assert render_term(normalize(par, parse_term("0 || 0", par))) == "0"


def test_normalize_store_operators(linda):
    assert render_term(normalize(linda, parse_term("tell(u)", linda))) == (
        "< {d},-,{d, u} > . | . 0"
    )
    assert render_term(normalize(linda, parse_term("ask(u) ; tell(v)", linda))) == (
        "< {d, u},-,{d, u} > . < {d},-,{d, v} > . | . 0"
    )


def test_normalize_mixer(gspec):
    assert render_term(normalize(gspec, parse_term("g(a . 0, b . 0)", gspec))) == (
        "mix(a,b) . 0"
    )
    assert render_term(normalize(gspec, parse_term("g(a . 0, a . 0)", gspec))) == "a . 0"


def test_normalize_idempotent_and_sound(full):
    rng = random.Random(41)
    for _ in range(60):
        t = random_full_term(rng, 3)
        nf = normalize(full, t)
        assert render_term(normalize(full, nf)) == render_term(nf)
        ok, _ = bisimilar(full, t, nf)
        assert ok, render_term(t)


def test_normalize_rejects_open_and_recursive(par, rec):
    with pytest.raises(OpenTerm):
        normalize(par, Var("x"))
    with pytest.raises(NonBccspTerm):
        normalize(rec, DefConst("p1"))


ILL_FOUNDED = """
spec LOOPY
actions a ;
op f : 2 ;
var x y : Proc ;
rule ==> f(x, y) -(a)-> f(x, y) ;
"""


def test_normalize_budget_depth():
    spec = parse_spec(ILL_FOUNDED)
    with pytest.raises(BudgetExceeded) as e:
        normalize(spec, parse_term("f(0, 0)", spec))
    assert "well-founded" in str(e.value)


def test_normalize_budget_rewrites(par):
    tight = NormalizeBudget(max_rewrites=1)
    with pytest.raises(BudgetExceeded):
        normalize(par, parse_term("a . 0 || b . 0", par), tight)


def _wide(spec, width):
    return parse_term(" || ".join(["a . b . 0"] * width), spec)


def test_normalize_size_budget(par, monkeypatch):
    # the 5-wide normal form has 1027 characters, and the 6-wide one's last
    # rewrite renders it with an operand
    monkeypatch.setattr(axioms, "MAX_NF_CHARS", 1000)
    assert len(render_term(normalize(par, _wide(par, 5)))) == 1027
    with pytest.raises(BudgetExceeded, match="more than 1000 characters"):
        normalize(par, _wide(par, 6))


# A ground target that one rewrite walks near the top of the term and another
# near the depth limit: the second walk meets the limit where the reference
# does, whatever the first one built.
FIXED_TARGET = """
spec FIX
actions a b ;
op g : 1 ;
var x : Proc ;
rule ==> g(x) -(a)-> a . a . a . 0 ;
"""


def _fixed_target_term(depth):
    return "g(0) + " + "b . " * depth + "g(b . 0)"


def test_normalize_walks_a_ground_target_again_deeper(tmp_path, capsys):
    path = tmp_path / "fix.sos"
    path.write_text(FIXED_TARGET)
    spec = parse_spec(FIXED_TARGET)
    # 495 prefixes deep the second firing walks its target to depth 500
    shallow = parse_term(_fixed_target_term(495), spec)
    assert _outcome(normalize, spec, shallow) == _outcome(reference_normalize, spec, shallow)
    assert cli_main(["normalize", str(path), _fixed_target_term(495)]) == 0
    assert capsys.readouterr().out.startswith("a . a . a . a . 0 + b . b . ")
    # one prefix deeper that walk exceeds the limit
    assert cli_main(["normalize", str(path), _fixed_target_term(496)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == (
        "error: normalization depth exceeded 500; term not semantically well-founded within budget\n")
    deep = parse_term(_fixed_target_term(496), spec)
    assert _outcome(normalize, spec, deep) == _outcome(reference_normalize, spec, deep)


# -- linear work on chains --------------------------------------------------------

# `a ; b ; c` nests to the left, so appending an operation rewrites the chain's
# suffixes until one is memoized. Under a fixed cycle that takes one period;
# with random contents the number of rewrites itself grows with the square.
LINDA_CYCLE = [f"{op}({mu})" for op in ("ask", "tell", "get") for mu in ("d", "u", "v")]


def _linda_cycle_chain(n):
    return " ; ".join(LINDA_CYCLE[i % len(LINDA_CYCLE)] for i in range(n))


def test_normalize_calls_grow_linearly_on_linda_chains(linda, monkeypatch):
    """Bound variables are not walked again, so canonicalizing and rendering
    grow with the chain, not with its square."""
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    canon = counted("canon_term", terms.canon_term)
    monkeypatch.setattr(terms, "canon_term", canon)
    monkeypatch.setattr(axioms, "canon_term", canon)
    monkeypatch.setattr(terms, "_render", counted("_render", terms._render))
    per_length = {}
    for n in (64, 128):
        t = parse_term(_linda_cycle_chain(n), linda)
        calls.clear()
        assert render_term(normalize(linda, t)).endswith("| . 0")
        per_length[n] = dict(calls)
    for name in ("canon_term", "_render"):
        assert per_length[128][name] <= 2.5 * per_length[64][name], per_length


def test_normalize_reads_summands_once_per_argument_and_rewrite(linda, monkeypatch):
    """A rewrite reads each process argument's summands once, for all the
    operator's rules together, off the argument's normal form: the chains
    hold no choice, so every `choice_atoms` call reads an argument."""
    summands_calls = 0
    rewrites = {}  # id -> the argument tuple of each rewrite, kept alive

    def counted_summands(*args):
        nonlocal summands_calls
        summands_calls += 1
        return terms.choice_atoms(*args)

    def recorded_solve_rule(plan, args, moves, th):
        rewrites[id(args)] = args
        return solve_rule(plan, args, moves, th)

    def recorded_fire_through(plan, args, moves):
        rewrites[id(args)] = args
        return fire_through(plan, args, moves)

    monkeypatch.setattr(axioms, "choice_atoms", counted_summands)
    # normalize imports both from there
    monkeypatch.setattr(simulator, "solve_rule", recorded_solve_rule)
    monkeypatch.setattr(simulator, "fire_through", recorded_fire_through)
    t = parse_term(_linda_cycle_chain(64) + " || " + _linda_cycle_chain(9), linda)
    assert render_term(normalize(linda, t)).endswith("| . 0")
    process_args = sum(isinstance(a, Term) for args in rewrites.values() for a in args)
    assert process_args > 64 and summands_calls <= process_args


# -- the equation report -------------------------------------------------------------


def test_axiom_report_text_golden(par):
    assert axiom_report_text(par) == (
        "axioms for _||_\n"
        "  [rule 1] x || y = alpha . (x' || y)\n"
        "    if x has summand alpha . x'\n"
        "  [rule 2] x || y = alpha . (x || y')\n"
        "    if y has summand alpha . y'\n"
        "  [rule 3] x || y = | . 0\n"
        "    if x has summand | . x'\n"
        "    if y has summand | . y'\n"
    )


def test_axiom_report_rule_free_operator():
    spec = parse_spec("spec STUCK\nactions a ;\nop k : 1 ;\n")
    text = axiom_report_text(spec)
    assert "k(x1) = 0" in text


def test_axiom_report_json(par):
    js = axiom_report_json(par)
    assert js and js[0]["op"] == "_||_"
    entries = axiom_report(par)["_||_"]
    assert [e.rule for e in entries] == [1, 2, 3]
    assert entries[2].summand == "| . 0"
    assert entries[2].conditions == (
        "x has summand | . x'",
        "y has summand | . y'",
    )


# -- differential: normalize against the walk that substituted and re-normalized --


def _reference_require_bccsp(t):
    if isinstance(t, Var):
        raise OpenTerm(f"free variable {t.name}")
    if isinstance(t, App):
        raise NonBccspTerm(f"operator {t.op} outside the base fragment")
    if isinstance(t, Prefix):
        _reference_require_bccsp(t.body)
    elif isinstance(t, Choice):
        _reference_require_bccsp(t.left)
        _reference_require_bccsp(t.right)


def _reference_summands(t, th):
    _reference_require_bccsp(t)
    out = []
    for atom in choice_atoms(canon_term(t, th)):
        if isinstance(atom, Nil):
            continue
        if isinstance(atom, DefConst):
            raise NonBccspTerm(f"recursion constant {atom.name} is not a head normal form")
        out.append((atom.label, atom.body))
    return out


def _reference_satisfies(spec, args, plan):
    th = spec.theory
    offers = {k: _reference_summands(a, th) for k, a in enumerate(args) if isinstance(a, Term)}
    return [plan.substitution(b) for b in solve_rule(plan, tuple(args), lambda k: offers[k], th)]


def _reference_fold_choice(atoms):
    """Right-nest a list of summands into a choice chain; empty means deadlock.
    (`terms.fold_choice` as it was before `terms.canon_choice` replaced it.)"""
    if not atoms:
        return NIL
    out = atoms[-1]
    for a in reversed(atoms[:-1]):
        out = Choice(a, out)
    return out


def reference_normalize(spec, term, budget=None):
    """`normalize` as it was before rule variables were bound: it substituted
    normal forms into each rule target and normalized the result again.  A
    rewrite that needs its own normal form fails at once, as in `normalize`."""
    th = spec.theory
    budget = budget or DEFAULT_BUDGET
    memo = {}
    pending = set()
    spent = 0

    def norm(t, depth):
        nonlocal spent
        if depth > MAX_DEPTH:
            raise BudgetExceeded(
                f"normalization depth exceeded {MAX_DEPTH}; "
                "term not semantically well-founded within budget"
            )
        if isinstance(t, Var):
            raise OpenTerm(f"cannot normalize open term with variable {t.name}")
        if isinstance(t, DefConst):
            raise NonBccspTerm(f"recursion constant {t.name} cannot be normalized")
        if isinstance(t, Nil):
            return t
        if isinstance(t, Prefix):
            return Prefix(canon_label(t.label, th), norm(t.body, depth + 1))
        if isinstance(t, Choice):
            parts = [norm(a, depth + 1) for a in (t.left, t.right)]
            return canon_term(Choice(parts[0], parts[1]), th)
        normed_args = tuple(
            canon_label(a, th) if isinstance(a, LabelTerm) else norm(a, depth + 1)
            for a in t.args
        )
        key = render_term(App(t.op, normed_args))
        hit = memo.get(key)
        if hit is not None:
            return hit
        if key in pending:
            raise BudgetExceeded(
                f"normalization of {key} needs its own normal form; "
                "term not semantically well-founded within budget"
            )
        pending.add(key)
        spent += 1
        if spent > budget.max_rewrites:
            raise BudgetExceeded(
                f"normalization exceeded {budget.max_rewrites} rewrites; "
                "term not semantically well-founded within budget"
            )
        parts = []
        for plan in spec.plans_for(t.op):
            rule = plan.rule
            for s in _reference_satisfies(spec, normed_args, plan):
                lbl = canon_label(substitute_label(rule.conclusion.label, s), th)
                cont = norm(substitute_term(rule.conclusion.target, s), depth + 1)
                parts.append(Prefix(lbl, cont))
        result = canon_term(_reference_fold_choice(parts), th)
        pending.discard(key)
        memo[key] = result
        return result

    return norm(term, 0)


def _outcome(fn, spec, t, budget=None):
    """The rendered normal form, or the class and message of the error."""
    try:
        return render_term(fn(spec, t, budget))
    except SosError as e:
        return type(e).__name__, str(e)


def _least_budget(spec, t):
    """The least rewrite budget under which the term normalizes, by galloping."""
    lo, hi = 0, 1
    while not isinstance(_outcome(normalize, spec, t, NormalizeBudget(hi)), str):
        lo, hi = hi + 1, 2 * hi
    while lo < hi:
        mid = (lo + hi) // 2
        if isinstance(_outcome(normalize, spec, t, NormalizeBudget(mid)), str):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _assert_as_reference(spec, t):
    got = _outcome(normalize, spec, t)
    assert got == _outcome(reference_normalize, spec, t), render_term(t)
    if isinstance(got, str):
        least = _least_budget(spec, t)
        assert _outcome(reference_normalize, spec, t, NormalizeBudget(least)) == got
        if least:
            short = _outcome(reference_normalize, spec, t, NormalizeBudget(least - 1))
            assert not isinstance(short, str) and short[0] == "BudgetExceeded", render_term(t)


def _random_linda_chain(rng, n):
    return " ; ".join(f"{rng.choice(('ask', 'tell', 'get'))}({rng.choice('duv')})"
                      for _ in range(n))


def test_normalize_matches_reference_on_random_full_terms(full):
    rng = random.Random(43)
    for depth in (1, 2, 3, 4):
        for _ in range(25):
            _assert_as_reference(full, random_full_term(rng, depth))


def test_normalize_matches_reference_on_linda_chains(linda):
    rng = random.Random(44)
    for n in range(1, 25):
        _assert_as_reference(linda, parse_term(_random_linda_chain(rng, n), linda))
    for _ in range(12):
        x, y = (_random_linda_chain(rng, rng.randint(1, 3)) for _ in range(2))
        _assert_as_reference(linda, parse_term(f"({x}) || ({y})", linda))


def _as_reference(spec, t):
    got = _outcome(normalize, spec, t)
    assert got == _outcome(reference_normalize, spec, t), render_term(t)
    return got


def test_normalize_matches_reference_on_long_linda_chains(linda):
    rng = random.Random(45)
    for n in range(8, 33, 4):
        for _ in range(3):
            assert _as_reference(linda, parse_term(_random_linda_chain(rng, n), linda)) \
                .endswith("| . 0")
    for _ in range(10):
        x, y = (_random_linda_chain(rng, rng.randint(2, 4)) for _ in range(2))
        _as_reference(linda, parse_term(f"({x}) || ({y})", linda))


def test_normalize_matches_reference_on_normal_form_arguments(linda, par, full):
    """Operators applied to terms already in normal form: written as text,
    and as the very nodes an earlier normalization returned."""
    rng = random.Random(46)
    nfs = [normalize(linda, parse_term(_random_linda_chain(rng, rng.randint(1, 5)), linda))
           for _ in range(8)]
    for x, y in zip(nfs, nfs[1:]):
        for op in ("_;_", "_||_"):
            _as_reference(linda, App(op, (x, y)))
            _as_reference(linda, parse_term(render_term(App(op, (x, y))), linda))
    written = ("0", "| . 0", "a . 0 + b . 0", "a . | . 0 + a . b . 0", "| . 0 + c . | . 0")
    nfs = [normalize(par, parse_term(t, par)) for t in written]
    for x in nfs:
        for y in nfs:
            _as_reference(par, App("_||_", (x, y)))
    ops = [name for name, decl in full.proc_ops.items() if decl.arity == 2]
    for _ in range(40):
        x, y = (normalize(full, random_full_term(rng, 2)) for _ in range(2))
        _as_reference(full, App(rng.choice(ops), (x, y)))


def test_normalize_matches_reference_on_errors(par, rec):
    open_par = App("_||_", (Var("y"), NIL))
    for t in (Var("x"), Choice(Var("x"), open_par), Prefix(ActConst("a"), open_par)):
        _assert_as_reference(par, t)
    _assert_as_reference(rec, DefConst("p1"))
    loopy = parse_spec(ILL_FOUNDED)
    _assert_as_reference(loopy, parse_term("f(0, 0)", loopy))
