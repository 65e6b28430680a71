"""Transition system construction, partition refinement, equivalence queries."""

import gc
import hashlib
import random
import weakref
from importlib import resources

import pytest

from sosforge import bisim, parse_spec, parse_term
from sosforge.bisim import (
    Lts,
    StepClasses,
    _product_pairs,
    are_equal,
    bisimilar,
    build_lts,
    default_state_cap,
    explore,
    refine,
)
from sosforge.cli import main
from sosforge.errors import InvalidSpec, SosError, StateCapExceeded
from sosforge.simulator import step
from sosforge.terms import (
    App,
    Choice,
    Nil,
    Prefix,
    canon_term,
    render_label,
    render_term,
)
from termgen import (
    equivalent_variant,
    mutate_action,
    random_bccsp_term,
    random_full_term,
    random_lts,
)
from witness import check_witness

# -- an independent stepper for the parallel fragment ---------------------------


def oracle_moves(t):
    """(label, canonical target render) pairs, computed structurally."""
    if isinstance(t, Nil):
        return set()
    if isinstance(t, Prefix):
        return {(render_label(t.label), render_term(canon_term(t.body)))}
    if isinstance(t, Choice):
        return oracle_moves(t.left) | oracle_moves(t.right)
    assert isinstance(t, App) and t.op == "_||_"
    p, q = t.args
    out = set()
    for l, p2 in _oracle_succ(p):
        if l != "|":
            out.add((l, render_term(canon_term(App("_||_", (p2, q))))))
    for l, q2 in _oracle_succ(q):
        if l != "|":
            out.add((l, render_term(canon_term(App("_||_", (p, q2))))))
    if any(l == "|" for l, _ in oracle_moves(p)) and any(
        l == "|" for l, _ in oracle_moves(q)
    ):
        out.add(("|", "0"))
    return out


def _oracle_succ(t):
    """(label, successor term) pairs for the same fragment."""
    if isinstance(t, Nil):
        return []
    if isinstance(t, Prefix):
        return [(render_label(t.label), t.body)]
    if isinstance(t, Choice):
        return _oracle_succ(t.left) + _oracle_succ(t.right)
    assert isinstance(t, App) and t.op == "_||_"
    p, q = t.args
    out = []
    for l, p2 in _oracle_succ(p):
        if l != "|":
            out.append((l, App("_||_", (p2, q))))
    for l, q2 in _oracle_succ(q):
        if l != "|":
            out.append((l, App("_||_", (p, q2))))
    if any(l == "|" for l, _ in _oracle_succ(p)) and any(
        l == "|" for l, _ in _oracle_succ(q)
    ):
        out.append(("|", Nil()))
    return out


def test_step_matches_structural_oracle(par):
    rng = random.Random(31)
    th = par.theory
    for _ in range(150):
        t = App("_||_", (random_bccsp_term(rng, 3), random_bccsp_term(rng, 3)))
        got = {
            (render_label(s.label), render_term(canon_term(s.target, th)))
            for s in step(par, t)
        }
        assert got == oracle_moves(t), render_term(t)


# -- LTS construction ------------------------------------------------------------


def test_build_lts_state_sets(par):
    lts = build_lts(par, [parse_term("a . 0 || b . 0", par)])
    names = sorted(render_term(lts.states[i]) for i in range(len(lts.states)))
    assert names == ["0 || 0", "0 || b . 0", "a . 0 || 0", "a . 0 || b . 0"]
    nf = build_lts(par, [parse_term("a . b . 0 + b . a . 0", par)])
    assert len(nf.states) == 4  # the sum, a . 0, b . 0, 0


def test_build_lts_interns_by_canonical_form(par):
    lts = build_lts(par, [parse_term("a . 0 + a . 0", par), parse_term("a . 0", par)])
    assert lts.roots[0] == lts.roots[1]


# -- the exploration-wide step cache ------------------------------------------------


def _explore_fresh(spec, roots):
    """build_lts's exploration, stepping each state with a fresh cache: the
    reference.  Maps each state's rendered canonical form to its set of
    (label node, rendered target), and lists the roots' rendered forms."""
    th = spec.theory
    root_keys = [render_term(canon_term(r, th)) for r in roots]
    todo = [canon_term(r, th) for r in roots]
    moves = {}
    while todo:
        here = todo.pop()
        key = render_term(here)
        if key in moves:
            continue
        moves[key] = set()
        for s in step(spec, here):
            target = canon_term(s.target, th)
            moves[key].add((s.label, render_term(target)))
            todo.append(target)
    return moves, root_keys


def _shared_vs_fresh(spec, make_roots):
    """build_lts and the reference agree up to the numbering of states,
    which follows the order steps are found in."""
    lts = build_lts(spec, make_roots())
    keys = [render_term(lts.states[i]) for i in range(len(lts.states))]
    assert len(set(keys)) == len(keys)
    moves = {keys[i]: {(l, keys[j]) for l, j in lts.transitions[i]} for i in range(len(keys))}
    assert (moves, [keys[r] for r in lts.roots]) == _explore_fresh(spec, make_roots())


def test_build_lts_shared_cache_matches_fresh_steps_random(full):
    for seed in range(40):

        def roots():
            rng = random.Random(seed)
            t = random_full_term(rng, 4)
            return [t, equivalent_variant(rng, t), random_full_term(rng, 4)]

        _shared_vs_fresh(full, roots)


def test_build_lts_shared_cache_matches_fresh_steps_parallel(par):
    comp = "a . b . | . 0"
    flat = " || ".join([comp] * 4)
    split = f"({comp} || {comp}) || ({comp} || {comp})"
    swapped = f"b . a . | . 0 || {comp} || ({comp} || {comp})"
    _shared_vs_fresh(par, lambda: [parse_term(t, par) for t in (flat, split, swapped)])


def test_state_cap(par):
    with pytest.raises(StateCapExceeded):
        build_lts(par, [parse_term("a . b . c . 0", par)], state_cap=2)


def test_state_cap_env_override(monkeypatch):
    monkeypatch.setenv("SOSFORGE_STATE_CAP", "1234")
    assert default_state_cap() == 1234
    monkeypatch.delenv("SOSFORGE_STATE_CAP")
    assert default_state_cap() == 100000


# -- partition refinement ----------------------------------------------------------


def naive_blocks(lts):
    """Greatest fixed point of the transfer condition, as a block list."""
    n = len(lts.states)
    rel = {(i, j) for i in range(n) for j in range(n)}

    def transfer(i, j):
        for l, ti in lts.transitions[i]:
            if not any(l2 == l and (ti, tj) in rel for l2, tj in lts.transitions[j]):
                return False
        return True

    changed = True
    while changed:
        changed = False
        for pair in sorted(rel):
            i, j = pair
            if not transfer(i, j) or not transfer(j, i):
                rel.discard(pair)
                changed = True
    blocks = [-1] * n
    nxt = 0
    for i in range(n):
        if blocks[i] == -1:
            for j in range(i, n):
                if (i, j) in rel:
                    blocks[j] = nxt
            nxt += 1
    return blocks


def same_partition(a, b):
    n = len(a)
    return all((a[i] == a[j]) == (b[i] == b[j]) for i in range(n) for j in range(n))


def _refine_continues(lts):
    """refine of lts, continuing its record, gives the list a copy with no
    record gives, block ids included; a second call returns the same list."""
    fresh = refine(Lts(lts.states, lts.transitions, lts.roots))
    blocks = refine(lts)
    assert blocks == fresh and refine(lts) is blocks
    return blocks


def test_refine_matches_naive_fixpoint():
    assert refine(Lts()) == []
    rng = random.Random(32)
    for _ in range(60):
        lts = random_lts(rng, max_states=14)
        # Both number blocks in order of first occurrence, so the ids agree too.
        assert _refine_continues(lts) == naive_blocks(lts)


def test_refine_refuses_an_open_lts(par):
    """An exploration that stopped at an early "false" leaves states with no
    moves: refine refuses it with an SosError, and leaves the k-step record
    as the exploration left it."""
    p = parse_term("a . b . 0 || a . b . 0 || a . b . 0", par)
    q = parse_term("a . b . 0 || a . b . 0 || a . c . 0", par)
    lts = build_lts(par, [p, q], decide=True)
    assert not lts.closed and (len(lts.states), len(lts.transitions)) == (19, 8)
    layers = list(lts.classes.layers)
    with pytest.raises(SosError, match="stopped early"):
        refine(lts)
    assert lts.classes.layers == layers


# -- k-step separation while exploring ----------------------------------------------


def _explore_from(src, roots, decide):
    """Explore the part of a random LTS reachable from the given states."""
    lts, index, origin = Lts(), {}, []

    def intern(s):
        if s not in index:
            index[s] = len(lts.states)
            lts.states.append(src.states[s])
            origin.append(s)
        return index[s]

    lts.roots = [intern(r) for r in roots]
    return explore(lts, lambda i: [(l, intern(t)) for l, t in src.transitions[origin[i]]], decide)


def test_step_classes_agree_with_refine_on_random_lts():
    """k-step classes over whole random systems: never finer than bisimilarity,
    and equal to it once k reaches the number of states."""
    rng = random.Random(104)
    for _ in range(100):
        lts = random_lts(rng, max_states=30)
        n = len(lts.states)
        blocks = refine(lts)
        classes = StepClasses(lts.transitions, [n] * (n + 4))
        for k in (1, 2, 3, n):
            for i in range(n):
                for j in range(i + 1, n):
                    split = classes.separates(k, i, j)
                    assert not split or blocks[i] != blocks[j], (k, i, j)
                    if k == n:
                        assert split == (blocks[i] != blocks[j]), (i, j)


def test_exploration_stops_only_on_separated_roots():
    rng = random.Random(104)
    stopped = 0
    for _ in range(100):
        src = random_lts(rng, max_states=30)
        blocks = refine(src)
        n = len(src.states)
        for _ in range(10):
            i, j = rng.randrange(n), rng.randrange(n)
            lts = _explore_from(src, [i, j], decide=True)
            if not lts.closed:
                stopped += 1
                assert blocks[i] != blocks[j]
                last = lts.classes.levels[-1][1]
                assert last[lts.roots[0]] != last[lts.roots[1]]
                continue
            full = _explore_from(src, [i, j], decide=False)
            assert (lts.states, lts.transitions) == (full.states, full.transitions)
            sub = _refine_continues(lts)
            assert _refine_continues(full) == sub
            assert (sub[lts.roots[0]] == sub[lts.roots[1]]) == (blocks[i] == blocks[j])
    assert stopped > 0


def _naive_product_pairs(lts, blocks, r0, r1):
    """Same-block pairs reachable in the product, comparing every pair of moves,
    sorted by the states' rendered strings and then by their indices."""
    seen = {(r0, r1)}
    queue = [(r0, r1)]
    while queue:
        i, j = queue.pop()
        for l, ti in lts.transitions[i]:
            for l2, tj in lts.transitions[j]:
                if l2 == l and blocks[ti] == blocks[tj] and (ti, tj) not in seen:
                    seen.add((ti, tj))
                    queue.append((ti, tj))
    keys = [render_term(t) for t in lts.states]
    return sorted(seen, key=lambda ij: (keys[ij[0]], ij[0], keys[ij[1]], ij[1]))


def _check_node_witness(lts, w):
    """check_witness on a BisimWitness of the roots of lts, built apart: its
    nodes are lts's states, canonical nodes of the same theory."""
    index = {id(s): i for i, s in enumerate(lts.states)}
    check_witness(lts, [(index[id(a)], index[id(b)]) for a, b in w.pairs], tuple(lts.roots))


def _verdicts_match_full_exploration(spec, pairs):
    verdicts = set()
    for p, q in pairs:
        ok, w = bisimilar(spec, p, q)
        full = build_lts(spec, [p, q])
        assert full.closed
        blocks = refine(full)
        r0, r1 = full.roots
        assert ok == (blocks[r0] == blocks[r1]), (render_term(p), render_term(q))
        verdicts.add(ok)
        if ok:
            want = _naive_product_pairs(full, blocks, r0, r1)
            assert _product_pairs(full, blocks, r0, r1) == want
            assert [(render_term(a), render_term(b)) for a, b in w.pairs] == [
                (render_term(full.states[i]), render_term(full.states[j])) for i, j in want
            ]
            _check_node_witness(full, w)
        else:
            assert w is None
    assert verdicts == {True, False}


def test_early_verdicts_match_full_exploration_full_spec(full):
    rng = random.Random(105)
    pairs = []
    for _ in range(40):
        t = random_full_term(rng, 4)
        pairs += [(t, equivalent_variant(rng, t)), (t, mutate_action(rng, t))]
    _verdicts_match_full_exploration(full, pairs)


def test_early_verdicts_match_full_exploration_parallel(par):
    rng = random.Random(106)
    pairs = []
    for _ in range(40):
        t = App("_||_", (random_bccsp_term(rng, 3), random_bccsp_term(rng, 3)))
        pairs += [(t, equivalent_variant(rng, t)), (t, mutate_action(rng, t))]
    _verdicts_match_full_exploration(par, pairs)


def test_product_pairs_match_naive_on_cyclic_systems():
    """Random systems have cycles and nondeterminism, so states often gain
    partners after they were first processed, which the acyclic state
    spaces of random terms over the bundled specs rarely make happen."""
    rng = random.Random(107)
    roots = 0
    for _ in range(300):
        lts = random_lts(rng, max_states=20)
        blocks = refine(lts)
        n = len(lts.states)
        for r0 in range(n):
            for r1 in range(n):
                if blocks[r0] == blocks[r1]:
                    pairs = _product_pairs(lts, blocks, r0, r1)
                    assert pairs == _naive_product_pairs(lts, blocks, r0, r1), (r0, r1)
                    check_witness(lts, pairs, (r0, r1))
                    roots += 1
    assert roots > 300


def _family(comps):
    """Flat and right-nested parallel compositions of the components."""
    nested = comps[-1]
    for c in reversed(comps[:-1]):
        nested = f"{c} || ({nested})" if " || " in nested else f"{c} || {nested}"
    return " || ".join(comps), nested


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("odd", [None, "a . c . | . 0"])
def test_product_pairs_match_naive_on_symmetric_families(par, n, odd):
    """Equal components can be permuted into each other, so a label leads to
    several same-block targets on each side of a pair."""
    comps = ["a . b . | . 0"] * n
    if odd is not None:
        comps[-1] = odd
    flat, nested = _family(comps)
    roots = [parse_term(flat, par), parse_term(nested, par)]
    lts = build_lts(par, roots)
    blocks = _refine_continues(lts)
    assert _refine_continues(build_lts(par, roots, decide=True)) == blocks
    r0, r1 = lts.roots
    assert blocks[r0] == blocks[r1]
    pairs = _product_pairs(lts, blocks, r0, r1)
    assert pairs == _naive_product_pairs(lts, blocks, r0, r1)
    check_witness(lts, pairs, (r0, r1))


def _stdout(capsys, *argv):
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def test_symmetric_witness_transcript(capsys):
    flat, nested = _family(["a . b . | . 0"] * 5)
    par = str(resources.files("sosforge") / "corpus" / "bccsp_par.sos")
    out = _stdout(capsys, "bisim", par, flat, nested)
    assert out.count("\n") == 4655
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e9d8428c05f929a746eaabd6b06154876dbd17592c6c81b018fa6caabad1aa77"
    )


def test_recursive_witness_transcripts(capsys):
    rec = str(resources.files("sosforge") / "corpus" / "recursion.sos")
    assert _stdout(capsys, "bisim", rec, "p1", "q1") == (
        "true\n < p1 ; q1 >\n < p1 ; q4 >\n < p2 ; q2 >\n < p3 ; q3 >\n"
    )
    assert _stdout(capsys, "eq", rec, "p1", "q1", "--json") == (
        "{\n"
        '  "bisimilar": true,\n'
        '  "witness": [\n'
        "    [\n"
        '      "p1",\n'
        '      "q1"\n'
        "    ],\n"
        "    [\n"
        '      "p1",\n'
        '      "q4"\n'
        "    ],\n"
        "    [\n"
        '      "p2",\n'
        '      "q2"\n'
        "    ],\n"
        "    [\n"
        '      "p3",\n'
        '      "q3"\n'
        "    ]\n"
        "  ]\n"
        "}\n"
    )


def _check_work(monkeypatch, decide):
    """Signatures of the one record a true verdict makes: those its k-step
    checks hold when the exploration closes, those `refine` adds continuing
    it, and those a fresh `refine` of a copy of the closed LTS computes."""
    made, closed = [], []

    class Recording(StepClasses):
        def __init__(self, transitions, layers):
            super().__init__(transitions, layers)
            made.append(self)

    def recording_refine(lts):
        closed.append((lts, lts.classes.signatures))
        return refine(lts)

    monkeypatch.setattr(bisim, "StepClasses", Recording)
    monkeypatch.setattr(bisim, "refine", recording_refine)
    ok, _ = decide()
    assert ok and len(made) == 1
    [(lts, checks)] = closed
    assert lts.classes is made[0]
    copy = Lts(lts.states, lts.transitions, lts.roots)
    assert refine(copy) == refine(lts)
    return checks, made[0].signatures - checks, copy.classes.signatures


def test_checks_cost_no_more_than_refine(monkeypatch, par):
    body = " . ".join(["a"] * 400)
    cycle = parse_spec(f"spec CYCLE\nactions a ;\ndef p = {body} . p ;\ndef q = a . q ;\n")
    chain = parse_term(f"{body} . 0", par)
    for decide in (
        lambda: are_equal(cycle, "p", "q"),
        lambda: bisimilar(par, chain, App("_||_", (chain, Nil()))),
    ):
        checks, continued, fresh = _check_work(monkeypatch, decide)
        assert 0 < checks <= fresh
        assert continued < fresh
        assert checks + continued == fresh  # no level is computed twice


def test_answers_keep_no_lts_alive(monkeypatch, par):
    """The record holds no reference back to its LTS, so without the cyclic
    collector the LTS a verdict builds is freed once the verdict returns."""
    built = []

    def recording_build_lts(*args, **kwargs):
        lts = build_lts(*args, **kwargs)
        built.append(weakref.ref(lts))
        return lts

    monkeypatch.setattr(bisim, "build_lts", recording_build_lts)
    pairs = [
        ("a . 0 || b . 0", "a . b . 0 + b . a . 0"),
        ("a . b . 0 || a . b . 0 || a . b . 0", "a . b . 0 || a . b . 0 || a . c . 0"),  # early
        ("a . b . 0", "a . b . 0"),
    ]
    enabled = gc.isenabled()
    gc.disable()
    try:
        for p, q in pairs:
            answer = bisimilar(par, parse_term(p, par), parse_term(q, par))
            assert built[-1]() is None, (p, q, answer)
    finally:
        if enabled:
            gc.enable()
    assert len(built) == len(pairs)


# -- equivalence queries -------------------------------------------------------------


def test_parallel_vs_expansion(par):
    ok, w = bisimilar(
        par,
        parse_term("a . 0 || b . 0", par),
        parse_term("a . b . 0 + b . a . 0", par),
    )
    assert ok
    assert str(w) == (
        "< 0 || 0 ; 0 > < 0 || b . 0 ; b . 0 > "
        "< a . 0 || 0 ; a . 0 > < a . 0 || b . 0 ; a . b . 0 + b . a . 0 >"
    )


def test_not_bisimilar(par):
    ok, w = bisimilar(par, parse_term("a . 0", par), parse_term("b . 0", par))
    assert not ok and w is None
    ok, _ = bisimilar(
        par, parse_term("a . (b . 0 + c . 0)", par), parse_term("a . b . 0 + a . c . 0", par)
    )
    assert not ok


def test_witness_pairs_satisfy_transfer(par):
    """Every witness pair can match each other's moves within the witness."""
    rng = random.Random(33)
    th = par.theory
    checked = 0
    for _ in range(80):
        p = random_bccsp_term(rng, 3)
        q = equivalent_variant(rng, p)
        ok, w = bisimilar(par, p, q)
        assert ok, (render_term(p), render_term(q))
        rel = {
            (render_term(canon_term(a, th)), render_term(canon_term(b, th)))
            for a, b in w.pairs
        }
        rel |= {(b, a) for a, b in rel}
        for a, b in list(rel):
            sa = {
                (render_label(s.label), render_term(canon_term(s.target, th)))
                for s in step(par, parse_term(a, par))
            }
            sb = {
                (render_label(s.label), render_term(canon_term(s.target, th)))
                for s in step(par, parse_term(b, par))
            }
            for l, ta in sa:
                assert any(l2 == l and (ta, tb) in rel for l2, tb in sb), (a, b, l)
            checked += 1
        _check_node_witness(build_lts(par, [p, q]), w)
    assert checked > 0


def test_congruence_smoke(par):
    p = parse_term("a . 0 || b . 0", par)
    q = parse_term("a . b . 0 + b . a . 0", par)
    r = parse_term("c . | . 0", par)
    ok, _ = bisimilar(par, App("_||_", (p, r)), App("_||_", (q, r)))
    assert ok


def test_are_equal_recursive_systems(rec):
    ok, w = are_equal(rec, "p1", "q1")
    assert ok
    assert str(w) == "< p1 ; q1 > < p1 ; q4 > < p2 ; q2 > < p3 ; q3 >"
    ok, w = are_equal(rec, "p1", "q2")
    assert not ok and w is None


def test_are_equal_one_step_unfolding():
    spec = parse_spec(
        "spec LOOP\nactions a ;\ndef p = a . p ;\ndef q = a . a . q ;\n"
    )
    ok, w = are_equal(spec, "p", "q")
    assert ok
    assert str(w) == "< p ; a . q > < p ; q >"


def test_are_equal_rejects_unguarded():
    spec = parse_spec("spec BAD\nactions a ;\ndef p = p + a . 0 ;\ndef q = a . 0 ;\n")
    with pytest.raises(InvalidSpec) as e:
        are_equal(spec, "p", "q")
    assert [(v.kind, v.rule) for v in e.value.violations] == [("UnguardedDef", "p")]


def test_are_equal_rejects_operators_in_defs():
    spec = parse_spec(
        "spec BAD2\nactions a ;\nop f : 1 ;\nvar x x' : Proc ;\n"
        "rule x -(a)-> x' ==> f(x) -(a)-> x' ;\ndef p = a . f(0) ;\ndef q = a . 0 ;\n"
    )
    with pytest.raises(InvalidSpec) as e:
        are_equal(spec, "p", "q")
    assert [(v.kind, v.rule) for v in e.value.violations] == [("DefOutsideBccsp", "p")]
