"""One-step semantics of closed terms under a specification's rules.

Deadlock, prefixing, and choice step by built-in clauses; user operators
step by their rules: bind the source arguments, witness each positive
premise against the moves of the tested argument, then require the
negative premises to be unmet.  The same solver drives both simulation
(moves = one-step successors) and the axiom schema (moves = summands).
"""

from __future__ import annotations

from typing import Callable

from .errors import BudgetExceeded, OpenTerm
from .terms import (
    App,
    Choice,
    DefConst,
    EquationalTheory,
    LabelTerm,
    Nil,
    Prefix,
    Substitution,
    Term,
    Triple,
    Var,
    _slot_form,
    canon_label,
    canon_term,
    label_sort,
    match,
    render_label,
    render_term,
    sort_accepts,
    substitute_label,
    valueclass,
)
from .tss import BOUND, FRESH, GROUND, TRIPLE, LabelPlan, Rule, Spec

DEFAULT_DEPTH_CAP = 500
DEFAULT_SET_CAP = 10000

Moves = Callable[[int], list[tuple[LabelTerm, Term]]]


@valueclass
class Step:
    """One outgoing transition: a ground label and the successor term."""

    label: LabelTerm
    target: Term

    def __str__(self) -> str:
        return f"< {render_label(self.label)} # {render_term(self.target)} >"


def solve_rule(spec: Spec, rule: Rule, args: tuple, moves: Moves) -> list[Substitution]:
    """All substitutions under which a rule of the spec fires on the given arguments.

    `moves(k)` supplies the (label, continuation) pairs the k-th argument
    offers, labels in canonical form; callers build each list once and
    serve it to every rule (`step` once per node, `normalize` once per
    rewrite).  The rule is read through its plan, compiled once per Spec
    on the rule's first call (`Spec.plan`), which raises InvalidSpec unless
    the spec meets the rule format: source slots are distinct variables,
    premises test them and premise targets are fresh.  A premise label
    that is a bare variable or ground is checked by a sort check or by
    comparing canonical nodes, which are one object per canonical form.
    So is each slot of a store triple whose slots are each a variable or a
    constant store (`_read_slots`).  Only the other labels, multisets over
    variables and label-operator applications over variables, go through
    `match`.  Every label the substitutions bind, `match`'s too, is a canonical node.
    """
    plan = spec.plan(rule)
    th = spec.theory
    base = Substitution()
    for (name, sort), actual in zip(plan.slots, args):
        if sort is None:
            if not isinstance(actual, Term):
                return []
            base.terms[name] = actual
        else:
            if not isinstance(actual, LabelTerm):
                return []
            value = canon_label(actual, th)
            if not sort_accepts(sort, label_sort(value)):
                return []
            base.labels[name] = value

    subs = [base]
    for k, target, lp in plan.positives:
        offered = moves(k)
        kind = lp.kind
        nxt: list[Substitution] = []
        if kind == FRESH:
            fits = [(lbl, cont) for lbl, cont in offered if sort_accepts(lp.sort, label_sort(lbl))]
            for s in subs:
                for lbl, cont in fits:
                    merged = s.copy()
                    merged.labels[lp.key] = lbl
                    merged.terms[target] = cont
                    nxt.append(merged)
        elif kind == GROUND or kind == BOUND:
            for s in subs:
                want = lp.label if kind == GROUND else s.labels[lp.key]
                for lbl, cont in offered:
                    if lbl is want:
                        merged = s.copy()
                        merged.terms[target] = cont
                        nxt.append(merged)
        elif kind == TRIPLE:
            for s in subs:
                for lbl, cont in offered:
                    if isinstance(lbl, Triple):
                        merged = s.copy()
                        if _read_slots(lp.slots, lbl, merged.labels, th):
                            merged.terms[target] = cont
                            nxt.append(merged)
        else:
            for s in subs:
                pat = substitute_label(lp.label, s) if lp.substitute else lp.label
                for lbl, cont in offered:
                    for m in match(pat, lbl, th):
                        merged = s.copy()
                        merged.labels.update(m.labels)
                        merged.terms[target] = cont
                        nxt.append(merged)
        subs = nxt
        if not subs:
            return []

    for k, lp in plan.negatives:
        offered_labels = {id(l) for l, _ in moves(k)}
        if lp.kind == GROUND:
            if id(lp.label) in offered_labels:
                return []
            continue
        subs = [s for s in subs if id(lp.under(s, th)) not in offered_labels]
        if not subs:
            return []
    return subs


def _read_slots(slots: tuple[LabelPlan, ...], triple: Triple, labels: dict[str, LabelTerm],
                th: EquationalTheory) -> bool:
    """Whether a canonical store triple meets a TRIPLE plan's slots; binds
    the fresh slot variables into `labels`.

    A bound slot compares its value as a slot holds it, a lone data
    constant as its singleton multiset.
    """
    for sp, value in zip(slots, (triple.pre, triple.post)):
        if sp.kind == FRESH:
            if not sort_accepts(sp.sort, label_sort(value)):
                return False
            labels[sp.key] = value
            continue
        want = sp.label if sp.kind == GROUND else _slot_form(labels[sp.key], th)
        if value is not want:
            return False
    return True


def step(spec: Spec, term: Term, *, cache: dict[int, list[Step]] | None = None) -> list[Step]:
    """All one-step transitions of a closed term, deduplicated; sorted unless
    a cache is passed.

    An operator's rules fire through their plans, compiled once per Spec
    (`Spec.plan`), and read each argument's moves from one list per node,
    made when the first rule tests that argument.  A rule's target is built
    from the bindings by its plan, and is a canonical node when they are.

    Two steps are the same when their labels and their targets' canonical
    forms are the same nodes; the first one found is kept, with its target
    in the shape it was built in.  Every subterm is stepped once per cache,
    keyed by its canonical node, and a hit returns the steps of the first
    subterm stepped under that key, with targets in that subterm's shape.
    A hit skips the caps: they held when the entry was made.

    A call without a cache makes its own, and orders each node's steps by
    their labels' and targets' canonical strings, so the answer (and which
    of two equal steps is kept) is the same whatever order the rules find
    them in.  `build_lts`, whose states are canonical and whose targets it
    canonicalizes, passes one cache to every call of its exploration and
    reads the steps in the order they were found.
    """
    th = spec.theory
    ordered = cache is None
    if cache is None:
        cache = {}

    def go(t: Term, depth: int) -> list[Step]:
        if depth > DEFAULT_DEPTH_CAP:
            raise BudgetExceeded(f"step recursion exceeded {DEFAULT_DEPTH_CAP} levels")
        if isinstance(t, Var):
            raise OpenTerm(f"cannot step open term with variable {t.name}")
        key = id(canon_term(t, th))
        hit = cache.get(key)
        if hit is not None:
            return hit
        if isinstance(t, Nil):
            steps: list[Step] = []
        elif isinstance(t, Prefix):
            steps = [Step(canon_label(t.label, th), t.body)]
        elif isinstance(t, Choice):
            steps = go(t.left, depth + 1) + go(t.right, depth + 1)
        elif isinstance(t, DefConst):
            steps = go(spec.definition(t.name), depth + 1)
        else:
            assert isinstance(t, App)
            args = t.args

            offers: dict[int, list[tuple[LabelTerm, Term]]] = {}

            def moves(k: int) -> list[tuple[LabelTerm, Term]]:
                offered = offers.get(k)
                if offered is None:
                    offered = offers[k] = [(s.label, s.target) for s in go(args[k], depth + 1)]
                return offered

            steps = []
            for _, rule in spec.rules_for(t.op):
                subs = solve_rule(spec, rule, args, moves)
                if subs:
                    plan = spec.plan(rule)
                    for s in subs:
                        steps.append(Step(plan.conclusion.under(s, th), plan.target.under(s, th)))

        uniq: dict[tuple[int, int], Step] = {}
        for s in steps:
            uniq.setdefault((id(s.label), id(canon_term(s.target, th))), s)
        if len(uniq) > DEFAULT_SET_CAP:
            raise BudgetExceeded(f"step set exceeded {DEFAULT_SET_CAP} transitions")
        out = list(uniq.values())
        if ordered:
            out.sort(key=lambda s: (render_label(s.label), render_term(canon_term(s.target, th))))
        cache[key] = out
        return out

    return go(term, 0)


def steps_to_json(steps: list[Step]) -> list[dict]:
    return [{"label": render_label(s.label), "target": render_term(s.target)} for s in steps]
