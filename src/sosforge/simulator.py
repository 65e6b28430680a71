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
    serve it to every rule (`simulator.moves` from its cache, `normalize`
    once per rewrite).  The rule is read through its plan, compiled once per Spec
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


def moves(spec: Spec, term: Term, cache: dict[int, list[tuple[LabelTerm, Term]]]
          ) -> list[tuple[LabelTerm, Term]]:
    """The one-step transitions of a closed term: (label, target) pairs in
    the order the rules find them, labels canonical nodes; `step` and
    `bisim.build_lts` call it.

    An operator's rules fire through their plans (`Spec.plan`) and read
    each argument's moves from the cache.  A plan builds an application
    target over canonical bindings as one canonical node.  Two moves are
    the same when their labels and their targets' canonical forms are the
    same nodes; the first one found is kept, its target in the shape it was
    built in.  Every subterm is stepped once per cache, keyed by its
    canonical node; a hit returns the moves of the first subterm stepped
    under that key, and skips the caps, which held when the entry was made.
    """
    th = spec.theory

    def go(t: Term, depth: int) -> list[tuple[LabelTerm, Term]]:
        if depth > DEFAULT_DEPTH_CAP:
            raise BudgetExceeded(f"step recursion exceeded {DEFAULT_DEPTH_CAP} levels")
        if isinstance(t, Var):
            raise OpenTerm(f"cannot step open term with variable {t.name}")
        key = id(canon_term(t, th))
        hit = cache.get(key)
        if hit is not None:
            return hit
        if isinstance(t, Nil):
            found: list[tuple[LabelTerm, Term]] = []
        elif isinstance(t, Prefix):
            found = [(canon_label(t.label, th), t.body)]
        elif isinstance(t, Choice):
            found = go(t.left, depth + 1) + go(t.right, depth + 1)
        elif isinstance(t, DefConst):
            found = go(spec.definition(t.name), depth + 1)
        else:
            assert isinstance(t, App)
            args = t.args
            found = []
            for _, rule in spec.rules_for(t.op):
                subs = solve_rule(spec, rule, args, lambda k: go(args[k], depth + 1))
                if subs:
                    plan = spec.plan(rule)
                    for s in subs:
                        found.append((plan.conclusion.under(s, th), plan.target.under(s, th)))

        uniq: dict[tuple[int, int], tuple[LabelTerm, Term]] = {}
        for move in found:
            uniq.setdefault((id(move[0]), id(canon_term(move[1], th))), move)
        if len(uniq) > DEFAULT_SET_CAP:
            raise BudgetExceeded(f"step set exceeded {DEFAULT_SET_CAP} transitions")
        out = cache[key] = list(uniq.values())
        return out

    return go(term, 0)


def step(spec: Spec, term: Term) -> list[Step]:
    """All one-step transitions of a closed term, deduplicated as `moves`
    does and sorted by their labels' and targets' canonical strings.

    Each call steps with a cache of its own, so a term stepped earlier
    lends no target its shape.
    """
    th = spec.theory
    steps = [Step(label, target) for label, target in moves(spec, term, {})]
    steps.sort(key=lambda s: (render_label(s.label), render_term(canon_term(s.target, th))))
    return steps


def steps_to_json(steps: list[Step]) -> list[dict]:
    return [{"label": render_label(s.label), "target": render_term(s.target)} for s in steps]
