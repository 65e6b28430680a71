"""One-step semantics of closed terms under a specification's rules.

Deadlock, prefixing, and choice step by built-in clauses; user operators
step by their rules: bind the source arguments, witness each positive
premise against the moves of the tested argument, then require the
negative premises to be unmet.  The same solver drives both simulation
(moves = one-step successors) and the axiom schema (moves = summands).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import BudgetExceeded, OpenTerm
from .terms import (
    App,
    Choice,
    DefConst,
    LabelTerm,
    Nil,
    Prefix,
    Substitution,
    Term,
    Var,
    canon_label,
    canon_term,
    label_sort,
    match,
    render_label,
    render_term,
    sort_accepts,
    substitute_label,
    substitute_term,
)
from .tss import Rule, Spec

DEFAULT_DEPTH_CAP = 500
DEFAULT_SET_CAP = 10000

Moves = Callable[[int], list[tuple[LabelTerm, Term]]]


@dataclass(frozen=True)
class Step:
    """One outgoing transition: a ground label and the successor term."""

    label: LabelTerm
    target: Term

    def __str__(self) -> str:
        return f"< {render_label(self.label)} # {render_term(self.target)} >"


def solve_rule(spec: Spec, rule: Rule, args: tuple, moves: Moves) -> list[Substitution]:
    """All substitutions under which a rule of the spec fires on the given arguments.

    `moves(k)` supplies the (label, continuation) pairs the k-th argument
    offers; labels are expected in canonical form.  Raises InvalidSpec
    unless the spec meets the rule format, which guarantees that source
    slots are distinct variables, premises test them and premise targets
    are fresh.
    """
    spec.check()
    th = spec.theory
    base = Substitution()
    pos_of: dict[str, int] = {}
    for k, (slot, actual) in enumerate(zip(rule.conclusion.source.args, args)):
        if isinstance(slot, Var):
            if not isinstance(actual, Term):
                return []
            base.terms[slot.name] = actual
            pos_of[slot.name] = k
        else:
            if not isinstance(actual, LabelTerm):
                return []
            value = canon_label(actual, th)
            if not sort_accepts(slot.sort, label_sort(value)):
                return []
            base.labels[slot.name] = value

    subs = [base]
    for prem in rule.positives:
        offered = moves(pos_of[prem.source.name])
        target = prem.target.name
        nxt: list[Substitution] = []
        for s in subs:
            pat = substitute_label(prem.label, s)
            for lbl, cont in offered:
                for m in match(pat, lbl, th):
                    merged = s.copy()
                    merged.labels.update(m.labels)
                    merged.terms[target] = cont
                    nxt.append(merged)
        subs = nxt
        if not subs:
            return []

    for neg in rule.negatives:
        offered_labels = {
            render_label(canon_label(l, th)) for l, _ in moves(pos_of[neg.source.name])
        }
        subs = [
            s
            for s in subs
            if render_label(canon_label(substitute_label(neg.label, s), th)) not in offered_labels
        ]
        if not subs:
            return []
    return subs


def step(spec: Spec, term: Term, *, cache: dict[str, list[Step]] | None = None) -> list[Step]:
    """All one-step transitions of a closed term, sorted and deduplicated.

    Every subterm is stepped once per cache, keyed by its canonical string,
    and a hit returns the steps of the first subterm stepped under that key,
    with targets in that subterm's shape.  A call makes its own cache;
    `build_lts`, whose states are canonical and whose targets it
    canonicalizes, passes one cache to every call of its exploration.  A hit
    skips the caps: they held when the entry was made.
    """
    th = spec.theory
    if cache is None:
        cache = {}

    def go(t: Term, depth: int) -> list[Step]:
        if depth > DEFAULT_DEPTH_CAP:
            raise BudgetExceeded(f"step recursion exceeded {DEFAULT_DEPTH_CAP} levels")
        if isinstance(t, Var):
            raise OpenTerm(f"cannot step open term with variable {t.name}")
        key = render_term(canon_term(t, th))
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

            def moves(k: int) -> list[tuple[LabelTerm, Term]]:
                return [(s.label, s.target) for s in go(args[k], depth + 1)]

            steps = []
            for _, rule in spec.rules_for(t.op):
                for s in solve_rule(spec, rule, args, moves):
                    lbl = canon_label(substitute_label(rule.conclusion.label, s), th)
                    tgt = substitute_term(rule.conclusion.target, s)
                    steps.append(Step(lbl, tgt))

        # dedup and order by canonical serialization; targets keep their shape
        uniq: dict[tuple[str, str], Step] = {}
        for s in steps:
            uniq.setdefault(
                (render_label(s.label), render_term(canon_term(s.target, th))), s
            )
        if len(uniq) > DEFAULT_SET_CAP:
            raise BudgetExceeded(f"step set exceeded {DEFAULT_SET_CAP} transitions")
        out = [uniq[k] for k in sorted(uniq)]
        cache[key] = out
        return out

    return go(term, 0)


def steps_to_json(steps: list[Step]) -> list[dict]:
    return [{"label": render_label(s.label), "target": render_term(s.target)} for s in steps]
