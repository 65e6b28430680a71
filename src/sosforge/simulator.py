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
    LVar,
    Nil,
    Prefix,
    Substitution,
    Term,
    Var,
    bind_term,
    canon_label,
    canon_term,
    free_vars,
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
    """All substitutions under which a rule fires on the given arguments.

    `moves(k)` supplies the (label, continuation) pairs the k-th argument
    offers; labels are expected in canonical form.
    """
    th = spec.theory
    src = rule.conclusion.source
    if not isinstance(src, App) or len(src.args) != len(args):
        return []
    base = Substitution()
    pos_of: dict[str, int] = {}
    for k, (slot, actual) in enumerate(zip(src.args, args)):
        # a variable repeated in the source binds only equal canonical arguments
        if isinstance(slot, Var):
            if not isinstance(actual, Term):
                return []
            old = base.terms.get(slot.name)
            if old is None:
                base.terms[slot.name] = actual
                pos_of[slot.name] = k
            elif render_term(canon_term(old, th)) != render_term(canon_term(actual, th)):
                return []
        elif isinstance(slot, LVar):
            if not isinstance(actual, LabelTerm):
                return []
            value = canon_label(actual, th)
            if not sort_accepts(slot.sort, label_sort(value)):
                return []
            old_label = base.labels.setdefault(slot.name, value)
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
        nxt: list[Substitution] = []
        for s in subs:
            pat = substitute_label(prem.label, s)
            for lbl, cont in offered:
                for m in match(pat, lbl, th):
                    merged = s.copy()
                    merged.labels.update(m.labels)
                    nxt.extend(bind_term(merged, prem.target.name, cont))
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
            if free_vars(lbl)[1]:
                continue  # an unbound negative label can never be refuted
            if render_label(canon_label(lbl, th)) not in offered_labels:
                kept.append(s)
        subs = kept
        if not subs:
            return []
    return subs


def step(
    spec: Spec,
    term: Term,
    set_cap: int = DEFAULT_SET_CAP,
    *,
    cache: dict[str, list[Step]] | None = None,
) -> list[Step]:
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
            raise BudgetExceeded(
                f"step recursion exceeded {DEFAULT_DEPTH_CAP} levels; is a definition unguarded?"
            )
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
        if len(uniq) > set_cap:
            raise BudgetExceeded(f"step set exceeded {set_cap} transitions")
        out = [uniq[k] for k in sorted(uniq)]
        cache[key] = out
        return out

    return go(term, 0)


def steps_to_json(steps: list[Step]) -> list[dict]:
    return [{"label": render_label(s.label), "target": render_term(s.target)} for s in steps]
