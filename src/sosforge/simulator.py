"""One-step semantics of closed terms under a specification's rules.

Deadlock, prefixing, and choice step by built-in clauses; user operators
step by their rules: bind the source arguments, witness each positive
premise against the moves of the tested argument, then require the
negative premises to be unmet.  The same solver drives both simulation
(moves = one-step successors) and the axiom schema (moves = summands).
"""

from __future__ import annotations

from collections.abc import Callable

from .errors import BudgetExceeded, OpenTerm
from .terms import (
    App,
    Choice,
    DefConst,
    EquationalTheory,
    LabelTerm,
    Nil,
    Prefix,
    Term,
    Triple,
    Var,
    canon_label,
    canon_term,
    label_sort,
    match,
    render_label,
    render_term,
    sort_accepts,
    valueclass,
)
from .tss import BOUND, FRESH, GROUND, TRIPLE, LabelPlan, RulePlan, Spec

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


def solve_rule(plan: RulePlan, args: tuple, moves: Moves, th: EquationalTheory) -> list[list]:
    """All bindings under which a rule fires on the given arguments.

    The rule is read through its plan (`Spec.plans_for`).  Each result is a
    list indexed by the plan's slots: the source arguments (label
    arguments as canonical nodes), the premises' label variables and
    targets, and the label node each TRIPLE or GENERAL premise met;
    `plan.substitution` names them.  Results come in the order the
    premises' candidates are tried, and each candidate copies one list.

    `moves(k)` supplies the (label, continuation) pairs the k-th argument
    offers, labels in canonical form; callers build each list once and
    serve it to every rule (`simulator.moves` from its cache, `normalize`
    once per rewrite).  A premise label that is a bare variable or ground
    is checked by a sort check or by comparing canonical nodes, which are
    one object per canonical form.  A store triple of two distinct fresh
    slot variables (a TRIPLE plan) binds the offered triple's slots after
    a sort check each (`_read_slots`).  Every other premise label goes
    through `match`.  Every label the bindings hold, `match`'s too, is a
    canonical node.
    """
    base = list(args)
    for k, sort in enumerate(plan.sources):
        actual = base[k]
        if sort is None:
            if not isinstance(actual, Term):
                return []
        else:
            if not isinstance(actual, LabelTerm):
                return []
            value = canon_label(actual, th)
            if not sort_accepts(sort, label_sort(value)):
                return []
            base[k] = value
    base += plan.blank

    rows = [base]
    for k, target, lp in plan.positives:
        offered = moves(k)
        kind = lp.kind
        nxt: list[list] = []
        if kind == FRESH:
            key, sort = lp.key, lp.sort
            fits = [(lbl, cont) for lbl, cont in offered if sort_accepts(sort, label_sort(lbl))]
            for r in rows:
                for lbl, cont in fits:
                    row = r.copy()
                    row[key] = lbl
                    row[target] = cont
                    nxt.append(row)
        elif kind == GROUND or kind == BOUND:
            for r in rows:
                want = lp.label if kind == GROUND else r[lp.key]
                for lbl, cont in offered:
                    if lbl is want:
                        row = r.copy()
                        row[target] = cont
                        nxt.append(row)
        elif kind == TRIPLE:
            key, slots = lp.key, lp.slots
            for r in rows:
                for lbl, cont in offered:
                    if type(lbl) is Triple:
                        row = r.copy()
                        if _read_slots(slots, lbl, row):
                            row[key] = lbl
                            row[target] = cont
                            nxt.append(row)
        else:
            key, binds = lp.key, lp.binds
            for r in rows:
                pat = lp.pattern(r)
                for lbl, cont in offered:
                    for m in match(pat, lbl, th):
                        row = r.copy()
                        found = m.labels
                        for name, slot in binds:
                            row[slot] = found[name]
                        row[key] = lbl
                        row[target] = cont
                        nxt.append(row)
        rows = nxt
        if not rows:
            return []

    for k, lp in plan.negatives:
        offered_labels = {id(l) for l, _ in moves(k)}
        if lp.kind == GROUND:
            if id(lp.label) in offered_labels:
                return []
            continue
        rows = [r for r in rows if id(lp.under(r, th)) not in offered_labels]
        if not rows:
            return []
    return rows


def _read_slots(slots: tuple[LabelPlan, ...], triple: Triple, row: list) -> bool:
    """Whether each slot of a canonical store triple has the sort of a
    TRIPLE plan's slot variable; binds both variables into `row` if so."""
    pre, post = slots
    if not (sort_accepts(pre.sort, label_sort(triple.pre))
            and sort_accepts(post.sort, label_sort(triple.post))):
        return False
    row[pre.key] = triple.pre
    row[post.key] = triple.post
    return True


def moves(spec: Spec, term: Term, cache: dict[int, list[tuple[LabelTerm, Term]]]
          ) -> list[tuple[LabelTerm, Term]]:
    """The one-step transitions of a closed term: (label, target) pairs in
    the order the rules find them, labels canonical nodes; `step` and
    `bisim.build_lts` call it.

    An operator's rules fire through the plans `Spec.plans_for` hands out,
    reading each argument's moves from the cache; a firing's label and
    target are built from its bindings by the plan.  A plan builds an
    application target over canonical bindings as one canonical node.  Two
    moves are the same when their labels and their targets' canonical
    forms are the same nodes; the first one found is kept, its target in
    the shape it was built in.  Every subterm is stepped once per cache,
    keyed by its canonical node; a hit returns the moves of the first
    subterm stepped under that key, and skips the caps, which held when the
    entry was made.
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
            for plan in spec.plans_for(t.op):
                rows = solve_rule(plan, args, lambda k: go(args[k], depth + 1), th)
                if rows:
                    concl, target = plan.conclusion, plan.target
                    for b in rows:
                        found.append((concl.under(b, th), target.under(b, th)))

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
