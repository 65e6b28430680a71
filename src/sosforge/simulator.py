"""One-step semantics of closed terms under a specification's rules.

Deadlock, prefixing, and choice step by built-in clauses; user operators
step by their rules: bind the source arguments, witness each positive
premise against the moves of the tested argument, then require the
negative premises to be unmet.  The same solver drives both simulation
(moves = one-step successors) and the axiom schema (moves = summands).

Rules fire through plans (`plan_rule`), compiled per operator on its first
firing by `Spec.plans_for`.  A plan compiles only the shapes rules are
written in: a premise label that is a bare variable, ground, or a store
triple of two fresh slot variables; a conclusion label that repeats a
premise's; and a target that is a variable, ground, or an operator applied
to variables.  Every other positive premise label goes through the label
matcher (`matching.match`), which `solve_rule` imports on meeting one; every
other negative premise or conclusion label is substituted and
canonicalized, and every other target is substituted as written.

A whole rule fires in one of two ways.  A rule that moves one argument,
as interleaving `x -(l)-> x' ==> f(x, y) -(l)-> f(x', y)` does, is a
THROUGH plan: `fire_through` filters the tested argument's moves by the
premise label and maps each to the conclusion label and the target's
arguments, with no bindings.  Every other rule is a SOLVE plan, whose
bindings `solve_rule` builds.  The commands that fire rules (simulate,
bisim, eq and normalize) load this module; the others do not.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable
from functools import cached_property

from .errors import BudgetExceeded, OpenTerm
from .terms import (
    App,
    Choice,
    DefConst,
    EquationalTheory,
    LabelTerm,
    LVar,
    Nil,
    Prefix,
    Term,
    Triple,
    Var,
    canon_app,
    canon_label,
    canon_term,
    choice_atoms,
    label_sort,
    render_label,
    render_term,
    sort_accepts,
    substitute_label,
    substitute_term,
    valueclass,
)
from .tss import Rule, RuleVars, Spec

DEFAULT_DEPTH_CAP = 500
DEFAULT_SET_CAP = 10000

Moves = Callable[[int], list[tuple[LabelTerm, Term]]]


# ---------------------------------------------------------------------------
# firing plans


# How a rule plan reads a label, given the variables bound before it.
FRESH = "fresh"      # a bare variable not bound yet: bind it after a sort check
BOUND = "bound"      # a bare bound variable: compare canonical nodes
GROUND = "ground"    # no variables: compare with its canonical node
TRIPLE = "triple"    # a store triple of two distinct fresh slot variables: bind both
GENERAL = "general"  # anything else: the matcher, or substituted and canonicalized

# How a whole rule fires.
SOLVE = "solve"      # through the bindings `solve_rule` builds
THROUGH = "through"  # it moves one argument: `fire_through` filters and maps that argument's moves

# A variable a plan hands to a substitution: its name and its slot.
Read = tuple[str, int]


def _substitution(reads: tuple[Read, ...], bindings: list) -> dict[str, Term | LabelTerm]:
    """The substitution binding each variable of `reads` to its slot's value."""
    return {name: bindings[slot] for name, slot in reads}


class LabelPlan(namedtuple("LabelPlan", "kind label key sort reads binds slots",
                           defaults=(-1, "", (), (), ()))):
    """One label of a rule, classified once.

    `label` is the canonical node of a GROUND label and the label as
    written otherwise.  `key` is the slot of a FRESH or BOUND variable and,
    in a positive premise's TRIPLE or GENERAL plan, the slot that keeps the
    label node the premise met.  `sort` is a FRESH variable's sort.  A
    GENERAL label substitutes the bound variables of `reads` and `match`
    binds the fresh ones of `binds`, by name and slot.  `slots` holds the
    FRESH plans of a TRIPLE label's two slot variables.

    Only a positive premise's label is TRIPLE, and only when it is a store
    triple of two distinct slot variables that no earlier part of the rule
    binds, as Linda's `< xD, -, xD' >`.  Every other store triple, one with
    a constant store, a bound or a repeated slot variable, is GENERAL.
    """

    __slots__ = ()

    def under(self, bindings: list, th: EquationalTheory) -> LabelTerm:
        """The canonical node of a negative premise's or the conclusion's
        label under a rule's bindings: a list, indexed by slot, that binds
        every variable of the label to a canonical node."""
        kind = self.kind
        if kind == BOUND:
            return bindings[self.key]
        if kind == GROUND:
            return self.label
        return canon_label(substitute_label(self.label, _substitution(self.reads, bindings)), th)

    def pattern(self, bindings: list) -> LabelTerm:
        """A GENERAL premise label as `match` takes it: its bound variables
        substituted."""
        if not self.reads:
            return self.label
        return substitute_label(self.label, _substitution(self.reads, bindings))


# How a target plan builds a conclusion target.
VAR = "var"          # a variable: its slot's value
FIXED = "fixed"      # ground: itself, a canonical node when written canonically
APP = "app"          # an operator applied to variables: built from their slots
SUBST = "subst"      # anything else: the target as written, substituted


class TargetPlan(namedtuple("TargetPlan", "kind term slot op slots reads",
                            defaults=(-1, "", (), ()))):
    """A rule's conclusion target, compiled for building.

    `under` builds the target from a rule's bindings, equal to what
    substituting them into the target as written gives.  An application
    whose arguments are all variables comes out as one canonical node, with
    one intern lookup, when their bindings are canonical nodes.  Any other
    target with variables (a prefix, a choice, an application with an
    argument that is not a variable) is substituted as written, and
    canonicalized by whoever needs its canonical form.  `term` is a FIXED
    target's node and the target as written otherwise; `slot` is a
    variable's slot; `op` is an application's operator and `slots` the
    slots of its arguments; `reads` names the variables a SUBST target
    substitutes.
    """

    __slots__ = ()

    def under(self, bindings: list, th: EquationalTheory) -> Term:
        kind = self.kind
        if kind == VAR:
            return bindings[self.slot]
        if kind == APP:
            return build_app(self.op, tuple([bindings[i] for i in self.slots]), th)
        if kind == FIXED:
            return self.term
        return substitute_term(self.term, _substitution(self.reads, bindings))


def build_app(op: str, args: tuple, th: EquationalTheory) -> App:
    """op applied to process terms: one canonical node, with one intern
    lookup, when every argument is a canonical node of th, else a raw
    application."""
    for a in args:
        if a._cth is not th or a._c is not None:  # not canonical
            return App(op, args)
    return canon_app(op, args, th)


def plan_target(t: Term, names: set[str], slot_of: dict[str, int],
                th: EquationalTheory) -> TargetPlan:
    """Compile a conclusion target for building, given its variables as
    the format check recorded them (`RuleVars.target`) and the slot of
    each: a variable is VAR, a ground target FIXED, an application whose
    arguments are all variables APP, and anything else SUBST."""
    cls = type(t)  # node classes have no subclasses
    if cls is Var:
        return TargetPlan(VAR, t, slot_of[t.name])
    if not names:
        canon = canon_term(t, th)
        return TargetPlan(FIXED, canon if canon == t else t)
    if cls is App and all(type(a) is Var or type(a) is LVar for a in t.args):
        return TargetPlan(APP, t, op=t.op, slots=tuple([slot_of[a.name] for a in t.args]))
    return TargetPlan(SUBST, t, reads=tuple(sorted([(n, slot_of[n]) for n in names])))


class _Slots:
    """The slots of a rule being planned: the conclusion source's
    arguments first, in order, then each slot as it is asked for."""

    def __init__(self, source: tuple) -> None:
        self.of = {v.name: k for k, v in enumerate(source)}
        self.size = len(source)

    def new(self, name: str | None = None) -> int:
        """A new slot, for the named variable or, unnamed, for a label node."""
        slot = self.size
        self.size += 1
        if name is not None:
            self.of[name] = slot
        return slot


class RulePlan:
    """A rule compiled for firing over numbered slots.

    Firing fills a list of bindings, indexed by slot: the conclusion
    source's arguments first, in order; then, per positive premise in
    order, its fresh label variables, its target and, for a TRIPLE or
    GENERAL label, the label node it met.  A conclusion label written as a
    positive premise's TRIPLE or GENERAL label is that node: it is
    canonical, and `canon_label` of the label under the bindings.

    `sources` holds each source argument's sort (None for a process
    variable) and `blank` the unbound slots after them.  `positives`
    holds, per positive premise, the tested argument's position (its slot),
    the target's slot and the label's plan; `negatives` the tested position
    and the label's plan; `conclusion` the conclusion label's plan.
    `target` builds the conclusion target; it is compiled when first read,
    which firing does when the rule first fires.  `reads` names the slot of
    every variable, for `substitution`.  `kind` is THROUGH when the rule
    moves one argument (`_moves_one_argument`) and SOLVE otherwise; every
    plan can be solved, a THROUGH one also fired by `fire_through`.
    `theory` is the equational theory the plan was compiled under.
    """

    def __init__(self, rule: Rule, vs: RuleVars, slots: _Slots, positives: tuple,
                 negatives: tuple, conclusion: LabelPlan, th: EquationalTheory) -> None:
        source = rule.conclusion.source.args
        self.rule = rule
        self.sources = tuple([v.sort if isinstance(v, LVar) else None for v in source])
        self.blank = (None,) * (slots.size - len(source))
        self.positives = positives
        self.negatives = negatives
        self.conclusion = conclusion
        self.kind = THROUGH if _moves_one_argument(rule, positives, negatives, conclusion) else SOLVE
        self.reads = tuple(slots.of.items())  # names get slots in slot order
        self.theory = th
        self._target_vars = vs.target
        self._slot_of = slots.of

    @cached_property
    def target(self) -> TargetPlan:
        return plan_target(self.rule.conclusion.target, self._target_vars, self._slot_of, self.theory)

    def substitution(self, bindings: list) -> dict[str, Term | LabelTerm]:
        """The rule's variables bound as the bindings bind them, by name."""
        return _substitution(self.reads, bindings)


def _label_plan(label: LabelTerm, names: tuple[str, ...], slots: _Slots,
                th: EquationalTheory) -> LabelPlan:
    """Classify a label, whose variables are `names`, by those already in
    a slot and those fresh; give the fresh ones slots."""
    if isinstance(label, LVar):
        slot = slots.of.get(label.name)
        if slot is not None:
            return LabelPlan(BOUND, label, slot)
        return LabelPlan(FRESH, label, slots.new(label.name), label.sort)
    if not names:
        return LabelPlan(GROUND, canon_label(label, th))
    if isinstance(label, Triple) and _fresh_slots(label, slots):
        return LabelPlan(TRIPLE, label, slots=(_label_plan(label.pre, names, slots, th),
                                               _label_plan(label.post, names, slots, th)))
    reads = tuple([(n, slots.of[n]) for n in sorted(names) if n in slots.of])
    fresh = [n for n in sorted(names) if n not in slots.of]
    binds = tuple([(n, slots.new(n)) for n in fresh])
    return LabelPlan(GENERAL, label, reads=reads, binds=binds)


def _fresh_slots(label: Triple, slots: _Slots) -> bool:
    """Whether a store triple's slots are two distinct variables, neither
    in a slot yet."""
    pre, post = label.pre, label.post
    return (type(pre) is LVar and type(post) is LVar and pre.name != post.name
            and pre.name not in slots.of and post.name not in slots.of)


def _moves_one_argument(rule: Rule, positives: tuple, negatives: tuple,
                        conclusion: LabelPlan) -> bool:
    """Whether a planned rule moves one argument: its source arguments are
    all process variables; it has one positive premise, whose label is
    FRESH, GROUND or TRIPLE, and no negative one; its conclusion label is
    ground or is the premise's label; and its target applies an operator
    to the source variables in order, the tested one replaced by the
    premise target."""
    if len(positives) != 1 or negatives:
        return False
    k, _, lp = positives[0]
    if lp.kind not in (FRESH, GROUND, TRIPLE):
        return False
    if conclusion.kind != GROUND and not (conclusion.kind == BOUND and conclusion.key == lp.key):
        return False
    source, target = rule.conclusion.source.args, rule.conclusion.target
    if type(target) is not App or not all(type(v) is Var for v in source):
        return False
    moved = [rule.positives[0].target if i == k else v for i, v in enumerate(source)]
    return target.args == tuple(moved)


def plan_rule(rule: Rule, vs: RuleVars, th: EquationalTheory) -> RulePlan:
    """Compile a rule that meets the rule format, given what the format
    check recorded of it: its source arguments are distinct variables, its
    premises test them and its premise targets are fresh variables."""
    concl = rule.conclusion
    slots = _Slots(concl.source.args)
    positives = []
    conclusion = None
    for p, names in zip(rule.positives, vs.positives):
        lp = _label_plan(p.label, names, slots, th)
        target = slots.new(p.target.name)
        if lp.kind == TRIPLE or lp.kind == GENERAL:
            lp = lp._replace(key=slots.new())
            if conclusion is None and p.label == concl.label:
                conclusion = LabelPlan(BOUND, concl.label, lp.key)
        positives.append((slots.of[p.source.name], target, lp))
    # negative and conclusion labels bind nothing: every variable has a slot by now
    negatives = tuple([(slots.of[n.source.name], _label_plan(n.label, names, slots, th))
                       for n, names in zip(rule.negatives, vs.negatives)])
    if conclusion is None:
        conclusion = _label_plan(concl.label, vs.label, slots, th)
    return RulePlan(rule, vs, slots, tuple(positives), negatives, conclusion, th)


# ---------------------------------------------------------------------------
# firing


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
    Any plan can be solved; `moves` and `normalize` fire a THROUGH plan by
    `fire_through` instead, which builds no bindings.

    `moves(k)` supplies the (label, continuation) pairs the k-th argument
    offers, labels in canonical form; callers build each list once and
    serve it to every rule (`simulator.moves` and `normalize` once per
    application).  A premise label that is a bare fresh variable or a
    store triple of two distinct fresh slot variables (FRESH, TRIPLE) keeps
    the offered moves whose labels pass its sort checks (`_fitting`, the
    test `fire_through` applies too).  A ground or bare bound premise label
    keeps those whose labels are its canonical node, or its binding's:
    canonical nodes are one object per canonical form.  Every other premise
    label goes through `matching.match`.  Every label the bindings hold,
    `match`'s too, is a canonical node.
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
        if kind == GROUND or kind == BOUND:
            for r in rows:
                want = lp.label if kind == GROUND else r[lp.key]
                for lbl, cont in offered:
                    if lbl is want:
                        row = r.copy()
                        row[target] = cont
                        nxt.append(row)
        elif kind == FRESH or kind == TRIPLE:
            fits = _fitting(lp, offered)
            key = lp.key
            pre, post = (lp.slots[0].key, lp.slots[1].key) if kind == TRIPLE else (-1, -1)
            for r in rows:
                for lbl, cont in fits:
                    row = r.copy()
                    row[key] = lbl
                    row[target] = cont
                    if pre >= 0:  # a store triple binds its slot variables too
                        row[pre] = lbl.pre
                        row[post] = lbl.post
                    nxt.append(row)
        else:
            from .matching import match  # loaded only by specs with a GENERAL premise

            key, binds = lp.key, lp.binds
            for r in rows:
                pat = lp.pattern(r)
                for lbl, cont in offered:
                    for m in match(pat, lbl, th):
                        row = r.copy()
                        for name, slot in binds:
                            row[slot] = m[name]
                        row[key] = lbl
                        row[target] = cont
                        nxt.append(row)
        rows = nxt
        if not rows:
            return []

    for k, lp in plan.negatives:
        offered_labels = {id(l) for l, _ in moves(k)}
        rows = [r for r in rows if id(lp.under(r, th)) not in offered_labels]
        if not rows:
            return []
    return rows


def _fitting(lp: LabelPlan, offered: list[tuple[LabelTerm, Term]]) -> list[tuple[LabelTerm, Term]]:
    """The offered moves, canonical labels first, whose labels meet a FRESH,
    GROUND or TRIPLE premise label, in order: a fresh variable's sort
    accepts the label's, a ground label is the same canonical node, and a
    store triple's two slot variables' sorts accept its slots'.
    `solve_rule` compares a GROUND label inline, as it does a BOUND one:
    its failing ground premises are the most frequent calls."""
    kind = lp.kind
    if kind == FRESH:
        sort = lp.sort
        return [m for m in offered if sort_accepts(sort, label_sort(m[0]))]
    if kind == GROUND:
        want = lp.label
        return [m for m in offered if m[0] is want]
    pre, post = lp.slots
    return [m for m in offered if type(m[0]) is Triple
            and sort_accepts(pre.sort, label_sort(m[0].pre))
            and sort_accepts(post.sort, label_sort(m[0].post))]


def fire_through(plan: RulePlan, args: tuple, moves: Moves) -> list[tuple[LabelTerm, tuple]]:
    """All firings of a THROUGH plan on the given arguments, with no
    bindings: per move of the tested argument whose label meets the
    premise's (`_fitting`), in the order offered, the conclusion label (the
    ground one, or the move's) and the target's arguments, the source
    arguments with the tested one replaced by the move's continuation.
    They are the firings `solve_rule` finds, in its order.

    Like `solve_rule`, it refuses arguments that are not all process terms
    before it asks for any moves.
    """
    for a in args:
        if not isinstance(a, Term):
            return []
    k, _, lp = plan.positives[0]
    concl = plan.conclusion
    fixed = concl.label if concl.kind == GROUND else None
    out = []
    for lbl, cont in _fitting(lp, moves(k)):
        moved = list(args)
        moved[k] = cont
        out.append((lbl if fixed is None else fixed, tuple(moved)))
    return out


def moves(spec: Spec, term: Term, cache: dict[int, list[tuple[LabelTerm, Term]]]
          ) -> list[tuple[LabelTerm, Term]]:
    """The one-step transitions of a closed term: (label, target) pairs in
    the order the rules find them, labels canonical nodes; `step` and
    `bisim.build_lts` call it.

    An operator's rules fire through the plans `Spec.plans_for` hands out.
    Each argument's moves are read from the cache at most once per
    application, when a rule first asks for them, and that one list is
    handed to every rule.  A THROUGH plan fires by `fire_through`, and its
    target is the operator applied to the arguments it gives; any other
    plan by `solve_rule`, its firings' labels and targets built from their
    bindings by the plan.  An application target over canonical arguments
    is built as one canonical node (`build_app`).  Two
    moves are the same when their labels and their targets' canonical
    forms are the same nodes; the first one found is kept, its target in
    the shape it was built in.  A choice's moves are its summands' moves,
    in order (`choice_atoms`).  Every subterm met is stepped once per
    cache, keyed by its canonical node: a choice and each of its summands
    get entries, the sub-chains of its spine none.  A hit returns the moves
    of the first subterm stepped under that key, and skips the caps, which
    held when the entry was made.
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
            found = [m for a in choice_atoms(t) for m in go(a, depth + 1)]
        elif isinstance(t, DefConst):
            found = go(spec.definition(t.name), depth + 1)
        else:
            assert isinstance(t, App)
            args = t.args
            offers: dict[int, list[tuple[LabelTerm, Term]]] = {}

            def offered(k: int) -> list[tuple[LabelTerm, Term]]:
                got = offers.get(k)
                if got is None:
                    got = offers[k] = go(args[k], depth + 1)
                return got

            found = []
            for plan in spec.plans_for(t.op):
                if plan.kind == THROUGH:
                    for label, moved in fire_through(plan, args, offered):
                        found.append((label, build_app(plan.target.op, moved, th)))
                    continue
                rows = solve_rule(plan, args, offered, th)
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
