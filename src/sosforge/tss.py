"""Data model for rule-based language specifications.

A specification bundles the signature (actions, predicates, data sorts and
constants, label operators, process operators), variable declarations,
transition rules, and recursive definitions.  Deadlock, prefixing, and
choice are built into the engine and never appear as declared operators.

A `Rule` is a plain value.  The rule-format check (`validator.check_rules`)
is the only code that reads a rule's structure: it runs once per `Spec`
and records, for each rule that meets the format, the label variables of
its premises and conclusion (`RuleVars`).  Firing plans (`plan_rule`,
compiled per operator on its first firing) and the mirror search read
that record.
"""

from __future__ import annotations

from dataclasses import field
from functools import cached_property
from typing import NamedTuple

from .errors import InvalidSpec, UnknownDefConst
from .terms import (
    App,
    Choice,
    DataConst,
    EquationalTheory,
    LabelTerm,
    LApp,
    LVar,
    MSet,
    OpAttrs,
    Prefix,
    Substitution,
    Term,
    Triple,
    Var,
    _canon_triple,
    _slot_form,
    canon_app,
    canon_label,
    canon_term,
    infix_symbol,
    render_label,
    render_term,
    substitute_label,
    substitute_term,
    valueclass,
)


@valueclass
class Transition:
    """A positive transition `source -(label)-> target`."""

    source: Term
    label: LabelTerm
    target: Term

    def __str__(self) -> str:
        return f"{render_term(self.source)} -({render_label(self.label)})-> {render_term(self.target)}"


@valueclass
class NegPremise:
    """A negative premise `source -(label)/>`."""

    source: Term
    label: LabelTerm

    def __str__(self) -> str:
        return f"{render_term(self.source)} -({render_label(self.label)})/>"


class RuleVars(NamedTuple):
    """What the rule-format check records of a rule that meets the format:
    the label variables of each positive premise's label, of each negative
    premise's label, in order, and of the conclusion label."""

    positives: tuple[tuple[str, ...], ...]
    negatives: tuple[tuple[str, ...], ...]
    label: tuple[str, ...]


@valueclass
class Rule:
    """A transition rule: positive and negative premises over one conclusion."""

    positives: tuple[Transition, ...]
    negatives: tuple[NegPremise, ...]
    conclusion: Transition

    def premises_str(self) -> str:
        parts = [str(p) for p in self.positives] + [str(n) for n in self.negatives]
        return " , ".join(parts)

    def __str__(self) -> str:
        prem = self.premises_str()
        return f"{prem} ==> {self.conclusion}" if prem else f"==> {self.conclusion}"


# How a rule plan reads a label, given the variables bound before it.
FRESH = "fresh"      # a bare variable not bound yet: bind it after a sort check
BOUND = "bound"      # a bare bound variable: compare canonical nodes
GROUND = "ground"    # no variables: compare with its canonical node
TRIPLE = "triple"    # a store triple of variable or constant-store slots: read slot by slot
GENERAL = "general"  # anything else: the matcher

# A variable a plan hands to a `Substitution`: its name, its slot, and
# whether it is a label variable.
Read = tuple[str, int, bool]


def _substitution(reads: tuple[Read, ...], bindings: list) -> Substitution:
    """The substitution binding each variable of `reads` to its slot's value."""
    sub = Substitution()
    for name, slot, is_label in reads:
        (sub.labels if is_label else sub.terms)[name] = bindings[slot]
    return sub


class LabelPlan(NamedTuple):
    """One label of a rule, or one slot of a TRIPLE label, classified once.

    `label` is the canonical node of a GROUND label (of a GROUND slot, its
    form as a slot holds it: a lone data constant is its singleton
    multiset) and the label as written otherwise.  `key` is the slot of a
    FRESH or BOUND variable and, in a positive premise's TRIPLE or GENERAL
    plan, the slot that keeps the label node the premise met.  `sort` is a
    FRESH variable's sort.  A GENERAL label substitutes the bound variables
    of `reads` and `match` binds the fresh ones of `binds`, by name and
    slot.  `slots` holds the plans of a TRIPLE label's two slots.
    """

    kind: str
    label: LabelTerm
    key: int = -1
    sort: str = ""
    reads: tuple[Read, ...] = ()
    binds: tuple[tuple[str, int], ...] = ()
    slots: tuple[LabelPlan, ...] = ()

    def under(self, bindings: list, th: EquationalTheory) -> LabelTerm:
        """The label's canonical node under a rule's bindings: a list,
        indexed by slot, that binds every variable of the label to a
        canonical node."""
        kind = self.kind
        if kind == BOUND:
            return bindings[self.key]
        if kind == GROUND:
            return self.label
        if kind == TRIPLE:
            pre, post = self.slots
            return _canon_triple(pre.under(bindings, th), post.under(bindings, th), th)
        return canon_label(substitute_label(self.label, _substitution(self.reads, bindings)), th)

    def pattern(self, bindings: list) -> LabelTerm:
        """A GENERAL premise label as `match` takes it: its bound variables
        substituted."""
        if not self.reads:
            return self.label
        return substitute_label(self.label, _substitution(self.reads, bindings))


# How a target plan builds a part of a conclusion target.
VAR = "var"          # a variable: its slot's value
FIXED = "fixed"      # a ground part: itself, a canonical node when written canonically
APP = "app"          # an operator application: built from its arguments' parts
SUBST = "subst"      # anything else: the part as written, substituted


class TargetPlan(NamedTuple):
    """A rule's conclusion target, or one part of it, compiled for building.

    `under` builds the part from a rule's bindings, equal to what
    substituting them into the part as written gives.  An application
    whose arguments come out as canonical nodes comes out as one too, with
    one intern lookup, so a target over canonical bindings needs no
    canonicalizing walk.  Any other part with variables (a label but a
    bare variable, a prefix, a choice) is substituted as written, and
    canonicalized by whoever needs its canonical form.  `term` is a FIXED
    part's node and the part as written otherwise; `slot` is a variable's
    slot; `op` is an application's operator, and `slots` the slots of its
    arguments when every one is a variable (None otherwise); `reads` names
    the variables of the part, which a SUBST part substitutes.
    """

    kind: str
    term: Term | LabelTerm
    slot: int = -1
    op: str = ""
    parts: tuple[TargetPlan, ...] = ()
    slots: tuple[int, ...] | None = None
    reads: tuple[Read, ...] = ()

    def under(self, bindings: list, th: EquationalTheory) -> Term | LabelTerm:
        kind = self.kind
        if kind == VAR:
            return bindings[self.slot]
        if kind == APP:
            slots = self.slots
            if slots is not None:
                args = tuple([bindings[i] for i in slots])
            else:
                args = tuple([p.under(bindings, th) for p in self.parts])
            for a in args:
                if a._cth is not th or a._c is not None:  # not canonical
                    return App(self.op, args)
            return canon_app(self.op, args, th)
        if kind == FIXED:
            return self.term
        sub = _substitution(self.reads, bindings)
        if isinstance(self.term, LabelTerm):
            return substitute_label(self.term, sub)
        return substitute_term(self.term, sub)


def plan_target(t: Term | LabelTerm, slot_of: dict[str, int], th: EquationalTheory) -> TargetPlan:
    """Compile a conclusion target, or a part of one, for building, given
    the slot of each variable: any part but a variable, a ground part and
    an application is SUBST."""
    cls = type(t)  # node classes have no subclasses
    if cls is Var or cls is LVar:
        slot = slot_of[t.name]
        return TargetPlan(VAR, t, slot, reads=((t.name, slot, cls is LVar),))
    parts = tuple([plan_target(c, slot_of, th) for c in _parts(t)])
    if all(p.kind == FIXED for p in parts):
        canon = canon_label(t, th) if isinstance(t, LabelTerm) else canon_term(t, th)
        return TargetPlan(FIXED, canon if canon == t else t)
    reads = tuple(sorted({r for p in parts for r in p.reads}))
    if cls is App:
        slots = tuple([p.slot for p in parts]) if all(p.kind == VAR for p in parts) else None
        return TargetPlan(APP, t, op=t.op, parts=parts, slots=slots, reads=reads)
    return TargetPlan(SUBST, t, reads=reads)


def _parts(t: Term | LabelTerm) -> tuple:
    """The children of a node."""
    cls = type(t)
    if cls is App or cls is LApp:
        return t.args
    if cls is Prefix:
        return t.label, t.body
    if cls is Choice:
        return t.left, t.right
    if cls is MSet:
        return t.elements
    if cls is Triple:
        return t.pre, t.post
    return ()


class _Slots:
    """The slots of a rule being planned: the conclusion source's
    arguments first, in order, then each slot as it is asked for."""

    def __init__(self, source: tuple) -> None:
        self.of = {v.name: k for k, v in enumerate(source)}
        self.reads = [(v.name, k, isinstance(v, LVar)) for k, v in enumerate(source)]
        self.size = len(source)

    def new(self, name: str | None = None, is_label: bool = True) -> int:
        """A new slot, for the named variable or, unnamed, for a label node."""
        slot = self.size
        self.size += 1
        if name is not None:
            self.of[name] = slot
            self.reads.append((name, slot, is_label))
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
    which firing does when the rule first yields bindings.  `reads` names
    the slot of every variable, for `substitution`.
    """

    def __init__(self, rule: Rule, slots: _Slots, positives: tuple, negatives: tuple,
                 conclusion: LabelPlan, th: EquationalTheory) -> None:
        source = rule.conclusion.source.args
        self.rule = rule
        self.sources = tuple([v.sort if isinstance(v, LVar) else None for v in source])
        self.blank = (None,) * (slots.size - len(source))
        self.positives = positives
        self.negatives = negatives
        self.conclusion = conclusion
        self.reads = tuple(slots.reads)
        self._slot_of = slots.of
        self._th = th

    @cached_property
    def target(self) -> TargetPlan:
        return plan_target(self.rule.conclusion.target, self._slot_of, self._th)

    def substitution(self, bindings: list) -> Substitution:
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
    if isinstance(label, Triple):
        slot_plans = _slot_plans(label, slots, th)
        if slot_plans is not None:
            return LabelPlan(TRIPLE, label, slots=slot_plans)
    reads = tuple([(n, slots.of[n], True) for n in sorted(names) if n in slots.of])
    fresh = [n for n in sorted(names) if n not in slots.of]
    binds = tuple([(n, slots.new(n)) for n in fresh])
    return LabelPlan(GENERAL, label, reads=reads, binds=binds)


def _slot_plans(label: Triple, slots: _Slots,
                th: EquationalTheory) -> tuple[LabelPlan, LabelPlan] | None:
    """Classify a store triple's slots: a variable as `_label_plan` does
    (one repeated in the second slot is BOUND), and a constant store (a
    data constant or a multiset of them) as GROUND.  None if a slot is
    anything else."""
    parts = (label.pre, label.post)
    stores = [None if isinstance(p, LVar) else _slot_form(canon_label(p, th), th) for p in parts]
    for store in stores:
        if store is not None and not (
                isinstance(store, MSet) and all(isinstance(e, DataConst) for e in store.elements)):
            return None
    pre, post = (_label_plan(p, (p.name,), slots, th) if store is None else LabelPlan(GROUND, store)
                 for p, store in zip(parts, stores))
    return pre, post


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
        target = slots.new(p.target.name, is_label=False)
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
    return RulePlan(rule, slots, tuple(positives), negatives, conclusion, th)


@valueclass
class ProcOp:
    """A declared process operator; `_sym_` names render as infix."""

    name: str
    arity: int
    comm: bool = False

    @property
    def symbol(self) -> str | None:
        return infix_symbol(self.name)


@valueclass
class LabelOp:
    """A declared label operator with argument and result sorts."""

    name: str
    arg_sorts: tuple[str, ...]
    result_sort: str
    attrs: OpAttrs = OpAttrs()


@valueclass
class DataSortDecl:
    """A declared data sort; its multisets are built in, with an optional identity."""

    name: str
    identity: str | None = None


@valueclass(hashable=False)
class Spec:
    """A parsed language specification.

    A Spec is not mutated after `parse_spec` returns it: its equational
    theory, its rule-format check, its rule index, its parse context and
    the plans of each operator the engine fires are computed once, on
    first use.  `parse_spec` checks syntax only; the rule index reads the
    check's violations (`validator.check_all`) and raises `InvalidSpec` on
    one, so every rule and definition the engine reads comes from a spec
    that passed.  Plans are compiled from what the check recorded of each
    rule, and only for operators that fire.
    """

    name: str
    actions: tuple[str, ...] = ()
    predicates: tuple[str, ...] = ()
    data_sorts: dict[str, DataSortDecl] = field(default_factory=dict)
    data_consts: dict[str, str] = field(default_factory=dict)
    label_ops: dict[str, LabelOp] = field(default_factory=dict)
    proc_ops: dict[str, ProcOp] = field(default_factory=dict)
    variables: dict[str, str] = field(default_factory=dict)
    rules: tuple[Rule, ...] = ()
    defs: dict[str, Term] = field(default_factory=dict)

    @cached_property
    def theory(self) -> EquationalTheory:
        return EquationalTheory(
            label_ops={name: op.attrs for name, op in self.label_ops.items()},
            data_identity={name: d.identity for name, d in self.data_sorts.items()},
        )

    @cached_property
    def _format(self) -> tuple[list, dict[int, RuleVars]]:
        """The rule-format check, run once: every violation, and what it
        recorded of each rule that meets the format, by id(rule)."""
        from .validator import check_guarded_defs, check_rules  # the validator imports this module

        violations, records = check_rules(self)
        return violations + check_guarded_defs(self), records

    @cached_property
    def _rule_index(self) -> dict[str, list[tuple[int, Rule]]]:
        violations = self._format[0]
        if violations:
            raise InvalidSpec(violations)
        index: dict[str, list[tuple[int, Rule]]] = {}
        for i, r in enumerate(self.rules, start=1):
            index.setdefault(r.conclusion.source.op, []).append((i, r))
        return index

    @cached_property
    def _plans(self) -> dict[str, list[RulePlan]]:
        return {}  # by operator

    @cached_property
    def parse_context(self):
        """The name tables `parse_term` and `parse_label` read for this spec."""
        from .parser import ParseContext  # the parser builds Specs, so it imports this module

        return ParseContext(self)

    def check(self) -> None:
        """Raise InvalidSpec unless the spec meets the rule format."""
        self._rule_index

    def rules_for(self, op: str) -> list[tuple[int, Rule]]:
        """The rules defining an operator, with their 1-based indices (a shared list)."""
        return self._rule_index.get(op, [])

    def rule_vars(self, rule: Rule) -> RuleVars:
        """What the format check recorded of a rule of this spec; raises InvalidSpec unless it passed."""
        self.check()
        return self._format[1][id(rule)]

    def plans_for(self, op: str) -> list[RulePlan]:
        """The firing plans of an operator's rules, in rule order (a shared
        list), compiled on the first call for the operator.

        Raises InvalidSpec unless the spec meets the rule format.
        """
        plans = self._plans.get(op)
        if plans is None:
            th = self.theory
            plans = self._plans[op] = [plan_rule(r, self.rule_vars(r), th)
                                       for _, r in self.rules_for(op)]
        return plans

    def definition(self, name: str) -> Term:
        self.check()
        try:
            return self.defs[name]
        except KeyError:
            raise UnknownDefConst(f"no defining equation for {name}") from None


def render_spec(spec: Spec) -> str:
    """Serialize a specification back to its declaration syntax."""
    lines = [f"spec {spec.name}"]
    if spec.actions:
        lines.append("actions " + " ".join(spec.actions) + " ;")
    if spec.predicates:
        lines.append("predicates " + " ".join(spec.predicates) + " ;")
    for d in spec.data_sorts.values():
        attrs = "assoc comm" + (f" id: {d.identity}" if d.identity else "")
        lines.append(f"datasort {d.name} [{attrs}] ;")
    by_sort: dict[str, list[str]] = {}
    for name, sort in spec.data_consts.items():
        by_sort.setdefault(sort, []).append(name)
    for sort, names in by_sort.items():
        lines.append("dataconst " + " ".join(names) + f" : {sort} ;")
    for op in spec.label_ops.values():
        sig = " ".join(op.arg_sorts) + " -> " + op.result_sort
        attrs = []
        if op.attrs.comm:
            attrs.append("comm")
        if op.attrs.assoc:
            attrs.append("assoc")
        if op.attrs.identity is not None:
            attrs.append(f"id: {render_label(op.attrs.identity)}")
        tail = f" [{' '.join(attrs)}]" if attrs else ""
        lines.append(f"labelop {op.name} : {sig}{tail} ;")
    for op in spec.proc_ops.values():
        tail = " [comm]" if op.comm else ""
        lines.append(f"op {op.name} : {op.arity}{tail} ;")
    var_groups: dict[str, list[str]] = {}
    for name, sort in spec.variables.items():
        var_groups.setdefault(sort, []).append(name)
    for sort, names in var_groups.items():
        lines.append("var " + " ".join(names) + f" : {sort} ;")
    for r in spec.rules:
        lines.append(f"rule {r} ;")
    for name, body in spec.defs.items():
        lines.append(f"def {name} = {render_term(body)} ;")
    return "\n".join(lines) + "\n"
