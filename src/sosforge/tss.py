"""Data model for rule-based language specifications.

A specification bundles the signature (actions, predicates, data sorts and
constants, label operators, process operators), variable declarations,
transition rules, and recursive definitions.  Deadlock, prefixing, and
choice are built into the engine and never appear as declared operators.

A `Rule` is a plain value.  The rule-format check (`validator.check_rules`)
is the only code that reads a rule's structure: it runs once per `Spec`
and records, for each rule that meets the format, the label variables of
its premises and conclusion (`RuleVars`).  Firing plans (`plan_rule`,
compiled on a rule's first firing) and the mirror search read that record.
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


class LabelPlan(NamedTuple):
    """One label of a rule, or one slot of a TRIPLE label, classified once.

    `label` is the canonical node of a GROUND label (of a GROUND slot, its
    form as a slot holds it: a lone data constant is its singleton
    multiset) and the label as written otherwise; `key` is the variable's
    name for FRESH and BOUND; `sort` is a FRESH variable's sort;
    `substitute` tells whether a GENERAL label names a bound variable;
    `slots` holds the plans of a TRIPLE label's two slots.
    """

    kind: str
    label: LabelTerm
    key: str = ""
    sort: str = ""
    substitute: bool = False
    slots: tuple[LabelPlan, ...] = ()

    def under(self, sub: Substitution, th: EquationalTheory) -> LabelTerm:
        """The label's canonical node under a substitution that binds its
        variables to canonical nodes."""
        if self.kind == GROUND:
            return self.label
        if self.kind == BOUND:
            return sub.labels[self.key]
        if self.kind == TRIPLE:
            pre, post = self.slots
            return _canon_triple(pre.under(sub, th), post.under(sub, th), th)
        return canon_label(substitute_label(self.label, sub), th)


# How a target plan builds a part of a conclusion target.
VAR = "var"          # a process variable: its binding
FIXED = "fixed"      # a ground part: itself, a canonical node when written canonically
APP = "app"          # an operator application: built from its arguments' parts
SUBST = "subst"      # anything else: the part as written, substituted


class TargetPlan(NamedTuple):
    """A rule's conclusion target, or one part of it, compiled for building.

    `under` builds the part from a rule's bindings, equal to what
    substituting the bindings into the part as written gives.  An
    application whose arguments come out as canonical nodes comes out as
    one too, with one intern lookup, so a target over canonical bindings
    needs no canonicalizing walk.  Any other part with variables (a label,
    a prefix, a choice) is substituted as written, and canonicalized by
    whoever needs its canonical form.  `key` is a variable's name and an
    application's operator; `term` is a FIXED part's node and the part as
    written otherwise.
    """

    kind: str
    term: Term | LabelTerm
    key: str = ""
    parts: tuple[TargetPlan, ...] = ()

    def under(self, sub: Substitution, th: EquationalTheory) -> Term | LabelTerm:
        kind = self.kind
        if kind == VAR:
            return sub.terms[self.key]
        if kind == APP:
            terms = sub.terms
            args = tuple([terms[p.key] if p.kind == VAR else p.under(sub, th) for p in self.parts])
            for a in args:
                if a._cth is not th or a._c is not None:  # not canonical
                    return App(self.key, args)
            return canon_app(self.key, args, th)
        if kind == FIXED:
            return self.term
        if isinstance(self.term, LabelTerm):
            return substitute_label(self.term, sub)
        return substitute_term(self.term, sub)


def plan_target(t: Term | LabelTerm, th: EquationalTheory) -> TargetPlan:
    """Compile a conclusion target, or a part of one, for building: any part
    but a variable, a ground part and an application is SUBST."""
    cls = type(t)  # node classes have no subclasses
    if cls is Var:
        return TargetPlan(VAR, t, t.name)
    if cls is LVar:
        return TargetPlan(SUBST, t)
    parts = tuple([plan_target(c, th) for c in _parts(t)])
    if all(p.kind == FIXED for p in parts):
        canon = canon_label(t, th) if isinstance(t, LabelTerm) else canon_term(t, th)
        return TargetPlan(FIXED, canon if canon == t else t)
    if cls is App:
        return TargetPlan(APP, t, t.op, parts)
    return TargetPlan(SUBST, t)


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


class RulePlan(NamedTuple):
    """A rule compiled for firing.

    `slots` holds, per conclusion source argument, the variable's name and
    its sort (None for a process variable). `positives` holds, per positive
    premise in order, the tested argument's position, the target variable
    and the label's plan; `negatives` the tested position and the label's
    plan; `conclusion` and `target` the plans that build the conclusion's
    label and target.
    """

    slots: tuple[tuple[str, str | None], ...]
    positives: tuple[tuple[int, str, LabelPlan], ...]
    negatives: tuple[tuple[int, LabelPlan], ...]
    conclusion: LabelPlan
    target: TargetPlan


def _label_plan(label: LabelTerm, names: tuple[str, ...], bound: set[str],
                th: EquationalTheory) -> LabelPlan:
    """Classify a label, whose variables are `names`, by those bound in
    `bound` and those fresh; add the fresh ones."""
    if isinstance(label, LVar):
        kind = BOUND if label.name in bound else FRESH
        bound.add(label.name)
        return LabelPlan(kind, label, label.name, label.sort)
    if not names:
        return LabelPlan(GROUND, canon_label(label, th))
    if isinstance(label, Triple):
        slots = _slot_plans(label, bound, th)
        if slots is not None:
            bound.update(names)
            return LabelPlan(TRIPLE, label, slots=slots)
    substitute = not bound.isdisjoint(names)
    bound.update(names)
    return LabelPlan(GENERAL, label, substitute=substitute)


def _slot_plans(label: Triple, bound: set[str],
                th: EquationalTheory) -> tuple[LabelPlan, LabelPlan] | None:
    """Classify a store triple's slots: a variable as `_label_plan` does, a
    variable repeated in the second slot as BOUND, and a constant store (a
    data constant or a multiset of them) as GROUND.  None if a slot is
    anything else."""
    seen = set(bound)
    plans = []
    for slot in (label.pre, label.post):
        if isinstance(slot, LVar):
            plans.append(LabelPlan(BOUND if slot.name in seen else FRESH, slot, slot.name, slot.sort))
            seen.add(slot.name)
            continue
        canon = _slot_form(canon_label(slot, th), th)
        if not (isinstance(canon, MSet) and all(isinstance(e, DataConst) for e in canon.elements)):
            return None
        plans.append(LabelPlan(GROUND, canon))
    return plans[0], plans[1]


def plan_rule(rule: Rule, vs: RuleVars, th: EquationalTheory) -> RulePlan:
    """Compile a rule that meets the rule format, given what the format
    check recorded of it: its source arguments are distinct variables, its
    premises test them and its premise targets are fresh variables."""
    slots = []
    pos_of: dict[str, int] = {}
    bound: set[str] = set()
    for k, slot in enumerate(rule.conclusion.source.args):
        if isinstance(slot, LVar):
            slots.append((slot.name, slot.sort))
            bound.add(slot.name)
        else:
            slots.append((slot.name, None))
            pos_of[slot.name] = k
    positives = tuple((pos_of[p.source.name], p.target.name, _label_plan(p.label, names, bound, th))
                      for p, names in zip(rule.positives, vs.positives))
    # negative and conclusion labels bind nothing: every variable is bound by now
    negatives = tuple((pos_of[n.source.name], _label_plan(n.label, names, bound, th))
                      for n, names in zip(rule.negatives, vs.negatives))
    return RulePlan(tuple(slots), positives, negatives,
                    _label_plan(rule.conclusion.label, vs.label, bound, th),
                    plan_target(rule.conclusion.target, th))


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
    the plan of each rule the engine fires are computed once, on first
    use.  `parse_spec` checks syntax only; the rule index reads the
    check's violations (`validator.check_all`) and raises `InvalidSpec` on
    one, so every rule and definition the engine reads comes from a spec
    that passed.  Plans are compiled from what the check recorded of each
    rule, and only for rules that fire.
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
    def _plans(self) -> dict[int, RulePlan]:
        return {}  # by id(rule); `rules` keeps every rule alive, so no id is reused

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

    def plan(self, rule: Rule) -> RulePlan:
        """The firing plan of a rule of this spec, compiled when first asked for.

        Raises InvalidSpec unless the spec meets the rule format.
        """
        plans = self._plans
        compiled = plans.get(id(rule))
        if compiled is None:
            compiled = plans[id(rule)] = plan_rule(rule, self.rule_vars(rule), self.theory)
        return compiled

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
