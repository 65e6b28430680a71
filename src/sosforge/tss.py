"""Data model for rule-based language specifications.

A specification bundles the signature (actions, predicates, data sorts and
constants, label operators, process operators), variable declarations,
transition rules, and recursive definitions.  Deadlock, prefixing, and
choice are built into the engine and never appear as declared operators.

A `Rule` is a plain value.  The rule-format check (`validator.check_rules`)
is the only code that reads a rule's structure: it runs once per `Spec`
and records, for each rule that meets the format, the label variables of
its premises and conclusion label and the variables of its conclusion
target (`RuleVars`).  Firing plans (`plan_rule`, compiled per operator on
its first firing) and the mirror search read that record.

A plan compiles only the shapes rules are written in: a premise label
that is a bare variable, ground, or a store triple of two fresh slot
variables; a conclusion label that repeats a premise's; and a target
that is a variable, ground, or an operator applied to variables.  Every
other label goes through `match` or is substituted and canonicalized,
and every other target is substituted as written.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property

from .errors import InvalidSpec, UnknownDefConst
from .terms import (
    App,
    EquationalTheory,
    LabelTerm,
    LVar,
    OpAttrs,
    Substitution,
    Term,
    Triple,
    Var,
    canon_app,
    canon_label,
    canon_term,
    field,
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


class RuleVars(namedtuple("RuleVars", "positives negatives label target")):
    """What the rule-format check records of a rule that meets the format:
    the label variables of each positive premise's label, of each negative
    premise's label, in order, and of the conclusion label; and the
    process and the label variables of the conclusion target, as
    `free_vars` finds them."""

    __slots__ = ()


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
TRIPLE = "triple"    # a store triple of two distinct fresh slot variables: bind both
GENERAL = "general"  # anything else: the matcher, or substituted and canonicalized

# A variable a plan hands to a `Substitution`: its name, its slot, and
# whether it is a label variable.
Read = tuple[str, int, bool]


def _substitution(reads: tuple[Read, ...], bindings: list) -> Substitution:
    """The substitution binding each variable of `reads` to its slot's value."""
    sub = Substitution()
    for name, slot, is_label in reads:
        (sub.labels if is_label else sub.terms)[name] = bindings[slot]
    return sub


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
            args = tuple([bindings[i] for i in self.slots])
            for a in args:
                if a._cth is not th or a._c is not None:  # not canonical
                    return App(self.op, args)
            return canon_app(self.op, args, th)
        if kind == FIXED:
            return self.term
        return substitute_term(self.term, _substitution(self.reads, bindings))


def plan_target(t: Term, names: tuple[set[str], set[str]], slot_of: dict[str, int],
                th: EquationalTheory) -> TargetPlan:
    """Compile a conclusion target for building, given its process and
    label variables as the format check recorded them (`RuleVars.target`)
    and the slot of each: a variable is VAR, a ground target FIXED, an
    application whose arguments are all variables APP, and anything else
    SUBST."""
    cls = type(t)  # node classes have no subclasses
    if cls is Var:
        return TargetPlan(VAR, t, slot_of[t.name])
    procs, labels = names
    if not procs and not labels:
        canon = canon_term(t, th)
        return TargetPlan(FIXED, canon if canon == t else t)
    if cls is App and all(type(a) is Var or type(a) is LVar for a in t.args):
        return TargetPlan(APP, t, op=t.op, slots=tuple([slot_of[a.name] for a in t.args]))
    reads = [(n, slot_of[n], False) for n in procs] + [(n, slot_of[n], True) for n in labels]
    return TargetPlan(SUBST, t, reads=tuple(sorted(reads)))


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

    def __init__(self, rule: Rule, vs: RuleVars, slots: _Slots, positives: tuple,
                 negatives: tuple, conclusion: LabelPlan, th: EquationalTheory) -> None:
        source = rule.conclusion.source.args
        self.rule = rule
        self.sources = tuple([v.sort if isinstance(v, LVar) else None for v in source])
        self.blank = (None,) * (slots.size - len(source))
        self.positives = positives
        self.negatives = negatives
        self.conclusion = conclusion
        self.reads = tuple(slots.reads)
        self._target_vars = vs.target
        self._slot_of = slots.of
        self._th = th

    @cached_property
    def target(self) -> TargetPlan:
        return plan_target(self.rule.conclusion.target, self._target_vars, self._slot_of, self._th)

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
    if isinstance(label, Triple) and _fresh_slots(label, slots):
        return LabelPlan(TRIPLE, label, slots=(_label_plan(label.pre, names, slots, th),
                                               _label_plan(label.post, names, slots, th)))
    reads = tuple([(n, slots.of[n], True) for n in sorted(names) if n in slots.of])
    fresh = [n for n in sorted(names) if n not in slots.of]
    binds = tuple([(n, slots.new(n)) for n in fresh])
    return LabelPlan(GENERAL, label, reads=reads, binds=binds)


def _fresh_slots(label: Triple, slots: _Slots) -> bool:
    """Whether a store triple's slots are two distinct variables, neither
    in a slot yet."""
    pre, post = label.pre, label.post
    return (type(pre) is LVar and type(post) is LVar and pre.name != post.name
            and pre.name not in slots.of and post.name not in slots.of)


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
    return RulePlan(rule, vs, slots, tuple(positives), negatives, conclusion, th)


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
