"""Data model for rule-based language specifications.

A specification bundles the signature (actions, predicates, data sorts and
constants, label operators, process operators), variable declarations,
transition rules, and recursive definitions.  Deadlock, prefixing, and
choice are built into the engine and never appear as declared operators.

A `Rule` is a plain value.  The rule-format check (`validator.check_rules`)
is the only code that reads a rule's structure: it runs once per `Spec`
and records, for each rule that meets the format, the label variables of
its premises and conclusion label and the variables of its conclusion
target (`RuleVars`).  Firing plans (`simulator.plan_rule`, compiled per
operator on its first firing by `Spec.plans_for`) and the mirror search
read that record.  Every command loads this module, so it holds the data
model alone: the firing planner lives in `simulator` and the spec printer
(`render_spec`) in `commform`, each loaded by the commands that run it.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property

from .errors import InvalidSpec, UnknownDefConst
from .terms import (
    EquationalTheory,
    LabelTerm,
    OpAttrs,
    Term,
    field,
    infix_symbol,
    render_label,
    render_term,
    valueclass,
)

TYPE_CHECKING = False  # true only for static type checkers
if TYPE_CHECKING:
    from .simulator import RulePlan


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
    variables of the conclusion target, as `free_vars` finds them."""

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
    def _assoc(self) -> dict[str, bool]:
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
            from .simulator import plan_rule  # the simulator imports this module

            th = self.theory
            plans = self._plans[op] = [plan_rule(r, self.rule_vars(r), th)
                                       for _, r in self.rules_for(op)]
        return plans

    def associative(self, op: str) -> bool:
        """Whether the rules of the binary operator op prove it associative
        (`commform.proves_assoc`), proved on the first call for op.

        Raises InvalidSpec unless the spec meets the rule format.
        """
        proved = self._assoc.get(op)
        if proved is None:
            from .commform import proves_assoc  # commform imports this module

            proved = self._assoc[op] = proves_assoc(self, op)
        return proved

    def definition(self, name: str) -> Term:
        self.check()
        try:
            return self.defs[name]
        except KeyError:
            raise UnknownDefConst(f"no defining equation for {name}") from None
