"""Static well-formedness checks for rules and recursive definitions.

The rule format demands: conclusion sources are an operator applied to
distinct variables, premises test only those argument variables, premise
targets are fresh variables, nothing leaks into the conclusion that was
never bound, and negative-premise labels use only variables bound
positively.  Definitions must stay in the base fragment and be guarded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .terms import (
    App,
    Choice,
    DefConst,
    LVar,
    Nil,
    Prefix,
    Term,
    Var,
    render_term,
)
from .tss import Rule, Spec

NON_VARIABLE_SOURCE = "NonVariableSource"
REPEATED_VARIABLE = "RepeatedVariable"
PREMISE_ON_NON_ARGUMENT = "PremiseOnNonArgument"
TARGET_VAR_REUSE = "TargetVarReuse"
CONCL_VAR_ESCAPE = "ConclVarEscape"
NEG_LABEL_UNBOUND = "NegLabelUnbound"
REDEFINES_BCCSP = "RedefinesBccsp"
UNGUARDED_DEF = "UnguardedDef"
DEF_OUTSIDE_BCCSP = "DefOutsideBccsp"

ALL_KINDS = (
    NON_VARIABLE_SOURCE,
    REPEATED_VARIABLE,
    PREMISE_ON_NON_ARGUMENT,
    TARGET_VAR_REUSE,
    CONCL_VAR_ESCAPE,
    NEG_LABEL_UNBOUND,
    REDEFINES_BCCSP,
    UNGUARDED_DEF,
    DEF_OUTSIDE_BCCSP,
)


@dataclass(frozen=True)
class Violation:
    """One broken well-formedness condition, tied to a rule or definition."""

    kind: str
    rule: int | str
    message: str
    span: str

    def __str__(self) -> str:
        where = f"rule {self.rule}" if isinstance(self.rule, int) else f"def {self.rule}"
        return f"{where}: {self.kind}: {self.message}"


def _source_slots(rule: Rule):
    """The argument slots of the conclusion source, or None if shapeless."""
    src = rule.conclusion.source
    if isinstance(src, App):
        return src.args
    if isinstance(src, Prefix):
        return (src.label, src.body)
    if isinstance(src, Choice):
        return (src.left, src.right)
    return None


# A rule check reads a rule, the argument slots of its conclusion source and
# a callback taking each violation's kind and message.
Bad = Callable[[str, str], None]


def _gsos(rule: Rule, slots, bad: Bad) -> None:
    """The structural rule-format conditions."""
    if slots is None:
        bad(
            NON_VARIABLE_SOURCE,
            f"conclusion source {render_term(rule.conclusion.source)} is not an operator over variables",
        )
        return
    proc_args: set[str] = set()
    label_args: set[str] = set()
    seen: set[str] = set()
    shapeless = False
    for slot in slots:
        if isinstance(slot, Var):
            name = slot.name
            bucket = proc_args
        elif isinstance(slot, LVar):
            name = slot.name
            bucket = label_args
        else:
            bad(NON_VARIABLE_SOURCE, f"source argument {slot} is not a variable")
            shapeless = True
            continue
        if name in seen:
            bad(REPEATED_VARIABLE, f"variable {name} occurs twice in the conclusion source")
        seen.add(name)
        bucket.add(name)
    if shapeless:
        return

    for prem in (*rule.positives, *rule.negatives):
        if not (isinstance(prem.source, Var) and prem.source.name in proc_args):
            bad(
                PREMISE_ON_NON_ARGUMENT,
                f"premise tests {render_term(prem.source)}, not a source argument",
            )

    target_vars: set[str] = set()
    for prem in rule.positives:
        tgt = prem.target
        if not isinstance(tgt, Var):
            bad(TARGET_VAR_REUSE, f"premise target {render_term(tgt)} is not a fresh variable")
            continue
        if tgt.name in proc_args or tgt.name in target_vars:
            bad(TARGET_VAR_REUSE, f"premise target {tgt.name} is not fresh")
        target_vars.add(tgt.name)

    vs = rule.var_sets
    bound_procs = proc_args | target_vars
    bound_labels = label_args.union(*vs.positives)
    procs, labels = vs.target
    for name in sorted(set(procs) - bound_procs | set(labels) - bound_labels):
        bad(CONCL_VAR_ESCAPE, f"conclusion target uses unbound variable {name}")
    for name in sorted(set(vs.label) - bound_labels):
        bad(CONCL_VAR_ESCAPE, f"conclusion label uses unbound variable {name}")


def _negative_labels(rule: Rule, slots, bad: Bad) -> None:
    """Negative-premise labels may use only positively bound variables."""
    vs = rule.var_sets
    if not vs.negatives:
        return
    bound = {s.name for s in slots or () if isinstance(s, LVar)}.union(*vs.positives)
    for lvars in vs.negatives:
        for name in sorted(set(lvars) - bound):
            bad(NEG_LABEL_UNBOUND, f"negative premise label uses unbound variable {name}")


def _disjoint_extension(rule: Rule, slots, bad: Bad) -> None:
    """User rules must not redefine deadlock, prefixing, or choice."""
    src = rule.conclusion.source
    if isinstance(src, (Nil, Prefix, Choice)):
        shape = {Nil: "0", Prefix: "prefixing", Choice: "choice"}[type(src)]
        bad(REDEFINES_BCCSP, f"rule concludes about built-in {shape}")


def _check_rules(spec: Spec, *checks: Callable[[Rule, object, Bad], None]) -> list[Violation]:
    """The violations of each rule in order, by check within a rule."""
    out: list[Violation] = []
    for idx, rule in enumerate(spec.rules, start=1):

        def bad(kind: str, message: str) -> None:
            out.append(Violation(kind, idx, message, str(rule)))

        slots = _source_slots(rule)
        for check in checks:
            check(rule, slots, bad)
    return out


def check_gsos(spec: Spec) -> list[Violation]:
    """Check every rule against the structural rule-format conditions."""
    return _check_rules(spec, _gsos)


def check_guarded_defs(spec: Spec) -> list[Violation]:
    """Definition bodies stay in the base fragment with guarded recursion."""
    out: list[Violation] = []
    for name, body in spec.defs.items():

        def bad(kind: str, message: str) -> None:
            out.append(Violation(kind, name, message, f"def {name} = {render_term(body)}"))

        def walk(t: Term, guarded: bool) -> None:
            if isinstance(t, DefConst):
                if not guarded:
                    bad(UNGUARDED_DEF, f"{t.name} occurs outside the scope of a prefix")
            elif isinstance(t, Prefix):
                walk(t.body, True)
            elif isinstance(t, Choice):
                walk(t.left, guarded)
                walk(t.right, guarded)
            elif isinstance(t, App):
                bad(DEF_OUTSIDE_BCCSP, f"operator {t.op} is not allowed in a definition body")

        walk(body, False)
    return out


def check_all(spec: Spec) -> list[Violation]:
    """Every check, in rule order and then definition order."""
    return _check_rules(spec, _gsos, _negative_labels, _disjoint_extension) + check_guarded_defs(spec)


def violations_to_json(violations: list[Violation]) -> list[dict]:
    return [
        {"kind": v.kind, "rule": v.rule, "message": v.message, "span": v.span}
        for v in violations
    ]
