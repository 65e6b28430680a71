"""Static well-formedness checks for rules and recursive definitions.

The rule format demands: conclusion sources are an operator applied to
distinct variables, premises test only those argument variables, premise
targets are fresh variables, nothing leaks into the conclusion that was
never bound, and negative-premise labels use only variables bound
positively.  Definitions must stay in the base fragment and be guarded.
"""

from __future__ import annotations

from dataclasses import dataclass

from .terms import (
    App,
    Choice,
    DefConst,
    LVar,
    Nil,
    Prefix,
    Term,
    Var,
    free_vars,
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
        return list(src.args)
    if isinstance(src, Prefix):
        return [src.label, src.body]
    if isinstance(src, Choice):
        return [src.left, src.right]
    return None


def check_gsos(spec: Spec) -> list[Violation]:
    """Check every rule against the structural rule-format conditions."""
    out: list[Violation] = []
    for idx, rule in enumerate(spec.rules, start=1):

        def bad(kind: str, message: str) -> None:
            out.append(Violation(kind, idx, message, str(rule)))

        slots = _source_slots(rule)
        if slots is None:
            bad(
                NON_VARIABLE_SOURCE,
                f"conclusion source {render_term(rule.conclusion.source)} is not an operator over variables",
            )
            continue
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
            continue

        for prem in list(rule.positives) + list(rule.negatives):
            if not (isinstance(prem.source, Var) and prem.source.name in proc_args):
                bad(
                    PREMISE_ON_NON_ARGUMENT,
                    f"premise tests {render_term(prem.source)}, not a source argument",
                )

        premise_label_vars: set[str] = set()
        target_vars: set[str] = set()
        for prem in rule.positives:
            premise_label_vars |= free_vars(prem.label)[1]
        for prem in rule.positives:
            tgt = prem.target
            if not isinstance(tgt, Var):
                bad(TARGET_VAR_REUSE, f"premise target {render_term(tgt)} is not a fresh variable")
                continue
            if tgt.name in proc_args or tgt.name in target_vars:
                bad(TARGET_VAR_REUSE, f"premise target {tgt.name} is not fresh")
            target_vars.add(tgt.name)

        bound_procs = proc_args | target_vars
        bound_labels = label_args | premise_label_vars
        procs, labels = free_vars(rule.conclusion.target)
        for name in sorted((procs - bound_procs) | (labels - bound_labels)):
            bad(CONCL_VAR_ESCAPE, f"conclusion target uses unbound variable {name}")
        _, concl_label_vars = free_vars(rule.conclusion.label)
        for name in sorted(concl_label_vars - bound_labels):
            bad(CONCL_VAR_ESCAPE, f"conclusion label uses unbound variable {name}")
    return out


def check_negative_labels(spec: Spec) -> list[Violation]:
    """Negative-premise labels may use only positively bound variables."""
    out: list[Violation] = []
    for idx, rule in enumerate(spec.rules, start=1):
        slots = _source_slots(rule)
        label_args = (
            {s.name for s in slots if isinstance(s, LVar)} if slots is not None else set()
        )
        bound = set(label_args)
        for prem in rule.positives:
            bound |= free_vars(prem.label)[1]
        for prem in rule.negatives:
            _, lvars = free_vars(prem.label)
            for name in sorted(lvars - bound):
                out.append(
                    Violation(
                        NEG_LABEL_UNBOUND,
                        idx,
                        f"negative premise label uses unbound variable {name}",
                        str(rule),
                    )
                )
    return out


def check_disjoint_extension(spec: Spec) -> list[Violation]:
    """User rules must not redefine deadlock, prefixing, or choice."""
    out: list[Violation] = []
    for idx, rule in enumerate(spec.rules, start=1):
        src = rule.conclusion.source
        if isinstance(src, (Nil, Prefix, Choice)):
            shape = {Nil: "0", Prefix: "prefixing", Choice: "choice"}[type(src)]
            out.append(
                Violation(
                    REDEFINES_BCCSP,
                    idx,
                    f"rule concludes about built-in {shape}",
                    str(rule),
                )
            )
    return out


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
    by_rule: dict[int, list[Violation]] = {}
    for v in check_gsos(spec) + check_negative_labels(spec) + check_disjoint_extension(spec):
        by_rule.setdefault(v.rule, []).append(v)  # type: ignore[arg-type]
    out: list[Violation] = []
    for idx in range(1, len(spec.rules) + 1):
        out.extend(by_rule.get(idx, []))
    out.extend(check_guarded_defs(spec))
    return out


def violations_to_json(violations: list[Violation]) -> list[dict]:
    return [
        {"kind": v.kind, "rule": v.rule, "message": v.message, "span": v.span}
        for v in violations
    ]
