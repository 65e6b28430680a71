"""Static well-formedness checks for rules and recursive definitions.

The rule format demands: conclusion sources are an operator applied to
distinct variables, premises test only those argument variables, premise
targets are fresh variables, nothing leaks into the conclusion that was
never bound, and negative-premise labels use only variables bound
positively.  Definitions must stay in the base fragment and be guarded.

`check_rules` walks each rule once.  Besides the violations it records,
for each rule that meets the format, the label variables of its premises
and conclusion label and the variables of its conclusion target
(`tss.RuleVars`), which is all the firing plans and the mirror search need
beyond the rule itself.  A `Spec` runs the check
once, on first use, and `check_all` returns the violations of that run.
"""

from __future__ import annotations

from .terms import (
    App,
    Choice,
    DefConst,
    LVar,
    Nil,
    Prefix,
    Term,
    Var,
    choice_atoms,
    free_vars,
    render_term,
    valueclass,
)
from .tss import RuleVars, Spec

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


@valueclass
class Violation:
    """One broken well-formedness condition, tied to a rule or definition."""

    kind: str
    rule: int | str
    message: str
    span: str

    def __str__(self) -> str:
        where = f"rule {self.rule}" if isinstance(self.rule, int) else f"def {self.rule}"
        return f"{where}: {self.kind}: {self.message}"


def check_rules(spec: Spec) -> tuple[list[Violation], dict[int, RuleVars]]:
    """Check every rule against the rule format, each rule in one walk.

    Returns the violations in rule order, by condition within a rule, and
    for each rule that meets the format the label variables of its
    premises and conclusion label and the variables of its conclusion
    target, by id(rule).
    """
    out: list[Violation] = []
    records: dict[int, RuleVars] = {}
    for idx, rule in enumerate(spec.rules, start=1):
        bad: list[tuple[str, str]] = []
        positives = tuple([tuple(free_vars(p.label)) for p in rule.positives])
        negatives = tuple([tuple(free_vars(n.label)) for n in rule.negatives])
        label = tuple(free_vars(rule.conclusion.label))
        target = free_vars(rule.conclusion.target)

        # the conclusion source: an operator over distinct variables
        src = rule.conclusion.source
        shapeless = False
        if isinstance(src, App):
            slots = src.args
        elif isinstance(src, Prefix):
            slots = (src.label, src.body)
        elif isinstance(src, Choice):
            slots = (src.left, src.right)
        else:
            slots = ()
            shapeless = True
            bad.append((NON_VARIABLE_SOURCE,
                        f"conclusion source {render_term(src)} is not an operator over variables"))
        args: set[str] = set()
        for slot in slots:
            if not isinstance(slot, (Var, LVar)):
                bad.append((NON_VARIABLE_SOURCE, f"source argument {slot} is not a variable"))
                shapeless = True
                continue
            if slot.name in args:
                bad.append((REPEATED_VARIABLE,
                            f"variable {slot.name} occurs twice in the conclusion source"))
            args.add(slot.name)
        bound = args.union(*positives)

        # premises test source arguments, positive ones into fresh targets,
        # and the conclusion uses only what they bound
        if not shapeless:
            for prem in (*rule.positives, *rule.negatives):
                if not (isinstance(prem.source, Var) and prem.source.name in args):
                    bad.append((PREMISE_ON_NON_ARGUMENT,
                                f"premise tests {render_term(prem.source)}, not a source argument"))
            target_vars: set[str] = set()
            for prem in rule.positives:
                tgt = prem.target
                if not isinstance(tgt, Var):
                    bad.append((TARGET_VAR_REUSE,
                                f"premise target {render_term(tgt)} is not a fresh variable"))
                    continue
                if tgt.name in args or tgt.name in target_vars:
                    bad.append((TARGET_VAR_REUSE, f"premise target {tgt.name} is not fresh"))
                target_vars.add(tgt.name)
            for name in sorted(target - target_vars - bound):
                bad.append((CONCL_VAR_ESCAPE, f"conclusion target uses unbound variable {name}"))
            for name in sorted(set(label) - bound):
                bad.append((CONCL_VAR_ESCAPE, f"conclusion label uses unbound variable {name}"))

        # negative premise labels use only positively bound variables
        for names in negatives:
            for name in sorted(set(names) - bound):
                bad.append((NEG_LABEL_UNBOUND, f"negative premise label uses unbound variable {name}"))

        # user rules do not redefine deadlock, prefixing or choice
        if isinstance(src, (Nil, Prefix, Choice)):
            shape = {Nil: "0", Prefix: "prefixing", Choice: "choice"}[type(src)]
            bad.append((REDEFINES_BCCSP, f"rule concludes about built-in {shape}"))

        if bad:
            span = str(rule)
            out += [Violation(kind, idx, message, span) for kind, message in bad]
        else:
            records[id(rule)] = RuleVars(positives, negatives, label, target)
    return out, records


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
                for a in choice_atoms(t):
                    walk(a, guarded)
            elif isinstance(t, App):
                bad(DEF_OUTSIDE_BCCSP, f"operator {t.op} is not allowed in a definition body")

        walk(body, False)
    return out


def check_all(spec: Spec) -> list[Violation]:
    """Every violation, in rule order and then definition order, from the
    spec's one format check (run on first use and kept on the Spec)."""
    return list(spec._format[0])


def violations_to_json(violations: list[Violation]) -> list[dict]:
    return [
        {"kind": v.kind, "rule": v.rule, "message": v.message, "span": v.span}
        for v in violations
    ]
