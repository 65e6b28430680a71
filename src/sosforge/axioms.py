"""Equational normalization of closed terms into base-fragment normal forms.

Every operator gets one defining equation per rule: when the rule's
premises hold of the (head-normal) arguments, the right-hand side gains
the summand `label . context`.  Folding these equations bottom-up rewrites
any semantically well-founded closed term to a term built from deadlock,
prefixing, and choice alone, sound for bisimilarity and complete on
ground terms.
"""

from __future__ import annotations

from .errors import BudgetExceeded, NonBccspTerm, OpenTerm
from .terms import (
    App,
    Choice,
    DefConst,
    LabelTerm,
    Nil,
    Prefix,
    Term,
    Var,
    app_width,
    canon_choice,
    canon_label,
    canon_prefix,
    canon_term,
    choice_atoms,
    render_label,
    render_term,
    substitute_label,
    valueclass,
)
from .tss import Spec


@valueclass
class NormalizeBudget:
    """Work limits for normalization of ill-founded inputs."""

    max_rewrites: int = 10000


MAX_DEPTH = 500  # nesting depth at which normalization gives up
MAX_NF_CHARS = 10_000_000  # longest rewritten term, normal-form arguments rendered
DEFAULT_BUDGET = NormalizeBudget()


def normalize(spec: Spec, term: Term, budget: NormalizeBudget | None = None) -> Term:
    """Rewrite a closed, definition-free term to its canonical normal form.

    A rewrite fires the operator's rules through their plans
    (`Spec.plans_for`) on its process arguments' summands, each argument's
    read at most once and straight off its normal form: the prefixes
    `choice_atoms` lists.  Every argument is a canonical node that `norm`
    or a rewrite built, so `terms.summands` would have nothing to check.
    A rule that moves one argument (a THROUGH plan) fires by
    `fire_through`, with no bindings: its summand's label is the one it
    gives and its target the rewrite of the operator applied to the
    arguments it gives.  Any other rule fires by `solve_rule`, and a
    firing's summand is built from its bindings: the conclusion label by
    its plan, and the target by its plan's shape.  A variable is its
    binding, a normal form; an application over variables is rewritten
    straight from their normal forms; any other target is walked as
    written, its variables substituted by their normal forms.  Normal
    forms are the spec's canonical nodes, so a rewrite is memoized by its
    operator and the identities of its arguments' normal forms.  A choice's
    normal form is `canon_choice` of its summands' normal forms, each one
    level deeper, and a rewrite's is `canon_choice` of the prefixes its
    firings build; no raw choice is built and canonicalized again.  A rewrite
    asked for while it is under way would never end, so it fails at once.
    """
    # the axiom report needs no solver
    from .simulator import APP, THROUGH, VAR, fire_through, solve_rule

    th = spec.theory
    budget = budget or DEFAULT_BUDGET
    # None marks a rewrite under way; the theory keeps every normal form
    # alive, so no id is reused
    memo: dict[tuple, Term | None] = {}
    spent = 0
    unbound: dict[str, Term | LabelTerm] = {}

    def too_deep() -> BudgetExceeded:
        return BudgetExceeded(
            f"normalization depth exceeded {MAX_DEPTH}; "
            "term not semantically well-founded within budget"
        )

    def norm(t: Term, sub: dict[str, Term | LabelTerm], depth: int) -> Term:
        # Returns a canonical node.  sub binds the variables of a rule
        # target walked as written to normal forms: they are not walked again.
        if depth > MAX_DEPTH:
            raise too_deep()
        if isinstance(t, Var):
            bound = sub.get(t.name)
            if bound is None:
                raise OpenTerm(f"cannot normalize open term with variable {t.name}")
            return bound
        if isinstance(t, DefConst):
            raise NonBccspTerm(f"recursion constant {t.name} cannot be normalized")
        if isinstance(t, Nil):
            return canon_term(t, th)
        if isinstance(t, Prefix):
            return canon_prefix(canon_label(substitute_label(t.label, sub), th),
                                norm(t.body, sub, depth + 1), th)
        if isinstance(t, Choice):
            return canon_choice([norm(a, sub, depth + 1) for a in choice_atoms(t)], th)
        assert isinstance(t, App)
        return rewrite(t.op, tuple(
            canon_label(substitute_label(a, sub), th) if isinstance(a, LabelTerm)
            else norm(a, sub, depth + 1)
            for a in t.args
        ), depth)

    def rewrite(op: str, args: tuple, depth: int) -> Term:
        # The normal form of op applied to normal forms, at the depth of the
        # application: its process arguments count one level deeper.
        nonlocal spent
        if depth >= MAX_DEPTH and (depth > MAX_DEPTH or any(isinstance(a, Term) for a in args)):
            raise too_deep()
        key = (op, *map(id, args))
        hit = memo.get(key)
        if hit is not None:
            return hit
        if key in memo:  # under way: its normal form needs itself
            raise BudgetExceeded(
                f"normalization of {render_term(App(op, args))} needs its own normal form; "
                "term not semantically well-founded within budget"
            )
        # a hit was measured when it was made
        if app_width(op, args) > MAX_NF_CHARS:
            raise BudgetExceeded(f"normalization met a term of more than {MAX_NF_CHARS} characters")
        spent += 1
        if spent > budget.max_rewrites:
            raise BudgetExceeded(
                f"normalization exceeded {budget.max_rewrites} rewrites; "
                "term not semantically well-founded within budget"
            )
        memo[key] = None
        parts = []
        plans = spec.plans_for(op)
        if plans:
            # each process argument's summands, by position, read off its
            # normal form (a choice of prefixes, or `0`) when a rule first
            # asks for them
            offers: dict[int, list[tuple[LabelTerm, Term]]] = {}

            def moves(k: int) -> list[tuple[LabelTerm, Term]]:
                got = offers.get(k)
                if got is None:
                    got = offers[k] = [(p.label, p.body) for p in choice_atoms(args[k])
                                       if type(p) is Prefix]
                return got

            for plan in plans:
                if plan.kind == THROUGH:
                    for label, moved in fire_through(plan, args, moves):
                        parts.append(canon_prefix(label, rewrite(plan.target.op, moved, depth + 1), th))
                    continue
                rows = solve_rule(plan, args, moves, th)
                if rows:
                    concl, target = plan.conclusion, plan.target
                    kind = target.kind
                    for b in rows:
                        if kind == VAR:
                            cont = b[target.slot]
                        elif kind == APP:
                            cont = rewrite(target.op, tuple([b[i] for i in target.slots]), depth + 1)
                        else:  # walked as written, its variables bound to normal forms
                            sub = plan.substitution(b) if target.reads else unbound
                            cont = norm(target.term, sub, depth + 1)
                        parts.append(canon_prefix(concl.under(b, th), cont, th))
        result = canon_choice(parts, th)
        memo[key] = result
        return result

    return norm(term, unbound, 0)


# ---------------------------------------------------------------------------
# the equation schema as a report


@valueclass
class AxiomEntry:
    """One defining equation: a summand guarded by premise conditions."""

    rule: int
    head: str
    summand: str
    conditions: tuple[str, ...]


def _op_head(spec: Spec, name: str) -> str:
    op = spec.proc_ops[name]
    xs = [f"x{i + 1}" for i in range(op.arity)]
    if op.symbol is not None and op.arity == 2:
        return f"{xs[0]} {op.symbol} {xs[1]}"
    return f"{name}({','.join(xs)})"


def axiom_report(spec: Spec) -> dict[str, list[AxiomEntry]]:
    """The equation schema instance for every declared operator."""
    out: dict[str, list[AxiomEntry]] = {}
    for name in spec.proc_ops:
        entries = []
        for idx, rule in spec.rules_for(name):
            concl = rule.conclusion
            head = render_term(concl.source)
            summand = render_term(Prefix(concl.label, concl.target))
            conds = []
            for p in rule.positives:
                conds.append(
                    f"{render_term(p.source)} has summand "
                    f"{render_term(Prefix(p.label, p.target))}"
                )
            for n in rule.negatives:
                conds.append(f"{render_term(n.source)} cannot do {render_label(n.label)}")
            entries.append(AxiomEntry(idx, head, summand, tuple(conds)))
        out[name] = entries
    return out


def axiom_report_text(spec: Spec) -> str:
    report = axiom_report(spec)
    blocks = []
    for name, entries in report.items():
        lines = [f"axioms for {name}"]
        if not entries:
            lines.append(f"  {_op_head(spec, name)} = 0")
        for e in entries:
            lines.append(f"  [rule {e.rule}] {e.head} = {e.summand}")
            for c in e.conditions:
                lines.append(f"    if {c}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def axiom_report_json(spec: Spec) -> list[dict]:
    report = axiom_report(spec)
    return [
        {
            "op": name,
            "axioms": [
                {
                    "rule": e.rule,
                    "head": e.head,
                    "summand": e.summand,
                    "conditions": list(e.conditions),
                }
                for e in entries
            ],
        }
        for name, entries in report.items()
    ]
