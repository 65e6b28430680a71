"""Commutativity checking of binary operators by rule mirroring.

A binary operator is syntactically commutative when every one of its
rules has a mirror rule: a bijective variable-for-variable mapping that
swaps the two source arguments, sends every premise into the premise set
of the candidate, may swap the two sides of commutative label operators,
and reproduces the conclusion label up to the label equations and the
conclusion target up to swapping arguments of operators already known
commutative.  The known set starts with choice plus every binary
operator and shrinks to a greatest fixed point in rounds: each finds the
first mirror of every rule under the current set and drops all operators
with an unmirrored rule.  The report is the last round, which drops none.
"""

from __future__ import annotations

from dataclasses import replace

from .terms import (
    SORT_PROC,
    EMPTY_THEORY,
    App,
    Choice,
    EquationalTheory,
    LabelTerm,
    LVar,
    Prefix,
    Substitution,
    Term,
    Var,
    _match_label,
    _ordered,
    canon_label,
    render_term,
    substitute_label,
    substitute_term,
    valueclass,
)
from .tss import Rule, Spec

CHOICE_OP = "+"


def _cc_canon(t: Term, comm_set: set[str], th: EquationalTheory) -> Term:
    """t with canonical labels and the sides of each known-commutative
    operator (choice too) in canonical order; not interned, as not ACI-canonical."""
    if isinstance(t, Prefix):
        return Prefix(canon_label(t.label, th), _cc_canon(t.body, comm_set, th))
    if isinstance(t, Choice):
        pair = [_cc_canon(t.left, comm_set, th), _cc_canon(t.right, comm_set, th)]
        if CHOICE_OP in comm_set:
            _ordered(pair, render_term)
        return Choice(*pair)
    if isinstance(t, App):
        args = [
            canon_label(a, th) if isinstance(a, LabelTerm) else _cc_canon(a, comm_set, th)
            for a in t.args
        ]
        if t.op in comm_set and len(args) == 2 and not any(
            isinstance(a, LabelTerm) for a in args
        ):
            _ordered(args, render_term)
        return App(t.op, tuple(args))
    return t


def _applied_ops(t: Term) -> set[str]:
    """The user operators a process term applies."""
    if isinstance(t, App):
        return {t.op}.union(*(_applied_ops(a) for a in t.args if isinstance(a, Term)))
    if isinstance(t, Prefix):
        return _applied_ops(t.body)
    return _applied_ops(t.left) | _applied_ops(t.right) if isinstance(t, Choice) else set()


def cc_equal(
    t1: Term, t2: Term, comm_set: set[str], th: EquationalTheory = EMPTY_THEORY
) -> bool:
    """Equality up to swapping arguments of known-commutative operators."""
    return _cc_canon(t1, comm_set, th) == _cc_canon(t2, comm_set, th)


# ---------------------------------------------------------------------------
# mirror search


def _bind_renaming(state, var: Var | LVar, value):
    """Binder for variable renamings; the state is (mapping, used names).

    A variable may only map to a variable of the same sort, consistently, and
    no two variables to the same one.
    """
    hmap, used = state
    kind = type(value)
    if kind is not type(var) or (kind is LVar and value.sort != var.sort):
        return
    old = hmap.get(var.name)
    if old is not None:
        if old == value.name:
            yield state
        return
    if value.name not in used:
        yield {**hmap, var.name: value.name}, used | {value.name}


def _mapping_substitution(spec: Spec, hmap: dict[str, str]) -> Substitution:
    sub = Substitution()
    for src, dst in hmap.items():
        sort = spec.variables.get(src, SORT_PROC)
        if sort == SORT_PROC:
            sub.terms[src] = Var(dst)
        else:
            sub.labels[src] = LVar(dst, spec.variables.get(dst, sort))
    return sub


def _complete_mapping(names: list[str], hmap: dict[str, str]) -> dict[str, str]:
    """Extend the mapping to an involution-style display over the sorted
    variables of both rules."""
    out = dict(hmap)
    image = {v: k for k, v in hmap.items()}
    for v in names:
        if v not in out:
            out[v] = image.get(v, v)
    return out


def _variables(spec: Spec, rule: Rule) -> set[str]:
    """Every variable a rule of the format names: its source arguments,
    premise targets and positive label variables bind all the others."""
    names = {a.name for a in rule.conclusion.source.args}
    names.update(p.target.name for p in rule.positives)
    return names.union(*spec.rule_vars(rule).positives)


def find_mirror(
    spec: Spec, rule_a: Rule, rule_b: Rule, comm_set: set[str]
) -> dict[str, str] | None:
    """The first mirror mapping sending rule_b onto rule_a with arguments
    swapped, or None.

    Both rules are rules of the spec for one binary operator, so their
    sources are that operator over two distinct variables.  The search
    assigns rule_b's positive premises to rule_a's, both in order, and stops
    at the first assignment under which the negative premises, conclusion
    label and target mirror rule_a's.
    """
    spec.check()
    th = spec.theory
    args_a = rule_a.conclusion.source.args
    args_b = rule_b.conclusion.source.args
    a0, a1, b0, b1 = args_a[0].name, args_a[1].name, args_b[0].name, args_b[1].name
    sort_of = spec.variables.get
    if sort_of(b0, SORT_PROC) != sort_of(a1, SORT_PROC) or \
            sort_of(b1, SORT_PROC) != sort_of(a0, SORT_PROC):
        return None

    def assignments(i: int, hm: dict[str, str], us: set[str]):
        """The renamings sending rule_b's premises from the i-th on into rule_a's."""
        if i == len(rule_b.positives):
            yield hm
            return
        p = rule_b.positives[i]
        want_src = hm.get(p.source.name)
        pat = canon_label(p.label, th)
        for q in rule_a.positives:
            if q.source.name != want_src:
                continue
            for state in _match_label(pat, canon_label(q.label, th), (hm, us), th, _bind_renaming):
                for hm2, us2 in _bind_renaming(state, p.target, q.target):
                    yield from assignments(i + 1, hm2, us2)

    # rule_a's side: its negative premises and conclusion label as canonical
    # nodes and its target form, made once, when a mapping first needs them
    neg_index = label_a = target_a = None
    for hm in assignments(0, {b0: a1, b1: a0}, {a0, a1}):
        if neg_index is None:
            neg_index = {(n.source.name, id(canon_label(n.label, th))) for n in rule_a.negatives}
            label_a = canon_label(rule_a.conclusion.label, th)
        sub = _mapping_substitution(spec, hm)
        if any((hm[n.source.name], id(canon_label(substitute_label(n.label, sub), th))) not in neg_index
               for n in rule_b.negatives):
            continue
        if canon_label(substitute_label(rule_b.conclusion.label, sub), th) is not label_a:
            continue
        if target_a is None:
            target_a = _cc_canon(rule_a.conclusion.target, comm_set, th)
        if _cc_canon(substitute_term(rule_b.conclusion.target, sub), comm_set, th) == target_a:
            return _complete_mapping(sorted(_variables(spec, rule_a) | _variables(spec, rule_b)), hm)
    return None


# ---------------------------------------------------------------------------
# the fixed-point check


@valueclass
class MirrorWitness:
    """One proved mirror: rule_a is mirrored by rule_b under the mapping."""

    op: str
    rule_a: int
    rule_b: int
    mapping: tuple[tuple[str, str], ...]

    def mapping_str(self) -> str:
        return "  ".join(f"{v} <- {w}" for v, w in self.mapping)


@valueclass(hashable=False)
class CommReport:
    """Outcome of the commutativity check over all binary operators."""

    proven: dict[str, list[MirrorWitness]]
    assumed: list[str]
    failed: dict[str, list[int]]


def check_comm(spec: Spec) -> CommReport:
    """Greatest fixed point of mutual mirroring over the binary operators."""
    binaries = [op for op in spec.proc_ops.values() if op.arity == 2]
    checked = [op.name for op in binaries if not op.comm]
    comm_set = {CHOICE_OP} | {op.name for op in binaries}

    def first_mirror(name: str, rule: Rule) -> tuple[int, dict[str, str]] | None:
        found = ((ib, find_mirror(spec, rule, rb, comm_set)) for ib, rb in spec.rules_for(name))
        return next(((ib, m) for ib, m in found if m is not None), None)

    def row(name: str) -> list[tuple[int, tuple[int, dict[str, str]] | None]]:
        return [(ia, first_mirror(name, ra)) for ia, ra in spec.rules_for(name)]

    # A row reads the known set only through cc_equal on its rules' conclusion
    # targets, so a round recomputes the rows whose targets apply an operator
    # the round before dropped.  Dropped operators keep their rows, so that
    # the last round lists their unmirrored rules under the final set.
    reads = {name: set().union(*(_applied_ops(r.conclusion.target) for _, r in spec.rules_for(name)))
             for name in checked}
    table = {name: row(name) for name in checked}
    while True:
        failing = {
            name
            for name in checked
            if name in comm_set and any(m is None for _, m in table[name])
        }
        if not failing:
            break
        comm_set -= failing
        for name in checked:
            if reads[name] & failing:
                table[name] = row(name)

    proven: dict[str, list[MirrorWitness]] = {}
    failed: dict[str, list[int]] = {}
    for name in checked:
        row = table[name]
        if name not in comm_set:
            failed[name] = [ia for ia, m in row if m is None]
            continue
        witnesses = []
        covered: set[tuple[int, int]] = set()
        for ia, (ib, mapping) in row:  # type: ignore[misc]
            pair = (min(ia, ib), max(ia, ib))
            if pair not in covered:
                covered.add(pair)
                witnesses.append(MirrorWitness(name, ia, ib, tuple(sorted(mapping.items()))))
        proven[name] = witnesses
    return CommReport(proven, sorted(op.name for op in binaries if op.comm), failed)


def formats_spec(spec: Spec, report: CommReport) -> Spec:
    """The same specification with proved commutativity recorded as attributes."""
    new_ops = {
        name: (replace(op, comm=True) if name in report.proven else op)
        for name, op in spec.proc_ops.items()
    }
    return replace(spec, proc_ops=new_ops)


# ---------------------------------------------------------------------------
# reporting


def _rule_lines(rule: Rule) -> list[str]:
    prem = rule.premises_str()
    return [prem, "===", str(rule.conclusion)]


def _side_by_side(left: list[str], right: list[str], gap: str = "   |   ") -> list[str]:
    width = max(len(l) for l in left)
    return [f"{l.ljust(width)}{gap}{r}".rstrip() for l, r in zip(left, right)]


def comm_report_text(spec: Spec, report: CommReport) -> str:
    lines: list[str] = []
    for name in report.assumed:
        lines.append(f"{name} is commutative (declared)")
        lines.append("")
    for name, witnesses in report.proven.items():
        lines.append(f"{name} is commutative")
        for w in witnesses:
            ra, rb = spec.rules[w.rule_a - 1], spec.rules[w.rule_b - 1]
            lines.append(f"  rule {w.rule_a} mirrors rule {w.rule_b}:")
            for row in _side_by_side(_rule_lines(ra), _rule_lines(rb)):
                lines.append(f"    {row}")
            lines.append(f"  with: {w.mapping_str()}")
        lines.append("")
    for name, unmatched in report.failed.items():
        lines.append(f"Could not prove commutativity for: {name}")
        for idx in unmatched:
            rule = spec.rules[idx - 1]
            lines.append(f"  rule {idx} has no mirror:")
            for row in _rule_lines(rule):
                lines.append(f"    {row}")
        lines.append("")
    if not lines:
        lines = ["no binary operators to check", ""]
    return "\n".join(lines).rstrip("\n") + "\n"


def comm_report_json(report: CommReport) -> dict:
    return {
        "proven": {
            name: [
                {
                    "rule_a": w.rule_a,
                    "rule_b": w.rule_b,
                    "mapping": {v: w2 for v, w2 in w.mapping},
                }
                for w in witnesses
            ]
            for name, witnesses in report.proven.items()
        },
        "assumed": list(report.assumed),
        "failed": {name: list(idxs) for name, idxs in report.failed.items()},
    }
