"""Commutativity checking of binary operators by rule mirroring.

A binary operator is syntactically commutative when every one of its
rules has a mirror among its rules: a candidate rule and an injective
variable-for-variable renaming of it that swaps the two source arguments,
sends each of the candidate's positive and negative premises to one of
the rule's (so the rule may have premises its mirror lacks), may swap the
two sides of commutative label operators, and reproduces the rule's
conclusion label up to the label equations and its conclusion target up to
swapping arguments of operators already known commutative (the format of
Mousavi, Reniers and Groote, IPL 93, 2005).  The known set starts with
choice plus every binary operator and shrinks to a greatest fixed point in
rounds: each finds the first mirror of every rule under the current set
and drops all operators with an unmirrored rule.  The report is the last
round, which drops none.

A rule's first mirror is the candidate of smallest rule index, and its
mapping is the first renaming the search meets: the search sends the
candidate's positive premises, in order, each to the rule's premises in
order through the label matcher (`matching._match_label`), backtracking
from the last.

The search reads a rule through a record compiled each time its row is
computed (`_Mirrored`): its negative premises, conclusion label and
conclusion target as forms, nested tuples that name variables, so that a
candidate mapping is checked by renaming and comparing tuples; no term is
built.
"""

from __future__ import annotations

from collections import namedtuple

from .matching import _match_label
from .terms import (
    SORT_PROC,
    EMPTY_THEORY,
    App,
    Choice,
    DefConst,
    EquationalTheory,
    LabelTerm,
    LApp,
    LVar,
    MSet,
    Nil,
    Prefix,
    Term,
    Triple,
    Var,
    _equations,
    canon_label,
    render_label,
    render_term,
    replace,
    valueclass,
)
from .tss import Rule, Spec

CHOICE_OP = "+"


# ---------------------------------------------------------------------------
# forms
#
# A form is a tuple (tag, key, *children).  A variable is (_VAR, name) and a
# ground label is (_GROUND, id of its canonical node); `0` and recursion
# constants are (_CONST, name).  Every other node is _SEQ, or _BAG when its
# children commute, then its operator (choice is `+`, a prefix `.`, a store
# triple `<`, a multiset's union `{` and its sort; label and process
# operators never share a name) and its children's forms, a _BAG's sorted.
# Within one tag the key and the children have one type each, so forms
# compare as plain tuples, in one total order.

_GROUND, _VAR, _CONST, _SEQ, _BAG = range(5)


def _node(tag: int, key: str, children: list) -> tuple:
    if tag == _BAG:
        children.sort()
    return (tag, key, *children)


def _label_form(l: LabelTerm, th: EquationalTheory) -> tuple:
    """The form of a canonical label of th; the arguments of commutative
    operators and multiset elements are sorted."""
    cls = type(l)
    if cls is LVar:
        return (_VAR, l.name)
    if cls is Triple:
        tag, key, children = _SEQ, "<", (l.pre, l.post)
    elif cls is LApp or cls is MSet:
        tag = _BAG if _equations(l, th)[0] else _SEQ
        key, children = (l.op if cls is LApp else "{" + l.sort), l.args
    else:
        return (_GROUND, id(l))
    forms = [_label_form(c, th) for c in children]
    if all(f[0] == _GROUND for f in forms):
        return (_GROUND, id(l))
    return _node(tag, key, forms)


def _term_form(t: Term, comm_set: set[str], th: EquationalTheory) -> tuple:
    """The form of a process term with canonical labels, the two process
    arguments of each known-commutative operator (choice too) sorted."""
    cls = type(t)
    if cls is Var:
        return (_VAR, t.name)
    if cls is Nil:
        return (_CONST, "0")
    if cls is DefConst:
        return (_CONST, t.name)
    if cls is Prefix:
        return (_SEQ, ".", _label_form(canon_label(t.label, th), th), _term_form(t.body, comm_set, th))
    op, args = (CHOICE_OP, (t.left, t.right)) if cls is Choice else (t.op, t.args)
    labels = [isinstance(a, LabelTerm) for a in args]
    forms = [_label_form(canon_label(a, th), th) if is_label else _term_form(a, comm_set, th)
             for a, is_label in zip(args, labels)]
    swap = op in comm_set and len(args) == 2 and not any(labels)
    return _node(_BAG if swap else _SEQ, op, forms)


def _renamed(form: tuple, hmap: dict[str, str]) -> tuple:
    """The form of the term renamed through hmap; unmapped variables stay."""
    tag = form[0]
    if tag == _VAR:
        return (_VAR, hmap.get(form[1], form[1]))
    if tag == _GROUND or tag == _CONST:
        return form
    return _node(tag, form[1], [_renamed(f, hmap) for f in form[2:]])


def _shape(form: tuple) -> tuple:
    """The form with every variable name erased, which no renaming changes."""
    tag = form[0]
    if tag == _VAR:
        return (_VAR, "")
    if tag == _GROUND or tag == _CONST:
        return form
    return _node(tag, form[1], [_shape(f) for f in form[2:]])


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
    return _term_form(t1, comm_set, th) == _term_form(t2, comm_set, th)


# ---------------------------------------------------------------------------
# mirror search


class _Mirrored(namedtuple("_Mirrored", "sources sorts positives negatives label target shape")):
    """What the mirror search reads of one rule of a binary operator: its
    source variables and their sorts, its positive premises as (source,
    canonical label, target variable), its negative premises as a set of
    (source, label form), its conclusion label's form, its conclusion
    target's form under a known-commutative set, and the shapes of those
    two forms."""

    __slots__ = ()


def _compile(spec: Spec, rule: Rule, comm_set: set[str]) -> _Mirrored:
    th = spec.theory
    s0, s1 = (a.name for a in rule.conclusion.source.args)
    sort_of = spec.variables.get
    label = _label_form(canon_label(rule.conclusion.label, th), th)
    target = _term_form(rule.conclusion.target, comm_set, th)
    return _Mirrored(
        (s0, s1),
        (sort_of(s0, SORT_PROC), sort_of(s1, SORT_PROC)),
        tuple([(p.source.name, canon_label(p.label, th), p.target) for p in rule.positives]),
        frozenset([(n.source.name, _label_form(canon_label(n.label, th), th)) for n in rule.negatives]),
        label,
        target,
        (_shape(label), _shape(target)),
    )


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


def _complete_mapping(spec: Spec, rule_a: Rule, rule_b: Rule, hmap: dict[str, str]) -> dict[str, str]:
    """Extend the mapping to an involution-style display over the sorted
    variables of both rules."""
    names = sorted(_variables(spec, rule_a) | _variables(spec, rule_b))
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


def _mirror(a: _Mirrored, b: _Mirrored, th: EquationalTheory) -> dict[str, str] | None:
    """The first renaming of rule b's variables under which it mirrors
    rule a, or None (see find_mirror)."""
    # a renaming keeps shapes and a mirror swaps the sources' sorts
    if b.shape != a.shape or b.sorts != a.sorts[::-1]:
        return None
    (a0, a1), (b0, b1) = a.sources, b.sources
    positives_a, positives_b = a.positives, b.positives

    def assignments(i: int, hm: dict[str, str], us: set[str]):
        """The renamings sending b's premises from the i-th on into a's."""
        if i == len(positives_b):
            yield hm
            return
        source, pat, target = positives_b[i]
        want = hm.get(source)
        for source_a, label_a, target_a in positives_a:
            if source_a != want:
                continue
            for state in _match_label(pat, label_a, (hm, us), th, _bind_renaming):
                for hm2, us2 in _bind_renaming(state, target, target_a):
                    yield from assignments(i + 1, hm2, us2)

    negatives_a = a.negatives
    for hm in assignments(0, {b0: a1, b1: a0}, {a0, a1}):
        if all((hm[v], _renamed(f, hm)) in negatives_a for v, f in b.negatives) \
                and _renamed(b.label, hm) == a.label and _renamed(b.target, hm) == a.target:
            return hm
    return None


def find_mirror(
    spec: Spec, rule_a: Rule, rule_b: Rule, comm_set: set[str]
) -> dict[str, str] | None:
    """The first mirror mapping sending rule_b onto rule_a with arguments
    swapped, or None.

    Both rules are rules of the spec for one binary operator, so their
    sources are that operator over two distinct variables.  The search
    assigns rule_b's positive premises to rule_a's, both in order, and stops
    at the first assignment under which rule_b's negative premises fall
    among rule_a's and its conclusion label and target mirror rule_a's.
    """
    spec.check()
    hm = _mirror(_compile(spec, rule_a, comm_set), _compile(spec, rule_b, comm_set), spec.theory)
    return None if hm is None else _complete_mapping(spec, rule_a, rule_b, hm)


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
    th = spec.theory

    def first_mirror(a: _Mirrored, candidates) -> tuple[int, dict[str, str]] | None:
        found = ((ib, _mirror(a, b, th)) for ib, b in candidates)
        return next(((ib, m) for ib, m in found if m is not None), None)

    def row(name: str) -> list[tuple[int, tuple[int, dict[str, str]] | None]]:
        rules = [(i, _compile(spec, r, comm_set)) for i, r in spec.rules_for(name)]
        return [(ia, first_mirror(a, rules)) for ia, a in rules]

    # A row reads the known set only through its rules' conclusion target
    # forms, so a round recomputes the rows whose targets apply an operator
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
        for ia, (ib, hm) in row:  # type: ignore[misc]
            pair = (min(ia, ib), max(ia, ib))
            if pair not in covered:
                covered.add(pair)
                mapping = _complete_mapping(spec, spec.rules[ia - 1], spec.rules[ib - 1], hm)
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


def render_spec(spec: Spec) -> str:
    """Serialize a specification back to its declaration syntax, as
    `comm --emit-formats` writes `formats_spec`'s result."""
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


# ---------------------------------------------------------------------------
# reporting


def _side_by_side(left: list[str], right: list[str], gap: str = "   |   ") -> list[str]:
    width = max(len(l) for l in left)
    return [f"{l.ljust(width)}{gap}{r}".rstrip() for l, r in zip(left, right)]


def comm_report_text(spec: Spec, report: CommReport) -> str:
    rendered: dict[int, list[str]] = {}

    def rule_lines(idx: int) -> list[str]:
        """Rule idx as premises, a bar and the conclusion, rendered once per report."""
        if idx not in rendered:
            rule = spec.rules[idx - 1]
            rendered[idx] = [rule.premises_str(), "===", str(rule.conclusion)]
        return rendered[idx]

    lines: list[str] = []
    for name in report.assumed:
        lines.append(f"{name} is commutative (declared)")
        lines.append("")
    for name, witnesses in report.proven.items():
        lines.append(f"{name} is commutative")
        for w in witnesses:
            lines.append(f"  rule {w.rule_a} mirrors rule {w.rule_b}:")
            for row in _side_by_side(rule_lines(w.rule_a), rule_lines(w.rule_b)):
                lines.append(f"    {row}")
            lines.append(f"  with: {w.mapping_str()}")
        lines.append("")
    for name, unmatched in report.failed.items():
        lines.append(f"Could not prove commutativity for: {name}")
        for idx in unmatched:
            lines.append(f"  rule {idx} has no mirror:")
            for row in rule_lines(idx):
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
