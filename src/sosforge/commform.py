"""Commutativity and associativity of binary operators, proved from their rules.

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
built.  A choice is one form node over all its summands, in any grouping.

Associativity (`proves_assoc`, after Cranen, Mousavi and Reniers, A rule
format for associativity, CONCUR 2008) compares the derived rules of the
two groupings op(op(x0, x1), x2) and op(x0, op(x1, x2)).  A derived rule
takes an outer rule of op: with no premise on the nested argument, that
argument stays in place; with one positive premise on it, the rule is
paired with each inner rule whose conclusion label meets that premise's
label, and the derived rule has the outer rule's premise on the other
argument and the inner rule's premises, the outer conclusion's label and
target with the inner rule's conclusion put in for the premise.  Labels
meet by identity and by sort: a ground, fresh-variable or store-triple
premise label against a ground, bare-variable or store-triple conclusion
label; a pair that cannot meet gives no derived rule.  The operator is
proved associative when every derived rule of each grouping has a landing
among the other grouping's: a derived rule whose premises, renamed, are
among its own, with the same conclusion label up to the label equations
and the same target once nests of op are flat.  Everything else is not
proved: a negative premise, two premises on one argument, a premise label
that is bound earlier or matched (BOUND or GENERAL), a conclusion label of
another shape, or labels that meet on only some of the labels of a sort.

The proof is sound.  A grouping's derived rules derive exactly its
transitions: an instance of a derived rule fires the inner rule on the
nested argument, whose conclusion label then meets the outer premise
(labels meet on all of a sort or on none of it), and every transition of
op(op(p, q), r) fires an outer rule whose premise on op(p, q) a
transition of some inner rule meets.  A landing fires whenever the
derived rule it lands on fires, with the same label, to a target that
differs only in how nests of op and choices are grouped and ordered.  So
the pairs (C[op(op(p, q), r)], C[op(p, op(q, r))]), over closed p, q, r
and contexts C, form a bisimulation up to context and up to bisimilarity,
which is sound for GSOS rules (Bloom, Istrail and Meyer; Pous and
Sangiorgi 2011): the two groupings are bisimilar in every context.
"""

from __future__ import annotations

from collections import namedtuple

from .terms import (
    SORT_LABEL,
    SORT_PROC,
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
    choice_atoms,
    label_sort,
    nest_operands,
    render_label,
    render_term,
    replace,
    sort_accepts,
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
# A choice is one _BAG of all its summands, so a form is one level deep per
# term level however wide a choice is; the associativity check also reads
# each nest of its operator as one _SEQ of the nest's operands.
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


def _term_form(t: Term, comm_set: set[str], th: EquationalTheory,
               flat: frozenset[str] = frozenset()) -> tuple:
    """The form of a process term with canonical labels: choice one _BAG of
    all its summands, the two process arguments of each known-commutative
    operator sorted, and each nest of an operator in `flat` one _SEQ node of
    its operands in order."""
    cls = type(t)
    if cls is Var:
        return (_VAR, t.name)
    if cls is Nil:
        return (_CONST, "0")
    if cls is DefConst:
        return (_CONST, t.name)
    if cls is Prefix:
        return (_SEQ, ".", _label_form(canon_label(t.label, th), th), _term_form(t.body, comm_set, th, flat))
    if cls is Choice:
        return _node(_BAG, CHOICE_OP, [_term_form(a, comm_set, th, flat) for a in choice_atoms(t)])
    op, args = t.op, t.args
    if op in flat:
        args = nest_operands(t)
    labels = [isinstance(a, LabelTerm) for a in args]
    forms = [_label_form(canon_label(a, th), th) if is_label else _term_form(a, comm_set, th, flat)
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
    return set().union(*map(_applied_ops, choice_atoms(t))) if isinstance(t, Choice) else set()


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


def _mirror(a: _Mirrored, b: _Mirrored, renamings) -> dict[str, str] | None:
    """The first renaming of rule b's variables under which it mirrors
    rule a, or None: b's positive premises go to a's, both in order, each
    label through renamings(pattern, label, (mapping, used names)), and the
    first assignment wins under which b's negative premises fall among a's
    and its conclusion label and target mirror a's."""
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
            for state in renamings(pat, label_a, (hm, us)):
                for hm2, us2 in _bind_renaming(state, target, target_a):
                    yield from assignments(i + 1, hm2, us2)

    negatives_a = a.negatives
    for hm in assignments(0, {b0: a1, b1: a0}, {a0, a1}):
        if all((hm[v], _renamed(f, hm)) in negatives_a for v, f in b.negatives) \
                and _renamed(b.label, hm) == a.label and _renamed(b.target, hm) == a.target:
            return hm
    return None


# ---------------------------------------------------------------------------
# associativity

# The operands of op(op(x0, x1), x2) and op(x0, op(x1, x2)).  Every other
# variable of a derived rule is named for the premise that binds it: the
# n-th variable that the premise on operand k binds is "k.n".  No rule
# variable's name starts with a digit.
_OPERANDS = ("0", "1", "2")
_NO_COMM: frozenset[str] = frozenset()


class _Unproved(Exception):
    """A rule, or a pairing of rules, that the associativity check does not read."""


class _Operand(namedtuple("_Operand", "sources premises label label_form bound target")):
    """What the associativity check reads of one rule of the operator: its
    source names; per source, its premise on that source, or None; its
    canonical conclusion label, that label's form, and the source whose
    premise's label the conclusion label repeats (or -1); and its conclusion
    target's form, each nest of the operator flat.  A premise is (key,
    label plan, names): the key says what its label is, ("=", id of the
    label) for a ground one, ("var", sort) for a fresh variable and ("<",
    sort, sort) for a store triple of two fresh slot variables; the names
    are the variables it binds, in order, its label's and then its target."""

    __slots__ = ()


def proves_assoc(spec: Spec, op: str) -> bool:
    """Whether op's rules prove the binary operator associative: every
    derived rule of each grouping has a landing among the other grouping's
    derived rules (see the module docstring).  `Spec.associative` runs it
    once per operator.

    A rule the check reads has no negative premise and at most one premise
    on each source, whose label is ground, a fresh variable or a store
    triple of two fresh slot variables: each source is the nested argument
    in one grouping.  So a derived rule has at most one premise on each
    operand, and a premise's variables are named by the operand it tests.
    A renaming that lands a derived rule on another then sends each premise
    to the other's premise on its operand, with the same key, and each name
    to itself: the derived rule lands on one with the same conclusion and
    premises among its own.
    """
    th = spec.theory
    try:
        rules = _operand_rules(spec, op)
        left, right = (_derived(rules, op, nested, th) for nested in (0, 1))
    except _Unproved:
        return False

    def lands(derived: dict, others: dict) -> bool:
        return all(any(fewer <= premises for fewer in others.get(conclusion, ()))
                   for conclusion, found in derived.items() for premises in found)

    return lands(left, right) and lands(right, left)


def _operand_rules(spec: Spec, op: str) -> list[_Operand]:
    """op's rules as the associativity check reads them, through their
    firing plans; raises _Unproved on a rule it does not read."""
    from .simulator import BOUND, FRESH, GROUND, TRIPLE  # the plans' kinds

    th = spec.theory
    flat = frozenset([op])
    out = []
    for (_, rule), plan in zip(spec.rules_for(op), spec.plans_for(op)):
        args = rule.conclusion.source.args
        if rule.negatives or type(args[0]) is not Var or type(args[1]) is not Var:
            raise _Unproved
        concl = plan.conclusion
        premises: list = [None, None]
        bound = -1
        for p, (k, _, lp) in zip(rule.positives, plan.positives):
            if premises[k] is not None:
                raise _Unproved
            kind = lp.kind
            if kind == FRESH:
                key, names = ("var", lp.sort), [lp.label.name, p.target.name]
            elif kind == TRIPLE:
                pre, post = lp.slots
                key, names = ("<", pre.sort, post.sort), [pre.label.name, post.label.name, p.target.name]
            elif kind == GROUND:
                key, names = ("=", id(lp.label)), [p.target.name]
            else:
                raise _Unproved
            premises[k] = (key, lp, names)
            if concl.kind == BOUND and concl.key == lp.key or concl.kind == GROUND and concl.label is lp.label:
                bound = k
        # a BOUND label is a premise's, a bare variable or a triple of two
        # variables, whose form needs no canonical node
        label = concl.label if concl.kind == BOUND or concl.kind == GROUND else canon_label(concl.label, th)
        out.append(_Operand((args[0].name, args[1].name), premises, label, _label_form(label, th), bound,
                            _term_form(rule.conclusion.target, _NO_COMM, th, flat)))
    return out


# The forms of the variables a premise on each operand binds, in order.
_NAMED = {o: [(_VAR, f"{o}.{n}") for n in range(3)] for o in _OPERANDS}


def _named(sub: dict[str, tuple], premise: tuple, operand: str) -> tuple:
    """Name the variables a premise on the operand binds in sub; its key on
    that operand."""
    sub.update(zip(premise[2], _NAMED[operand]))
    return operand, premise[0]


def _derived(rules: list[_Operand], op: str, nested: int,
             th: EquationalTheory) -> dict[tuple, list[frozenset]]:
    """The derived rules of op(op(x0, x1), x2) when `nested` is 0, or of
    op(x0, op(x1, x2)) when it is 1: by conclusion (label form, target form,
    each nest of op flat), the premise sets of the derived rules with that
    conclusion, each premise as (operand, key).

    A derived rule pairs an outer rule with an inner rule whose conclusion
    label meets the outer rule's premise on the nested argument, or is an
    outer rule alone when it has no such premise.  Raises _Unproved on a
    pairing the check does not read.
    """
    inner_operands = _OPERANDS[nested:nested + 2]
    other = _OPERANDS[2 - 2 * nested]
    nest = (_SEQ, op, (_VAR, inner_operands[0]), (_VAR, inner_operands[1]))
    kept = 1 - nested
    inners: dict[int, tuple] = {}  # by rule position: the rule as inner rule
    out: dict[tuple, list[frozenset]] = {}
    meets: dict[tuple, bool] = {}
    for t in rules:
        sub = {t.sources[kept]: (_VAR, other), t.sources[nested]: nest}
        keys = [_named(sub, t.premises[kept], other)] if t.premises[kept] else []
        premise = t.premises[nested]
        if premise is None:
            conclusion = (_subst_form(t.label_form, sub, op), _subst_form(t.target, sub, op))
            out.setdefault(conclusion, []).append(frozenset(keys))
            continue
        names = premise[2]
        for i, u in enumerate(rules):
            pair = (premise[0], u.label_form)  # a variable's name fixes its sort
            meet = meets.get(pair)
            if meet is None:
                meet = meets[pair] = _meets(premise, u)
            if not meet:
                continue
            inner = inners.get(i)
            if inner is None:
                sub_u = {u.sources[0]: (_VAR, inner_operands[0]), u.sources[1]: (_VAR, inner_operands[1])}
                keys_u = [_named(sub_u, p, o) for p, o in zip(u.premises, inner_operands) if p]
                inner = inners[i] = (keys_u, _subst_form(u.label_form, sub_u, op),
                                     _subst_form(u.target, sub_u, op))
            keys_u, label_u, target_u = inner
            bound = {**sub, names[-1]: target_u}
            bound.update(zip(names, _parts(premise, u, label_u, th)))
            label = label_u if t.bound == nested else _subst_form(t.label_form, bound, op)
            conclusion = (label, _subst_form(t.target, bound, op))
            out.setdefault(conclusion, []).append(frozenset(keys + keys_u))
    return out


def _subst_form(form: tuple, sub: dict[str, tuple], op: str) -> tuple:
    """The form with each variable that sub maps replaced by its form, and
    each nest of op and each choice that a replacement makes flat again."""
    tag = form[0]
    if tag == _VAR:
        return sub.get(form[1], form)
    if tag == _GROUND or tag == _CONST:
        return form
    key = form[1]
    flat = tag == _SEQ and key == op or tag == _BAG and key == CHOICE_OP
    children = []
    for f in form[2:]:
        g = _subst_form(f, sub, op)
        if flat and g[0] == tag and g[1] == key:
            children += g[2:]
        else:
            children.append(g)
    return _node(tag, key, children)


def _meets(premise: tuple, inner: _Operand) -> bool:
    """Whether a premise label meets an inner rule's conclusion label:
    every label that the one stands for is one that the other stands for
    (True), or none is (False).  Raises _Unproved when some are, or when
    the conclusion label is not ground, a bare variable or a store triple."""
    key, lp, _ = premise
    label, form = inner.label, inner.label_form
    cls = type(label)
    ground = form[0] == _GROUND
    if not (ground or cls is LVar or cls is Triple):
        raise _Unproved
    if key[0] == "=":
        if ground:
            return label is lp.label
        if cls is LVar and sort_accepts(label.sort, label_sort(lp.label)) \
                or cls is Triple and type(lp.label) is Triple:
            raise _Unproved
        return False
    if key[0] == "var":
        return _takes(key[1], label, ground)
    # a store triple of two fresh slot variables
    if cls is LVar:
        if sort_accepts(label.sort, SORT_LABEL):
            raise _Unproved
        return False
    if cls is not Triple:
        return False
    parts = (label.pre, label.post)
    grounds = (True, True) if ground else (form[2][0] == _GROUND, form[3][0] == _GROUND)
    return all(_takes(sort, p, g) for sort, p, g in zip(key[1:], parts, grounds))


def _parts(premise: tuple, inner: _Operand, label: tuple, th: EquationalTheory) -> list[tuple]:
    """The forms a premise's label variables take where it meets the inner
    rule's conclusion label, whose form in the derived rule is `label`."""
    kind = premise[0][0]
    if kind == "var":
        return [label]
    if kind == "=":
        return []
    if label[0] == _GROUND:
        return [_label_form(inner.label.pre, th), _label_form(inner.label.post, th)]
    return list(label[2:])


def _takes(sort: str, label: LabelTerm, ground: bool) -> bool:
    """Whether a fresh variable of the sort takes every label that `label`
    stands for (True) or none of them (False); raises _Unproved when it
    takes some."""
    cls = type(label)
    if cls is LVar:
        if sort_accepts(sort, label.sort):
            return True
        if sort_accepts(label.sort, sort):
            raise _Unproved
        return False
    if not (ground or cls is Triple or cls is MSet):
        raise _Unproved
    return sort_accepts(sort, label_sort(label))


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
    from .matching import _match_label  # loaded only where the mirror search runs

    def renamings(pat: LabelTerm, label: LabelTerm, state):
        return _match_label(pat, label, state, th, _bind_renaming)

    def first_mirror(a: _Mirrored, candidates) -> tuple[int, dict[str, str]] | None:
        found = ((ib, _mirror(a, b, renamings)) for ib, b in candidates)
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
