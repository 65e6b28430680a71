"""A mirror oracle that shares no code with the mirror search.

It enumerates every renaming the commutativity format allows and checks
each one by substituting, canonicalizing and comparing whole terms, the
way the format is stated, so it can catch a fault inside `find_mirror`.
"""

import itertools

from sosforge.terms import (
    App,
    Choice,
    LabelTerm,
    LVar,
    Prefix,
    Var,
    canon_label,
    free_vars,
    render_term,
    substitute_label,
    substitute_term,
)

def rule_variables(rule) -> set[str]:
    """The variables a rule names: its sources, premise targets and the
    label variables of its positive premises (they bind all the others)."""
    names = {a.name for a in rule.conclusion.source.args}
    for p in rule.positives:
        names.add(p.target.name)
        names |= free_vars(p.label)
    return names


def _ordered(terms):
    return sorted(terms, key=lambda a: (render_term(a), repr(a)))


def _summands(t):
    return _summands(t.left) + _summands(t.right) if isinstance(t, Choice) else [t]


def cc_canon(t, comm_set, th):
    """t with canonical labels, the summands of each choice ordered by their
    strings, then by repr, and right-nested, and the two process arguments
    of each known-commutative operator ordered so: equal exactly for terms
    equal up to such swaps and regroupings."""
    if isinstance(t, Prefix):
        return Prefix(canon_label(t.label, th), cc_canon(t.body, comm_set, th))
    if isinstance(t, Choice):
        out = _ordered(cc_canon(a, comm_set, th) for a in _summands(t))
        right = out.pop()
        for a in reversed(out):
            right = Choice(a, right)
        return right
    if not isinstance(t, App):
        return t
    out = [canon_label(a, th) if isinstance(a, LabelTerm) else cc_canon(a, comm_set, th) for a in t.args]
    if t.op in comm_set and len(out) == 2 and not any(isinstance(a, LabelTerm) for a in out):
        out = _ordered(out)
    return App(t.op, tuple(out))


def _substitution(spec, renaming: dict[str, str]) -> dict:
    sub = {}
    for v, w in renaming.items():
        sort = spec.variables.get(v, "Proc")
        sub[v] = Var(w) if sort == "Proc" else LVar(w, sort)
    return sub


def _renamings(spec, rule_a, rule_b):
    """Every injective, sort-respecting renaming of rule_b's variables into
    rule_a's that sends rule_b's two sources to rule_a's, swapped."""
    sort = lambda v: spec.variables.get(v, "Proc")  # noqa: E731
    a0, a1 = (a.name for a in rule_a.conclusion.source.args)
    b0, b1 = (a.name for a in rule_b.conclusion.source.args)
    if sort(b0) != sort(a1) or sort(b1) != sort(a0):
        return
    rest_b = sorted(rule_variables(rule_b) - {b0, b1})
    rest_a = sorted(rule_variables(rule_a) - {a0, a1})
    for image in itertools.permutations(rest_a, len(rest_b)):
        if all(sort(v) == sort(w) for v, w in zip(rest_b, image)):
            yield {b0: a1, b1: a0, **dict(zip(rest_b, image))}


def oracle_mirrors(spec, rule_a, rule_b, comm_set) -> list[dict[str, str]]:
    """Every renaming under which rule_b mirrors rule_a: rule_b's positive
    and negative premises land among rule_a's, and its conclusion label and
    target on rule_a's, up to the label equations and to swapping arguments
    of the operators in comm_set.  Each renaming is shown as `find_mirror`
    shows its mapping: every other variable of either rule maps to its
    preimage under the renaming, or else to itself."""
    th = spec.theory
    positives_a = {(p.source.name, id(canon_label(p.label, th)), p.target.name)
                   for p in rule_a.positives}
    negatives_a = {(n.source.name, id(canon_label(n.label, th))) for n in rule_a.negatives}
    label_a = canon_label(rule_a.conclusion.label, th)
    target_a = cc_canon(rule_a.conclusion.target, comm_set, th)
    names = sorted(rule_variables(rule_a) | rule_variables(rule_b))
    found = []
    for r in _renamings(spec, rule_a, rule_b):
        sub = _substitution(spec, r)
        if all((r[p.source.name], id(canon_label(substitute_label(p.label, sub), th)), r[p.target.name])
               in positives_a for p in rule_b.positives) \
                and all((r[n.source.name], id(canon_label(substitute_label(n.label, sub), th)))
                        in negatives_a for n in rule_b.negatives) \
                and canon_label(substitute_label(rule_b.conclusion.label, sub), th) is label_a \
                and cc_canon(substitute_term(rule_b.conclusion.target, sub), comm_set, th) == target_a:
            preimage = {w: v for v, w in r.items()}
            found.append({v: r.get(v, preimage.get(v, v)) for v in names})
    return found
