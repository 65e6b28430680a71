"""Label matching modulo the label equations.

`match` finds every substitution under which a label pattern equals a
subject label: modulo C, A, AU, CU, AC and ACU for the label operators
that declare them, with each data multiset its sort's union, ACU with
`{}`.  Rule firing runs it only for a positive premise label that its
plan reads as GENERAL (`simulator.solve_rule`), such as `mix(k, l)`;
every other premise label is checked by a sort check or by comparing
canonical nodes, and GENERAL negative premise and conclusion labels are
substituted, not matched.  The mirror search in `commform` runs
`_match_label` with a binder of its own, whose state is a variable
renaming.

The matcher works on canonical nodes of one `EquationalTheory`
(`terms.canon_label`) and binds canonical nodes of it.  It is a module of
its own so that only the commands that match labels compile it.
"""

from __future__ import annotations

from .terms import (
    EMPTY_THEORY,
    ActConst,
    DataConst,
    EquationalTheory,
    LabelTerm,
    LApp,
    LVar,
    MSet,
    PredConst,
    Triple,
    _equations,
    _flat_node,
    _same_op,
    canon_label,
    label_sort,
    sort_accepts,
)


def match(pattern: LabelTerm, subject: LabelTerm,
          th: EquationalTheory = EMPTY_THEORY) -> list[dict[str, LabelTerm]]:
    """All substitutions s with canon(substitute(pattern, s)) == canon(subject),
    each a dict from variable names to labels.

    Labels match modulo the label equations (C, A, AU, CU, AC and ACU; a
    data multiset is its sort's union, ACU with `{}`; see `_match_args`),
    in time exponential in the pattern's variables, as AC matching is.
    Each label a result binds is a canonical node of th, and no two results
    bind every variable to the same nodes.
    """
    pat = canon_label(pattern, th)
    subj = canon_label(subject, th)
    results: list[dict[str, LabelTerm]] = []
    seen: set[frozenset] = set()
    for sub in _match_label(pat, subj, {}, th, _bind_label):
        k = frozenset((n, id(l)) for n, l in sub.items())
        if k not in seen:
            seen.add(k)
            results.append(sub)
    return results


def _bind_label(sub: dict[str, LabelTerm], var: LVar, value: LabelTerm):
    if not sort_accepts(var.sort, label_sort(value)):
        return
    old = sub.get(var.name)
    if old is not None:
        if _one_value(old, value):
            yield sub
        return
    yield {**sub, var.name: value}


def _one_value(a: LabelTerm, b: LabelTerm) -> bool:
    """Whether two canonical labels are one value modulo ACU: one node, or a
    data constant and its singleton multiset (as a store slot holds it)."""
    if type(a) is DataConst:
        a, b = b, a
    return a is b or (type(a) is MSet and type(b) is DataConst and a.sort == b.sort
                      and len(a.elements) == 1 and a.elements[0] is b)


def _match_label(pat: LabelTerm, subj: LabelTerm, state, th, bind):
    """Match canonical labels of th, equal when they are one node;
    bind(state, var, value) yields the extended states, each value a node of th.

    `match` binds into a dict with `_bind_label`; the mirror search
    passes a binder whose state is a variable renaming.
    """
    if isinstance(pat, LVar):
        yield from bind(state, pat, subj)
        return
    if isinstance(pat, (ActConst, PredConst, DataConst)):
        if pat is subj:
            yield state
        return
    if isinstance(pat, (LApp, MSet)):
        cls = type(pat)
        comm, assoc, ident = eqs = _equations(pat, th)
        # in any order, variables last: the last one takes what is left
        pats = sorted(pat.args, key=lambda a: type(a) is LVar) if comm else pat.args
        same = type(subj) is cls and _same_op(subj, pat)
        if same:
            yield from _match_args(pats, subj.args, state, pat, eqs, th, bind)
        if cls is LApp and ident is not None and not (same and assoc):
            # subj as op(subj, identity), the identity as op(identity, identity)
            subjs = () if subj is ident else (subj,)
            yield from _match_args(pats, subjs, state, pat, eqs, th, bind)
        return
    if isinstance(pat, Triple):
        if isinstance(subj, Triple):
            for s1 in _match_label(pat.pre, subj.pre, state, th, bind):
                yield from _match_label(pat.post, subj.post, s1, th, bind)
        return
    raise TypeError(f"not a label pattern: {pat!r}")


def _match_args(pats, subjs, state, node, eqs, th, bind):
    """Match a flat pattern's arguments against a subject's under the
    pattern operator's equations eqs, (comm, assoc, identity).

    Under an `assoc` operator a variable, or an application of an operator
    with an identity (it may collapse to several arguments), claims a share:
    any sub-multiset of what is left if `comm`, else the next segment; the
    last pattern argument claims all that is left.  Any other argument
    claims one (any one if `comm`, else the next) or none.  A share of one
    argument is that argument, none the identity, more th's node over them.
    A subject of an operator with an identity also reads as that operator
    applied to the subject and the identity (`_match_label`).
    """
    if not pats:
        if not subjs:
            yield state
        return
    comm, assoc, ident = eqs
    pat, rest = pats[0], pats[1:]
    if assoc and (type(pat) is LVar or type(pat) is LApp and th.op_attrs(pat.op).identity is not None):
        if not rest:
            shares = [(subjs, ())]
        elif comm:
            shares = _splits(subjs)
        else:
            shares = [(subjs[:k], subjs[k:]) for k in range(len(subjs) + 1)]
    else:
        picks = range(len(subjs)) if comm else range(min(1, len(subjs)))
        # equal arguments sit side by side in canonical order: claim each value once
        shares = [(subjs[i:i + 1], subjs[:i] + subjs[i + 1:]) for i in picks
                  if not i or subjs[i] is not subjs[i - 1]] + [((), subjs)]
    for share, left in shares:
        if not share and ident is None:
            continue
        value = share[0] if len(share) == 1 else _flat_node(node, share, th) if share else ident
        for s1 in _match_label(pat, value, state, th, bind):
            yield from _match_args(rest, left, s1, node, eqs, th, bind)


def _splits(elems: tuple):
    """Every (share, rest) split of canonically ordered elements, each share once."""
    if not elems:
        yield (), ()
        return
    run = next((i for i, e in enumerate(elems) if e != elems[0]), len(elems))
    for share, left in _splits(elems[run:]):
        for k in range(run + 1):
            yield elems[:k] + share, elems[k:run] + left
