"""A commutativity oracle that shares no code with the mirror search.

`oracle_mirrors` enumerates every renaming the commutativity format allows
and checks each one by substituting, canonicalizing and comparing whole
terms, the way the format is stated.  `oracle_report` builds the report
`check_comm` should give from it alone, by a fixed point that drops one
operator at a time, so `differences` can catch a fault anywhere in
`check_comm`: in the search, in its rounds or in the mappings it shows.

Run as a script to compare the two reports on the bundled specs, their
rules shuffled and one of them repeated under each seed, so that a rule
may have two mirrors, and on mutated bundled specs (`mutate.mutate`);
specs that fail the rule format are skipped:

    PYTHONPATH=src:tests python tests/mirror_oracle.py --seeds 10 --mutants 1000
"""

from __future__ import annotations

import argparse
import itertools
import random
import sys
from collections import namedtuple

from sosforge import corpus_text, parse_spec
from sosforge.commform import check_comm
from sosforge.errors import SosError
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
    replace,
    substitute_label,
    substitute_term,
)

BUNDLED = ("bccsp", "bccsp_par", "g", "linda", "recursion", "full")


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
    of the operators in comm_set.  Each renaming is shown as `check_comm`
    shows a mapping: every other variable of either rule maps to its
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


# proven: per operator, (rule_a, rule_b, every mapping the oracle finds) for
# each reported pair; assumed and failed as in `check_comm`'s report.
OracleReport = namedtuple("OracleReport", "proven assumed failed")


def oracle_report(spec) -> tuple[OracleReport, dict]:
    """The report `check_comm` should give, from `oracle_mirrors` alone.

    The known-commutative set starts with choice and every binary operator
    and loses one operator at a time, one with a rule that no rule of its
    own mirrors, until none is lost.  Under the final set, each rule's
    mirror is the first rule of the operator that mirrors it, each pair of
    rules is reported once, at its first rule, and a dropped operator lists
    its unmirrored rules.  Also returns every pair the oracle was asked
    about: its mappings by (rule_a, rule_b, known set)."""
    binaries = [op for op in spec.proc_ops.values() if op.arity == 2]
    declared = {op.name for op in binaries if op.comm}
    comm_set = {"+"} | {op.name for op in binaries}
    asked: dict[tuple, list[dict[str, str]]] = {}

    def first_mirror(name, ia, ra):
        for ib, rb in spec.rules_for(name):
            key = (ia, ib, frozenset(comm_set))
            if key not in asked:
                asked[key] = oracle_mirrors(spec, ra, rb, comm_set)
            if asked[key]:
                return ib, asked[key]
        return None

    changed = True
    while changed:
        changed = False
        for name in [op.name for op in binaries if op.name not in declared]:
            if name in comm_set and any(first_mirror(name, ia, ra) is None for ia, ra in spec.rules_for(name)):
                comm_set.discard(name)
                changed = True

    proven, failed = {}, {}
    for name in [op.name for op in binaries if op.name not in declared]:
        found = [(ia, first_mirror(name, ia, ra)) for ia, ra in spec.rules_for(name)]
        if name not in comm_set:
            failed[name] = [ia for ia, m in found if m is None]
            continue
        covered, witnesses = set(), []
        for ia, (ib, mappings) in found:
            if (min(ia, ib), max(ia, ib)) not in covered:
                covered.add((min(ia, ib), max(ia, ib)))
                witnesses.append((ia, ib, mappings))
        proven[name] = witnesses
    return OracleReport(proven, sorted(declared), failed), asked


def differences(report, want: OracleReport) -> list[str]:
    """How a `check_comm` report differs from the oracle's: in any field
    but the mappings, or in a mapping that is none of the oracle's for its
    pair.  Empty when they agree."""
    got = {op: [(w.rule_a, w.rule_b) for w in ws] for op, ws in report.proven.items()}
    pairs = {op: [(a, b) for a, b, _ in ws] for op, ws in want.proven.items()}
    out = [f"{field}: {g} != {w}" for field, g, w in (
        ("proven", got, pairs), ("assumed", report.assumed, want.assumed), ("failed", report.failed, want.failed))
        if g != w]
    if not out:
        out = [f"{op} rule {w.rule_a} <- rule {w.rule_b}: {w.mapping_str()} is not among {mappings}"
               for op, ws in report.proven.items()
               for w, (_, _, mappings) in zip(ws, want.proven[op]) if dict(w.mapping) not in mappings]
    return out


def sweep(seeds: range, mutants: int, names=BUNDLED) -> tuple[list[str], int]:
    """Differences over the named bundled specs, their rules shuffled and
    one repeated under each seed, and over `mutants` mutated bundled specs;
    and how many mutants met the rule format and were checked."""
    import mutate

    failures = []
    for seed in seeds:
        rng = random.Random(seed)
        for name in names:
            spec = parse_spec(corpus_text(name))
            rules = [*spec.rules, rng.choice(spec.rules)] if spec.rules else []
            spec = replace(spec, rules=tuple(rng.sample(rules, len(rules))))
            failures += [f"{name}, seed {seed}: {d}" for d in differences(check_comm(spec), oracle_report(spec)[0])]
    rng = random.Random(f"mirror:{seeds.start}")
    checked = 0
    for i in range(mutants):
        text = mutate.mutate(rng, corpus_text(rng.choice(BUNDLED)), rng.randint(1, 3))
        try:
            spec = parse_spec(text)
            report = check_comm(spec)
        except SosError:
            continue
        checked += 1
        failures += [f"mutant {i}: {d}\n{text}" for d in differences(report, oracle_report(spec)[0])]
    return failures, checked


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="Check check_comm's report against the mirror oracle.")
    ap.add_argument("--seeds", type=int, default=10, help="rule orders of the bundled specs")
    ap.add_argument("--mutants", type=int, default=300, help="mutated bundled specs")
    args = ap.parse_args(argv)
    failures, checked = sweep(range(1, args.seeds + 1), args.mutants)
    for f in failures:
        print(f, file=sys.stderr)
    print(f"{args.seeds} seeds, {args.mutants} mutants ({checked} met the format and were checked): "
          f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
