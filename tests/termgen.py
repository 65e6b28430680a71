"""Seeded random generators for terms, labels, and transition systems, a
check that a node is canonical, and the printed form of a substitution.

Everything here is deterministic given the caller's random.Random instance,
so failures reproduce from the seed alone.
"""

import importlib.util
import random
import sys
from pathlib import Path

from sosforge.bisim import Lts
from sosforge.terms import (
    NIL,
    SORT_ACTION,
    SORT_LABEL,
    SORT_PREDICATE,
    SORT_PROC,
    ActConst,
    App,
    Choice,
    DataConst,
    DefConst,
    LApp,
    LabelTerm,
    LVar,
    MSet,
    PredConst,
    Prefix,
    Term,
    Triple,
    render_label,
    render_term,
)

DATA_NAMES = ("d", "u", "v")
ACTION_NAMES = ("a", "b", "c")


def is_canonical(t: Term | LabelTerm, th) -> bool:
    """Whether a node is one of the theory th's canonical nodes."""
    return t._cth is th and t._c is None


def render_substitution(sub: dict) -> str:
    """A substitution as the string `{x <- t, ..., k <- l, ...}`: process
    variables, then label variables, each sorted by name."""
    items = sorted(sub.items())
    parts = [f"{n} <- {render_term(v)}" for n, v in items if isinstance(v, Term)]
    parts += [f"{n} <- {render_label(v)}" for n, v in items if not isinstance(v, Term)]
    return "{" + ", ".join(parts) + "}"


def mset(names) -> MSet:
    return MSet(tuple(DataConst(n, "Data") for n in names), "Data")


def random_mset(rng: random.Random, max_len: int = 3) -> MSet:
    return mset(rng.choice(DATA_NAMES) for _ in range(rng.randint(0, max_len)))


def random_triple(rng: random.Random) -> Triple:
    return Triple(random_mset(rng), random_mset(rng))


def random_act(rng: random.Random) -> LabelTerm:
    name = rng.choice(ACTION_NAMES + ("|",))
    return PredConst(name) if name == "|" else ActConst(name)


def random_label(rng: random.Random, rich: bool = True) -> LabelTerm:
    """A closed transition label; rich ones use the full label algebra."""
    roll = rng.random()
    if not rich or roll < 0.55:
        return random_act(rng)
    if roll < 0.85:
        return random_triple(rng)
    return LApp("mix", (random_act(rng), random_act(rng)))


def random_bccsp_term(rng: random.Random, depth: int, rich: bool = False) -> Term:
    """A closed term over just deadlock, prefixing, and choice."""
    if depth <= 0 or rng.random() < 0.15:
        return NIL
    if rng.random() < 0.5:
        return Prefix(random_label(rng, rich), random_bccsp_term(rng, depth - 1, rich))
    return Choice(
        random_bccsp_term(rng, depth - 1, rich),
        random_bccsp_term(rng, depth - 1, rich),
    )


def random_full_term(rng: random.Random, depth: int) -> Term:
    """A closed term over the whole combined signature."""
    if depth <= 0:
        return NIL if rng.random() < 0.6 else _store_op(rng)
    roll = rng.random()
    if roll < 0.12:
        return NIL
    if roll < 0.20:
        return _store_op(rng)
    if roll < 0.45:
        return Prefix(random_label(rng), random_full_term(rng, depth - 1))
    if roll < 0.70:
        return Choice(
            random_full_term(rng, depth - 1), random_full_term(rng, depth - 1)
        )
    op = rng.choice(("_||_", "_;_", "g"))
    return App(
        op, (random_full_term(rng, depth - 1), random_full_term(rng, depth - 1))
    )


def _store_op(rng: random.Random) -> Term:
    op = rng.choice(("ask", "tell", "get"))
    return App(op, (DataConst(rng.choice(DATA_NAMES), "Data"),))


class SpecSignature:
    """What random closed terms over any spec draw from: its labels, and
    its operators with the sort of each argument (a process, or a data
    sort)."""

    def __init__(self, spec) -> None:
        self.actions = [ActConst(a) for a in spec.actions] + [PredConst(p) for p in spec.predicates]
        self.data = {}
        for name, sort in spec.data_consts.items():
            self.data.setdefault(sort, []).append(DataConst(name, sort))
        self.label_ops = [op for op in spec.label_ops.values()
                          if all(s in (SORT_ACTION, SORT_PREDICATE, SORT_LABEL) for s in op.arg_sorts)]
        self.ops = []
        for op in spec.proc_ops.values():
            sorts = [SORT_PROC] * op.arity
            rules = spec.rules_for(op.name)
            if rules:
                sorts = [a.sort if isinstance(a, LVar) else SORT_PROC
                         for a in rules[0][1].conclusion.source.args]
            if all(s == SORT_PROC or self.data.get(s) for s in sorts):
                self.ops.append((op.name, sorts))

    def label(self, rng: random.Random):
        roll = rng.random()
        if self.data and roll < 0.3:
            sort = rng.choice(sorted(self.data))
            pre, post = (MSet(tuple(rng.choice(self.data[sort]) for _ in range(rng.randint(0, 2))), sort)
                         for _ in range(2))
            return Triple(pre, post)
        if self.label_ops and self.actions and roll < 0.4:
            op = rng.choice(self.label_ops)
            return LApp(op.name, tuple(rng.choice(self.actions) for _ in op.arg_sorts), op.result_sort)
        return rng.choice(self.actions) if self.actions else None

    def term(self, rng: random.Random, depth: int):
        """A closed term of at most the given depth."""
        roll = rng.random()
        if depth <= 0 or roll < 0.15:
            return NIL
        if roll < 0.55:
            label = self.label(rng)
            if label is not None:
                return Prefix(label, self.term(rng, depth - 1))
        if roll < 0.75 or not self.ops:
            return Choice(self.term(rng, depth - 1), self.term(rng, depth - 1))
        name, sorts = rng.choice(self.ops)
        return App(name, tuple(self.term(rng, depth - 1) if s == SORT_PROC else rng.choice(self.data[s])
                               for s in sorts))


def equivalent_variant(rng: random.Random, t: Term) -> Term:
    """Rearrange a term without changing its behaviour.

    Only sound-for-bisimilarity moves: swapping or reassociating choice,
    duplicating a summand, adding a deadlock summand, recursing under
    every construct.
    """
    if isinstance(t, Prefix):
        out: Term = Prefix(t.label, equivalent_variant(rng, t.body))
    elif isinstance(t, Choice):
        left = equivalent_variant(rng, t.left)
        right = equivalent_variant(rng, t.right)
        roll = rng.random()
        if roll < 0.35:
            out = Choice(right, left)
        elif roll < 0.50:
            out = Choice(left, Choice(right, left))
        else:
            out = Choice(left, right)
    elif isinstance(t, App):
        out = App(
            t.op,
            tuple(
                a if isinstance(a, LabelTerm) else equivalent_variant(rng, a)
                for a in t.args
            ),
        )
    else:
        out = t
    if rng.random() < 0.10:
        out = Choice(out, NIL)
    if rng.random() < 0.06:
        out = Choice(out, out)
    return out


def mutate_action(rng: random.Random, t: Term) -> Term:
    """The term with one action prefix, picked at random, relabelled.

    The new label is another action.  A term without action prefixes comes
    back unchanged, and the result need not behave differently: the changed
    prefix may be unreachable or have a twin summand.
    """
    count = _action_prefixes(t)
    if count == 0:
        return t
    left = [rng.randrange(count)]

    def walk(u: Term) -> Term:
        if isinstance(u, Prefix):
            label = u.label
            if isinstance(label, ActConst):
                if left[0] == 0:
                    label = ActConst(rng.choice([a for a in ACTION_NAMES if a != label.name]))
                left[0] -= 1
            return Prefix(label, walk(u.body))
        if isinstance(u, Choice):
            return Choice(walk(u.left), walk(u.right))
        if isinstance(u, App):
            return App(u.op, tuple(a if isinstance(a, LabelTerm) else walk(a) for a in u.args))
        return u

    return walk(t)


def _action_prefixes(t: Term) -> int:
    if isinstance(t, Prefix):
        return isinstance(t.label, ActConst) + _action_prefixes(t.body)
    if isinstance(t, Choice):
        return _action_prefixes(t.left) + _action_prefixes(t.right)
    if isinstance(t, App):
        return sum(_action_prefixes(a) for a in t.args if not isinstance(a, LabelTerm))
    return 0


def random_lts(rng: random.Random, max_states: int = 30, max_labels: int = 3) -> Lts:
    """A random finite transition system with synthetic state names."""
    n = rng.randint(1, max_states)
    labels = ["a", "b", "c"][: rng.randint(1, max_labels)]
    transitions = []
    for _ in range(n):
        k = rng.randint(0, 3)
        outs = sorted(
            {(rng.choice(labels), rng.randrange(n)) for _ in range(k)}
        )
        transitions.append(outs)
    states = [DefConst(f"s{i}") for i in range(n)]
    return Lts(states=states, transitions=transitions, roots=[0])


def front_spec_text(seed: int, k: int) -> str:
    """A clean spec of k renamed copies of full.sos's operators, made by the
    benchmark's spec_front generator from that workload's seed.  For k = 10
    it is the first spec the workload writes for the seed."""
    name = "perfbench_workloads"
    module = sys.modules.get(name)
    if module is None:
        path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # dataclasses look their module up
        spec.loader.exec_module(module)
    return module._front_spec(random.Random(f"spec_front:{seed}"), k)[0]
