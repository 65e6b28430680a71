"""Strong bisimilarity of closed terms, decided while exploring.

States are canonical closed terms reached by repeated stepping, explored
breadth-first one depth layer at a time.  After a layer, the two roots are
compared under k-step bisimilarity (Hennessy & Milner 1985), which needs only
the states within depth k of the roots: if it separates them, they are not
bisimilar, and the answer "false" comes before the rest of the state space is
built.  A comparison runs only once the explored states have doubled since
the last one, and keeps each state's classes for the next.

Once the exploration closes, `refine` continues the same levels over every
state until one splits nothing: bisimilar states are exactly those in one
block.  A positive answer comes with the product-reachable set of same-block
pairs, whose symmetric closure is a bisimulation containing the queried pair.

The witness is found by growing each state's set of partners: when a state
gains partners, its moves to one (label, target block) group take the union
of the same group's targets over the new partners.  A label that leads to k
same-block targets on each side costs a union of k targets per new
partner, not k * k tests of candidate pairs, so symmetric systems, such as
parallel copies of one component, are not quadratic in k; time and memory
grow with the pairs and the transitions.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Sequence

from .errors import SosError, StateCapExceeded
from .simulator import moves
from .terms import DefConst, LabelTerm, Term, canon_term, field, render_term, valueclass
from .tss import Spec

DEFAULT_STATE_CAP = 100000
STATE_CAP_ENV = "SOSFORGE_STATE_CAP"


def default_state_cap() -> int:
    raw = os.environ.get(STATE_CAP_ENV)
    if raw is None:
        return DEFAULT_STATE_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise SosError(f"{STATE_CAP_ENV} must be a positive integer, got {raw!r}")
    return cap


@valueclass(hashable=False)
class Lts:
    """A labelled transition system over canonical terms, explored breadth-first.

    `transitions` holds the moves of the explored states, a prefix of
    `states`, as (label, target state) pairs.  Labels are compared by
    identity: `build_lts`'s are canonical nodes, one object per canonical
    label.  When `closed` is false the exploration stopped early, and the
    states past that prefix are unexplored.  `explore` leaves its k-step
    record as the plain attribute `classes`, which `refine` continues.
    """

    states: list[Term] = field(default_factory=list)
    transitions: list[list[tuple[LabelTerm, int]]] = field(default_factory=list)
    roots: list[int] = field(default_factory=list)
    closed: bool = True


class StepClasses:
    """k-step bisimilarity classes of an LTS explored in breadth-first layers.

    It reads the LTS's transition list, not the `Lts`.  `layers[d]` counts
    the states of depth at most d, a prefix of the breadth-first order.
    Level 0 is one class.  Level j gives each state of depth at most k - j
    the id of its set of (label, level j-1 class of the target) moves; two
    states of depth 0 are k-step bisimilar exactly when level k gives them
    the same id.  A state's class at a level does not depend on k, so each
    level keeps its ids and only classifies the states its region gained
    since the last call.
    """

    def __init__(self, transitions: list[list[tuple[LabelTerm, int]]], layers: list[int]):
        self.transitions = transitions
        self.layers = layers
        # Per level j >= 1: signature ids, the class of each state of the
        # region, and the level j-1 classes met on the region.
        self.levels: list[tuple[dict[frozenset, int], list[int], set[int]]] = []
        self.signatures = 0

    def separates(self, k: int, i: int, j: int) -> bool:
        """Whether k-step bisimilarity tells states i and j of depth 0 apart.

        Needs the moves of every state of depth below k.  Stops at the first
        level that splits no class of the level before it on its region: the
        partition is stable there, so every later level separates the same
        states.
        """
        trans = self.transitions
        prev: Sequence[int] = bytes(self.layers[k])  # level 0: every class id is 0
        for level in range(1, k + 1):
            if level > len(self.levels):
                self.levels.append(({}, [], set()))
            ids, cls, parents = self.levels[level - 1]
            start, end = len(cls), self.layers[k - level]
            for s in range(start, end):
                sig = frozenset([(id(l), prev[t]) for l, t in trans[s]])
                cls.append(ids.setdefault(sig, len(ids)))
            parents.update(prev[start:end])
            self.signatures += end - start
            if cls[i] != cls[j]:
                return True
            if len(ids) == len(parents):
                return False
            prev = cls
        return False


def explore(
    lts: Lts, moves: Callable[[int], list[tuple[LabelTerm, int]]], decide: bool = False
) -> Lts:
    """Expand the interned roots of lts one depth layer at a time.

    `moves(i)` lists state i's transitions, interning new targets, and the
    roots' k-step record is left as `lts.classes`.  With `decide`, the first
    two roots are compared under k-step bisimilarity after the k-th layer,
    whenever the explored states have at least doubled since the last
    comparison; a layer that separates them ends the exploration, and the
    LTS comes back not closed, the record's last level separating them.
    """
    layers = [len(lts.states)]
    classes = lts.classes = StepClasses(lts.transitions, layers)
    checked = 0
    states, trans = lts.states, lts.transitions
    while len(trans) < len(states):
        trans.append(moves(len(trans)))
        explored = len(trans)
        if explored < layers[-1]:
            continue
        # A layer is explored.  Once it finds no new state the exploration
        # is closed, and refinement decides without a comparison.
        layers.append(len(states))
        if decide and len(states) > explored and explored >= 2 * checked:
            checked = explored
            if classes.separates(len(layers) - 1, lts.roots[0], lts.roots[1]):
                lts.closed = False
                break
    return lts


def build_lts(
    spec: Spec, roots: list[Term], state_cap: int | None = None, decide: bool = False
) -> Lts:
    """Explore everything reachable from the roots, up to the state cap.

    States are the spec's canonical nodes, indexed by identity, and
    transition labels are canonical label nodes.  `simulator.moves` steps
    the states through one shared cache, so each canonical subterm of the
    reachable states is stepped once, and builds no `Step`.  With `decide`,
    the exploration stops at the first layer that separates the two roots.
    """
    cap = default_state_cap() if state_cap is None else state_cap
    th = spec.theory
    lts = Lts()
    index: dict[int, int] = {}  # id of a canonical node: the theory keeps it alive
    cache: dict[int, list[tuple[LabelTerm, Term]]] = {}

    def intern(t: Term) -> int:
        c = canon_term(t, th)
        i = index.get(id(c))
        if i is None:
            if len(lts.states) >= cap:
                raise StateCapExceeded(cap)
            i = index[id(c)] = len(lts.states)
            lts.states.append(c)
        return i

    def successors(i: int) -> list[tuple[LabelTerm, int]]:
        return [(label, intern(target)) for label, target in moves(spec, lts.states[i], cache)]

    lts.roots = [intern(r) for r in roots]
    return explore(lts, successors, decide)


def refine(lts: Lts) -> list[int]:
    """Coarsest signature-stable partition of a closed LTS; block ids per
    state, numbered in order of first occurrence.

    Extends `lts.classes`, the record `explore` left (on an LTS built by
    hand, a new one with every state at depth 0), to its first level stable
    over all n states, which is at most level n: n more layers of every state
    put the first n levels over them all.  A second call returns the same list.

    Raises SosError on an LTS whose exploration stopped early (`closed`
    false, as `build_lts(..., decide=True)` leaves it after a "false"),
    before it touches the record: its unexplored states have no moves.
    """
    if not lts.closed:
        raise SosError("cannot refine an LTS whose exploration stopped early")
    n = len(lts.states)
    classes = lts.classes = getattr(lts, "classes", None) or StepClasses(lts.transitions, [n])
    classes.layers[classes.layers.index(n) + 1 :] = [n] * n
    classes.separates(len(classes.layers) - 1, 0, 0)  # 0 is never split from 0: runs to the stable level
    return classes.levels[-1][1] if n else []


@valueclass(hashable=False)
class BisimWitness:
    """Same-block state pairs reachable in the product from the root pair."""

    pairs: list[tuple[Term, Term]]

    def __str__(self) -> str:
        return " ".join(f"< {render_term(p)} ; {render_term(q)} >" for p, q in self.pairs)

    def to_json(self) -> list[list[str]]:
        return [[render_term(p), render_term(q)] for p, q in self.pairs]


def _product_pairs(lts: Lts, blocks: list[int], r0: int, r1: int) -> list[tuple[int, int]]:
    """Same-block pairs reachable in the product from the same-block roots
    r0 and r1, sorted by the two states' rendered strings, ties broken by
    state index.

    Each left state keeps the set of its partners, and a worklist maps a
    state to the partners it gained since it was last processed.  A state's
    moves are grouped once by (label, target block); states of one block
    have the same groups.  Processing state i with gained partners D takes,
    per group of i, the union of the same group's targets over j in D, and
    each target of i's group gains what of that union it lacks.  Partners
    are sets, not bit masks: an int mask is as large as the highest index
    it holds, so memory would grow with the square of the states instead
    of with the pairs.  The states are sorted once; each left state's
    partners are listed in that order.
    """
    groups: list[dict[tuple[int, int], list[int]]] = []
    for moves in lts.transitions:
        group: dict[tuple[int, int], list[int]] = {}
        for l, t in moves:
            group.setdefault((id(l), blocks[t]), []).append(t)
        groups.append(group)
    partners: dict[int, set[int]] = {r0: {r1}}
    pending = {r0: {r1}}
    while pending:
        i, gained = pending.popitem()
        for key, targets in groups[i].items():
            reach: set[int] = set()
            for j in gained:
                reach.update(groups[j][key])
            for ti in targets:
                have = partners.get(ti)
                if have is None:
                    have = partners[ti] = set()
                new = reach - have
                if new:
                    have |= new
                    todo = pending.get(ti)
                    if todo is None:
                        pending[ti] = new
                    else:
                        todo |= new
    keys = [render_term(t) for t in lts.states]
    order = sorted(range(len(keys)), key=keys.__getitem__)  # stable: ties keep index order
    rank = [0] * len(keys)
    for r, s in enumerate(order):
        rank[s] = r
    return [
        (i, order[r])
        for i in order
        if i in partners
        for r in sorted(map(rank.__getitem__, partners[i]))
    ]


def bisimilar(
    spec: Spec, p: Term, q: Term, state_cap: int | None = None
) -> tuple[bool, BisimWitness | None]:
    """Decide strong bisimilarity of two closed terms."""
    lts = build_lts(spec, [p, q], state_cap, decide=True)
    if not lts.closed:
        return False, None
    blocks = refine(lts)
    r0, r1 = lts.roots
    if blocks[r0] != blocks[r1]:
        return False, None
    pairs = [(lts.states[i], lts.states[j]) for i, j in _product_pairs(lts, blocks, r0, r1)]
    return True, BisimWitness(pairs)


def are_equal(
    spec: Spec, name1: str, name2: str, state_cap: int | None = None
) -> tuple[bool, BisimWitness | None]:
    """Decide bisimilarity of two defined constants under guarded recursion."""
    spec.definition(name1)
    spec.definition(name2)
    return bisimilar(spec, DefConst(name1), DefConst(name2), state_cap)
