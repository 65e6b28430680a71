"""Strong bisimilarity by partition refinement, with checkable witnesses.

States are canonical closed terms reached by repeated stepping.  Blocks
are split on transition signatures (label, successor block) until stable;
two states are bisimilar exactly when they end in the same block.  A
positive answer comes with the product-reachable set of same-block pairs,
whose symmetric closure is a bisimulation containing the queried pair.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from .errors import SosError, StateCapExceeded
from .simulator import Step, step
from .terms import DefConst, Term, canon_term, render_label, render_term
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


@dataclass
class Lts:
    """A finite labelled transition system over canonical terms."""

    states: list[Term] = field(default_factory=list)
    transitions: list[list[tuple[str, int]]] = field(default_factory=list)
    roots: list[int] = field(default_factory=list)

    def state_key(self, i: int) -> str:
        return render_term(self.states[i])


def build_lts(spec: Spec, roots: list[Term], state_cap: int | None = None) -> Lts:
    """Explore everything reachable from the roots, up to the state cap.

    One step cache serves the whole exploration, so each canonical subterm
    of the reachable states is stepped once.
    """
    cap = default_state_cap() if state_cap is None else state_cap
    th = spec.theory
    lts = Lts()
    index: dict[str, int] = {}
    step_cache: dict[str, list[Step]] = {}

    def intern(t: Term) -> int:
        c = canon_term(t, th)
        key = render_term(c)
        i = index.get(key)
        if i is not None:
            return i
        if len(lts.states) >= cap:
            raise StateCapExceeded(cap)
        index[key] = len(lts.states)
        lts.states.append(c)
        lts.transitions.append([])
        return index[key]

    lts.roots = [intern(r) for r in roots]
    done = 0
    while done < len(lts.states):
        i = done
        done += 1
        out = []
        for s in step(spec, lts.states[i], cache=step_cache):
            out.append((render_label(s.label), intern(s.target)))
        lts.transitions[i] = out
    return lts


def refine(lts: Lts) -> list[int]:
    """Coarsest signature-stable partition; block ids per state."""
    n = len(lts.states)
    blocks = [0] * n
    count = 1
    while True:
        mapping: dict[tuple, int] = {}
        nxt = [0] * n
        for i in range(n):
            sig = (blocks[i], frozenset((l, blocks[j]) for l, j in lts.transitions[i]))
            if sig not in mapping:
                mapping[sig] = len(mapping)
            nxt[i] = mapping[sig]
        if len(mapping) == count:
            return nxt
        blocks = nxt
        count = len(mapping)


@dataclass
class BisimWitness:
    """Same-block state pairs reachable in the product from the root pair."""

    pairs: list[tuple[Term, Term]]

    def __str__(self) -> str:
        return " ".join(f"< {render_term(p)} ; {render_term(q)} >" for p, q in self.pairs)

    def to_json(self) -> list[list[str]]:
        return [[render_term(p), render_term(q)] for p, q in self.pairs]


def _product_pairs(lts: Lts, blocks: list[int], r0: int, r1: int) -> list[tuple[int, int]]:
    seen = {(r0, r1)}
    queue = [(r0, r1)]
    while queue:
        i, j = queue.pop()
        for l, ti in lts.transitions[i]:
            for l2, tj in lts.transitions[j]:
                if l2 == l and blocks[ti] == blocks[tj] and (ti, tj) not in seen:
                    seen.add((ti, tj))
                    queue.append((ti, tj))
    return sorted(seen, key=lambda ij: (lts.state_key(ij[0]), lts.state_key(ij[1])))


def bisimilar(
    spec: Spec, p: Term, q: Term, state_cap: int | None = None
) -> tuple[bool, BisimWitness | None]:
    """Decide strong bisimilarity of two closed terms."""
    lts = build_lts(spec, [p, q], state_cap)
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
