"""A checker of bisimulation witnesses that reads only the transition system.

It trusts neither the partition nor the product search that made the
witness: it checks the transfer condition of Park and Milner directly.
"""

from sosforge.bisim import Lts

_NONE: frozenset = frozenset()


def check_witness(lts: Lts, pairs, root: tuple[int, int]) -> None:
    """Assert that the symmetric closure of `pairs`, index pairs of lts's
    states, is a bisimulation that holds `root`.

    Each state's moves are indexed by label once.  A pair (i, j) of the
    closure then costs i's moves: each asks whether the targets j reaches
    by that label meet the partners of i's target, a set intersection test
    that walks the smaller of the two sets.
    """
    assert lts.closed, "a witness needs every move of its states"
    trans = lts.transitions
    rel: dict[int, set[int]] = {}
    for i, j in pairs:
        assert 0 <= i < len(trans) and 0 <= j < len(trans), (i, j)
        rel.setdefault(i, set()).add(j)
        rel.setdefault(j, set()).add(i)
    r0, r1 = root
    assert r1 in rel.get(r0, _NONE), f"the root pair {root} is not in the witness"
    by_label: dict[int, dict] = {}
    for s in rel:
        index: dict = {}
        for l, t in trans[s]:
            index.setdefault(l, set()).add(t)
        by_label[s] = index
    for i, partners in rel.items():
        for j in partners:
            answers = by_label[j]
            for l, ti in trans[i]:
                assert not rel.get(ti, _NONE).isdisjoint(answers.get(l, _NONE)), (
                    f"state {j} does not match move {l} of state {i} to {ti}"
                )
