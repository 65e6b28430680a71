"""An associativity oracle that shares no code with the proof.

For every binary operator that `Spec.associative` proves associative, the
two groupings op(op(p, q), r) and op(p, op(q, r)) must be bisimilar on
random closed terms p, q and r over the spec's own signature
(`termgen.SpecSignature`).  Bisimilarity is decided by exploring the
terms' transition systems, not from the rules' syntax, so the oracle can
catch an unsound proof.  Everything is drawn from
the caller's random.Random, so a failure reproduces from the seed alone.

Run as a script to check more seeds, and the binary operators of mutated
bundled specs (`mutate.mutate`):

    PYTHONPATH=src:tests python tests/assoc_oracle.py --seeds 20 --mutants 500
"""

from __future__ import annotations

import argparse
import random
import sys

from sosforge import corpus_text, parse_spec
from sosforge.bisim import bisimilar
from sosforge.errors import SosError
from sosforge.terms import App, render_term
from termgen import SpecSignature

STATE_CAP = 3000
BUNDLED = ("bccsp", "bccsp_par", "g", "linda", "recursion", "full")


def proved_operators(spec) -> list[str]:
    """The binary operators of spec whose rules prove them associative."""
    return [op.name for op in spec.proc_ops.values() if op.arity == 2 and spec.associative(op.name)]


def check(spec, rng: random.Random, triples: int, depth: int = 3) -> list[str]:
    """The groupings, each shown as text, that random triples separate for
    an operator proved associative; triples whose transition systems grow
    past STATE_CAP are skipped."""
    sig = SpecSignature(spec)
    failures = []
    for op in proved_operators(spec):
        for _ in range(triples):
            p, q, r = (sig.term(rng, depth) for _ in range(3))
            left, right = App(op, (App(op, (p, q)), r)), App(op, (p, App(op, (q, r))))
            try:
                same, _ = bisimilar(spec, left, right, STATE_CAP)
            except SosError:
                continue
            if not same:
                failures.append(f"{render_term(left)}  vs  {render_term(right)}")
    return failures


def sweep(seeds: range, mutants: int) -> tuple[list[str], int]:
    """Failures over the bundled specs under each seed, and over `mutants`
    mutated bundled specs; and how many mutants had an operator proved
    associative."""
    import mutate

    failures = []
    for seed in seeds:
        rng = random.Random(seed)
        for name in BUNDLED:
            failures += [f"{name}, seed {seed}: {f}" for f in check(parse_spec(corpus_text(name)), rng, 8)]
    rng = random.Random(f"assoc:{seeds.start}")
    proved = 0
    for i in range(mutants):
        text = mutate.mutate(rng, corpus_text(rng.choice(BUNDLED)), rng.randint(1, 3))
        try:
            spec = parse_spec(text)
            spec.check()
            proved += bool(proved_operators(spec))
        except SosError:
            continue
        failures += [f"mutant {i}: {f}\n{text}" for f in check(spec, rng, 4)]
    return failures, proved


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="Check proved associativity against bisimilarity.")
    ap.add_argument("--seeds", type=int, default=10, help="seeds over the bundled specs")
    ap.add_argument("--mutants", type=int, default=300, help="mutated bundled specs")
    args = ap.parse_args(argv)
    failures, proved = sweep(range(1, args.seeds + 1), args.mutants)
    for f in failures:
        print(f, file=sys.stderr)
    print(f"{args.seeds} seeds, {args.mutants} mutants ({proved} with an operator proved "
          f"associative): {len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
