"""Seeded token mutations of the bundled specifications and terms, and a
robustness oracle that runs sosforge commands on them in process.

A mutation deletes, inserts, replaces or swaps tokens of a bundled spec or
of a term written for it. Each mutant command runs through `cli.main` with
its output captured; the oracle asks only that no exception escapes, that
the exit code is one of 0-3, that exits 2 and 3 print exactly one `error:`
line on stderr, and that exits 0 and 1 print nothing there. Everything is
drawn from the caller's random.Random, so a failure reproduces from the
seed alone.

Run as a script to sweep more commands than the test suite does:

    PYTHONPATH=src python tests/mutate.py --count 3000 --seed 1
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import random
import re
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

from sosforge import cli, corpus_text

STATE_CAP = 2000
BUDGET = 2000
COMMANDS = ("validate", "simulate", "bisim", "eq", "normalize", "axioms", "comm")

# Terms written for each bundled spec, and the constants of those that define some.
TERMS = {
    "bccsp": ("a . 0 + b . 0", "a . (b . 0 + c . 0)", "a . b . 0 + a . c . 0"),
    "bccsp_par": ("| . 0 || a . 0", "a . 0 || b . 0", "a . b . 0 + b . a . 0",
                  "a . b . | . 0 || (a . b . | . 0 || a . b . | . 0)",
                  " || ".join(["a . b . 0"] * 8)),  # 6,561 states: past the cap
    "g": ("g(a . 0, b . 0)", "g(a . b . 0, a . 0 + b . 0)", "mix(a, b) . 0 + c . 0"),
    "linda": ("ask(u) ; tell(v)", "tell(d) || ask(d) ; get(d)",
              "< {d}, -, {d, u} > . 0 ; tell(u)"),
    "recursion": ("p1", "q1", "i . p2 + o . q4"),
    "full": ("w1", "ask(u) ; tell(v) || a . 0", "g(mix(a, b) . 0, a . w2)"),
}
CONSTANTS = {"recursion": ("p1", "p2", "p3", "q1", "q2", "q3", "q4"), "full": ("w1", "w2")}

# Pieces are runs of whitespace or tokens; only tokens are mutated.
_PIECE = re.compile(r"\s+|[\w']+|[^\w\s']+|'")


@functools.cache
def _pool() -> tuple[str, ...]:
    """Every token of the bundled specs and of their terms, the pool insertions draw from."""
    texts = [corpus_text(name) for name in TERMS]
    texts += [t for terms in TERMS.values() for t in terms]
    return tuple(sorted({p for text in texts for p in _PIECE.findall(text) if not p.isspace()}))


def mutate(rng: random.Random, text: str, n: int) -> str:
    """text with n token mutations: each deletes, inserts, replaces or swaps tokens."""
    pieces = _PIECE.findall(text)
    for _ in range(n):
        at = [i for i, p in enumerate(pieces) if not p.isspace()]
        kind = rng.choice(("delete", "insert", "replace", "swap")) if at else "insert"
        if kind == "insert":
            pieces.insert(rng.randrange(len(pieces) + 1), f" {rng.choice(_pool())} ")
        elif kind == "delete":
            del pieces[rng.choice(at)]
        elif kind == "replace":
            pieces[rng.choice(at)] = rng.choice(_pool())
        else:
            i, j = rng.choice(at), rng.choice(at)
            pieces[i], pieces[j] = pieces[j], pieces[i]
    return "".join(pieces)


@dataclass(frozen=True)
class Mutant:
    """One command: the spec text it reads and its arguments after the spec path."""

    command: str
    spec: str
    args: tuple[str, ...]

    def argv(self, spec_path: str) -> list[str]:
        return [self.command, spec_path, *self.args]


def mutant(rng: random.Random, work: Path) -> Mutant:
    """A command on a bundled spec, mutated a third of the time, and on its
    terms or constants, each mutated a third of the time."""
    command = rng.choice(COMMANDS)
    name = rng.choice(sorted(CONSTANTS if command == "eq" else TERMS))

    def maybe_mutated(text: str) -> str:
        return mutate(rng, text, rng.randint(1, 2)) if rng.random() < 1 / 3 else text

    spec = corpus_text(name)
    if rng.random() < 1 / 3:
        spec = mutate(rng, spec, rng.randint(1, 3))
    options: list[str] = ["--json"] if rng.random() < 0.5 else []
    operands: list[str] = []
    if command in ("simulate", "normalize"):
        operands = [maybe_mutated(rng.choice(TERMS[name]))]
    elif command in ("bisim", "eq"):
        # The second operand is drawn with the first one's weight doubled, so
        # that equal operands, which are explored in full, come up often.
        choices = (TERMS if command == "bisim" else CONSTANTS)[name]
        first = rng.choice(choices)
        operands = [maybe_mutated(first), maybe_mutated(rng.choice((first, *choices)))]
    if command in ("bisim", "eq"):
        options += ["--state-cap", str(STATE_CAP)]
    elif command == "normalize":
        options += ["--budget", str(BUDGET)]
    elif command == "comm" and rng.random() < 0.25:
        options += ["--emit-formats", str(work / "formats.sos")]
    # Operands after `--`, so that a mutated term that starts with `-` stays a term.
    return Mutant(command, spec, (*options, "--", *operands) if operands else tuple(options))


def run(m: Mutant, work: Path) -> str | None:
    """Run one mutant command in process; what the oracle finds wrong, or None."""
    spec_path = work / "mutant.sos"
    spec_path.write_text(m.spec, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(m.argv(str(spec_path)))
    except (Exception, SystemExit) as e:
        return f"{type(e).__name__} escaped: {e}"
    errors = sum(line.startswith("error:") for line in err.getvalue().splitlines())
    if code not in (0, 1, 2, 3):
        return f"exit code {code!r}"
    if code in (2, 3) and errors != 1:
        return f"exit {code} with {errors} error lines: {err.getvalue()!r}"
    if code in (0, 1) and err.getvalue():
        return f"exit {code} wrote to stderr: {err.getvalue()!r}"
    return None


def sweep(seed: int, count: int, work: Path) -> list[tuple[Mutant, str]]:
    """The failing mutants among count commands drawn from seed."""
    rng = random.Random(seed)
    failures = []
    for _ in range(count):
        m = mutant(rng, work)
        problem = run(m, work)
        if problem is not None:
            failures.append((m, problem))
    return failures


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="Run seeded mutant sosforge commands in process.")
    ap.add_argument("--count", type=int, default=3000, help="commands to run")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        failures = sweep(args.seed, args.count, Path(tmp))
    for m, problem in failures:
        print(f"{problem}\n  argv: {m.argv('SPEC')!r}\n  spec:\n{m.spec}", file=sys.stderr)
    print(f"{args.count} commands, seed {args.seed}: {len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
