"""The robustness oracle over seeded token mutants of the bundled specs and terms."""

import random
import sys

import pytest

import mutate
from sosforge import cli


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_mutant_commands_keep_the_exit_contract(seed, tmp_path):
    assert mutate.sweep(seed, 200, tmp_path) == []


def test_mutants_cover_every_command_with_and_without_json(tmp_path):
    rng = random.Random(1)
    drawn = {(m.command, "--json" in m.args) for m in (mutate.mutant(rng, tmp_path) for _ in range(200))}
    assert drawn == {(c, j) for c in mutate.COMMANDS for j in (False, True)}


def _writes(stderr: str, code: int):
    def main(argv):
        print(stderr, end="", file=sys.stderr)
        return code

    return main


@pytest.mark.parametrize(
    "main, problem",
    [
        (lambda argv: 1 // 0, "ZeroDivisionError escaped"),
        (_writes("", 4), "exit code 4"),
        (_writes("", 2), "exit 2 with 0 error lines"),
        (_writes("error: x\nerror: y\n", 3), "exit 3 with 2 error lines"),
        (_writes("warning\n", 0), "exit 0 wrote to stderr"),
    ],
)
def test_oracle_flags_each_broken_contract(monkeypatch, tmp_path, main, problem):
    monkeypatch.setattr(cli, "main", main)
    found = mutate.run(mutate.Mutant("validate", "", ()), tmp_path)
    assert found is not None and found.startswith(problem), found
