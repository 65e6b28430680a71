"""Workbench for rule-based structural operational semantics.

Parse a specification, simulate closed terms, decide strong bisimilarity
(including guarded recursion), normalize terms through the derived
equation schema, and check binary operators for commutativity by rule
mirroring.  Bundled example specifications live under `corpus/`.
"""

from importlib import resources

from .axioms import NormalizeBudget, axiom_report, normalize, satisfies
from .bisim import Lts, are_equal, bisimilar, build_lts, refine
from .commform import CommReport, cc_equal, check_comm, find_mirror, formats_spec
from .errors import InvalidSpec, SosError
from .parser import parse_label, parse_spec, parse_term
from .simulator import Step, solve_rule, step
from .terms import (
    canon_label,
    canon_term,
    match,
    render_label,
    render_term,
    substitute_label,
    substitute_term,
    summands,
)
from .tss import Rule, Spec, render_spec
from .validator import check_all

__all__ = [
    "NormalizeBudget", "axiom_report", "normalize", "satisfies",
    "Lts", "are_equal", "bisimilar", "build_lts", "refine",
    "CommReport", "cc_equal", "check_comm", "find_mirror", "formats_spec",
    "InvalidSpec", "SosError",
    "parse_label", "parse_spec", "parse_term",
    "Step", "solve_rule", "step",
    "canon_label", "canon_term", "match",
    "render_label", "render_term", "substitute_label", "substitute_term",
    "summands",
    "Rule", "Spec", "render_spec",
    "check_all",
    "corpus_text", "load_corpus",
]


def corpus_text(name: str) -> str:
    """The source text of a bundled specification, by name ('linda' or 'linda.sos')."""
    if not name.endswith(".sos"):
        name += ".sos"
    return (resources.files(__name__) / "corpus" / name).read_text(encoding="utf-8")


def load_corpus(name: str) -> Spec:
    """Parse a bundled specification by bare name, e.g. 'linda'."""
    return parse_spec(corpus_text(name))
