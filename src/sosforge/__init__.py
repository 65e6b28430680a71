"""Workbench for rule-based structural operational semantics.

Parse a specification, simulate closed terms, decide strong bisimilarity
(including guarded recursion), normalize terms through the derived
equation schema, and check binary operators for commutativity by rule
mirroring.  Bundled example specifications live under `corpus/`.

Importing the package loads none of its modules; each export loads on use.
"""

import importlib
import os

TYPE_CHECKING = False  # true only for static type checkers
if TYPE_CHECKING:
    from .tss import Spec

# The exported names, by the module that defines them.
_EXPORTS = {
    "axioms": ("NormalizeBudget", "axiom_report", "normalize"),
    "bisim": ("Lts", "are_equal", "bisimilar", "build_lts", "refine"),
    "commform": ("CommReport", "cc_equal", "check_comm", "find_mirror", "formats_spec",
                 "render_spec"),
    "errors": ("InvalidSpec", "SosError"),
    "matching": ("match",),
    "parser": ("parse_label", "parse_spec", "parse_term"),
    "simulator": ("Step", "solve_rule", "step"),
    "terms": ("canon_label", "canon_term", "render_label", "render_term",
              "substitute_label", "substitute_term", "summands"),
    "tss": ("Rule", "Spec"),
    "validator": ("check_all",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "corpus_text", "load_corpus"]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


def corpus_text(name: str) -> str:
    """The source text of a bundled specification, by name ('linda' or 'linda.sos').

    Raises FileNotFoundError for a name that is not bundled.
    """
    if not name.endswith(".sos"):
        name += ".sos"
    with open(os.path.join(os.path.dirname(__file__), "corpus", name), encoding="utf-8") as f:
        return f.read()


def load_corpus(name: str) -> "Spec":
    """Parse a bundled specification by bare name, e.g. 'linda'."""
    from .parser import parse_spec

    return parse_spec(corpus_text(name))
