"""In-memory spans around sosforge's module boundaries, and the per-layer
figures computed from them.

A span is recorded for every call that crosses a module boundary: each
function that `cli`, `bisim`, `simulator`, `axioms` and `commform` import
from another sosforge module, patched in the importing module's namespace.
A few functions are also patched in their own module, so calls from inside
it are seen: `solve_rule` (it recurses through `step`'s move function, so
its spans nest), `satisfies`, `build_lts`, `refine`, `bisimilar`,
`find_mirror`, `cc_equal`. `Spec.theory` and `Spec.rules_for` are timed on
the class. The benchmark opens one root span, `cli.main`, per command.

Spans are kept in flat arrays (name, start, end, parent, command id) and
written out, one tab-separated line each, only when the run ends. Self time
is a span's duration minus the durations of its direct children, so the cost
of a wrapper itself lands in its caller's self time.
"""

from __future__ import annotations

import statistics
import time
import types
from array import array
from pathlib import Path

IMPORTERS = ("cli", "bisim", "simulator", "axioms", "commform")
OWN_MODULE = {
    "simulator": ("solve_rule",),
    "axioms": ("satisfies",),
    "bisim": ("build_lts", "refine", "bisimilar"),
    "commform": ("find_mirror", "cc_equal"),
}
ROOT = "cli.main"
# Layers whose summed self time is a metric of its own; cli.self_ms and tss.ms
# already cover the other two.
SELF_LAYERS = ("parser", "validator", "simulator", "terms", "bisim", "axioms", "commform")


def _layer(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


class Tracer:
    """Records spans while installed; the sosforge modules are untouched otherwise."""

    def __init__(self, sosforge_modules: dict[str, types.ModuleType]):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.cmd = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self.reset()
        self._plan(sosforge_modules)

    # -- recording ----------------------------------------------------------

    def reset(self) -> None:
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.cmd_of = array("i")
        self.observed = {}

    def _name_id(self, name: str) -> int:
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.cmd_of.append(self.cmd)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, fn, observe=None):
        """A wrapper that records one span per call of fn."""
        name_id = self._name_id(name)
        opened, closed = self._open, self._close

        def traced(*args, **kwargs):
            idx = opened(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                closed(idx)
            if observe is not None:
                observe(self.observed, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def root(self, cmd: int, fn, *args):
        """Run one command under the root span."""
        self.cmd = cmd
        idx = self._open(self._name_id(ROOT))
        try:
            return fn(*args)
        finally:
            self._close(idx)
            self._stack.clear()

    # -- patching -----------------------------------------------------------

    def _plan(self, mods: dict[str, types.ModuleType]) -> None:
        def wrap(owner: str, attr: str, fn) -> None:
            name = f"{_layer(fn.__module__)}.{fn.__name__}"
            w = self.span(name, fn, OBSERVERS.get(name))
            self._patches.append((mods[owner], attr, fn, w))

        for owner in IMPORTERS:
            mod = mods[owner]
            for attr, obj in sorted(vars(mod).items()):
                if (isinstance(obj, types.FunctionType)
                        and obj.__module__ != mod.__name__
                        and obj.__module__.startswith("sosforge.")):
                    wrap(owner, attr, obj)
        for owner, attrs in OWN_MODULE.items():
            for attr in attrs:
                fn = getattr(mods[owner], attr, None)
                if isinstance(fn, types.FunctionType):
                    wrap(owner, attr, fn)

        spec_cls = mods["tss"].Spec
        theory = spec_cls.__dict__.get("theory")
        if isinstance(theory, property) and theory.fget is not None:
            w = property(self.span("tss.theory", theory.fget))
            self._patches.append((spec_cls, "theory", theory, w))
        rules_for = spec_cls.__dict__.get("rules_for")
        if isinstance(rules_for, types.FunctionType):
            w = self.span("tss.rules_for", rules_for)
            self._patches.append((spec_cls, "rules_for", rules_for, w))

    def install(self) -> None:
        for owner, attr, _orig, w in self._patches:
            setattr(owner, attr, w)

    def uninstall(self) -> None:
        for owner, attr, orig, _w in self._patches:
            setattr(owner, attr, orig)

    # -- output -------------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Per span name: summed self seconds, summed total seconds, call count."""
        n = len(self.start)
        child = array("d", [0.0]) * n
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        self_s: dict[str, float] = {}
        total_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        names = self.names
        for i in range(n):
            name = names[self.name[i]]
            dur = end[i] - start[i]
            self_s[name] = self_s.get(name, 0.0) + dur - child[i]
            total_s[name] = total_s.get(name, 0.0) + dur
            calls[name] = calls.get(name, 0) + 1
        return self_s, total_s, calls

    def write(self, path: Path) -> None:
        """Write the recorded spans, one tab-separated line each."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names = self.names
        with path.open("w", encoding="utf-8") as f:
            f.write("name\tstart\tend\tparent\tcmd\n")
            for i in range(len(self.start)):
                f.write(f"{names[self.name[i]]}\t{self.start[i]:.7f}\t{self.end[i]:.7f}"
                        f"\t{self.parent[i]}\t{self.cmd_of[i]}\n")


# -- counters observed at the same boundaries --------------------------------


def _add(obs: dict, key: str, value: float) -> None:
    obs[key] = obs.get(key, 0) + value


def _obs_parse_spec(obs, args, result):
    _add(obs, "parser.spec_chars", len(args[0]))


def _obs_check_all(obs, args, result):
    _add(obs, "validator.violations", len(result))


def _obs_step(obs, args, result):
    _add(obs, "simulator.transitions", len(result))


def _obs_solve_rule(obs, args, result):
    _add(obs, "simulator.solve_rule_fired", 1 if result else 0)


def _obs_match(obs, args, result):
    _add(obs, "terms.match_yielded", 1 if result else 0)


def _obs_build_lts(obs, args, result):
    _add(obs, "bisim.states", len(result.states))
    _add(obs, "bisim.lts_transitions", sum(len(t) for t in result.transitions))


def _obs_refine(obs, args, result):
    _add(obs, "bisim.blocks", len(set(result)))


def _obs_bisimilar(obs, args, result):
    witness = result[1]
    if witness is not None:
        _add(obs, "bisim.witness_pairs", len(witness.pairs))


def _obs_find_mirror(obs, args, result):
    _add(obs, "commform.mirror_hits", 1 if result else 0)


OBSERVERS = {
    "parser.parse_spec": _obs_parse_spec,
    "validator.check_all": _obs_check_all,
    "simulator.step": _obs_step,
    "simulator.solve_rule": _obs_solve_rule,
    "terms.match": _obs_match,
    "bisim.build_lts": _obs_build_lts,
    "bisim.refine": _obs_refine,
    "bisim.bisimilar": _obs_bisimilar,
    "commform.find_mirror": _obs_find_mirror,
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, out_bytes: int, nf_chars: int) -> dict[str, float]:
    """The per-layer figures of one traced pass."""
    self_s, total_s, calls = tracer.self_times()
    obs = tracer.observed

    def ms(*names: str) -> float:
        return 1000.0 * sum(self_s.get(n, 0.0) for n in names)

    def n(name: str) -> int:
        return calls.get(name, 0)

    parse_spec_s = self_s.get("parser.parse_spec", 0.0)
    build_lts_total = total_s.get("bisim.build_lts", 0.0)
    m = {
        "cli.self_ms": ms(ROOT),
        "cli.out_bytes": out_bytes,
        "parser.parse_spec_ms": ms("parser.parse_spec"),
        "parser.parse_spec_calls": n("parser.parse_spec"),
        "parser.spec_kb_per_s": _ratio(obs.get("parser.spec_chars", 0) / 1000.0, parse_spec_s),
        "parser.parse_term_ms": ms("parser.parse_term"),
        "tss.theory_builds": n("tss.theory"),
        "tss.rules_for_calls": n("tss.rules_for"),
        "tss.ms": ms("tss.theory", "tss.rules_for"),
        "validator.check_all_ms": ms("validator.check_all"),
        "validator.violations": obs.get("validator.violations", 0),
        "simulator.step_calls": n("simulator.step"),
        "simulator.step_ms": ms("simulator.step"),
        "simulator.transitions": obs.get("simulator.transitions", 0),
        "simulator.solve_rule_calls": n("simulator.solve_rule"),
        "simulator.solve_rule_ms": ms("simulator.solve_rule"),
        "simulator.fire_ratio": _ratio(obs.get("simulator.solve_rule_fired", 0),
                                       n("simulator.solve_rule")),
        "terms.canon_term_calls": n("terms.canon_term"),
        "terms.canon_term_ms": ms("terms.canon_term"),
        "terms.render_term_calls": n("terms.render_term"),
        "terms.render_term_ms": ms("terms.render_term"),
        "terms.canon_label_calls": n("terms.canon_label"),
        "terms.canon_label_ms": ms("terms.canon_label"),
        "terms.match_calls": n("terms.match"),
        "terms.match_ms": ms("terms.match"),
        "terms.match_yield_ratio": _ratio(obs.get("terms.match_yielded", 0), n("terms.match")),
        "bisim.build_lts_ms": ms("bisim.build_lts"),
        "bisim.states": obs.get("bisim.states", 0),
        "bisim.lts_transitions": obs.get("bisim.lts_transitions", 0),
        "bisim.states_per_s": _ratio(obs.get("bisim.states", 0), build_lts_total),
        "bisim.refine_ms": ms("bisim.refine"),
        "bisim.blocks": obs.get("bisim.blocks", 0),
        "bisim.witness_ms": ms("bisim.bisimilar"),
        "bisim.witness_pairs": obs.get("bisim.witness_pairs", 0),
        "axioms.normalize_ms": ms("axioms.normalize"),
        "axioms.normalize_calls": n("axioms.normalize"),
        "axioms.satisfies_calls": n("axioms.satisfies"),
        "axioms.satisfies_ms": ms("axioms.satisfies"),
        "axioms.nf_chars": nf_chars,
        "axioms.axiom_report_ms": ms("axioms.axiom_report_text", "axioms.axiom_report_json"),
        "commform.check_comm_ms": ms("commform.check_comm"),
        "commform.find_mirror_calls": n("commform.find_mirror"),
        "commform.find_mirror_ms": ms("commform.find_mirror"),
        "commform.mirror_hit_ratio": _ratio(obs.get("commform.mirror_hits", 0),
                                            n("commform.find_mirror")),
        "commform.cc_equal_calls": n("commform.cc_equal"),
        "trace.spans": len(tracer.start),
    }
    for layer in SELF_LAYERS:
        m[f"{layer}.self_ms"] = ms(*(name for name in self_s if name.split(".", 1)[0] == layer))
    return m


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Metric-wise median over traced passes; counts stay whole numbers."""
    out = {}
    for k, first in per_pass[0].items():
        values = [p[k] for p in per_pass]
        out[k] = statistics.median_low(values) if isinstance(first, int) else statistics.median(values)
    return out
