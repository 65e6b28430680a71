"""The benchmark's workloads: seeded command lists, each command with the
answer the benchmark knows from how its input was built.

Every command is an argument list for `sosforge.cli.main`. A workload is
one fixed list (a "pass"); the runner repeats the pass. Commands may refer
to the output of an earlier command of the same pass through `Ref`, and a
check sees those saved outputs too.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

Check = Callable[[int | None, str, dict], bool]


@dataclass(frozen=True)
class Ref:
    """The saved, stripped output of an earlier command of the same pass."""

    key: str


@dataclass
class Cmd:
    argv: list
    check: Check
    save: str | None = None


@dataclass
class Workload:
    name: str
    cmds: list[Cmd] = field(default_factory=list)


def expect_exact(code: int, text: str) -> Check:
    return lambda c, out, saved: c == code and out == text


def _verdict_true(c: int | None, out: str, saved: dict | None = None) -> bool:
    return c == 0 and out.startswith("true\n")


# -- term text -----------------------------------------------------------------
# Inputs are written out here, fully bracketed, so that what sosforge parses
# does not depend on its own renderer.


def label_text(l) -> str:
    from sosforge.terms import LApp, MSet, Triple

    if isinstance(l, MSet):
        return "{" + ", ".join(label_text(e) for e in l.elements) + "}"
    if isinstance(l, Triple):
        return f"< {label_text(l.pre)},-,{label_text(l.post)} >"
    if isinstance(l, LApp):
        return f"{l.op}(" + ", ".join(label_text(a) for a in l.args) + ")"
    return l.name


def term_text(t) -> str:
    from sosforge.terms import App, Choice, LabelTerm, Nil, Prefix, infix_symbol

    if isinstance(t, Nil):
        return "0"
    if isinstance(t, Prefix):
        return f"{label_text(t.label)} . {term_text(t.body)}"
    if isinstance(t, Choice):
        return f"({term_text(t.left)} + {term_text(t.right)})"
    if isinstance(t, App):
        sym = infix_symbol(t.op)
        if sym is not None:
            return f"({term_text(t.args[0])} {sym} {term_text(t.args[1])})"
        args = (label_text(a) if isinstance(a, LabelTerm) else term_text(a) for a in t.args)
        return f"{t.op}(" + ", ".join(args) + ")"
    raise TypeError(f"no text for {t!r}")


BASE_ONLY_BANNED = ("||", ";", "ask(", "tell(", "get(", "g(")


def is_base_fragment(text: str) -> bool:
    """A normal form uses deadlock, prefixing and choice only."""
    return bool(text) and not any(b in text for b in BASE_ONLY_BANNED)


# -- par_bisim -------------------------------------------------------------------
# n-fold interleavings of two-action components `l1 . l2 . | . 0` under
# bccsp_par.sos. The components of a command are drawn with replacement, so
# repeated components occur, and every few true commands all n components are
# the same: those are the cases whose witnesses are large, since a component
# can be permuted into its copies. A command's shape (which components repeat,
# which shares an action with which, which action a false command changes) is
# drawn once, from a fixed generator; the seed renames the actions, orders
# the components and picks the regrouping. So the seed moves labels and
# grouping, and the state spaces and witnesses stay the same size.

ACTIONS = ("a", "b", "c")
# bisim commands per pass by n, and how often a pair of a true and a false
# command has n equal components: every third pair at n=3, every second at
# n=4, the one pair at n=5 (never at n=2: two equal components cannot be
# regrouped into other text).
PAR_MIX = {2: (28, 0), 3: (48, 3), 4: (16, 2), 5: (2, 1)}
PAR_SIM_NS = (3, 4, 5, 6, 7, 8, 9, 10)  # one simulate command each
PAR_SHAPE_SEED = "par_bisim shapes"


def _component(labels: tuple[str, str], progress: int = 0) -> str:
    return " . ".join(labels[progress:] + ("|", "0"))


def _par_text(tree) -> str:
    """Render a composition tree the way sosforge prints it (left-nested infix)."""
    if isinstance(tree, str):
        return tree
    left, right = tree
    rt = _par_text(right)
    if not isinstance(right, str):
        rt = f"({rt})"
    return f"{_par_text(left)} || {rt}"


def _random_tree(rng: random.Random, comps: list[str]):
    if len(comps) == 1:
        return comps[0]
    k = rng.randint(1, len(comps) - 1)
    return (_random_tree(rng, comps[:k]), _random_tree(rng, comps[k:]))


def _regroup(rng: random.Random, comps: list[str], flat: str) -> str:
    while True:
        perm = comps[:]
        rng.shuffle(perm)
        text = _par_text(_random_tree(rng, perm))
        if text != flat:
            return text


def _bisim_true_check(flat: str, other: str) -> Check:
    root = f" < {flat} ; {other} >"

    def check(c, out, saved):
        lines = out.splitlines()
        return _verdict_true(c, out) and root in lines and " < 0 ; 0 >" in lines

    return check


def _simulate_expected(comps: list[tuple[tuple[str, str], int]]) -> str:
    texts = [_component(labels, p) for labels, p in comps]
    steps = []
    for i, (labels, p) in enumerate(comps):
        if p < 2:
            target = texts[:i] + [_component(labels, p + 1)] + texts[i + 1:]
            steps.append((labels[p], " || ".join(target)))
    if all(p == 2 for _, p in comps):
        steps.append(("|", "0"))
    return "Possible steps:\n" + "".join(f" < {l} # {t} >\n" for l, t in sorted(steps))


def par_shapes(mix: dict[int, tuple[int, int]]) -> list[tuple[list[tuple[int, int]], tuple | None]]:
    """Per bisim command: component labels as action indices, and for a false
    command the change (component, position, new action index)."""
    shape_rng = random.Random(PAR_SHAPE_SEED)
    pairs = [(x, y) for x in range(len(ACTIONS)) for y in range(len(ACTIONS))]
    shapes = []
    for n, (count, same_every) in mix.items():
        for k in range(count):
            if same_every and (k // 2) % same_every == 0:
                labels = [shape_rng.choice(pairs)] * n
            else:
                labels = [shape_rng.choice(pairs) for _ in range(n)]
                while len(set(labels)) == 1:
                    labels = [shape_rng.choice(pairs) for _ in range(n)]
            change = None
            if k % 2 == 1:
                i, j = shape_rng.randrange(n), shape_rng.randrange(2)
                change = (i, j, shape_rng.choice([a for a in range(len(ACTIONS)) if a != labels[i][j]]))
            shapes.append((labels, change))
    return shapes


def par_bisim(rng: random.Random, corpus: Path, work: Path, smallest: bool) -> Workload:
    spec = str(corpus / "bccsp_par.sos")
    names = list(ACTIONS)
    rng.shuffle(names)
    units: list[Cmd] = []
    for labels, change in par_shapes({2: (2, 0)} if smallest else PAR_MIX):
        order = list(range(len(labels)))
        rng.shuffle(order)
        named = [(names[labels[i][0]], names[labels[i][1]]) for i in order]
        comps = [_component(l) for l in named]
        flat = " || ".join(comps)
        if change is None:
            other = _regroup(rng, comps, flat)
            units.append(Cmd(["bisim", spec, flat, other], _bisim_true_check(flat, other)))
        else:
            i, j, action = change
            changed = list(named[order.index(i)])
            changed[j] = names[action]
            bad = comps[:]
            bad[order.index(i)] = _component(tuple(changed))
            other = _regroup(rng, bad, flat)
            units.append(Cmd(["bisim", spec, flat, other], expect_exact(1, "false\n")))
    for n in (PAR_SIM_NS[:1] if smallest else PAR_SIM_NS):
        comps = [(tuple(rng.choice(ACTIONS) for _ in range(2)), rng.randrange(3))
                 for _ in range(n)]
        text = " || ".join(_component(l, p) for l, p in comps)
        units.append(Cmd(["simulate", spec, text], expect_exact(0, _simulate_expected(comps))))
    rng.shuffle(units)
    return Workload("par_bisim", units)


# -- linda_normalize -----------------------------------------------------------
# `;`-chains of store operations under linda.sos. A chain's normal form is
# its sequence of store labels followed by `| . 0`.

STORE_OPS = ("ask", "tell", "get")
DATA = ("d", "u", "v", "empty")
# Chains per pass by length, and `||` pairs per pass by component lengths.
# Sizes are fixed so that the seed moves contents, not cost: the median
# command falls among the (3, 3) pairs and the 90th percentile among the
# length-24 chains.
LINDA_CHAINS = {8: 12, 16: 12, 24: 10, 32: 4}
LINDA_PAIRS = {(2, 2): 17, (3, 3): 18}


def _store_label(op: str, mu: str) -> str:
    with_mu = "d" if mu == "empty" else f"d, {mu}"
    pre, post = {"ask": (with_mu, with_mu), "tell": ("d", with_mu), "get": (with_mu, "d")}[op]
    return f"< {{{pre}}},-,{{{post}}} >"


def _items(rng: random.Random, length: int) -> list[tuple[str, str]]:
    """`length` store operations, all distinct while length <= 12.

    Every chain of a length holds the same number of each datum, with the
    operations in a fixed cycle over them; the seed picks where that cycle
    starts, swaps u and v, and orders the items. So the seed moves contents,
    not cost.
    """
    data = list(DATA[1:3])
    rng.shuffle(data)                         # u and v trade places
    data = ["d", *data, "empty"]
    shift = rng.randrange(len(STORE_OPS))
    items = [(STORE_OPS[(i + i // len(DATA) + shift) % len(STORE_OPS)], data[i % len(DATA)])
             for i in range(length)]
    rng.shuffle(items)
    return items


def _chain_text(items: list[tuple[str, str]]) -> str:
    return " ; ".join(f"{op}({mu})" for op, mu in items)


def _chain(rng: random.Random, length: int) -> tuple[str, str]:
    """A chain's text and its normal form."""
    items = _items(rng, length)
    nf = " . ".join(_store_label(op, mu) for op, mu in items) + " . | . 0"
    return _chain_text(items), nf


def _same_as_saved(key: str) -> Check:
    return lambda c, out, saved: c == 0 and out.strip() == saved.get(key)


def _parallel_nf_check(c, out, saved) -> bool:
    return c == 0 and is_base_fragment(out.strip()) and "| . 0" in out


def linda_normalize(rng: random.Random, corpus: Path, work: Path, smallest: bool) -> Workload:
    spec = str(corpus / "linda.sos")
    chains = {8: 1} if smallest else LINDA_CHAINS
    pairs = {(2, 2): 1} if smallest else LINDA_PAIRS
    units: list[list[Cmd]] = []
    for length, count in chains.items():
        for _ in range(count):
            text, nf = _chain(rng, length)
            units.append([Cmd(["normalize", spec, text], expect_exact(0, nf + "\n"))])
    for (m, n), count in pairs.items():
        for _ in range(count):
            items = _items(rng, m + n)
            x, y = _chain_text(items[:m]), _chain_text(items[m:])
            key = f"xy{len(units)}"
            units.append([
                Cmd(["normalize", spec, f"({x}) || ({y})"], _parallel_nf_check, save=key),
                Cmd(["normalize", spec, f"({y}) || ({x})"], _same_as_saved(key)),
            ])
    rng.shuffle(units)
    return Workload("linda_normalize", [c for unit in units for c in unit])


# -- full_sweep ----------------------------------------------------------------
# The acceptance-style sweep on full.sos: many small commands, so per-command
# work (spec parsing, per-call indexes) dominates.

FULL_UNITS = 110
FULL_DEPTH = 3
REC_CLASSES = {"p1": 0, "q1": 0, "q4": 0, "p2": 1, "q2": 1, "p3": 2, "q3": 2}
EQ_EVERY = 20


def _nf_check(c, out, saved) -> bool:
    return c == 0 and is_base_fragment(out.strip())


def _bisim_as_nf(key_p: str, key_q: str) -> Check:
    def check(c, out, saved):
        if saved.get(key_p) == saved.get(key_q):
            return _verdict_true(c, out)
        return c == 1 and out == "false\n"

    return check


def _eq_check(same: bool) -> Check:
    if same:
        return lambda c, out, saved: c == 0 and out.startswith("< true ; <") and out.endswith("> >\n")
    return expect_exact(1, "< false >\n")


def full_sweep(rng: random.Random, corpus: Path, work: Path, smallest: bool) -> Workload:
    from termgen import equivalent_variant, random_full_term

    spec = str(corpus / "full.sos")
    rec = str(corpus / "recursion.sos")
    names = sorted(REC_CLASSES)
    cmds: list[Cmd] = []
    for u in range(1 if smallest else FULL_UNITS):
        p = random_full_term(rng, FULL_DEPTH)
        q = random_full_term(rng, FULL_DEPTH)
        v = equivalent_variant(rng, p)
        tp, tq, tv = term_text(p), term_text(q), term_text(v)
        kp, kq = f"nf_p{u}", f"nf_q{u}"
        cmds += [
            Cmd(["normalize", spec, tp], _nf_check, save=kp),
            Cmd(["bisim", spec, tp, Ref(kp)], _verdict_true),
            Cmd(["bisim", spec, tp, tv], _verdict_true),
            Cmd(["normalize", spec, tq], _nf_check, save=kq),
            Cmd(["bisim", spec, tp, tq], _bisim_as_nf(kp, kq)),
        ]
        if u % EQ_EVERY == 0:
            a, b = rng.choice(names), rng.choice(names)
            cmds.append(Cmd(["eq", rec, a, b], _eq_check(REC_CLASSES[a] == REC_CLASSES[b])))
    return Workload("full_sweep", cmds)


# -- spec_front ----------------------------------------------------------------
# Generated specs holding K renamed copies of full.sos's operators. Each copy
# has 13 rules in one block, in full.sos's order: g (2), ask/tell/get (3),
# seq (3), par (5). In full.sos `_||_` and `g` are proved commutative and
# every rule of `_;_` lacks a mirror; each copy behaves the same.

# Mostly small specs, so that a pass of 100 commands stays a few seconds long.
FRONT_KS = (10,) * 10 + (11,) * 4 + (12,) * 3 + (13, 13, 14, 15, 18, 22, 27, 33, 40)
FRONT_HEAD = """spec FRONT
actions a b c ;
predicates | ;
datasort Data [assoc comm id: empty] ;
dataconst d u v : Data ;
labelop mix : Label Label -> Label [comm] ;
"""
FRONT_VARS = """var x y x' y' : Proc ;
var alpha : Action ;
var k l : Label ;
var mu : Data ;
var xD xD' : Data ;
"""
FRONT_OPS = (("g", 2), ("ask", 1), ("tell", 1), ("get", 1), ("seq", 2), ("par", 2))
FRONT_RULES = (
    "rule x -(k)-> x' , y -(l)-> y' , x -(l)/> , y -(k)/> ==> g{s}(x,y) -( mix(k,l) )-> x' + y' ;",
    "rule x -(l)-> x' , y -(l)-> y' ==> g{s}(x,y) -(l)-> 0 ;",
    "rule ==> ask{s}(mu) -( < {{d, mu}}, -, {{d, mu}} > )-> | . 0 ;",
    "rule ==> tell{s}(mu) -( < {{d}}, -, {{d, mu}} > )-> | . 0 ;",
    "rule ==> get{s}(mu) -( < {{d, mu}}, -, {{d}} > )-> | . 0 ;",
    "rule x -(< xD, -, xD' >)-> x' ==> seq{s}(x, y) -(< xD, -, xD' >)-> seq{s}(x', y) ;",
    "rule x -(|)-> x' , y -(< xD, -, xD' >)-> y' ==> seq{s}(x, y) -(< xD, -, xD' >)-> y' ;",
    "rule x -(|)-> x' , y -(|)-> y' ==> seq{s}(x, y) -(|)-> y' ;",
    "rule x -(alpha)-> x' ==> par{s}(x, y) -(alpha)-> par{s}(x', y) ;",
    "rule y -(alpha)-> y' ==> par{s}(x, y) -(alpha)-> par{s}(x, y') ;",
    "rule x -(< xD, -, xD' >)-> x' ==> par{s}(x, y) -(< xD, -, xD' >)-> par{s}(x', y) ;",
    "rule y -(< xD, -, xD' >)-> y' ==> par{s}(x, y) -(< xD, -, xD' >)-> par{s}(x, y') ;",
    "rule x -(|)-> x' , y -(|)-> y' ==> par{s}(x, y) -(|)-> 0 ;",
)
RULES_OF = {"g": (1, 2), "ask": (3,), "tell": (4,), "get": (5,),
            "seq": (6, 7, 8), "par": (9, 10, 11, 12, 13)}
MIRRORS = {"g": ((1, 1), (2, 2)), "par": ((9, 10), (11, 12), (13, 13))}
NO_MIRROR = {"seq": (6, 7, 8)}
BROKEN = (
    ("rule x -(alpha)-> x' ==> par{s}(x, x) -(alpha)-> par{s}(x', x) ;",
     "RepeatedVariable: variable x occurs twice in the conclusion source"),
    ("rule x -(alpha)-> x' ==> par{s}(x, y) -(alpha)-> par{s}(x', y') ;",
     "ConclVarEscape: conclusion target uses unbound variable y'"),
)


def _summary_lines(out: str, pick: Callable[[str], str | None]) -> list[str]:
    picked = (pick(line.strip()) for line in out.splitlines())
    return [p for p in picked if p is not None]


def _summary_check(code: int, pick: Callable[[str], str | None], want: list[str]) -> Check:
    return lambda c, out, saved: c == code and _summary_lines(out, pick) == want


def _comm_line(s: str) -> str | None:
    keep = s.startswith(("Could not prove", "rule ")) or s.endswith(" is commutative")
    return s if keep else None


def _axioms_line(s: str) -> str | None:
    if s.startswith("axioms for"):
        return s
    if s.startswith("[rule"):
        return s[:s.index("]") + 1]
    return None


def _front_spec(rng: random.Random, k: int):
    """Clean and broken spec texts plus the expected comm, axioms and validate answers."""
    suffixes = [f"{chr(97 + i // 26)}{chr(97 + i % 26)}{i}" for i in rng.sample(range(676), k)]
    decl_order = suffixes[:]
    rng.shuffle(decl_order)
    base = {s: 13 * b for b, s in enumerate(suffixes)}   # rule blocks in `suffixes` order

    ops = "".join(f"op {op}{s} : {arity} ;\n" for s in decl_order for op, arity in FRONT_OPS)
    rules = [r.format(s=s) for s in suffixes for r in FRONT_RULES]
    clean = FRONT_HEAD + ops + FRONT_VARS + "\n".join(rules) + "\n"

    broken_rules = rules[:]
    at = sorted(rng.sample(range(len(rules) + 1), len(BROKEN)))
    targets = [rng.choice(suffixes) for _ in BROKEN]
    violations = []
    for shift, (pos, (rule, message), s) in enumerate(zip(at, BROKEN, targets)):
        broken_rules.insert(pos + shift, rule.format(s=s))
        violations.append(f"rule {pos + shift + 1}: {message}")
    broken = FRONT_HEAD + ops + FRONT_VARS + "\n".join(broken_rules) + "\n"

    comm, failed, axioms = [], [], []
    for s in decl_order:
        for op, _arity in FRONT_OPS:
            axioms.append(f"axioms for {op}{s}")
            axioms += [f"[rule {base[s] + i}]" for i in RULES_OF[op]]
            if op in MIRRORS:
                comm.append(f"{op}{s} is commutative")
                comm += [f"rule {base[s] + a} mirrors rule {base[s] + b}:" for a, b in MIRRORS[op]]
            elif op in NO_MIRROR:
                failed.append(f"Could not prove commutativity for: {op}{s}")
                failed += [f"rule {base[s] + i} has no mirror:" for i in NO_MIRROR[op]]
    return clean, broken, violations, comm + failed, axioms


def spec_front(rng: random.Random, corpus: Path, work: Path, smallest: bool) -> Workload:
    cmds: list[Cmd] = []
    for n, k in enumerate(FRONT_KS[:1] if smallest else FRONT_KS):
        clean, broken, violations, comm, axioms = _front_spec(rng, k)
        clean_path, broken_path = work / f"front{n}.sos", work / f"front{n}_broken.sos"
        clean_path.write_text(clean, encoding="utf-8")
        broken_path.write_text(broken, encoding="utf-8")
        cmds += [
            Cmd(["validate", str(broken_path)],
                expect_exact(1, "".join(v + "\n" for v in violations))),
            Cmd(["validate", str(clean_path)], expect_exact(0, "no violations\n")),
            Cmd(["comm", str(clean_path)], _summary_check(1, _comm_line, comm)),
            Cmd(["axioms", str(clean_path)], _summary_check(0, _axioms_line, axioms)),
        ]
    rng.shuffle(cmds)
    return Workload("spec_front", cmds)


WORKLOADS = {
    "par_bisim": par_bisim,
    "linda_normalize": linda_normalize,
    "full_sweep": full_sweep,
    "spec_front": spec_front,
}
