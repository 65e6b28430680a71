"""Parser for the rule-based specification language and its terms.

Input is UTF-8 text with `#` line comments, whitespace-insensitive.  A
specification is a sequence of keyword-led declarations; rules and
definitions are parsed in a second pass once the full signature is known,
so declaration order never matters for name resolution.

Tokens are plain strings, cut from the text by one regular expression in a
single pass.  A token's kind follows from its first character: a letter
starts an identifier, a digit a natural number, `_` an operator name such
as `_||_`, one of `|!?~^&*%@/` a symbol, one of `(){}[]<>,;:=.+-` a
punctuation mark (always a single character), and the empty string is the
end of input.  Tokens carry no positions: when a ParseError is raised, the
text is scanned again up to the offending token, and its line and column
are computed from that token's offset.

One pattern, compiled on import, cuts every text whose digits are decimal
and whose numerals are digits, ASCII text included; its identifier branch
for an ASCII letter comes before the one for any letter.  ASCII text is
not scanned for other characters; a text with odd digits or numerals gets
a pattern of its own.

The term parser resolves names through one set of tables, a
ParseContext built once per Spec (`Spec.parse_context`).  Every unit of a
term, what choices and infix operators combine, is read by `parse_prefix`
in one lookup order: a leaf (a process variable, a recursion constant or
`0`), which hands out one shared node per name; a process operator
applied to its arguments; a label followed by `.`, the prefix; and last
an atom: a parenthesised term, a data term or the error for what stands
there.  The tables are disjoint, a name that is a label being neither a
leaf nor an operator, so the order changes no parse.  A leaf label, such
as an action, a data constant or a label variable, is one lookup as well,
and the table tells whether a label's sort is a data sort.  The parser
decides from the current token whether a label can start there, so valid
input is parsed without backtracking on exceptions.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import islice

from .errors import (
    ArityMismatch,
    DuplicateDeclaration,
    ParseError,
    UnboundVariable,
    UnknownSymbol,
)
from .terms import (
    SORT_ACTION,
    SORT_LABEL,
    SORT_PREDICATE,
    SORT_PROC,
    ActConst,
    App,
    Choice,
    DataConst,
    DefConst,
    LabelTerm,
    LApp,
    LVar,
    MSet,
    NIL,
    OpAttrs,
    PredConst,
    Prefix,
    Term,
    Triple,
    Var,
    free_vars,
    is_data_sort,
    label_sort,
    render_label,
    sort_accepts,
)
from .tss import DataSortDecl, LabelOp, NegPremise, ProcOp, Rule, Spec, Transition

KEYWORDS = {
    "spec", "actions", "predicates", "datasort", "dataconst",
    "labelop", "op", "var", "rule", "def",
}
RESERVED_NAMES = {"0", ".", "+"}
RESERVED_SORTS = {SORT_PROC, SORT_ACTION, SORT_PREDICATE, SORT_LABEL}

_SYM_CHARS = set("|!?~^&*%@/")
_PUNCT_CHARS = set("(){}[]<>,;:=.+-")
_OPNAME = re.compile(r"_[|!?~^&*%@/;+.]+_")
_NON_ASCII = re.compile(r"[^\x00-\x7f]")


@lru_cache(maxsize=16)
def _token_pattern(digits: str, numerals: str) -> re.Pattern[str]:
    """Blanks and comments, then one token (group 1).

    The language's letters and digits are those of `str.isalpha` and
    `str.isdigit`.  The regular expression's `\\w` also takes other
    numerals and its `\\d` leaves out digits that are not decimal, so the
    text's characters of either kind are passed in: `digits` such as `²`
    continue a number, `numerals` such as `½` start no token.  At an
    unexpected character the last alternative takes the rest of the text,
    so it becomes the last token before the end of input.
    """
    odd = re.escape(digits + numerals)
    return re.compile(
        r"[ \t\r\n]*(?:#[^\n]*[ \t\r\n]*)*"
        r"([(){}\[\]<>,;:=.+\-]"
        r"|[A-Za-z][\w']*"
        rf"|[^\W\d_{odd}][\w']*"
        rf"|[\d{re.escape(digits)}]+"
        r"|_[|!?~^&*%@/;+.]+_"
        r"|[|!?~^&*%@/]+"
        r"|\Z"
        r"|[\s\S]+)"
    )


# The pattern of every text without odd digits or numerals, ASCII text
# included.  Compiled on import, where it lives with the module's other
# long-lived objects, not in the middle of the first command's heap.
_TOKEN = _token_pattern("", "")


def _is_name(t: str) -> bool:
    """An identifier or a symbol."""
    c = t[:1]
    return c.isalpha() or c in _SYM_CHARS


class Tokens:
    """The tokens of one text, ending in one or two end-of-input tokens ``""``."""

    def __init__(self, text: str):
        self.text = text
        if text.isascii():
            self.pattern = _TOKEN
        else:
            odd = {c for c in set(_NON_ASCII.findall(text))
                   if c.isalnum() and not c.isalpha() and not c.isdecimal()}
            self.pattern = _token_pattern("".join(sorted(c for c in odd if c.isdigit())),
                                          "".join(sorted(c for c in odd if not c.isdigit())))
        self.toks = toks = self.pattern.findall(text)
        if len(toks) > 1:
            last = toks[-2]
            c = last[:1]
            if c == "_" and not _OPNAME.fullmatch(last):
                raise self.error("malformed operator name", len(toks) - 2)
            if c and not (c in _PUNCT_CHARS or c in _SYM_CHARS or c == "_"
                          or c.isalpha() or c.isdigit()):
                raise self.error(f"unexpected character {c!r}", len(toks) - 2)

    def position(self, i: int) -> tuple[int, int]:
        """Line and column of token i."""
        text = self.text
        m = next(islice(self.pattern.finditer(text), i, None))
        at = m.start(1)
        if not m.group(1):
            # the column does not advance over a comment that ends the text
            comment = text.find("#", text.rfind("\n") + 1)
            if comment >= 0:
                at = comment
        return text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)

    def error(self, message: str, i: int, kind: type[ParseError] = ParseError) -> ParseError:
        return kind(message, *self.position(i))


# ---------------------------------------------------------------------------
# declaration pass


class _Decls:
    """Mutable declaration state built during the first pass."""

    def __init__(self, src: Tokens):
        self.src = src
        self.spec_name = ""
        self.actions: list[str] = []
        self.predicates: list[str] = []
        self.data_sorts: dict[str, str | None] = {}
        self.data_consts: dict[str, str] = {}
        self.label_ops: dict[str, tuple[tuple[str, ...], str, bool, bool, str | None]] = {}
        self.proc_ops: dict[str, tuple[int, bool]] = {}
        self.variables: dict[str, str] = {}
        self.registry: dict[str, str] = {}
        self.rule_spans: list[tuple[int, int]] = []
        self.def_spans: list[tuple[str, int, int]] = []

    def declare(self, name: str, kind: str, i: int) -> None:
        if name in RESERVED_NAMES:
            raise self.src.error(f"{name} is built in", i, DuplicateDeclaration)
        if name in self.registry:
            raise self.src.error(
                f"{name} already declared as {self.registry[name]}", i, DuplicateDeclaration
            )
        self.registry[name] = kind


def _scan_to_decl_end(src: Tokens, i: int) -> int:
    """Index of the `;` closing the rule or def starting at i.

    An infix `;` is always followed by a token that can start a term; the
    closing one is followed by a keyword or the end of input.
    """
    toks = src.toks
    while True:
        try:
            i = toks.index(";", i)
        except ValueError:
            raise src.error("missing ; at end of declaration", toks.index("", i)) from None
        nxt = toks[i + 1]
        if not nxt or nxt in KEYWORDS:
            return i
        i += 1


def _names_until(src: Tokens, i: int, what: str) -> int:
    """Index past the identifier and symbol name tokens starting at i."""
    toks = src.toks
    start = i
    while _is_name(toks[i]) and toks[i] not in KEYWORDS:
        i += 1
    if i == start:
        raise src.error(f"expected at least one {what}", i)
    return i


def _expect_punct(src: Tokens, i: int, ch: str) -> int:
    if src.toks[i] != ch:
        raise src.error(f"expected {ch!r}", i)
    return i + 1


_ATTRS = ("comm", "assoc", "id")


def _parse_attrs(src: Tokens, i: int, kw: str, accepted: tuple[str, ...] = _ATTRS):
    """Parse an optional [comm assoc id: name] attribute block of a `kw`
    declaration, which takes the attributes in `accepted`.  A block ends
    at `]`; punctuation, a keyword or the end of the text before it leaves
    the block unclosed."""
    toks = src.toks
    comm = assoc = False
    identity: str | None = None
    if toks[i] != "[":
        return comm, assoc, identity, i
    i += 1
    while toks[i] != "]":
        t = toks[i]
        if t not in accepted:
            if t in _ATTRS:
                raise src.error(f"{kw} does not take attribute {t!r}", i)
            if not _is_name(t) or t in KEYWORDS:
                raise src.error("expected ']'", i)
            raise src.error(f"unknown attribute {t!r}", i)
        if t == "comm":
            comm = True
            i += 1
        elif t == "assoc":
            assoc = True
            i += 1
        else:
            i = _expect_punct(src, i + 1, ":")
            if not _is_name(toks[i]) or toks[i] in KEYWORDS:
                raise src.error("expected identity constant", i)
            identity = toks[i]
            i += 1
    return comm, assoc, identity, i + 1


def _pass_one(src: Tokens) -> _Decls:
    toks = src.toks
    d = _Decls(src)
    if toks[0] != "spec":
        raise src.error("specification must start with 'spec'", 0)
    if not toks[1][:1].isalpha():
        raise src.error("expected specification name", 1)
    d.spec_name = toks[1]
    i = 2
    while toks[i]:
        kw = toks[i]
        if kw not in KEYWORDS:
            raise src.error(f"expected a declaration keyword, got {kw!r}", i)
        i += 1
        if kw in ("actions", "predicates"):
            start, end = i, _names_until(src, i, kw[:-1])
            i = _expect_punct(src, end, ";")
            for n in range(start, end):
                d.declare(toks[n], "an action" if kw == "actions" else "a predicate", n)
                (d.actions if kw == "actions" else d.predicates).append(toks[n])
        elif kw == "datasort":
            name = toks[i]
            if not name[:1].isalpha():
                raise src.error("expected sort name", i)
            if name in RESERVED_SORTS or name in d.data_sorts:
                raise src.error(f"sort {name} already exists", i, DuplicateDeclaration)
            _, _, identity, i = _parse_attrs(src, i + 1, kw)
            i = _expect_punct(src, i, ";")
            d.data_sorts[name] = identity
        elif kw in ("dataconst", "var"):
            start, end = i, _names_until(src, i, "data constant" if kw == "dataconst" else "variable")
            i = _expect_punct(src, end, ":")
            sort = toks[i]
            if not sort[:1].isalpha():
                raise src.error("expected sort name", i)
            i = _expect_punct(src, i + 1, ";")
            for n in range(start, end):
                if kw == "dataconst":
                    d.declare(toks[n], "a data constant", n)
                    d.data_consts[toks[n]] = sort
                else:
                    d.declare(toks[n], "a variable", n)
                    d.variables[toks[n]] = sort
        elif kw == "labelop":
            name = toks[i]
            if not _is_name(name):
                raise src.error("expected operator name", i)
            d.declare(name, "a label operator", i)
            i = _expect_punct(src, i + 1, ":")
            start = i
            while toks[i][:1].isalpha():
                i += 1
            arg_sorts = tuple(toks[start:i])
            i = _expect_punct(src, i, "-")
            i = _expect_punct(src, i, ">")
            result = toks[i]
            if not result[:1].isalpha():
                raise src.error("expected result sort", i)
            comm, assoc, identity, i = _parse_attrs(src, i + 1, kw)
            i = _expect_punct(src, i, ";")
            d.label_ops[name] = (arg_sorts, result, comm, assoc, identity)
        elif kw == "op":
            name = toks[i]
            if not (name[:1].isalpha() or name[:1] == "_"):
                raise src.error("expected operator name", i)
            d.declare(name, "a process operator", i)
            if name[0] == "_":
                d.declare(name[1:-1], f"the symbol of {name}", i)
            i = _expect_punct(src, i + 1, ":")
            arity = toks[i]
            if not arity.isdecimal():
                raise src.error("expected arity", i)
            comm, _, _, i = _parse_attrs(src, i + 1, kw, ("comm",))
            i = _expect_punct(src, i, ";")
            d.proc_ops[name] = (int(arity), comm)
        elif kw == "rule":
            end = _scan_to_decl_end(src, i)
            d.rule_spans.append((i, end))
            i = end + 1
        elif kw == "def":
            name = toks[i]
            if not name[:1].isalpha():
                raise src.error("expected definition name", i)
            d.declare(name, "a recursion constant", i)
            end = _scan_to_decl_end(src, i)
            d.def_spans.append((name, i + 1, end))
            i = end + 1
        else:  # "spec" again
            raise src.error("only one spec header is allowed", i - 1)
    return d


def _finalize_signature(d: _Decls) -> Spec:
    """Check sorts, resolve identity constants, and build the Spec skeleton.

    Its `defs` already holds every definition name, bound to None until the
    bodies are parsed.
    """
    valid_sorts = RESERVED_SORTS | set(d.data_sorts)
    for sort, identity in d.data_sorts.items():
        # an undeclared identity is declared here; a name of another kind is no constant
        if identity is not None and (
                d.registry.setdefault(identity, "a data constant") != "a data constant"
                or d.data_consts.setdefault(identity, sort) != sort):
            raise ParseError(f"identity {identity} is not a {sort} constant")
    for name, sort in d.data_consts.items():
        if sort not in d.data_sorts:
            raise ParseError(f"unknown data sort {sort} for constant {name}")
    for name, sort in d.variables.items():
        if sort not in valid_sorts:
            raise ParseError(f"unknown sort {sort} for variable {name}")

    def const_node(name: str) -> LabelTerm:
        if name in d.actions:
            return ActConst(name)
        if name in d.predicates:
            return PredConst(name)
        if name in d.data_consts:
            return DataConst(name, d.data_consts[name])
        raise UnknownSymbol(f"unknown identity constant {name}")

    label_ops = {}
    for name, (arg_sorts, result, comm, assoc, identity) in d.label_ops.items():
        for s in arg_sorts + (result,):
            if s not in valid_sorts or s == SORT_PROC:
                raise ParseError(f"invalid sort {s} in label operator {name}")
        node = const_node(identity) if identity is not None else None
        label_ops[name] = LabelOp(name, arg_sorts, result, OpAttrs(comm, assoc, node))

    return Spec(
        name=d.spec_name,
        actions=tuple(d.actions),
        predicates=tuple(d.predicates),
        data_sorts={s: DataSortDecl(s, ident) for s, ident in d.data_sorts.items()},
        data_consts=dict(d.data_consts),
        label_ops=label_ops,
        proc_ops={n: ProcOp(n, ar, comm) for n, (ar, comm) in d.proc_ops.items()},
        variables=dict(d.variables),
        defs=dict.fromkeys(name for name, _, _ in d.def_spans),
    )


# ---------------------------------------------------------------------------
# term pass


class ParseContext:
    """The name tables of a Spec that the term parser reads."""

    def __init__(self, spec: Spec):
        # name -> the label it stands for: a shared leaf node, or the
        # LabelOp to apply; the first of actions, predicates, data
        # constants, variables and label operators wins
        labels: dict[str, LabelTerm | LabelOp] = dict(spec.label_ops)
        for name, sort in spec.variables.items():
            if sort == SORT_PROC:
                labels.pop(name, None)
            else:
                labels[name] = LVar(name, sort)
        for name, sort in spec.data_consts.items():
            labels[name] = DataConst(name, sort)
        for name in spec.predicates:
            labels[name] = PredConst(name)
        for name in spec.actions:
            labels[name] = ActConst(name)
        self.labels = labels = {name: v for name, v in labels.items() if _is_name(name)}
        self.leaf_labels = {name: v for name, v in labels.items() if not isinstance(v, LabelOp)}
        # tokens at which a label, and so a prefix, can start ("(" aside)
        self.label_starts = frozenset(labels) | {"{", "<"}
        # the starts of labels of a data sort
        self.data_starts = frozenset(
            name for name, v in labels.items()
            if is_data_sort(v.result_sort if isinstance(v, LabelOp) else label_sort(v))
        ) | {"{"}
        # process leaves: a token that is a whole process term on its own
        # (a process variable, a recursion constant, `0`) -> its shared node;
        # and the names that can only apply a process operator.  A name that
        # is also a label is in neither table: the prefix parser reads it.
        plain = {name for name in spec.variables.keys() | spec.defs.keys() | spec.proc_ops.keys()
                 if name[:1].isalpha() and name not in KEYWORDS and name not in labels}
        self.leaves: dict[str, Term] = {"0": NIL}
        for name, sort in spec.variables.items():
            if sort == SORT_PROC and name in plain:
                self.leaves[name] = Var(name)
        for name in spec.defs:
            if name in plain and name not in spec.variables:
                self.leaves[name] = DefConst(name)
        self.apps = {name: op for name, op in spec.proc_ops.items()
                     if name in plain and name not in self.leaves}
        # infix token -> `_sym_` operator name
        self.infix = {
            op.symbol: op.name for op in spec.proc_ops.values()
            if op.symbol is not None and (op.symbol == ";" or set(op.symbol) <= _SYM_CHARS)
        }


def _can_start_term(t: str) -> bool:
    c = t[:1]
    if c.isalpha():
        return t not in KEYWORDS
    return c.isdigit() or c in _SYM_CHARS or t in ("(", "{", "<")


# punctuation runs of a premise and a store triple
_OPEN_LABEL = ["-", "("]
_ARROW_TAIL = [")", "-", ">"]
_NEG_TAIL = [")", "/", ">"]
_TRIPLE_MID = [",", "-", ","]


class _TermParser:
    def __init__(self, src: Tokens, spec: Spec):
        self.src = src
        self.toks = src.toks
        self.i = 0
        self.spec = spec
        ctx = spec.parse_context
        self.labels = ctx.labels
        self.leaf_labels = ctx.leaf_labels
        self.label_starts = ctx.label_starts
        self.data_starts = ctx.data_starts
        self.leaves = ctx.leaves
        self.apps = ctx.apps
        self.infix = ctx.infix

    def err(self, msg: str, i: int | None = None, kind: type[ParseError] = ParseError):
        raise self.src.error(msg, self.i if i is None else i, kind)

    def expect(self, ch: str) -> None:
        if self.toks[self.i] != ch:
            self.err(f"expected {ch!r}")
        self.i += 1

    def expect_run(self, run: list[str]) -> None:
        """The tokens of `run`, in order; the first one missing is reported."""
        i = self.i
        end = i + len(run)
        toks = self.toks
        if toks[i:end] != run:
            for k, ch in enumerate(run):
                if toks[i + k] != ch:
                    self.err(f"expected {ch!r}", i + k)
        self.i = end

    def expect_eof(self) -> None:
        t = self.toks[self.i]
        if t:
            self.err(f"unexpected {t!r} after term")

    def parse_list(self, item, close: str) -> list:
        """Comma-separated items up to the closing token."""
        items = []
        if self.toks[self.i] != close:
            items.append(item())
            while self.toks[self.i] == ",":
                self.i += 1
                items.append(item())
        self.expect(close)
        return items

    # -- terms ------------------------------------------------------------

    def parse_term(self, allow_data: bool = False) -> Term | LabelTerm:
        """Infix applications, nested to the left, over choices, nested to the
        right, over the units that `parse_prefix` reads."""
        toks = self.toks
        op = None
        while True:
            unit = self.parse_prefix(allow_data)
            if toks[self.i] == "+":
                units = [unit]
                while toks[self.i] == "+":
                    self.i += 1
                    units.append(self.parse_prefix(allow_data))
                unit = units.pop()
                for left in reversed(units):
                    if isinstance(left, LabelTerm) or isinstance(unit, LabelTerm):
                        self.err("choice combines process terms")
                    unit = Choice(left, unit)  # type: ignore[arg-type]
            t = unit if op is None else App(op, (t, unit))  # type: ignore[arg-type]
            op = self.infix.get(toks[self.i])
            if op is None or not _can_start_term(toks[self.i + 1]):
                return t
            self.i += 1

    def parse_prefix(self, allow_data: bool) -> Term | LabelTerm:
        """One unit of a term: a leaf, an operator application, `label . body`,
        where the label may sit in parentheses, or an atom, tried in this order.

        The body is read by a nested call: one frame per prefix, so that
        the nesting a command handles stays bounded by the recursion limit.
        """
        toks = self.toks
        start = self.i
        first = toks[start]
        leaf = self.leaves.get(first)
        if leaf is not None:
            self.i = start + 1
            return leaf
        op = self.apps.get(first)
        if op is not None:
            return self.parse_app(op)
        depth = 0
        while first == "(":
            depth += 1
            first = toks[start + depth]
        if first in self.label_starts:
            self.i = start + depth
            label: LabelTerm | None = self.leaf_labels.get(first)
            if label is not None:
                self.i += 1
            else:
                try:
                    label = self.parse_label()
                except ParseError:
                    # only malformed input gets here; a label operator is no
                    # atom, so its own error stands, and the atom parse below
                    # raises the error other input has always raised
                    if first in self.labels:  # a label operator
                        raise
                    label = None
            end = self.i + depth
            if (label is not None and (depth == 0 or toks[self.i:end] == [")"] * depth)
                    and toks[end] == "." and first not in self.data_starts):
                self.i = end + 1
                return Prefix(label, self.parse_prefix(False))  # type: ignore[arg-type]
            self.i = start
        return self.parse_atom(allow_data)

    def parse_app(self, op: ProcOp) -> App:
        """An operator applied to its arguments, at the operator's name."""
        toks = self.toks
        at = self.i
        self.i += 1
        if toks[self.i] != "(":
            self.err(f"{op.name} expects {op.arity} arguments", at)
        self.i += 1
        args = []
        if toks[self.i] != ")":
            args.append(self.parse_term(True))
            while toks[self.i] == ",":
                self.i += 1
                args.append(self.parse_term(True))
        self.expect(")")
        if len(args) != op.arity:
            self.err(f"{op.name} expects {op.arity} arguments, got {len(args)}", at, ArityMismatch)
        return App(op.name, tuple(args))

    def parse_atom(self, allow_data: bool) -> Term | LabelTerm:
        """A parenthesised term, a data term, or the error for what stands here."""
        i = self.i
        t = self.toks[i]
        c = t[:1]
        if c.isdigit():
            self.err("the only numeric process is 0", i)
        if t == "(":
            self.i = i + 1
            inner = self.parse_term(allow_data)
            self.expect(")")
            return inner
        if t == "{" or t == "<":
            if not allow_data:
                self.err("data term in process position", i)
            return self.parse_label()
        if c in _SYM_CHARS:
            self.err(f"label constant {t} cannot stand alone as a process", i)
        if not c.isalpha() or t in KEYWORDS:
            self.err("expected a term", i)
        label = self.leaf_labels.get(t)
        if label is None:
            self.err(f"undeclared identifier {t}", i, UnknownSymbol)
        if allow_data and t in self.data_starts:  # a data variable or constant
            self.i = i + 1
            return label  # type: ignore[return-value]
        if type(label) is LVar:
            self.err(f"variable {t} : {label.sort} cannot appear here", i)
        if type(label) is DataConst:
            self.err("data term in process position", i)
        self.err(f"label constant {t} cannot stand alone as a process", i)
        raise AssertionError  # unreachable

    # -- labels -----------------------------------------------------------

    def parse_label(self) -> LabelTerm:
        i = self.i
        t = self.toks[i]
        entry = self.labels.get(t)
        if entry is not None:
            self.i = i + 1
            if isinstance(entry, LabelOp):
                return self.parse_lapp(entry, i)
            return entry
        if t == "(":
            self.i = i + 1
            inner = self.parse_label()
            self.expect(")")
            return inner
        if t == "{":
            return self.parse_mset()
        if t == "<":
            return self.parse_triple()
        if _is_name(t):
            if t in self.spec.variables:
                self.err(f"process variable {t} in label position", i)
            self.err(f"undeclared label {t}", i, UnknownSymbol)
        self.err("expected a label", i)
        raise AssertionError  # unreachable

    def parse_lapp(self, op: LabelOp, at: int) -> LabelTerm:
        """An operator's arguments; one declared `assoc` over two sorts takes
        two or more, each of the sort it has when the application is read
        nested to the right: `f(a, b, c)` is `f(a, f(b, c))`, flattened."""
        self.expect("(")
        args = self.parse_list(self.parse_label, ")")
        want = op.arg_sorts
        if len(args) != len(want) and op.attrs.assoc and len(want) == 2 and len(args) > 2:
            want = (want[0],) * (len(args) - 1) + want[1:]
        if len(args) != len(want):
            self.err(f"{op.name} expects {len(op.arg_sorts)} arguments, got {len(args)}",
                     at, ArityMismatch)
        for a, sort in zip(args, want):
            if not sort_accepts(sort, label_sort(a)):
                self.err(f"{op.name} argument {render_label(a)} is not of sort {sort}", at)
        return LApp(op.name, tuple(args), op.result_sort)

    def parse_mset(self) -> MSet:
        at = self.i
        self.i += 1
        elems = self.parse_list(self.parse_label, "}")
        sorts = {label_sort(e) for e in elems}
        for s in sorts:
            if not is_data_sort(s):
                self.err("multiset elements must be data terms", at)
        if len(sorts) > 1:
            self.err("multiset elements must share one sort", at)
        if sorts:
            sort = sorts.pop()
        elif len(self.spec.data_sorts) == 1:
            sort = next(iter(self.spec.data_sorts))
        else:
            self.err("cannot infer the sort of an empty multiset", at)
        return MSet(tuple(elems), sort)

    def parse_triple(self) -> Triple:
        self.i += 1
        pre = self.parse_sorted_label(True, "store slots hold data terms")
        self.expect_run(_TRIPLE_MID)
        post = self.parse_sorted_label(True, "store slots hold data terms")
        self.expect(">")
        return Triple(pre, post)

    def parse_sorted_label(self, data: bool, complaint: str) -> LabelTerm:
        """A label of a data sort, or of any other sort.

        Whether a label is of a data sort follows from its first token
        inside any parentheses.
        """
        toks = self.toks
        at = first = self.i
        label = self.leaf_labels.get(toks[at])
        if label is not None:
            self.i = at + 1
        else:
            label = self.parse_label()
            while toks[first] == "(":
                first += 1
        if (toks[first] in self.data_starts) != data:
            self.err(complaint, at)
        return label

    # -- rules ------------------------------------------------------------

    def parse_premise(self) -> Transition | NegPremise:
        toks = self.toks
        src = self.parse_term(False)
        self.expect_run(_OPEN_LABEL)
        lbl = self.parse_sorted_label(False, "data term cannot be a transition label")
        i = self.i
        if toks[i] == ")" and toks[i + 1] == "/":
            self.expect_run(_NEG_TAIL)
            return NegPremise(src, lbl)  # type: ignore[arg-type]
        self.expect_run(_ARROW_TAIL)
        return Transition(src, lbl, self.parse_term(False))  # type: ignore[arg-type]

    def parse_rule(self) -> Rule:
        toks = self.toks
        positives: list[Transition] = []
        negatives: list[NegPremise] = []
        i = self.i
        if not (toks[i] == "=" and toks[i + 1] == "=" and toks[i + 2] == ">"):
            while True:
                prem = self.parse_premise()
                if type(prem) is Transition:
                    positives.append(prem)
                else:
                    negatives.append(prem)  # type: ignore[arg-type]
                if toks[self.i] != ",":
                    break
                self.i += 1
            i = self.i
            if not (toks[i] == "=" and toks[i + 1] == "=" and toks[i + 2] == ">"):
                self.err("expected ==>")
        self.i = i + 3
        concl = self.parse_premise()
        if type(concl) is NegPremise:
            self.err("a conclusion cannot be negative")
        self.expect_eof()
        return Rule(tuple(positives), tuple(negatives), concl)  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# entry points


def _check_closed(t: Term, what: str) -> None:
    names = free_vars(t)
    if names:
        raise UnboundVariable(f"{what} is not closed: {', '.join(sorted(names))}")


def parse_spec(text: str) -> Spec:
    """Parse a full specification."""
    src = Tokens(text)
    d = _pass_one(src)
    spec = _finalize_signature(d)
    p = _TermParser(src, spec)
    toks = src.toks
    rules = []
    for start, end in d.rule_spans:
        toks[end] = ""  # the span's closing `;` becomes its end of input
        p.i = start
        rules.append(p.parse_rule())
    spec.rules = tuple(rules)
    for name, start, end in d.def_spans:
        toks[end] = ""
        p.i = start
        if toks[start] != "=":
            p.err("expected = after definition name")
        p.i += 1
        body = p.parse_term(False)
        p.expect_eof()
        _check_closed(body, f"definition {name}")  # type: ignore[arg-type]
        spec.defs[name] = body  # type: ignore[assignment]
    return spec


def parse_term(text: str, spec: Spec, closed: bool = True) -> Term:
    """Parse a process term in the scope of a specification."""
    p = _TermParser(Tokens(text), spec)
    t = p.parse_term(False)
    p.expect_eof()
    if closed:
        _check_closed(t, "term")  # type: ignore[arg-type]
    return t  # type: ignore[return-value]


def parse_label(text: str, spec: Spec) -> LabelTerm:
    """Parse a label term in the scope of a specification."""
    p = _TermParser(Tokens(text), spec)
    l = p.parse_label()
    p.expect_eof()
    return l
