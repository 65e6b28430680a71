"""Parser for the rule-based specification language and its terms.

Input is UTF-8 text with `#` line comments, whitespace-insensitive.  A
specification is a sequence of keyword-led declarations; rules and
definitions are parsed in a second pass once the full signature is known,
so declaration order never matters for name resolution.
"""

from __future__ import annotations

from dataclasses import dataclass

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
_OPNAME_INNER = _SYM_CHARS | {";", "+", "."}


@dataclass(frozen=True)
class Token:
    kind: str  # IDENT NAT OPNAME SYM PUNCT EOF
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if c.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            toks.append(Token("IDENT", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(Token("NAT", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if c == "_":
            j = i + 1
            while j < n and text[j] in _OPNAME_INNER:
                j += 1
            if j == i + 1 or j >= n or text[j] != "_":
                raise ParseError("malformed operator name", line, start_col)
            toks.append(Token("OPNAME", text[i:j + 1], line, start_col))
            col += j + 1 - i
            i = j + 1
            continue
        if c in _SYM_CHARS:
            j = i
            while j < n and text[j] in _SYM_CHARS:
                j += 1
            toks.append(Token("SYM", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if c in _PUNCT_CHARS:
            toks.append(Token("PUNCT", c, line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {c!r}", line, start_col)
    toks.append(Token("EOF", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# declaration pass


class _Decls:
    """Mutable declaration state built during the first pass."""

    def __init__(self):
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
        self.def_names: set[str] = set()

    def declare(self, name: str, kind: str, tok: Token) -> None:
        if name in RESERVED_NAMES:
            raise DuplicateDeclaration(f"{name} is built in", tok.line, tok.col)
        if name in self.registry:
            raise DuplicateDeclaration(
                f"{name} already declared as {self.registry[name]}", tok.line, tok.col
            )
        self.registry[name] = kind


def _scan_to_decl_end(toks: list[Token], i: int) -> int:
    """Index of the `;` closing the rule or def starting at i.

    An infix `;` is always followed by a token that can start a term; the
    closing one is followed by a keyword or the end of input.
    """
    while i < len(toks):
        t = toks[i]
        if t.kind == "EOF":
            raise ParseError("missing ; at end of declaration", t.line, t.col)
        if t.kind == "PUNCT" and t.text == ";":
            nxt = toks[i + 1]
            if nxt.kind == "EOF" or (nxt.kind == "IDENT" and nxt.text in KEYWORDS):
                return i
        i += 1
    raise ParseError("missing ; at end of declaration", toks[-1].line, toks[-1].col)


def _names_until(toks, i, what):
    """Collect IDENT/SYM name tokens up to a ; or : boundary."""
    names = []
    while toks[i].kind in ("IDENT", "SYM") and not (
        toks[i].kind == "IDENT" and toks[i].text in KEYWORDS
    ):
        names.append(toks[i])
        i += 1
    if not names:
        raise ParseError(f"expected at least one {what}", toks[i].line, toks[i].col)
    return names, i


def _expect_punct(toks, i, ch):
    t = toks[i]
    if t.kind != "PUNCT" or t.text != ch:
        raise ParseError(f"expected {ch!r}", t.line, t.col)
    return i + 1


def _parse_attrs(toks, i):
    """Parse an optional [comm assoc id: name] attribute block."""
    comm = assoc = False
    identity: str | None = None
    if not (toks[i].kind == "PUNCT" and toks[i].text == "["):
        return comm, assoc, identity, i
    i += 1
    while not (toks[i].kind == "PUNCT" and toks[i].text == "]"):
        t = toks[i]
        if t.kind == "IDENT" and t.text == "comm":
            comm = True
            i += 1
        elif t.kind == "IDENT" and t.text == "assoc":
            assoc = True
            i += 1
        elif t.kind == "IDENT" and t.text == "id":
            i = _expect_punct(toks, i + 1, ":")
            name_tok = toks[i]
            if name_tok.kind not in ("IDENT", "SYM"):
                raise ParseError("expected identity constant", name_tok.line, name_tok.col)
            identity = name_tok.text
            i += 1
        else:
            raise ParseError(f"unknown attribute {t.text!r}", t.line, t.col)
    return comm, assoc, identity, i + 1


def _pass_one(toks: list[Token]) -> _Decls:
    d = _Decls()
    i = 0
    t = toks[i]
    if not (t.kind == "IDENT" and t.text == "spec"):
        raise ParseError("specification must start with 'spec'", t.line, t.col)
    name_tok = toks[i + 1]
    if name_tok.kind != "IDENT":
        raise ParseError("expected specification name", name_tok.line, name_tok.col)
    d.spec_name = name_tok.text
    i += 2
    while toks[i].kind != "EOF":
        t = toks[i]
        if t.kind != "IDENT" or t.text not in KEYWORDS:
            raise ParseError(f"expected a declaration keyword, got {t.text!r}", t.line, t.col)
        kw = t.text
        i += 1
        if kw in ("actions", "predicates"):
            names, i = _names_until(toks, i, kw[:-1])
            i = _expect_punct(toks, i, ";")
            for nt in names:
                d.declare(nt.text, "an action" if kw == "actions" else "a predicate", nt)
                (d.actions if kw == "actions" else d.predicates).append(nt.text)
        elif kw == "datasort":
            nt = toks[i]
            if nt.kind != "IDENT":
                raise ParseError("expected sort name", nt.line, nt.col)
            if nt.text in RESERVED_SORTS or nt.text in d.data_sorts:
                raise DuplicateDeclaration(f"sort {nt.text} already exists", nt.line, nt.col)
            _, _, identity, i = _parse_attrs(toks, i + 1)
            i = _expect_punct(toks, i, ";")
            d.data_sorts[nt.text] = identity
        elif kw == "dataconst":
            names, i = _names_until(toks, i, "data constant")
            i = _expect_punct(toks, i, ":")
            st = toks[i]
            if st.kind != "IDENT":
                raise ParseError("expected sort name", st.line, st.col)
            i = _expect_punct(toks, i + 1, ";")
            for nt in names:
                d.declare(nt.text, "a data constant", nt)
                d.data_consts[nt.text] = st.text
        elif kw == "labelop":
            nt = toks[i]
            if nt.kind not in ("IDENT", "SYM"):
                raise ParseError("expected operator name", nt.line, nt.col)
            d.declare(nt.text, "a label operator", nt)
            i = _expect_punct(toks, i + 1, ":")
            arg_sorts = []
            while toks[i].kind == "IDENT":
                arg_sorts.append(toks[i].text)
                i += 1
            i = _expect_punct(toks, i, "-")
            i = _expect_punct(toks, i, ">")
            rt = toks[i]
            if rt.kind != "IDENT":
                raise ParseError("expected result sort", rt.line, rt.col)
            comm, assoc, identity, i = _parse_attrs(toks, i + 1)
            i = _expect_punct(toks, i, ";")
            d.label_ops[nt.text] = (tuple(arg_sorts), rt.text, comm, assoc, identity)
        elif kw == "op":
            nt = toks[i]
            if nt.kind not in ("IDENT", "OPNAME"):
                raise ParseError("expected operator name", nt.line, nt.col)
            d.declare(nt.text, "a process operator", nt)
            if nt.kind == "OPNAME":
                d.declare(nt.text[1:-1], f"the symbol of {nt.text}", nt)
            i = _expect_punct(toks, i + 1, ":")
            at = toks[i]
            if at.kind != "NAT":
                raise ParseError("expected arity", at.line, at.col)
            comm, _, _, i = _parse_attrs(toks, i + 1)
            i = _expect_punct(toks, i, ";")
            d.proc_ops[nt.text] = (int(at.text), comm)
        elif kw == "var":
            names, i = _names_until(toks, i, "variable")
            i = _expect_punct(toks, i, ":")
            st = toks[i]
            if st.kind != "IDENT":
                raise ParseError("expected sort name", st.line, st.col)
            i = _expect_punct(toks, i + 1, ";")
            for nt in names:
                d.declare(nt.text, "a variable", nt)
                d.variables[nt.text] = st.text
        elif kw == "rule":
            end = _scan_to_decl_end(toks, i)
            d.rule_spans.append((i, end))
            i = end + 1
        elif kw == "def":
            nt = toks[i]
            if nt.kind != "IDENT":
                raise ParseError("expected definition name", nt.line, nt.col)
            d.declare(nt.text, "a recursion constant", nt)
            d.def_names.add(nt.text)
            end = _scan_to_decl_end(toks, i)
            d.def_spans.append((nt.text, i + 1, end))
            i = end + 1
        else:  # "spec" again
            raise ParseError("only one spec header is allowed", t.line, t.col)
    return d


def _finalize_signature(d: _Decls) -> Spec:
    """Check sorts, resolve identity constants, and build the Spec skeleton."""
    valid_sorts = RESERVED_SORTS | set(d.data_sorts)
    for sort, identity in d.data_sorts.items():
        if identity is not None and identity not in d.data_consts:
            d.data_consts[identity] = sort
            d.registry.setdefault(identity, "a data constant")
        if identity is not None and d.data_consts[identity] != sort:
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
    )


# ---------------------------------------------------------------------------
# term pass


def _infix_ops(spec: Spec) -> dict[str, str]:
    """Infix symbol -> `_sym_` operator name, built once per parse call."""
    return {op.symbol: op.name for op in spec.proc_ops.values() if op.symbol is not None}


class _TermParser:
    def __init__(self, toks: list[Token], spec: Spec, def_names: set[str],
                 infix: dict[str, str]):
        self.toks = toks
        self.i = 0
        self.spec = spec
        self.def_names = def_names
        self.infix = infix

    def peek(self, k: int = 0) -> Token:
        return self.toks[min(self.i + k, len(self.toks) - 1)]

    def take(self) -> Token:
        t = self.peek()
        if t.kind != "EOF":
            self.i += 1
        return t

    def err(self, msg: str, tok: Token | None = None):
        t = tok or self.peek()
        raise ParseError(msg, t.line, t.col)

    def at_punct(self, ch: str, k: int = 0) -> bool:
        t = self.peek(k)
        return t.kind == "PUNCT" and t.text == ch

    def expect_punct(self, ch: str) -> None:
        if not self.at_punct(ch):
            self.err(f"expected {ch!r}")
        self.take()

    def expect_eof(self) -> None:
        if self.peek().kind != "EOF":
            self.err(f"unexpected {self.peek().text!r} after term")

    def can_start_term(self, tok: Token) -> bool:
        if tok.kind == "IDENT":
            return tok.text not in KEYWORDS
        if tok.kind == "NAT" or tok.kind == "SYM":
            return True
        return tok.kind == "PUNCT" and tok.text in "({<"

    # -- terms ------------------------------------------------------------

    def parse_term(self, allow_data: bool = False) -> Term | LabelTerm:
        t = self.parse_choice(allow_data)
        while True:
            nxt = self.peek()
            is_sym = nxt.kind == "SYM" or (nxt.kind == "PUNCT" and nxt.text == ";")
            if not (is_sym and nxt.text in self.infix and self.can_start_term(self.peek(1))):
                break
            self.take()
            rhs = self.parse_choice(allow_data)
            t = App(self.infix[nxt.text], (t, rhs))  # type: ignore[arg-type]
        return t

    def parse_choice(self, allow_data: bool) -> Term | LabelTerm:
        t = self.parse_prefix(allow_data)
        if self.at_punct("+"):
            self.take()
            rhs = self.parse_choice(allow_data)
            if isinstance(t, LabelTerm) or isinstance(rhs, LabelTerm):
                self.err("choice combines process terms")
            return Choice(t, rhs)
        return t

    def parse_prefix(self, allow_data: bool) -> Term | LabelTerm:
        save = self.i
        label: LabelTerm | None = None
        try:
            label = self.parse_label()
        except ParseError:
            self.i = save
        if label is not None:
            if self.at_punct(".") and not is_data_sort(label_sort(label)):
                self.take()
                body = self.parse_prefix(False)
                if isinstance(body, LabelTerm):
                    self.err("prefix body must be a process term")
                return Prefix(label, body)
            self.i = save
        return self.parse_atom(allow_data)

    def parse_atom(self, allow_data: bool) -> Term | LabelTerm:
        t = self.peek()
        if t.kind == "NAT":
            if t.text != "0":
                self.err("the only numeric process is 0", t)
            self.take()
            return NIL
        if t.kind == "PUNCT" and t.text == "(":
            self.take()
            inner = self.parse_term(allow_data)
            self.expect_punct(")")
            return inner
        if t.kind == "PUNCT" and t.text in "{<":
            if not allow_data:
                self.err("data term in process position", t)
            return self.parse_label()
        if t.kind == "SYM":
            self.err(f"label constant {t.text} cannot stand alone as a process", t)
        if t.kind != "IDENT" or t.text in KEYWORDS:
            self.err("expected a term", t)
        name = t.text
        spec = self.spec
        if name in spec.variables:
            self.take()
            sort = spec.variables[name]
            if sort == SORT_PROC:
                return Var(name)
            if is_data_sort(sort) and allow_data:
                return LVar(name, sort)
            self.err(f"variable {name} : {sort} cannot appear here", t)
        if name in spec.data_consts:
            self.take()
            if allow_data:
                return DataConst(name, spec.data_consts[name])
            self.err("data term in process position", t)
        if name in self.def_names:
            self.take()
            return DefConst(name)
        if name in spec.proc_ops:
            self.take()
            op = spec.proc_ops[name]
            if not self.at_punct("("):
                self.err(f"{name} expects {op.arity} arguments", t)
            self.take()
            args: list[Term | LabelTerm] = []
            if not self.at_punct(")"):
                args.append(self.parse_term(allow_data=True))
                while self.at_punct(","):
                    self.take()
                    args.append(self.parse_term(allow_data=True))
            self.expect_punct(")")
            if len(args) != op.arity:
                raise ArityMismatch(
                    f"{name} expects {op.arity} arguments, got {len(args)}", t.line, t.col
                )
            return App(name, tuple(args))
        if name in spec.actions or name in spec.predicates:
            self.err(f"label constant {name} cannot stand alone as a process", t)
        raise UnknownSymbol(f"undeclared identifier {name}", t.line, t.col)

    # -- labels -----------------------------------------------------------

    def parse_label(self) -> LabelTerm:
        t = self.peek()
        if t.kind == "PUNCT" and t.text == "(":
            self.take()
            inner = self.parse_label()
            self.expect_punct(")")
            return inner
        if t.kind == "PUNCT" and t.text == "{":
            return self.parse_mset()
        if t.kind == "PUNCT" and t.text == "<":
            return self.parse_triple()
        if t.kind in ("IDENT", "SYM"):
            name = t.text
            spec = self.spec
            if name in spec.actions:
                self.take()
                return ActConst(name)
            if name in spec.predicates:
                self.take()
                return PredConst(name)
            if name in spec.data_consts:
                self.take()
                return DataConst(name, spec.data_consts[name])
            if name in spec.variables:
                sort = spec.variables[name]
                if sort == SORT_PROC:
                    self.err(f"process variable {name} in label position", t)
                self.take()
                return LVar(name, sort)
            if name in spec.label_ops:
                self.take()
                return self.parse_lapp(spec.label_ops[name], t)
            raise UnknownSymbol(f"undeclared label {name}", t.line, t.col)
        self.err("expected a label", t)
        raise AssertionError  # unreachable

    def parse_lapp(self, op: LabelOp, tok: Token) -> LabelTerm:
        self.expect_punct("(")
        args = []
        if not self.at_punct(")"):
            args.append(self.parse_label())
            while self.at_punct(","):
                self.take()
                args.append(self.parse_label())
        self.expect_punct(")")
        if len(args) != len(op.arg_sorts):
            raise ArityMismatch(
                f"{op.name} expects {len(op.arg_sorts)} arguments, got {len(args)}",
                tok.line, tok.col,
            )
        for a, want in zip(args, op.arg_sorts):
            if not sort_accepts(want, label_sort(a)):
                self.err(f"{op.name} argument {render_label(a)} is not of sort {want}", tok)
        return LApp(op.name, tuple(args), op.result_sort)

    def parse_mset(self) -> MSet:
        open_tok = self.peek()
        self.expect_punct("{")
        elems: list[LabelTerm] = []
        if not self.at_punct("}"):
            elems.append(self.parse_label())
            while self.at_punct(","):
                self.take()
                elems.append(self.parse_label())
        self.expect_punct("}")
        sorts = {label_sort(e) for e in elems}
        for s in sorts:
            if not is_data_sort(s):
                self.err("multiset elements must be data terms", open_tok)
        if len(sorts) > 1:
            self.err("multiset elements must share one sort", open_tok)
        if sorts:
            sort = sorts.pop()
        elif len(self.spec.data_sorts) == 1:
            sort = next(iter(self.spec.data_sorts))
        else:
            self.err("cannot infer the sort of an empty multiset", open_tok)
        return MSet(tuple(elems), sort)

    def parse_triple(self) -> Triple:
        self.expect_punct("<")
        pre = self.parse_data_slot()
        self.expect_punct(",")
        self.expect_punct("-")
        self.expect_punct(",")
        post = self.parse_data_slot()
        self.expect_punct(">")
        return Triple(pre, post)

    def parse_data_slot(self) -> LabelTerm:
        tok = self.peek()
        slot = self.parse_label()
        if not is_data_sort(label_sort(slot)):
            self.err("store slots hold data terms", tok)
        return slot

    def parse_transition_label(self) -> LabelTerm:
        tok = self.peek()
        l = self.parse_label()
        if is_data_sort(label_sort(l)):
            self.err("data term cannot be a transition label", tok)
        return l

    # -- rules ------------------------------------------------------------

    def at_rule_arrow(self) -> bool:
        return self.at_punct("=") and self.at_punct("=", 1) and self.at_punct(">", 2)

    def parse_premise(self) -> Transition | NegPremise:
        src = self.parse_term(False)
        if isinstance(src, LabelTerm):
            self.err("premise source must be a process term")
        self.expect_punct("-")
        self.expect_punct("(")
        lbl = self.parse_transition_label()
        self.expect_punct(")")
        refusal = self.peek()
        if refusal.kind == "SYM" and refusal.text == "/":
            self.take()
            self.expect_punct(">")
            return NegPremise(src, lbl)
        self.expect_punct("-")
        self.expect_punct(">")
        tgt = self.parse_term(False)
        if isinstance(tgt, LabelTerm):
            self.err("transition target must be a process term")
        return Transition(src, lbl, tgt)

    def parse_rule(self) -> Rule:
        positives: list[Transition] = []
        negatives: list[NegPremise] = []
        if not self.at_rule_arrow():
            while True:
                prem = self.parse_premise()
                if isinstance(prem, Transition):
                    positives.append(prem)
                else:
                    negatives.append(prem)
                if self.at_punct(","):
                    self.take()
                    continue
                break
        if not self.at_rule_arrow():
            self.err("expected ==>")
        self.take()
        self.take()
        self.take()
        concl = self.parse_premise()
        if isinstance(concl, NegPremise):
            self.err("a conclusion cannot be negative")
        self.expect_eof()
        return Rule(tuple(positives), tuple(negatives), concl)


# ---------------------------------------------------------------------------
# entry points


def _span_parser(toks, start, end, spec, def_names, infix) -> _TermParser:
    eof = Token("EOF", "", toks[end].line, toks[end].col)
    return _TermParser(toks[start:end] + [eof], spec, def_names, infix)


def parse_spec(text: str) -> Spec:
    """Parse a full specification."""
    toks = tokenize(text)
    d = _pass_one(toks)
    spec = _finalize_signature(d)
    infix = _infix_ops(spec)
    rules = []
    for start, end in d.rule_spans:
        rules.append(_span_parser(toks, start, end, spec, d.def_names, infix).parse_rule())
    spec.rules = tuple(rules)
    defs: dict[str, Term] = {}
    for name, start, end in d.def_spans:
        p = _span_parser(toks, start, end, spec, d.def_names, infix)
        if not (p.peek().kind == "PUNCT" and p.peek().text == "="):
            p.err("expected = after definition name")
        p.take()
        body = p.parse_term(False)
        if isinstance(body, LabelTerm):
            p.err("definition body must be a process term")
        p.expect_eof()
        procs, labels = free_vars(body)
        if procs or labels:
            loose = ", ".join(sorted(procs | labels))
            raise UnboundVariable(f"definition {name} is not closed: {loose}")
        defs[name] = body
    spec.defs = defs
    return spec


def parse_term(text: str, spec: Spec, closed: bool = True) -> Term:
    """Parse a process term in the scope of a specification."""
    toks = tokenize(text)
    p = _TermParser(toks, spec, set(spec.defs), _infix_ops(spec))
    t = p.parse_term(False)
    p.expect_eof()
    if isinstance(t, LabelTerm):
        raise ParseError("expected a process term", toks[0].line, toks[0].col)
    if closed:
        procs, labels = free_vars(t)
        if procs or labels:
            loose = ", ".join(sorted(procs | labels))
            raise UnboundVariable(f"term is not closed: {loose}")
    return t


def parse_label(text: str, spec: Spec) -> LabelTerm:
    """Parse a label term in the scope of a specification."""
    toks = tokenize(text)
    p = _TermParser(toks, spec, set(spec.defs), _infix_ops(spec))
    l = p.parse_label()
    p.expect_eof()
    return l
