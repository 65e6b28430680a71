"""Process and label terms: construction, rendering, sorts, substitution, canonical forms.

Process terms live over deadlock `0`, prefixing `l . t`, binary choice
`t + t`, recursion constants, and user operators.  Label terms cover action
and predicate constants, data constants, variables, label-operator
applications, data multisets, and store-transition triples.  Every command
loads this module; the label matcher, which few commands run, is the
module `matching`.

Nodes, like the specs, rules and reports the package builds, are value
classes (`valueclass`): immutable by convention, compared and hashed by
their fields, and copied with changes by `replace`.  `valueclass` writes
each class's `__init__` itself, so loading the package imports no
`dataclasses` (nor the `inspect` and `ast` that it pulls in).

Canonical forms are hash-consed per `EquationalTheory`, and so per `Spec`:
the theory's table holds one node per distinct canonical term, keyed by
the node's class, its plain fields (a multiset's sort among them) and its
children's identities.  So two terms have equal canonical forms
exactly when `canon_term` returns the same object for both, and the engine
keys states, step caches and memo tables by `id` of that node; the table
keeps each node alive for as long as the theory lives.  The default theory
`EMPTY_THEORY` holds its nodes weakly, so library calls that use it keep
no node nobody else holds.  Rendering is for output and for the canonical
order of choice summands, multiset elements and commutative arguments.

A choice is a binary node that every walk reads as its list of summands
(`choice_atoms`, a loop down the right spine), so its width costs no
stack; `canon_choice` is the one builder of a canonical choice.

A node caches its rendered string on itself, and its canonical form
together with the theory it was computed under (one node, such as a rule
pattern, can be canonicalized under several theories; the last one is
kept).  The caches are plain instance attributes, not fields, and take no
part in equality, hashing or repr.
"""

from __future__ import annotations

from operator import attrgetter
from reprlib import recursive_repr
from weakref import WeakValueDictionary

from .errors import NonBccspTerm, OpenTerm, SortError

SORT_PROC = "Proc"
SORT_ACTION = "Action"
SORT_PREDICATE = "Predicate"
SORT_LABEL = "Label"


# ---------------------------------------------------------------------------
# value classes


def valueclass(cls=None, /, *, hashable=True):
    """Give a class an `__init__` over its fields, and value semantics.

    The fields are the names the class body annotates, in order.
    `__init__` takes them in that order, each defaulting to its class
    attribute if it has one; a `field(default_factory=f)` default calls `f`
    for each instance not given the field.  `__init__` assigns the fields,
    then calls `__post_init__` if the class has one.  `__match_args__` and
    `_value_names` name the fields, and `replace` copies a value with some
    of them changed.

    Every value class shares one `__eq__`, one `__repr__` and, unless
    `hashable` is false, one `__hash__`; they behave and print exactly as a
    frozen dataclass's generated methods do, over all fields (no field
    opts out of comparison, hashing or repr).  Instances are immutable by
    convention: nothing assigns a field after construction, so a node may
    cache what it derives as plain attributes.  Value classes are not
    dataclasses: `dataclasses.fields`, `replace` and `is_dataclass` do not
    apply to them.
    """
    if cls is None:
        return lambda c: valueclass(c, hashable=hashable)
    names = tuple(vars(cls).get("__annotations__", ()))
    env, body, defaults = {}, [], []
    for name in names:
        value = name
        if name in vars(cls):
            default = vars(cls)[name]
            if isinstance(default, field):
                env[f"_{name}"], env[f"_new_{name}"] = default, default.default_factory
                value = f"_new_{name}() if {name} is _{name} else {name}"
                delattr(cls, name)
            defaults.append(default)
        elif defaults:
            raise TypeError(f"non-default argument {name!r} follows default argument")
        body.append(f"self.{name} = {value}")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    exec(f"def __init__(self, {', '.join(names)}):\n " + "\n ".join(body or ["pass"]), env)
    init = env["__init__"]
    init.__defaults__ = tuple(defaults) or None
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    cls.__init__ = init
    cls.__match_args__ = names
    if len(names) > 1:
        key = attrgetter(*names)
    elif names:
        get = attrgetter(*names)
        key = lambda obj: (get(obj),)
    else:
        key = lambda obj: ()
    cls._value_key = staticmethod(key)  # the field tuple a frozen dataclass compares and hashes
    cls._value_names = names
    cls.__eq__ = _value_eq
    cls.__repr__ = _value_repr
    cls.__hash__ = _value_hash if hashable else None
    return cls


class field:
    """A field default that `valueclass` makes afresh for each instance:
    `default_factory()`, called with no arguments."""

    def __init__(self, *, default_factory):
        self.default_factory = default_factory

    def __repr__(self):
        return "<factory>"


def replace(value, /, **changes):
    """A copy of a value-class instance with the named fields changed."""
    for name in value._value_names:
        if name not in changes:
            changes[name] = getattr(value, name)
    return value.__class__(**changes)


def _value_eq(self, other):
    if other.__class__ is self.__class__:
        key = self._value_key
        return key(self) == key(other)
    return NotImplemented


def _value_hash(self):
    return hash(self._value_key(self))


@recursive_repr()
def _value_repr(self):
    fs = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._value_names)
    return f"{self.__class__.__qualname__}({fs})"


# ---------------------------------------------------------------------------
# nodes


class LabelTerm:
    """Base class for everything that can sit in a label position.

    Every label node has a `sort`, which `label_sort` reads: a field of
    data constants, variables, multisets and label-operator applications,
    and a class attribute of action and predicate constants and store
    triples, which is no field and takes no part in equality or `repr`.
    """

    # node caches: rendered string, theory of the cached canonical form, and
    # that form (None when the node is canonical itself under that theory)
    _s = None
    _cth = None
    _c = None

    def __str__(self) -> str:
        return render_label(self)


@valueclass
class ActConst(LabelTerm):
    """A declared action constant."""

    name: str
    sort = SORT_ACTION


@valueclass
class PredConst(LabelTerm):
    """A declared predicate constant, e.g. the termination marker `|`."""

    name: str
    sort = SORT_PREDICATE


@valueclass
class DataConst(LabelTerm):
    """A declared data constant together with its data sort."""

    name: str
    sort: str


@valueclass
class LVar(LabelTerm):
    """A label-side variable; its sort bounds what it may be bound to."""

    name: str
    sort: str


@valueclass
class LApp(LabelTerm):
    """A label-operator application, e.g. mix(k, l)."""

    op: str
    args: tuple[LabelTerm, ...]
    sort: str = SORT_LABEL


@valueclass
class MSet(LabelTerm):
    """A data multiset; union is associative and commutative with an identity."""

    elements: tuple[LabelTerm, ...]
    sort: str

    @property
    def args(self) -> tuple[LabelTerm, ...]:
        """The arguments of the union, as an `LApp`'s: the elements."""
        return self.elements


@valueclass
class Triple(LabelTerm):
    """A store transition < pre,-,post > over data multisets."""

    pre: LabelTerm
    post: LabelTerm
    sort = SORT_LABEL


class Term:
    """Base class for process terms."""

    # node caches, as on LabelTerm
    _s = None
    _cth = None
    _c = None

    def __str__(self) -> str:
        return render_term(self)


@valueclass
class Var(Term):
    """A process variable."""

    name: str


@valueclass
class Nil(Term):
    """The deadlock process `0`."""


NIL = Nil()


@valueclass
class Prefix(Term):
    """`label . body`: perform the label, continue as the body."""

    label: LabelTerm
    body: Term


@valueclass
class Choice(Term):
    """`left + right`: nondeterministic choice."""

    left: Term
    right: Term


@valueclass
class DefConst(Term):
    """A recursion constant bound by a defining equation."""

    name: str


@valueclass
class App(Term):
    """A user-operator application; arguments may be process or data terms."""

    op: str
    args: tuple[Term | LabelTerm, ...]


def infix_symbol(op: str) -> str | None:
    """Return the bare symbol of an `_sym_` operator name, else None."""
    if len(op) > 2 and op.startswith("_") and op.endswith("_") and "_" not in op[1:-1]:
        return op[1:-1]
    return None


# ---------------------------------------------------------------------------
# equational theory


@valueclass
class OpAttrs:
    """Declared equational attributes of a label operator."""

    comm: bool = False
    assoc: bool = False
    identity: LabelTerm | None = None


@valueclass
class EquationalTheory:
    """Label-side equations in force: operator attributes and multiset identities."""

    label_ops: dict[str, OpAttrs] = field(default_factory=dict)
    data_identity: dict[str, str | None] = field(default_factory=dict)

    def __post_init__(self):
        # the canonical nodes, by intern key (see `_store`); not a field
        self._nodes: dict[tuple, Term | LabelTerm] = {}

    def op_attrs(self, op: str) -> OpAttrs:
        return self.label_ops.get(op, OpAttrs())


EMPTY_THEORY = EquationalTheory()
# Library calls share the default theory for the life of the process, so its
# table holds nodes weakly: a node leaves it when nothing else holds it.  A
# node holds its children, so the identities in a live key are never reused.
EMPTY_THEORY._nodes = WeakValueDictionary()


# ---------------------------------------------------------------------------
# rendering (canonical serialization)

_LVL_INFIX = 0
_LVL_CHOICE = 1
_LVL_PREFIX = 2


def render_label(l: LabelTerm) -> str:
    """Serialize a label term; canonical inputs give the canonical string."""
    s = l._s
    if s is not None:
        return s
    if isinstance(l, (ActConst, PredConst, DataConst, LVar)):
        return l.name
    if isinstance(l, LApp):
        s = f"{l.op}({','.join(render_label(a) for a in l.args)})"
    elif isinstance(l, MSet):
        s = "{" + ", ".join(render_label(e) for e in l.elements) + "}"
    elif isinstance(l, Triple):
        s = f"< {render_label(l.pre)},-,{render_label(l.post)} >"
    else:
        raise TypeError(f"not a label term: {l!r}")
    l._s = s
    return s


def _render_any(t: Term | LabelTerm, min_level: int) -> str:
    if isinstance(t, LabelTerm):
        return render_label(t)
    return _render(t, min_level)


def _render(t: Term, min_level: int) -> str:
    """The string of t, parenthesized when its level is below min_level.

    Only the bare string is cached; the level follows from the node's class.
    """
    s = t._s
    if s is None:
        if isinstance(t, Nil):
            return "0"
        if isinstance(t, (Var, DefConst)):
            return t.name
        if isinstance(t, Prefix):
            s = f"{render_label(t.label)} . {_render(t.body, _LVL_PREFIX)}"
        elif isinstance(t, Choice):  # down the right spine to a suffix with its string
            spine = [t]
            while type(spine[-1].right) is Choice and spine[-1].right._s is None:
                spine.append(spine[-1].right)
            s = _render(spine[-1].right, _LVL_CHOICE)
            for c in reversed(spine):
                s = c._s = f"{_render(c.left, _LVL_PREFIX)} + {s}"
        elif isinstance(t, App):
            sym = infix_symbol(t.op)
            if sym is not None and len(t.args) == 2:
                s = f"{_render_any(t.args[0], _LVL_INFIX)} {sym} {_render_any(t.args[1], _LVL_CHOICE)}"
            else:
                s = f"{t.op}({','.join(_render_any(a, _LVL_INFIX) for a in t.args)})"
        else:
            raise TypeError(f"not a process term: {t!r}")
        t._s = s
    return f"({s})" if min_level > _LVL_INFIX and _parenthesized(t, min_level) else s


def _parenthesized(t: Term | LabelTerm, min_level: int) -> bool:
    """Whether t prints in parentheses where min_level is asked for: only
    choice and infix nodes sit below a level a caller asks for."""
    if isinstance(t, Choice):
        return min_level > _LVL_CHOICE
    return min_level > _LVL_INFIX and isinstance(t, App) and len(t.args) == 2 \
        and infix_symbol(t.op) is not None


def render_term(t: Term) -> str:
    """Serialize a process term; canonical inputs give the canonical string."""
    return _render(t, _LVL_INFIX)


def app_width(op: str, args: tuple) -> int:
    """len(render_term(App(op, args))), from the strings of the arguments alone."""
    sym = infix_symbol(op)
    if sym is not None and len(args) == 2:
        left, right = args
        return (len(_render_any(left, _LVL_INFIX)) + len(sym) + 2
                + len(_render_any(right, _LVL_INFIX)) + 2 * _parenthesized(right, _LVL_CHOICE))
    return len(op) + 1 + sum(len(_render_any(a, _LVL_INFIX)) for a in args) + max(len(args), 1)


# ---------------------------------------------------------------------------
# sorts


def label_sort(l: LabelTerm) -> str:
    """The sort of a label term."""
    try:
        return l.sort
    except AttributeError:
        raise TypeError(f"not a label term: {l!r}") from None


def sort_accepts(var_sort: str, term_sort: str) -> bool:
    """Whether a variable of var_sort may be bound to a term of term_sort."""
    if var_sort == SORT_LABEL:
        return term_sort in (SORT_ACTION, SORT_PREDICATE, SORT_LABEL)
    return var_sort == term_sort


def is_data_sort(sort: str) -> bool:
    return sort not in (SORT_PROC, SORT_ACTION, SORT_PREDICATE, SORT_LABEL)


# ---------------------------------------------------------------------------
# substitution


def substitute_label(l: LabelTerm, sub: dict[str, Term | LabelTerm]) -> LabelTerm:
    """Apply a substitution, a dict from variable names to nodes, to a
    label term; unbound variables stay put."""
    if isinstance(l, LVar):
        image = sub.get(l.name)
        if image is None:
            return l
        if not sort_accepts(l.sort, label_sort(image)):
            raise SortError(
                f"variable {l.name} : {l.sort} bound to {render_label(image)} : {label_sort(image)}"
            )
        return image
    if isinstance(l, LApp):
        return LApp(l.op, tuple(substitute_label(a, sub) for a in l.args), l.sort)
    if isinstance(l, MSet):
        return MSet(tuple(substitute_label(e, sub) for e in l.elements), l.sort)
    if isinstance(l, Triple):
        return Triple(substitute_label(l.pre, sub), substitute_label(l.post, sub))
    return l


def substitute_term(t: Term, sub: dict[str, Term | LabelTerm]) -> Term:
    """Apply a substitution, a dict from variable names to nodes, to a
    process term; unbound variables stay put.  A choice is walked down its
    right spine and rebuilt right-nested, in the shape it was written in."""
    if isinstance(t, Var):
        return sub.get(t.name, t)
    if isinstance(t, Prefix):
        return Prefix(substitute_label(t.label, sub), substitute_term(t.body, sub))
    if isinstance(t, Choice):
        lefts = []
        while type(t) is Choice:
            lefts.append(substitute_term(t.left, sub))
            t = t.right
        out = substitute_term(t, sub)
        for left in reversed(lefts):
            out = Choice(left, out)
        return out
    if isinstance(t, App):
        return App(
            t.op,
            tuple(
                substitute_label(a, sub) if isinstance(a, LabelTerm) else substitute_term(a, sub)
                for a in t.args
            ),
        )
    return t


def free_vars(t: Term | LabelTerm) -> set[str]:
    """Free variable names of a term, process and label variables alike."""
    names: set[str] = set()
    todo = [t]
    while todo:
        x = todo.pop()
        cls = type(x)  # node classes have no subclasses
        if cls is Var or cls is LVar:
            names.add(x.name)
        elif cls is App or cls is LApp or cls is MSet:
            todo.extend(x.args)
        elif cls is Prefix:
            todo.append(x.label)
            todo.append(x.body)
        elif cls is Choice:
            todo.append(x.left)
            todo.append(x.right)
        elif cls is Triple:
            todo.append(x.pre)
            todo.append(x.post)
    return names


# ---------------------------------------------------------------------------
# canonical forms


def _store(th: EquationalTheory, key: tuple, node):
    """Make a new node the canonical node th holds under key.

    A key is the node's class, its plain fields and the `id` of each child,
    and each child is one of th's canonical nodes.  Look a key up first:
    `th._nodes.get(key) or _store(th, key, node)`.
    """
    node._cth = th
    th._nodes[key] = node
    return node


def _ids(head: tuple, children: tuple | list) -> tuple:
    """An intern key: head, then the identities of the children."""
    if len(children) == 2:  # the common case, spelt out: unpacking a map costs more
        return (*head, id(children[0]), id(children[1]))
    return (*head, *map(id, children))


def canon_prefix(label: LabelTerm, body: Term, th: EquationalTheory) -> Prefix:
    """The canonical prefix over a canonical label and a canonical body."""
    key = (Prefix, id(label), id(body))
    return th._nodes.get(key) or _store(th, key, Prefix(label, body))


def canon_app(op: str, args: tuple, th: EquationalTheory) -> App:
    """The canonical application of a user operator to canonical arguments."""
    key = (App, op, id(args[0]), id(args[1])) if len(args) == 2 else _ids((App, op), args)
    return th._nodes.get(key) or _store(th, key, App(op, args))


def _mset(elements: list | tuple, sort: str, th: EquationalTheory) -> MSet:
    """The canonical multiset of canonical elements in canonical order."""
    key = _ids((MSet, sort), elements)
    return th._nodes.get(key) or _store(th, key, MSet(tuple(elements), sort))


def _nil(th: EquationalTheory) -> Nil:
    """th's `0`."""
    return th._nodes.get(_NIL_KEY) or _store(th, _NIL_KEY, Nil())


_NIL_KEY = (Nil,)


def _ordered(nodes: list, render) -> list:
    """Sort canonical nodes into canonical order: by their strings, and
    nodes that print alike but differ (`{}` in two data sorts) by repr.
    Equal nodes end up next to each other."""
    if len(nodes) > 1:
        nodes.sort(key=render)
        prev = None
        for n in nodes:
            if prev is not None and n is not prev and render(n) == render(prev):
                nodes.sort(key=lambda n: (render(n), repr(n)))
                break
            prev = n
    return nodes


def _equations(node: LApp | MSet, th: EquationalTheory) -> tuple[bool, bool, LabelTerm | None]:
    """(comm, assoc, identity) of a flat node's operator: a label operator's
    declared attributes, or a multiset's union, ACU with `{}` of its sort."""
    if type(node) is MSet:
        return True, True, _mset((), node.sort, th)
    attrs = th.op_attrs(node.op)
    ident = attrs.identity
    return attrs.comm, attrs.assoc, None if ident is None else canon_label(ident, th)


def _same_op(a: LApp | MSet, b: LApp | MSet) -> bool:
    """Whether two flat nodes of one class apply one operator: one label
    operator, or the union of one data sort."""
    return a.op == b.op if type(a) is LApp else a.sort == b.sort


def _flat_node(node: LApp | MSet, args: list | tuple, th: EquationalTheory) -> LApp | MSet:
    """th's node of node's operator over canonical arguments in canonical order."""
    if type(node) is MSet:
        return _mset(args, node.sort, th)
    key = _ids((LApp, node.op, node.sort), args)
    return th._nodes.get(key) or _store(th, key, LApp(node.op, tuple(args), node.sort))


def canon_label(l: LabelTerm, th: EquationalTheory = EMPTY_THEORY) -> LabelTerm:
    """Canonical form of a label modulo the declared attribute equations:
    th's one node for it."""
    if l._cth is th:
        c = l._c
        return l if c is None else c
    cls = type(l)  # node classes have no subclasses
    if cls is ActConst or cls is PredConst:
        key = (cls, l.name)
        out = th._nodes.get(key) or _store(th, key, cls(l.name))
    elif cls is DataConst or cls is LVar:
        if cls is DataConst and th.data_identity.get(l.sort) == l.name:
            out = _mset((), l.sort, th)
        else:
            key = (cls, l.name, l.sort)
            out = th._nodes.get(key) or _store(th, key, cls(l.name, l.sort))
    elif cls is LApp or cls is MSet:
        comm, assoc, ident = _equations(l, th)
        args = []
        for a in l.args:
            ca = canon_label(a, th)
            if assoc and type(ca) is cls and _same_op(ca, l):
                args.extend(ca.args)
            elif ca is not ident:
                args.append(ca)
        if cls is LApp and ident is not None and len(args) < 2:
            out = args[0] if args else ident
        else:
            out = _flat_node(l, _ordered(args, render_label) if comm else args, th)
    elif cls is Triple:
        out = _canon_triple(canon_label(l.pre, th), canon_label(l.post, th), th)
    else:
        raise TypeError(f"not a label term: {l!r}")
    l._cth = th
    l._c = None if out is l else out  # l is th's own node, last cached under another theory
    return out


def _slot_form(c: LabelTerm, th: EquationalTheory) -> LabelTerm:
    """A canonical label as a store slot holds it: a lone data constant is
    its singleton multiset."""
    if type(c) is DataConst:
        return _mset((c,), c.sort, th)
    return c


def _canon_triple(pre: LabelTerm, post: LabelTerm, th: EquationalTheory) -> Triple:
    """The canonical store triple over two canonical slot labels."""
    pre, post = _slot_form(pre, th), _slot_form(post, th)
    key = (Triple, id(pre), id(post))
    return th._nodes.get(key) or _store(th, key, Triple(pre, post))


def choice_atoms(t: Term) -> list[Term]:
    """A choice's non-choice parts in syntactic order, read down its right spine."""
    out = []
    while type(t) is Choice:
        out += choice_atoms(t.left) if type(t.left) is Choice else (t.left,)
        t = t.right
    out.append(t)
    return out


def canon_choice(terms: list[Term], th: EquationalTheory) -> Term:
    """th's choice of canonical terms: their summands, `0` dropped, in
    canonical order, each once, right-nested over canonical links."""
    unique = {id(a): a for t in terms for a in choice_atoms(t) if type(a) is not Nil}
    atoms = _ordered(list(unique.values()), render_term)
    out = atoms.pop() if atoms else _nil(th)
    for a in reversed(atoms):
        key = (Choice, id(a), id(out))
        out = th._nodes.get(key) or _store(th, key, Choice(a, out))
    return out


def canon_term(t: Term, th: EquationalTheory = EMPTY_THEORY) -> Term:
    """Canonical form modulo choice ACI with unit 0 and the label equations:
    th's one node for it.

    Works on arbitrary terms, open or closed; user operators are kept in
    place with their arguments canonicalized.
    """
    if t._cth is th:
        c = t._c
        return t if c is None else c
    cls = type(t)
    if cls is Nil:
        return _nil(th)  # not cached on t: the shared NIL must hold no theory alive
    if cls is Var or cls is DefConst:
        key = (cls, t.name)
        out = th._nodes.get(key) or _store(th, key, cls(t.name))
    elif cls is Prefix:
        out = canon_prefix(canon_label(t.label, th), canon_term(t.body, th), th)
    elif cls is App:
        out = canon_app(t.op, tuple(
            canon_label(a, th) if isinstance(a, LabelTerm) else canon_term(a, th)
            for a in t.args
        ), th)
    elif cls is Choice:
        out = canon_choice([canon_term(a, th) for a in choice_atoms(t)], th)
    else:
        raise TypeError(f"not a process term: {t!r}")
    t._cth = th
    t._c = None if out is t else out  # as in canon_label
    return out


def summands(t: Term, th: EquationalTheory = EMPTY_THEORY) -> list[tuple[LabelTerm, Term]]:
    """The (label, continuation) summands of a head normal form: prefixes under choice."""
    for atom in choice_atoms(t):
        if isinstance(atom, Var):
            raise OpenTerm(f"free variable {atom.name}")
        if isinstance(atom, App):
            raise NonBccspTerm(f"operator {atom.op} outside the base fragment")
    out = []
    for atom in choice_atoms(canon_term(t, th)):
        if isinstance(atom, Nil):
            continue
        if isinstance(atom, DefConst):
            raise NonBccspTerm(f"recursion constant {atom.name} is not a head normal form")
        assert isinstance(atom, Prefix)
        out.append((atom.label, atom.body))
    return out
