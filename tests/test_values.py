"""Value classes: equality, hashing, repr and `replace` as a frozen
dataclass's, with `__init__` the only generated method."""

import dataclasses
import functools
import inspect

import pytest

from sosforge import axioms, bisim, commform, simulator, terms, tss, validator
from sosforge.axioms import AxiomEntry, NormalizeBudget
from sosforge.bisim import BisimWitness, Lts
from sosforge.commform import CommReport, MirrorWitness
from sosforge.simulator import Step
from sosforge.terms import (
    NIL,
    ActConst,
    App,
    Choice,
    DataConst,
    DefConst,
    EquationalTheory,
    LApp,
    LVar,
    MSet,
    Nil,
    OpAttrs,
    PredConst,
    Prefix,
    Triple,
    Var,
)
from sosforge.tss import DataSortDecl, LabelOp, NegPremise, ProcOp, Rule, Spec, Transition
from sosforge.validator import Violation

A = ActConst("a")
D = DataConst("d", "Data")
TRANS = Transition(App("f", (Var("x"),)), A, Var("x2"))
NEG = NegPremise(Var("x"), ActConst("b"))

# One instance of each value class, made afresh on each call; its repr, and
# the tuple whose hash is its hash (None when its class is unhashable), as a frozen
# dataclass gives them.  Hashes are checked against the tuple, not against
# numbers, because str hashes change from one interpreter to the next.
VALUES = [
    (lambda: ActConst("a"), "ActConst(name='a')", ("a",)),
    (lambda: PredConst("|"), "PredConst(name='|')", ("|",)),
    (lambda: DataConst("d", "Data"), "DataConst(name='d', sort='Data')", ("d", "Data")),
    (lambda: LVar("k", "Label"), "LVar(name='k', sort='Label')", ("k", "Label")),
    (lambda: LApp("mix", (A, LVar("k", "Label"))),
     "LApp(op='mix', args=(ActConst(name='a'), LVar(name='k', sort='Label')), sort='Label')",
     ("mix", (A, LVar("k", "Label")), "Label")),
    (lambda: MSet((D,), "Data"),
     "MSet(elements=(DataConst(name='d', sort='Data'),), sort='Data')", ((D,), "Data")),
    (lambda: Triple(MSet((), "Data"), D),
     "Triple(pre=MSet(elements=(), sort='Data'), post=DataConst(name='d', sort='Data'))",
     (MSet((), "Data"), D)),
    (lambda: Var("x"), "Var(name='x')", ("x",)),
    (lambda: Nil(), "Nil()", ()),
    (lambda: Prefix(A, NIL), "Prefix(label=ActConst(name='a'), body=Nil())", (A, NIL)),
    (lambda: Choice(Var("x"), NIL), "Choice(left=Var(name='x'), right=Nil())", (Var("x"), NIL)),
    (lambda: DefConst("P"), "DefConst(name='P')", ("P",)),
    (lambda: App("_||_", (NIL, D)),
     "App(op='_||_', args=(Nil(), DataConst(name='d', sort='Data')))", ("_||_", (NIL, D))),
    (lambda: OpAttrs(comm=True, identity=A),
     "OpAttrs(comm=True, assoc=False, identity=ActConst(name='a'))", (True, False, A)),
    (lambda: Step(A, NIL), "Step(label=ActConst(name='a'), target=Nil())", (A, NIL)),
    (lambda: NormalizeBudget(7), "NormalizeBudget(max_rewrites=7)", (7,)),
    (lambda: AxiomEntry(1, "f(x1)", "a . f(x2)", ("x1 -(a)-> x2",)),
     "AxiomEntry(rule=1, head='f(x1)', summand='a . f(x2)', conditions=('x1 -(a)-> x2',))",
     (1, "f(x1)", "a . f(x2)", ("x1 -(a)-> x2",))),
    (lambda: Transition(App("f", (Var("x"),)), A, Var("x2")),
     "Transition(source=App(op='f', args=(Var(name='x'),)), label=ActConst(name='a'), "
     "target=Var(name='x2'))",
     (App("f", (Var("x"),)), A, Var("x2"))),
    (lambda: NegPremise(Var("x"), ActConst("b")),
     "NegPremise(source=Var(name='x'), label=ActConst(name='b'))", (Var("x"), ActConst("b"))),
    (lambda: Rule((TRANS,), (NEG,), TRANS),
     "Rule(positives=(Transition(source=App(op='f', args=(Var(name='x'),)), "
     "label=ActConst(name='a'), target=Var(name='x2')),), negatives=(NegPremise("
     "source=Var(name='x'), label=ActConst(name='b')),), conclusion=Transition("
     "source=App(op='f', args=(Var(name='x'),)), label=ActConst(name='a'), "
     "target=Var(name='x2')))",
     ((TRANS,), (NEG,), TRANS)),
    (lambda: ProcOp("_||_", 2), "ProcOp(name='_||_', arity=2, comm=False)", ("_||_", 2, False)),
    (lambda: LabelOp("mix", ("Label", "Label"), "Label"),
     "LabelOp(name='mix', arg_sorts=('Label', 'Label'), result_sort='Label', "
     "attrs=OpAttrs(comm=False, assoc=False, identity=None))",
     ("mix", ("Label", "Label"), "Label", OpAttrs())),
    (lambda: DataSortDecl("Data", "empty"), "DataSortDecl(name='Data', identity='empty')",
     ("Data", "empty")),
    (lambda: MirrorWitness("_||_", 1, 2, (("x", "y"),)),
     "MirrorWitness(op='_||_', rule_a=1, rule_b=2, mapping=(('x', 'y'),))",
     ("_||_", 1, 2, (("x", "y"),))),
    (lambda: Violation("UnguardedDef", "P", "P is unguarded", "P"),
     "Violation(kind='UnguardedDef', rule='P', message='P is unguarded', span='P')",
     ("UnguardedDef", "P", "P is unguarded", "P")),
    # frozen, but its dict fields make hashing raise
    (lambda: EquationalTheory({"mix": OpAttrs(comm=True)}, {"Data": "empty"}),
     "EquationalTheory(label_ops={'mix': OpAttrs(comm=True, assoc=False, identity=None)}, "
     "data_identity={'Data': 'empty'})",
     ({"mix": OpAttrs(comm=True)}, {"Data": "empty"})),
    # not frozen: unhashable
    (lambda: Spec("S", actions=("a",)),
     "Spec(name='S', actions=('a',), predicates=(), data_sorts={}, data_consts={}, "
     "label_ops={}, proc_ops={}, variables={}, rules=(), defs={})",
     None),
    (lambda: Lts([NIL], [[]], [0]),
     "Lts(states=[Nil()], transitions=[[]], roots=[0], closed=True)", None),
    (lambda: BisimWitness([(NIL, NIL)]), "BisimWitness(pairs=[(Nil(), Nil())])", None),
    (lambda: CommReport({}, ["_+_"], {"f": [1]}),
     "CommReport(proven={}, assumed=['_+_'], failed={'f': [1]})", None),
]


def _classes():
    """Every value class the package defines, and any stray dataclass."""
    out = set()
    for mod in (terms, simulator, axioms, tss, commform, bisim, validator):
        for obj in vars(mod).values():
            if isinstance(obj, type) and obj.__module__ == mod.__name__ \
                    and ("_value_names" in vars(obj) or dataclasses.is_dataclass(obj)):
                out.add(obj)
    return out


@functools.cache
def twin_class(cls):
    """A frozen dataclass of the same name and fields."""
    return dataclasses.make_dataclass(cls.__qualname__, cls._value_names, frozen=True)


def frozen_twin(value):
    """The value as an instance of its class's `twin_class`."""
    names = type(value)._value_names
    return twin_class(type(value))(*[getattr(value, name) for name in names])


# Each value class's constructor parameters, in order, as the dataclass
# version of the package declared them: (name,) when required, (name,
# default) otherwise, and (name, "<factory>", type) for a default made
# afresh for each instance.  `__match_args__` names the same parameters.
SIGNATURES = {
    AxiomEntry: (("rule",), ("head",), ("summand",), ("conditions",)),
    NormalizeBudget: (("max_rewrites", 10000),),
    BisimWitness: (("pairs",),),
    Lts: (("states", "<factory>", list), ("transitions", "<factory>", list),
          ("roots", "<factory>", list), ("closed", True)),
    CommReport: (("proven",), ("assumed",), ("failed",)),
    MirrorWitness: (("op",), ("rule_a",), ("rule_b",), ("mapping",)),
    Step: (("label",), ("target",)),
    ActConst: (("name",),),
    App: (("op",), ("args",)),
    Choice: (("left",), ("right",)),
    DataConst: (("name",), ("sort",)),
    DefConst: (("name",),),
    EquationalTheory: (("label_ops", "<factory>", dict), ("data_identity", "<factory>", dict)),
    LApp: (("op",), ("args",), ("sort", "Label")),
    LVar: (("name",), ("sort",)),
    MSet: (("elements",), ("sort",)),
    Nil: (),
    OpAttrs: (("comm", False), ("assoc", False), ("identity", None)),
    PredConst: (("name",),),
    Prefix: (("label",), ("body",)),
    Triple: (("pre",), ("post",)),
    Var: (("name",),),
    DataSortDecl: (("name",), ("identity", None)),
    LabelOp: (("name",), ("arg_sorts",), ("result_sort",), ("attrs", OpAttrs())),
    NegPremise: (("source",), ("label",)),
    ProcOp: (("name",), ("arity",), ("comm", False)),
    Rule: (("positives",), ("negatives",), ("conclusion",)),
    Spec: (("name",), ("actions", ()), ("predicates", ()), ("data_sorts", "<factory>", dict),
           ("data_consts", "<factory>", dict), ("label_ops", "<factory>", dict),
           ("proc_ops", "<factory>", dict), ("variables", "<factory>", dict), ("rules", ()),
           ("defs", "<factory>", dict)),
    Transition: (("source",), ("label",), ("target",)),
    Violation: (("kind",), ("rule",), ("message",), ("span",)),
}


def test_every_value_class_is_covered():
    assert len(VALUES) == 30
    assert {type(make()) for make, _, _ in VALUES} == _classes() == set(SIGNATURES)


@pytest.mark.parametrize("cls", SIGNATURES, ids=lambda c: c.__name__)
def test_constructors_keep_their_parameters(cls):
    params = list(inspect.signature(cls).parameters.values())
    want = SIGNATURES[cls]
    assert [p.name for p in params] == [w[0] for w in want]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
    assert cls.__match_args__ == cls._value_names == tuple(w[0] for w in want)
    required = [w[0] for w in want if len(w) == 1]
    made = [cls(*[None] * len(required)) for _ in range(2)]
    for p, w in zip(params, want):
        if len(w) == 1:
            assert p.default is p.empty, p
        elif len(w) == 2:
            assert p.default == w[1] and type(p.default) is type(w[1]), p
            assert getattr(made[0], p.name) is p.default
        else:
            assert repr(p.default) == w[1], p
            first, second = (getattr(x, p.name) for x in made)
            assert type(first) is w[2] and first == w[2]() and first is not second, p


def test_value_classes_share_their_methods():
    """One `__eq__`, `__repr__` and `__hash__` for all: a class made by a
    stray `@dataclass(frozen=True)` gets its own and fails here."""
    for make, _, key in VALUES:
        cls = type(make())
        assert cls.__eq__ is terms._value_eq, cls
        assert cls.__repr__ is terms._value_repr, cls
        assert cls.__hash__ is (None if key is None else terms._value_hash), cls
        generated = {"__init__", "__setattr__", "__delattr__"} & set(vars(cls))
        assert generated == {"__init__"}, cls
        assert not dataclasses.is_dataclass(cls), cls


@pytest.mark.parametrize("make, text, key", VALUES, ids=[t.split("(")[0] for _, t, _ in VALUES])
def test_value_semantics_match_frozen_dataclasses(make, text, key):
    x, y = make(), make()
    assert repr(x) == text
    assert x == y and not x != y and x is not y
    assert x != object() and x.__eq__(object()) is NotImplemented
    if key is None:
        with pytest.raises(TypeError):
            hash(x)
        return
    try:
        want = hash(key)
    except TypeError:
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == hash(y) == want


@pytest.mark.parametrize("make, text, key", VALUES, ids=[t.split("(")[0] for _, t, _ in VALUES])
def test_value_semantics_match_a_real_frozen_dataclass(make, text, key):
    """Repr, equality, hashing and `replace`, side by side with a frozen
    dataclass of the same name and fields made by `dataclasses`."""
    x, y = make(), make()
    tx, ty = frozen_twin(x), frozen_twin(y)
    assert repr(x) == repr(tx) == text
    assert (x == y) == (tx == ty) is True
    try:
        want = hash(tx)
    except TypeError:
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == want
    copy = terms.replace(x)
    assert type(copy) is type(x) and copy == x and copy is not x
    for name in type(x)._value_names:
        changed = terms.replace(x, **{name: "changed"})
        assert repr(changed) == repr(dataclasses.replace(tx, **{name: "changed"}))
        assert (changed == x) == (dataclasses.replace(tx, **{name: "changed"}) == tx) is False
        assert repr(x) == text


def test_equality_needs_the_same_class_and_fields():
    assert ActConst("a") != PredConst("a")
    assert DataConst("d", "A") != DataConst("d", "B")
    assert MSet((), "A") != MSet((), "B")
    assert Prefix(A, NIL) != Prefix(A, Var("x"))


def test_unhashable_values_stay_unhashable():
    with pytest.raises(TypeError):
        hash(Spec("S"))
    assert Spec.__hash__ is None


def test_replace_builds_a_new_value():
    rule = Rule((TRANS,), (), TRANS)
    assert terms.replace(rule, negatives=(NEG,)) == Rule((TRANS,), (NEG,), TRANS)
    op = ProcOp("_||_", 2)
    assert terms.replace(op, comm=True) == ProcOp("_||_", 2, True)
    assert op.comm is False
    spec = Spec("S", proc_ops={"_||_": op})
    copy = terms.replace(spec, name="T")
    assert (copy.name, copy.proc_ops) == ("T", {"_||_": op})
    assert list(ProcOp._value_names) == ["name", "arity", "comm"]
    with pytest.raises(TypeError):
        terms.replace(op, sort="Proc")


def test_replace_keeps_no_derived_state():
    """A copy computes its own caches: a changed `Spec` its own theory, a
    changed node its own rendering."""
    spec = Spec("S", data_sorts={"D": DataSortDecl("D", "e")})
    assert spec.theory.data_identity == {"D": "e"}
    copy = terms.replace(spec, data_sorts={"D": DataSortDecl("D")})
    assert copy.theory.data_identity == {"D": None} and copy.theory is not spec.theory
    p = Prefix(A, NIL)
    terms.render_term(p)
    q = terms.replace(p, body=Var("x"))
    assert q._s is None and terms.render_term(q) == "a . x"


def test_fields_match_by_position():
    match Prefix(A, Choice(Var("x"), NIL)):
        case Prefix(ActConst(name), Choice(left, right)):
            assert (name, left, right) == ("a", Var("x"), NIL)
        case _:
            pytest.fail("no case matched")


def test_caches_are_not_fields():
    """A node's cached string and canonical form take no part in equality,
    hashing or repr."""
    p, q = Prefix(A, NIL), Prefix(A, NIL)
    terms.render_term(p)
    terms.canon_term(p)
    assert p._s is not None and q._s is None
    assert p == q and hash(p) == hash(q) and repr(p) == repr(q)


def test_plan_records_are_plain_tuples():
    """Plan and search records are named tuples with no instance dict."""
    records = [tss.RuleVars((), (), (), (set(), set())),
               simulator.LabelPlan(simulator.GROUND, A), simulator.TargetPlan(simulator.FIXED, NIL),
               commform._Mirrored(*[()] * len(commform._Mirrored._fields))]
    for r in records:
        assert isinstance(r, tuple) and not hasattr(r, "__dict__"), type(r)
        assert repr(r).startswith(type(r).__name__ + "(")
    assert simulator.LabelPlan(simulator.GROUND, A) == (simulator.GROUND, A, -1, "", (), (), ())
    assert simulator.TargetPlan(simulator.FIXED, NIL)._replace(slot=2).slot == 2
