"""Value classes: equality, hashing and repr as a frozen dataclass's, with
`__init__` the only generated method."""

import dataclasses

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
    Substitution,
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
    (lambda: Substitution({"x": NIL}, {"k": A}),
     "Substitution(terms={'x': Nil()}, labels={'k': ActConst(name='a')})", None),
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
    """Every dataclass the package defines."""
    out = set()
    for mod in (terms, simulator, axioms, tss, commform, bisim, validator):
        for obj in vars(mod).values():
            if isinstance(obj, type) and obj.__module__ == mod.__name__ \
                    and dataclasses.is_dataclass(obj):
                out.add(obj)
    return out


def test_every_value_class_is_covered():
    assert len(VALUES) == 31
    assert {type(make()) for make, _, _ in VALUES} == _classes()


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


def test_equality_needs_the_same_class_and_fields():
    assert ActConst("a") != PredConst("a")
    assert DataConst("d", "A") != DataConst("d", "B")
    assert MSet((), "A") != MSet((), "B")
    assert Prefix(A, NIL) != Prefix(A, Var("x"))
    assert Substitution() == Substitution() != Substitution({"x": NIL})


def test_unhashable_values_stay_unhashable():
    with pytest.raises(TypeError):
        hash(Spec("S"))
    with pytest.raises(TypeError):
        hash(Substitution())
    assert Spec.__hash__ is None and Substitution.__hash__ is None


def test_replace_builds_a_new_value():
    rule = Rule((TRANS,), (), TRANS)
    assert dataclasses.replace(rule, negatives=(NEG,)) == Rule((TRANS,), (NEG,), TRANS)
    op = ProcOp("_||_", 2)
    assert dataclasses.replace(op, comm=True) == ProcOp("_||_", 2, True)
    assert op.comm is False
    spec = Spec("S", proc_ops={"_||_": op})
    copy = dataclasses.replace(spec, name="T")
    assert (copy.name, copy.proc_ops) == ("T", {"_||_": op})
    assert [f.name for f in dataclasses.fields(ProcOp)] == ["name", "arity", "comm"]


def test_caches_are_not_fields():
    """A node's cached string and canonical form take no part in equality,
    hashing or repr."""
    p, q = Prefix(A, NIL), Prefix(A, NIL)
    terms.render_term(p)
    terms.canon_term(p)
    assert p._s is not None and q._s is None
    assert p == q and hash(p) == hash(q) and repr(p) == repr(q)
