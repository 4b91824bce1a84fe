"""The contract of cellkit's immutable value classes.

Each class is built through its constructor, and the test pins what a
caller can see: the constructor's parameters, the repr, equality only
between instances of one class, the hash of the field tuple, pickling,
and that no field can be assigned or deleted.
"""

import inspect
import pickle

import pytest

from cellkit.acceptance import CriterionResult
from cellkit.complexes import DEGREE_CAP, ChainComplex, ChainMap, GradedGroup
from cellkit.emcell import EMObject, ring_unit_obstruction
from cellkit.groups import FgAbGroup
from cellkit.matrices import InputError, IntMatrix, SmithNormalForm
from cellkit.symbolic import (Atom, PrimeAtom, PrimeSet, ProdZpHatModZ,
                              Prufer, PruferSum, SetAtom, SymbolicGroup,
                              ZLocal, ZpHat)

_EMPTY = inspect.Parameter.empty
_ONE = IntMatrix(1, 1, (1,))
_TWO = IntMatrix(1, 1, (2,))
_X = ChainComplex.build({0: 1, 1: 1}, {1: _TWO})
_X_REPR = ("ChainComplex(ranks=((0, 1), (1, 1)), boundaries=((1, "
           "IntMatrix(rows=1, cols=1, entries=(2,))),))")
_G = SymbolicGroup.of(FgAbGroup.cyclic(4), Prufer(3))
_G_REPR = ("SymbolicGroup(fg=FgAbGroup(rank=0, invariant_factors=(4,)), "
           "atoms=(Prufer(p=3),))")
_EM = EMObject(((0, _G),))

# (instance, its (parameter, default) list, its repr, an unequal instance
# of the same class).  The fields are the parameters, in order.
VALUES = [
    (IntMatrix(2, 2, (1, 2, 3, 4)),
     [("rows", _EMPTY), ("cols", _EMPTY), ("entries", ())],
     "IntMatrix(rows=2, cols=2, entries=(1, 2, 3, 4))",
     IntMatrix(2, 2, (1, 2, 3, 5))),
    (SmithNormalForm(_TWO), [("matrix", _EMPTY)],
     "SmithNormalForm(matrix=IntMatrix(rows=1, cols=1, entries=(2,)))",
     SmithNormalForm(_ONE)),
    (FgAbGroup(1, (2, 12)),
     [("rank", 0), ("invariant_factors", ())],
     "FgAbGroup(rank=1, invariant_factors=(2, 12))",
     FgAbGroup(1, (2, 24))),
    (GradedGroup(((0, FgAbGroup(1)),)), [("groups", ())],
     "GradedGroup(groups=((0, FgAbGroup(rank=1, invariant_factors=())),))",
     GradedGroup()),
    (_X, [("ranks", ()), ("boundaries", ())], _X_REPR,
     ChainComplex.build({0: 1})),
    (ChainMap.identity(_X),
     [("source", _EMPTY), ("target", _EMPTY), ("components", ())],
     f"ChainMap(source={_X_REPR}, target={_X_REPR}, components=((0, "
     "IntMatrix(rows=1, cols=1, entries=(1,))), (1, IntMatrix(rows=1, "
     "cols=1, entries=(1,)))))",
     ChainMap.zero_map(_X, _X)),
    (PrimeSet(True, frozenset({2})),
     [("cofinite", _EMPTY), ("primes", _EMPTY)],
     "PrimeSet(cofinite=True, primes=frozenset({2}))",
     PrimeSet(False, frozenset({2}))),
    (Atom(), [], "Atom()", None),
    (PrimeAtom(3), [("p", _EMPTY)], "PrimeAtom(p=3)", PrimeAtom(5)),
    (SetAtom(PrimeSet.of([2])), [("primes", _EMPTY)],
     "SetAtom(primes=PrimeSet(cofinite=False, primes=frozenset({2})))",
     SetAtom(PrimeSet.of([3]))),
    (ProdZpHatModZ(PrimeSet.of([2])), [("primes", _EMPTY)],
     "ProdZpHatModZ(primes=PrimeSet(cofinite=False, primes=frozenset({2})))",
     ProdZpHatModZ(PrimeSet.complement_of([2]))),
    (_G, [("fg", FgAbGroup()), ("atoms", ())], _G_REPR, SymbolicGroup()),
    (_EM, [("summands", ())], f"EMObject(summands=((0, {_G_REPR}),))",
     EMObject()),
    (CriterionResult("name", True, "detail"),
     [("name", _EMPTY), ("passed", _EMPTY), ("detail", _EMPTY)],
     "CriterionResult(name='name', passed=True, detail='detail')",
     CriterionResult("name", False, "detail")),
]


@pytest.mark.parametrize("value, params, text, other", VALUES,
                         ids=[type(row[0]).__name__ for row in VALUES])
def test_value_contract(value, params, text, other):
    cls = type(value)
    sig = inspect.signature(cls).parameters.values()
    assert [(p.name, p.default) for p in sig] == params
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in sig)
    assert repr(value) == text

    fields = tuple(getattr(value, name) for name, _ in params)
    twin = cls(*fields)
    assert twin == value and not twin != value
    assert cls(**{name: x for (name, _), x in zip(params, fields)}) == value
    assert hash(value) == hash(twin) == hash(fields)
    assert pickle.loads(pickle.dumps(value)) == value
    if other is not None:
        assert other != value and not other == value
    assert value != fields and value != object()

    for name, _ in params:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert tuple(getattr(value, name) for name, _ in params) == fields


def test_equality_needs_the_same_class():
    assert Prufer(3) != ZpHat(3)
    assert PrimeAtom(3) != Prufer(3) and Prufer(3) != PrimeAtom(3)
    assert Prufer(3) == Prufer(3)
    assert hash(Prufer(3)) == hash(ZpHat(3)) == hash((3,))
    assert repr(ZpHat(3)) == "ZpHat(p=3)"
    assert {Prufer(3), ZpHat(3), Prufer(3)} == {Prufer(3), ZpHat(3)}


# A float or a boolean where a constructor wants an integer is refused, not
# truncated: 1.5 is no matrix entry, and 0.9 no degree.
@pytest.mark.parametrize("build", [
    lambda: IntMatrix.from_rows([[1.5, 2.9]]),
    lambda: IntMatrix.diagonal([2.7]),
    lambda: FgAbGroup(0, (2.5,)),
    lambda: FgAbGroup(1.5),
    lambda: FgAbGroup.of_orders([6.9]),
    lambda: FgAbGroup.of_orders([True]),
    lambda: GradedGroup({0.5: FgAbGroup(1)}),
    lambda: ChainComplex.build({0.9: 1}),
    lambda: ChainComplex.build({0: 1.0}),
    lambda: ChainComplex.build({0: 1, 1: 1}, {1.0: _TWO}),
    lambda: ChainMap.build(_X, _X, {0.9: _ONE}),
    lambda: EMObject([(0.5, FgAbGroup(1))]),
], ids=["from_rows", "diagonal", "group", "group-rank", "of_orders",
        "of_orders-bool", "graded-degree", "complex-degree", "complex-rank",
        "boundary-degree", "map-degree", "em-shift"])
def test_constructors_refuse_non_integers(build):
    with pytest.raises(TypeError, match="expected an integer, got "):
        build()


# Each class has one validating door, its public constructor, which every
# public classmethod that takes the caller's data goes through.  Each row
# is a malformed value, refused with InputError or TypeError.
_Z = FgAbGroup(1)
_SZ = SymbolicGroup.of(_Z)
_I2 = IntMatrix(2, 2, (1, 0, 0, 1))
_Y = ChainComplex(((0, 1),))                # rank 1 in degree 0 only
MALFORMED = {
    "matrix-float": lambda: IntMatrix(1, 1, (1.5,)),
    "matrix-bool": lambda: IntMatrix(1, 1, (True,)),
    "matrix-text": lambda: IntMatrix(1, 1, ("a",)),
    "matrix-shape": lambda: IntMatrix(1.0, 1, (1,)),
    "matrix-length": lambda: IntMatrix(2, 2, (1, 2, 3)),
    "from_rows": lambda: IntMatrix.from_rows([[1, 2], [3]]),
    "from_json": lambda: IntMatrix.from_json(
        {"rows": 1, "cols": 1, "data": [True]}),
    "diagonal": lambda: IntMatrix.diagonal([2, 0.5]),
    "identity": lambda: IntMatrix.identity(-1),
    "zero": lambda: IntMatrix.zero(2, -1),
    "graded-zero-degree-twice": lambda: GradedGroup(
        ((0, FgAbGroup(0)), (0, _Z))),
    "graded-degree-twice": lambda: GradedGroup(((0, _Z), (0, _Z))),
    "graded-float-degree": lambda: GradedGroup(((0.5, _Z),)),
    "graded-not-a-group": lambda: GradedGroup(((0, 5),)),
    "complex-d-squared": lambda: ChainComplex(
        ((0, 1), (1, 1), (2, 1)), ((1, _ONE), (2, _ONE))),
    "complex-list-boundaries": lambda: ChainComplex(
        ((0, 1), (1, 1), (2, 1)), ((1, [[1]]), (2, [[1]]))),
    "complex-degree-twice": lambda: ChainComplex(((0, 1), (0, 2))),
    "complex-boundary-twice": lambda: ChainComplex(
        ((0, 1), (1, 1)), ((1, _TWO), (1, _TWO))),
    "complex-negative-rank": lambda: ChainComplex(((0, -1),)),
    "complex-bool-rank": lambda: ChainComplex(((0, True),)),
    "complex-shape": lambda: ChainComplex(((0, 1),), ((1, _ONE),)),
    "complex-cap": lambda: ChainComplex(((DEGREE_CAP + 1, 1),)),
    "complex-build": lambda: ChainComplex.build({0: 1, 1: 1}, {1: _I2}),
    "complex-from_json": lambda: ChainComplex.from_json({"ranks": {"0": -1}}),
    "map-shape": lambda: ChainMap(_Y, _Y, ((0, _I2),)),
    "map-degree-twice": lambda: ChainMap(_X, _X, ((0, _ONE), (0, _ONE))),
    "map-not-a-chain-map": lambda: ChainMap(_X, _X, ((0, _ONE),)),
    "map-not-complexes": lambda: ChainMap(_X, _X.ranks, ()),
    "map-build": lambda: ChainMap.build(_X, _X, {1: _ONE}),
    "map-from_json": lambda: ChainMap.from_json(
        {"source": _X.to_json(), "target": _X.to_json(),
         "components": {"0": {"rows": 1, "cols": 1, "data": [1.0]}}}),
    "map-scalar": lambda: ChainMap.scalar(_X, 1.5),
    "map-zero_map": lambda: ChainMap.zero_map(_X, None),
    "group-rank": lambda: FgAbGroup(-1),
    "group-chain": lambda: FgAbGroup(0, (4, 6)),
    "group-free": lambda: FgAbGroup.free(True),
    "group-cyclic": lambda: FgAbGroup.cyclic(2.0),
    "group-of_orders": lambda: FgAbGroup.of_orders(["2"]),
    "primes-cofinite": lambda: PrimeSet("yes", frozenset()),
    "primes-composite": lambda: PrimeSet(False, frozenset({4})),
    "primes-of": lambda: PrimeSet.of([1]),
    "primes-complement_of": lambda: PrimeSet.complement_of([9]),
}


@pytest.mark.parametrize("build", MALFORMED.values(), ids=MALFORMED)
def test_constructors_refuse_malformed_values(build):
    with pytest.raises((InputError, TypeError)):
        build()


# A value given out of order, or with zero entries, is the canonical value:
# the constructor drops zeros and sorts by degree, and a symbolic group
# folds its atoms into canonical pieces.  (value, canonical value)
NORMALIZED = {
    "graded-zero-group": (lambda: GradedGroup(((0, FgAbGroup(0)),)),
                          GradedGroup()),
    "graded-unsorted": (lambda: GradedGroup(((1, _Z), (0, _Z))),
                        GradedGroup({0: _Z, 1: _Z})),
    "complex-unsorted": (lambda: ChainComplex(((1, 1), (0, 1)), ((1, _TWO),)),
                         _X),
    "complex-zero-rank": (lambda: ChainComplex(((0, 1), (1, 0))),
                          ChainComplex({0: 1})),
    "map-unsorted": (lambda: ChainMap(_X, _X, ((1, _ONE), (0, _ONE))),
                     ChainMap.identity(_X)),
    "map-zero-component": (
        lambda: ChainMap(_X, _X, ((0, IntMatrix(1, 1, (0,))),)),
        ChainMap.zero_map(_X, _X)),
    "em-unsorted": (lambda: EMObject(((1, _SZ), (0, _SZ))),
                    EMObject(((0, _SZ), (1, _SZ)))),
    "em-zero-group": (lambda: EMObject(((0, SymbolicGroup()),)), EMObject()),
    "group-all-primes": (
        lambda: SymbolicGroup(FgAbGroup(), (ZLocal(PrimeSet.complement_of([])),)),
        _SZ),
}


@pytest.mark.parametrize("value, canonical", NORMALIZED.values(),
                         ids=NORMALIZED)
def test_constructors_give_canonical_values(value, canonical):
    built = value()
    assert built == canonical
    assert built._values(built) == canonical._values(canonical)


# The symbolic classes have no unchecked door: each row is a value of the
# wrong type that the public constructor refuses.
SYMBOLIC_TYPE_ERRORS = {
    "em-not-a-group": lambda: EMObject(((0, 5),)),
    "em-bool-shift": lambda: EMObject(((True, _SZ),)),
    "group-not-fg": lambda: SymbolicGroup(5),
    "group-not-an-atom": lambda: SymbolicGroup(FgAbGroup(), (5,)),
    "set-atom-text": lambda: ZLocal("abc"),
    "set-atom-int": lambda: PruferSum(5),
    "prime-atom-float": lambda: Prufer(2.0),
    "primes-float": lambda: PrimeSet.of([3.0]),
}


@pytest.mark.parametrize("build", SYMBOLIC_TYPE_ERRORS.values(),
                         ids=SYMBOLIC_TYPE_ERRORS)
def test_symbolic_constructors_refuse_malformed_values(build):
    with pytest.raises(TypeError):
        build()


def test_a_wedge_of_zero_groups_is_zero_and_z_prints_as_z():
    zero_wedge = EMObject(((0, SymbolicGroup()),))
    assert zero_wedge.is_zero and not ring_unit_obstruction(zero_wedge)
    assert str(NORMALIZED["group-all-primes"][0]()) == "Z"
