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
from cellkit.complexes import (ChainComplex, ChainMap, GradedGroup,
                               HomologyPresentation)
from cellkit.emcell import (AcyclizationCase, CellExact, CellShape, CellZero,
                            ConstraintSet, EMObject)
from cellkit.groups import FgAbGroup
from cellkit.matrices import IntMatrix, SmithNormalForm
from cellkit.symbolic import (Atom, PrimeAtom, PrimeSet, ProdZpHatModZ,
                              Prufer, SetAtom, SymbolicGroup, ZpHat)

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
_CONSTRAINTS = ConstraintSet(_G, True)
_CONSTRAINTS_REPR = (f"ConstraintSet(target={_G_REPR}, b_forced_zero=True, "
                     "c_candidates=None)")

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
    (HomologyPresentation(_ONE, _ONE, _TWO),
     [("cycles", _EMPTY), ("coords", _EMPTY), ("relations", _EMPTY)],
     "HomologyPresentation(cycles=IntMatrix(rows=1, cols=1, entries=(1,)), "
     "coords=IntMatrix(rows=1, cols=1, entries=(1,)), "
     "relations=IntMatrix(rows=1, cols=1, entries=(2,)))",
     HomologyPresentation(_ONE, _ONE, _ONE)),
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
    (_CONSTRAINTS,
     [("target", _EMPTY), ("b_forced_zero", False),
      ("c_candidates", None)],
     _CONSTRAINTS_REPR, ConstraintSet(_G)),
    (CellZero(), [], "CellZero()", None),
    (CellExact(_EM), [("obj", _EMPTY)],
     f"CellExact(obj=EMObject(summands=((0, {_G_REPR}),)))",
     CellExact(EMObject())),
    (CellShape(0, _CONSTRAINTS),
     [("n", _EMPTY), ("constraints", _EMPTY)],
     f"CellShape(n=0, constraints={_CONSTRAINTS_REPR})",
     CellShape(1, _CONSTRAINTS)),
    (AcyclizationCase("HZpk", "HZpk", None, 2, 1),
     [("target", _EMPTY), ("outcome", _EMPTY), ("primes", None),
      ("p", None), ("k", None)],
     "AcyclizationCase(target='HZpk', outcome='HZpk', primes=None, p=2, "
     "k=1)",
     AcyclizationCase("HZpk", "HZpk", None, 2, 2)),
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
