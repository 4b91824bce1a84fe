"""Symbolic calculus of shifted Eilenberg-MacLane objects.

An EMObject is a finite wedge of single-homotopy-group pieces.  Morphism
groups between such pieces vanish except in two adjacent degrees, where
they are a Hom and an Ext; cellularizing one piece therefore produces at
most two homotopy groups, in the original degree and one below, subject
to a small system of isomorphism constraints.  This module makes those
constraints, the p-primary cellularization table, and the acyclization
case tables executable.

The calculus is case-table driven and closed-world: nullification
outcomes are classification inputs, not computed here, and any query
outside the tables returns a shape with unresolved constraints or
UNKNOWN rather than a guess.  The morphism-group values adopt the
derived-category convention (Hom in equal degrees, Ext one degree up);
reports carry a "convention" note saying so.
"""

from __future__ import annotations

from typing import Sequence, Union

from .complexes import (ChainComplex, ChainMap, coproduct, derived_hom,
                        em_complex, triangle_check)
from .groups import FgAbGroup, Z, check_prime, ext_fg, hom_fg
from .matrices import (ORDER_BOUND, ORDER_DIGIT_CAP, Frozen, InputError,
                       IntMatrix, quoted, strict_int)
from .symbolic import Q as QAtom
from .symbolic import (UNKNOWN, PrimeSet, ProdZpHatModZ, Prufer, PruferSum,
                       QpHat, SymbolicGroup, UnknownRuleError, as_symbolic,
                       ext_rule, hom_rule, is_divisible, is_unknown)

CONVENTION_NOTE = "convention: derived-category values"


class InadmissibleCaseError(InputError):
    """An acyclization outcome code outside the admissible list."""


class EMObject(Frozen):
    """A finite wedge of shifted single-homotopy-group pieces.

    Summands at equal shifts merge; zero groups are dropped; the summand
    list is sorted by shift, so equality is syntactic.

    >>> x = EMObject.of([(0, FgAbGroup.cyclic(2)), (0, FgAbGroup.cyclic(3))])
    >>> print(x)
    [0: Z/6]
    """

    __slots__ = ("summands",)
    summands: tuple[tuple[int, SymbolicGroup], ...]

    def __init__(self, summands: tuple[tuple[int, SymbolicGroup], ...] = ()):
        object.__setattr__(self, "summands", summands)

    @classmethod
    def of(cls, pairs: Sequence[tuple[int, Union[SymbolicGroup, FgAbGroup]]]
           ) -> "EMObject":
        by_shift: dict[int, list[SymbolicGroup]] = {}
        for s, g in pairs:
            by_shift.setdefault(int(s), []).append(as_symbolic(g))
        merged = []
        for s in sorted(by_shift):
            g = SymbolicGroup.of(*by_shift[s])
            if not g.is_zero:
                merged.append((s, g))
        return cls(tuple(merged))

    @classmethod
    def zero(cls) -> "EMObject":
        return cls(())

    @property
    def is_zero(self) -> bool:
        return not self.summands

    def group_at(self, shift: int) -> SymbolicGroup:
        for s, g in self.summands:
            if s == shift:
                return g
        return SymbolicGroup.zero()

    def to_json(self) -> list:
        return [{"shift": s, "group": g.to_json()} for s, g in self.summands]

    def __str__(self) -> str:
        if self.is_zero:
            return "[0]"
        return "[" + ", ".join(f"{s}: {g}" for s, g in self.summands) + "]"


def em_morphism_group(i: int, b: Union[SymbolicGroup, FgAbGroup],
                      n: int, g: Union[SymbolicGroup, FgAbGroup]):
    """Morphism group from the piece (i, b) into the piece (n, g).

    Zero unless i = n (a Hom group) or i = n - 1 (an Ext group); values
    come from the closed rule tables and may be UNKNOWN.

    >>> print(em_morphism_group(0, FgAbGroup.cyclic(4), 0, FgAbGroup.cyclic(6)))
    Z/2
    >>> em_morphism_group(5, FgAbGroup.cyclic(4), 0, FgAbGroup.cyclic(6)).is_zero
    True
    """
    if i == n:
        return hom_rule(b, g)
    if i == n - 1:
        return ext_rule(b, g)
    return SymbolicGroup.zero()


def sphere_homotopy(i: int, x: EMObject):
    """The i-th homotopy group of the wedge, through the morphism calculus.

    The generator is modeled by the integer piece in degree zero, so each
    summand contributes its Hom group in equal degrees and a vanishing Ext
    group from one degree up.
    """
    parts = []
    for s, g in x.summands:
        val = em_morphism_group(i, Z, s, g)
        if is_unknown(val):
            return UNKNOWN
        parts.append(val)
    return SymbolicGroup.of(*parts)


class ConstraintSet(Frozen):
    """The unresolved constraints on the two homotopy groups of a shape.

    For target group G, candidate groups B (one degree down) and C (same
    degree) must satisfy:

        (i)   Hom(B, B) + Ext(B, C) = Ext(B, G)
        (ii)  Hom(C, C) = Hom(C, G)
        (iii) Hom(B, C) = Hom(B, G)

    ``b_forced_zero`` records that divisibility of G kills B; an optional
    candidate list for C narrows the solutions further.
    """

    __slots__ = ("target", "b_forced_zero", "c_candidates")
    target: SymbolicGroup
    b_forced_zero: bool
    c_candidates: tuple[FgAbGroup, ...] | None

    def __init__(self, target: SymbolicGroup, b_forced_zero: bool = False,
                 c_candidates: tuple[FgAbGroup, ...] | None = None):
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "b_forced_zero", b_forced_zero)
        object.__setattr__(self, "c_candidates", c_candidates)

    def to_json(self) -> dict:
        out = {
            "target": self.target.to_json(),
            "identities": [
                "Hom(B,B) + Ext(B,C) = Ext(B,G)",
                "Hom(C,C) = Hom(C,G)",
                "Hom(B,C) = Hom(B,G)",
            ],
            "b_forced_zero": self.b_forced_zero,
        }
        if self.c_candidates is not None:
            out["c_candidates"] = [g.to_json() for g in self.c_candidates]
        return out


class CellZero(Frozen):
    """The cellularization is the zero object."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {"kind": "zero"}


class CellExact(Frozen):
    """The cellularization is a concrete wedge."""

    __slots__ = ("obj",)
    obj: EMObject

    def __init__(self, obj: EMObject):
        object.__setattr__(self, "obj", obj)

    def to_json(self) -> dict:
        return {"kind": "exact", "object": self.obj.to_json()}


class CellShape(Frozen):
    """Only the shape is known: two slots with a constraint system."""

    __slots__ = ("n", "constraints")
    n: int
    constraints: ConstraintSet

    def __init__(self, n: int, constraints: ConstraintSet):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "constraints", constraints)

    def to_json(self) -> dict:
        return {"kind": "shape", "degrees": [self.n - 1, self.n],
                "constraints": self.constraints.to_json()}


CellResult = Union[CellZero, CellExact, CellShape]


def cell_shape(n: int, g: Union[SymbolicGroup, FgAbGroup]) -> CellResult:
    """Shape of the cellularization of the single piece (n, g).

    At most two homotopy groups can survive, in degrees n and n-1, tied by
    the constraint system; when g is divisible the lower one is forced to
    vanish and the result is a single slot in degree n.

    >>> r = cell_shape(0, FgAbGroup.cyclic(8))
    >>> (r.n, r.constraints.b_forced_zero)
    (0, False)
    """
    g = as_symbolic(g)
    if g.is_zero:
        return CellZero()
    return CellShape(n, ConstraintSet(g, b_forced_zero=is_divisible(g)))


def constraint_check(b: FgAbGroup, c: FgAbGroup, g: FgAbGroup) -> bool:
    """Evaluate the three shape constraints on finitely generated groups.

    >>> constraint_check(FgAbGroup.zero(), FgAbGroup.cyclic(4), FgAbGroup.cyclic(8))
    True
    >>> constraint_check(FgAbGroup.zero(), FgAbGroup.cyclic(9), FgAbGroup.cyclic(3))
    False
    """
    first = (hom_fg(b, b) + ext_fg(b, c)) == ext_fg(b, g)
    second = hom_fg(c, c) == hom_fg(c, g)
    third = hom_fg(b, c) == hom_fg(b, g)
    return first and second and third


def _prime_power(p: int, e: int, name: str) -> int:
    """p^e for a prime p and the exponent parameter ``name``; InputError
    when it has more than ORDER_DIGIT_CAP digits."""
    # 2^e passes the bound only for e < 4 * ORDER_DIGIT_CAP, so a larger
    # exponent is refused before any power is computed.
    q = p ** e if e < 4 * ORDER_DIGIT_CAP else ORDER_BOUND
    if q >= ORDER_BOUND:
        raise InputError(f"{name} = {e} is too large: {p}^{e} has more "
                         f"than {ORDER_DIGIT_CAP} digits")
    return q


def cell_primary_torsion(m: int, k: int, n: int, p: int) -> EMObject:
    """Cellularization of the p-power piece (m, Z/p^n) at the generator
    (m, Z/p^k): a single piece with the smaller exponent.

    >>> print(cell_primary_torsion(0, 1, 2, 5))
    [0: Z/5]
    """
    if k < 1 or n < 1:
        raise InputError("exponents must be positive")
    check_prime(p)
    e, name = (k, "k") if k <= n else (n, "n")
    return EMObject.of([(m, FgAbGroup.cyclic(_prime_power(p, e, name)))])


def hzp_dichotomy(cellular_flag: bool, r: int, p: int) -> CellResult:
    """Propagate the mod-p dichotomy through the p-power tower.

    If the mod-p piece dies (flag False), every Z/p^r piece dies with it.
    If it survives, the r = 1 answer is exact, and for r >= 2 the shape
    has no lower slot and the surviving group is one of Z/p^j, j <= r.
    """
    if r < 1:
        raise InputError("r must be positive")
    check_prime(p)
    if not cellular_flag:
        return CellZero()
    if r == 1:
        return CellExact(EMObject.of([(0, FgAbGroup.cyclic(p))]))
    # The report lists every candidate order, so their digits together
    # are held to ORDER_DIGIT_CAP; the loop stops at the first excess.
    candidates = []
    q, digits = 1, 0
    for _ in range(r):
        q *= p
        digits += len(str(q))
        if digits > ORDER_DIGIT_CAP:
            raise InputError(
                f"r = {r} is too large: the candidate orders {p}^1 .. {p}^{r}"
                f" have more than {ORDER_DIGIT_CAP} digits in all")
        candidates.append(FgAbGroup.cyclic(q))
    return CellShape(0, ConstraintSet(
        as_symbolic(FgAbGroup.cyclic(q)),
        b_forced_zero=True, c_candidates=tuple(candidates)))


class AcyclizationCase(Frozen):
    """A classified nullification outcome, consumed by :func:`acyclization`.

    target "HZ":     outcome in {"zero", "HZ", "HZ_P", "ProdZpHat"}
    target "HZpk":   outcome in {"zero", "HZpk"}, parameters p, k
    target "HZpinf": outcome in {"zero", "HZpinf", "SigmaZpHat"}, parameter p
    """

    __slots__ = ("target", "outcome", "primes", "p", "k")
    target: str
    outcome: str
    primes: PrimeSet | None
    p: int | None
    k: int | None

    _ADMISSIBLE = {
        "HZ": ("zero", "HZ", "HZ_P", "ProdZpHat"),
        "HZpk": ("zero", "HZpk"),
        "HZpinf": ("zero", "HZpinf", "SigmaZpHat"),
    }

    def __init__(self, target: str, outcome: str,
                 primes: PrimeSet | None = None, p: int | None = None,
                 k: int | None = None):
        allowed = self._ADMISSIBLE.get(target)
        if allowed is None:
            raise InadmissibleCaseError(f"unknown target {quoted(target)}")
        if outcome not in allowed:
            raise InadmissibleCaseError(
                f"outcome {quoted(outcome)} not admissible for {target}; "
                f"expected one of {allowed}")
        if outcome in ("HZ_P", "ProdZpHat") and primes is None:
            raise InadmissibleCaseError(f"outcome {outcome} needs a prime set")
        if outcome == "ProdZpHat" and primes.is_empty:
            raise InadmissibleCaseError("product outcome needs a nonempty prime set")
        if target == "HZpk" and (p is None or k is None):
            raise InadmissibleCaseError("HZpk cases need p and k")
        if target == "HZpk" and k < 1:
            raise InadmissibleCaseError("HZpk cases need k >= 1")
        if target == "HZpinf" and p is None:
            raise InadmissibleCaseError("HZpinf cases need p")
        if target != "HZ":
            check_prime(p)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "outcome", outcome)
        object.__setattr__(self, "primes", primes)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "k", k)


def acyclization(case: AcyclizationCase) -> EMObject:
    """Cellularization of the target piece, per nullification outcome.

    A vanished localization leaves the whole piece; the identity
    localization leaves nothing.  For the integer piece, localized
    integers leave the desuspended sum of Pruefer groups at the
    complementary primes, and the p-adic product leaves the desuspended
    product-modulo-Z piece.  For the Pruefer piece, SigmaZpHat leaves the
    p-adic rationals.
    """
    if case.outcome == case.target:
        return EMObject.zero()
    if case.outcome == "zero":
        if case.target == "HZ":
            return EMObject.of([(0, Z)])
        if case.target == "HZpk":
            return EMObject.of(
                [(0, FgAbGroup.cyclic(_prime_power(case.p, case.k, "k")))])
        return EMObject.of([(0, Prufer(case.p))])
    if case.outcome == "HZ_P":
        return EMObject.of([(-1, PruferSum(case.primes.complement()))])
    if case.outcome == "ProdZpHat":
        return EMObject.of([(-1, ProdZpHatModZ(case.primes))])
    return EMObject.of([(0, QpHat(case.p))])


def ring_unit_obstruction(x: EMObject) -> bool:
    """True when x is nonzero but has no possible unit: pi_0(x) = 0.

    A unital multiplication needs a unit map from the generator; if the
    degree-zero morphism group vanishes while the object does not, the
    identity would factor through zero, so no ring structure exists.

    >>> ring_unit_obstruction(EMObject.of([(0, Z)]))
    False
    """
    if x.is_zero:
        return False
    pi0 = sphere_homotopy(0, x)
    if is_unknown(pi0):
        raise UnknownRuleError("pi_0 needs a Hom/Ext value outside the rule table")
    return pi0.is_zero


def _module_test(ring: str):
    """The test whether a symbolic group is a module over ``ring``."""
    if ring == "Z":
        return lambda g: True
    if ring == "Q":
        # Q-modules are the rational vector spaces in the atom zoo.
        return lambda g: (g.fg.is_zero and
                          all(isinstance(a, (QAtom, QpHat)) for a in g.atoms))
    if ring.startswith("Z/"):
        m = strict_int(ring[2:])
        if m < 1:
            raise InputError(f"ring {quoted(ring)} needs m >= 1")
        # Annihilated by m: finite with all invariant factors dividing m;
        # no atom in the zoo is annihilated by an integer.
        return lambda g: not g.atoms and g.fg.is_annihilated_by(m)
    raise InputError("ring must be 'Z', 'Q', or 'Z/m'")


def gem_closure_check(result: CellResult, ring: str = "Z") -> bool:
    """Is the result still a wedge of pieces with groups that are modules
    over the declared ring?

    The ring is read first, whatever the result.  Shapes pass vacuously
    (their slots are unresolved); exact results are checked summand by
    summand against the atom table.

    >>> gem_closure_check(CellExact(EMObject.of([(0, FgAbGroup.cyclic(5))])), "Z/5")
    True
    """
    is_module = _module_test(ring)
    if isinstance(result, (CellZero, CellShape)):
        return True
    return all(is_module(g) for _, g in result.obj.summands)


def semiexact_counterexample(p: int = 2) -> dict:
    """The fixed witness that cellular classes miss extension closure, as
    a JSON report, chain-validated.

    The p-power tower gives a triangle with outer pieces mod p and middle
    piece mod p^2; cellularizing at the mod-p generator keeps only a mod-p
    piece in the middle, so the middle is not cellular even though both
    outer pieces are.  The verdict is True when the counterexample is
    fully exhibited.
    """
    zp = FgAbGroup.cyclic(p)
    zp2 = FgAbGroup.cyclic(p * p)
    triangle = (EMObject.of([(0, zp)]), EMObject.of([(0, zp2)]),
                EMObject.of([(0, zp)]))
    cell_middle = cell_primary_torsion(0, 1, 2, p)
    closure_holds = cell_middle == EMObject.of([(0, zp2)])
    # Chain-level validation: the inclusion Z/p -> Z/p^2 has cofibre Z/p.
    src = em_complex(zp, 0)
    tgt = em_complex(zp2, 0)
    incl = ChainMap.build(src, tgt, {
        1: IntMatrix.from_rows([[1]]),
        0: IntMatrix.from_rows([[p]]),
    })
    chain_ok = triangle_check(incl, em_complex(zp, 0))["verdict"]
    return {
        "p": p,
        "triangle": [obj.to_json() for obj in triangle],
        "cellularization_of_middle": cell_middle.to_json(),
        "extension_closure_holds": closure_holds,
        "chain_triangle_verdict": chain_ok,
        "verdict": not closure_holds and chain_ok,
    }


def chain_model(x: EMObject) -> ChainComplex:
    """Chain-complex realization of a wedge with f.g. groups."""
    parts = []
    for s, g in x.summands:
        if not g.is_fg:
            raise ValueError(f"summand {g} is not finitely generated")
        parts.append(em_complex(g.fg, s))
    return coproduct(parts)


def chain_homotopy_group(x: ChainComplex, i: int) -> FgAbGroup:
    """Homotopy through the derived morphism group out of the generator."""
    return derived_hom(em_complex(Z, 0), x, i)
