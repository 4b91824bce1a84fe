"""Closed-world calculus of the infinite abelian groups in the tables.

Beyond finitely generated groups, the localization tables need a fixed
zoo of atoms: the rationals Q, localized integers Z_P, Pruefer groups
Z/p^oo and sums of them, p-adic integers and rationals, products of
p-adic integers over a prime set, and the quotient of such a product by
its diagonal copy of Z.

Hom and Ext are evaluated by a finite rule table, extended bilinearly
over direct sums.  Any pair the table does not cover evaluates to the
explicit value ``UNKNOWN`` -- the calculus never guesses.  Every rule in
the table is an elementary classical fact; the test suite cross-checks a
sample of them against finite approximations.
"""

from __future__ import annotations

from typing import Iterable, Union

from .groups import (FgAbGroup, ZERO_GROUP, check_prime, ext_fg, hom_fg,
                     primary_part)
from .matrices import Frozen, InputError


class UnknownValue:
    """Sentinel for Hom/Ext values outside the rule table."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "UNKNOWN"


UNKNOWN = UnknownValue()


def is_unknown(x) -> bool:
    return x is UNKNOWN


class UnknownRuleError(InputError):
    """A computation needed a Hom/Ext value outside the rule table."""


class PrimeSet(Frozen):
    """A finite or cofinite set of primes, with an explicit complement.

    >>> s = PrimeSet.of([3, 2])
    >>> 2 in s, 5 in s
    (True, False)
    >>> s.complement().complement() == s
    True
    """

    __slots__ = ("cofinite", "primes")
    cofinite: bool
    primes: frozenset[int]

    def __init__(self, cofinite: bool, primes: frozenset[int]):
        object.__setattr__(self, "cofinite", cofinite)
        object.__setattr__(self, "primes",
                           frozenset(check_prime(p) for p in primes))

    @classmethod
    def of(cls, primes: Iterable[int]) -> "PrimeSet":
        return cls(False, frozenset(primes))

    @classmethod
    def complement_of(cls, primes: Iterable[int]) -> "PrimeSet":
        return cls(True, frozenset(primes))

    def complement(self) -> "PrimeSet":
        return PrimeSet(not self.cofinite, self.primes)

    def __contains__(self, p: int) -> bool:
        return (p not in self.primes) if self.cofinite else (p in self.primes)

    @property
    def is_empty(self) -> bool:
        return not self.cofinite and not self.primes

    @property
    def is_all(self) -> bool:
        return self.cofinite and not self.primes

    @property
    def listed(self) -> tuple[int, ...]:
        return tuple(sorted(self.primes))

    def intersect(self, other: "PrimeSet") -> "PrimeSet":
        if self.cofinite and other.cofinite:
            return PrimeSet(True, self.primes | other.primes)
        if not self.cofinite and not other.cofinite:
            return PrimeSet(False, self.primes & other.primes)
        fin, cof = (self, other) if not self.cofinite else (other, self)
        return PrimeSet(False, frozenset(p for p in fin.primes if p in cof))

    def issubset(self, other: "PrimeSet") -> bool:
        return self.intersect(other) == self

    def sort_key(self):
        return (1 if self.cofinite else 0, self.listed)

    def to_json(self) -> dict:
        return {"mode": "cofinite" if self.cofinite else "finite",
                "list": list(self.listed)}

    def __str__(self) -> str:
        body = ",".join(str(p) for p in self.listed)
        return ("!" + body) if self.cofinite else body


class Atom(Frozen):
    """Base class for the non-finitely-generated building blocks."""

    __slots__ = ()
    name = "?"

    def params_json(self) -> dict:
        return {}

    def sort_key(self):
        return (self.name,)


class PrimeAtom(Atom):
    """An atom indexed by one prime."""

    __slots__ = ("p",)
    p: int

    def __init__(self, p: int):
        check_prime(p)
        object.__setattr__(self, "p", p)

    def params_json(self):
        return {"p": self.p}

    def sort_key(self):
        return (self.name, self.p)


class SetAtom(Atom):
    """An atom indexed by a prime set."""

    __slots__ = ("primes",)
    primes: PrimeSet

    def __init__(self, primes: PrimeSet):
        object.__setattr__(self, "primes", primes)

    def params_json(self):
        return {"primes": self.primes.to_json()}

    def sort_key(self):
        return (self.name, self.primes.sort_key())


class Q(Atom):
    __slots__ = ()
    name = "Q"


class ZLocal(SetAtom):
    """Integers localized at the prime set (primes outside it inverted)."""

    __slots__ = ()
    name = "Z_P"


class Prufer(PrimeAtom):
    """Z/p^oo, the union of all Z/p^k."""

    __slots__ = ()
    name = "Prufer"


class PruferSum(SetAtom):
    """Direct sum of Z/p^oo over the primes in the set."""

    __slots__ = ()
    name = "PruferSum"


class ZpHat(PrimeAtom):
    """The p-adic integers."""

    __slots__ = ()
    name = "ZpHat"


class QpHat(PrimeAtom):
    """The p-adic rationals (field of fractions of the p-adic integers)."""

    __slots__ = ()
    name = "QpHat"


class ProdZpHat(SetAtom):
    """Product of the p-adic integers over the primes in the set."""

    __slots__ = ()
    name = "ProdZpHat"


class ProdZpHatModZ(SetAtom):
    """(Prod_{p in P} ZpHat)/Z, the product modulo its diagonal integers.

    This atom only ever appears as an output of the acyclization tables;
    every Hom/Ext rule specific to it is deliberately absent, so queries
    about it propagate UNKNOWN.
    """

    __slots__ = ()
    name = "ProdZpHatModZ"

    def __init__(self, primes: PrimeSet):
        if primes.is_empty:
            raise InputError("product over the empty prime set has no quotient by Z")
        super().__init__(primes)


# Atoms that are divisible groups.  ZpHat is not: ZpHat/p.ZpHat = Z/p != 0.
_DIVISIBLE_ATOMS = (Q, Prufer, PruferSum, QpHat)
# Torsion-free atoms (no elements of finite order).
_TORSION_FREE_ATOMS = (Q, ZLocal, ZpHat, QpHat, ProdZpHat)


def _normalize_atom(atom: Atom) -> tuple[list[int], list[Atom]]:
    """Expand an atom into (cyclic orders for the fg part, residual atoms)."""
    if isinstance(atom, ZLocal):
        if atom.primes.is_all:
            return [0], []            # nothing inverted: plain Z
        if atom.primes.is_empty:
            return [], [Q()]          # everything inverted: the rationals
        return [], [atom]
    if isinstance(atom, PruferSum) and not atom.primes.cofinite:
        return [], [Prufer(p) for p in atom.primes.listed]
    if isinstance(atom, ProdZpHat) and not atom.primes.cofinite:
        # A product over finitely many primes is the direct sum.
        return [], [ZpHat(p) for p in atom.primes.listed]
    return [], [atom]


class SymbolicGroup(Frozen):
    """A finite direct sum of one f.g. part and atoms, in canonical order.

    >>> g = SymbolicGroup.of(FgAbGroup.cyclic(4), Prufer(3), Q())
    >>> print(g)
    Z/4 + Z/3^inf + Q
    >>> SymbolicGroup.of(PruferSum(PrimeSet.of([5]))) == SymbolicGroup.of(Prufer(5))
    True
    """

    __slots__ = ("fg", "atoms")
    fg: FgAbGroup
    atoms: tuple[Atom, ...]

    def __init__(self, fg: FgAbGroup = ZERO_GROUP,
                 atoms: tuple[Atom, ...] = ()):
        object.__setattr__(self, "fg", fg)
        object.__setattr__(self, "atoms", atoms)

    @classmethod
    def zero(cls) -> "SymbolicGroup":
        return cls(ZERO_GROUP, ())

    @classmethod
    def of(cls, *parts: Union["SymbolicGroup", FgAbGroup, Atom]) -> "SymbolicGroup":
        orders: list[int] = []
        atoms: list[Atom] = []
        fgs: list[FgAbGroup] = []
        for part in parts:
            if isinstance(part, SymbolicGroup):
                fgs.append(part.fg)
                parts_atoms = part.atoms
            elif isinstance(part, FgAbGroup):
                fgs.append(part)
                parts_atoms = ()
            elif isinstance(part, Atom):
                parts_atoms = (part,)
            else:
                raise TypeError(f"cannot build a group from {part!r}")
            for a in parts_atoms:
                extra_orders, residual = _normalize_atom(a)
                orders.extend(extra_orders)
                atoms.extend(residual)
        fg = FgAbGroup.direct_sum(*fgs, FgAbGroup.of_orders(orders))
        atoms.sort(key=lambda a: a.sort_key())
        return cls(fg, tuple(atoms))

    @property
    def is_zero(self) -> bool:
        return self.fg.is_zero and not self.atoms

    @property
    def is_fg(self) -> bool:
        return not self.atoms

    def to_json(self):
        """Single summands serialize bare; sums as {"sum": [...]}."""
        parts = []
        if not self.fg.is_zero or not self.atoms:
            parts.append(self.fg.to_json())
        for a in self.atoms:
            parts.append({"atom": a.name, **a.params_json()})
        if len(parts) == 1:
            return parts[0]
        return {"sum": parts}

    def __str__(self) -> str:
        from .grammar import format_group  # local import to avoid a cycle
        return format_group(self)


def as_symbolic(g: Union[SymbolicGroup, FgAbGroup, Atom]) -> SymbolicGroup:
    if isinstance(g, SymbolicGroup):
        return g
    return SymbolicGroup.of(g)


def is_divisible(g: Union[SymbolicGroup, FgAbGroup]) -> bool:
    """True exactly for sums of Q, Pruefer groups, their sums, and QpHat.

    >>> is_divisible(SymbolicGroup.of(Q(), Prufer(2)))
    True
    >>> is_divisible(SymbolicGroup.of(ZpHat(2)))
    False
    """
    g = as_symbolic(g)
    return g.fg.is_zero and all(isinstance(a, _DIVISIBLE_ATOMS) for a in g.atoms)


_Piece = Union[FgAbGroup, Atom]


def _pieces(g: SymbolicGroup) -> list[_Piece]:
    out: list[_Piece] = []
    if not g.fg.is_zero:
        out.append(g.fg)
    out.extend(g.atoms)
    return out


def _primary_group(orders: Iterable[int], primes: Iterable[int],
                   cofinite: bool = False) -> SymbolicGroup:
    """The sum of the P-primary parts of the cyclic groups Z/d."""
    return SymbolicGroup.of(FgAbGroup.of_orders(
        primary_part(d, primes, cofinite) for d in orders))


def _torsion_to_atom_hom(factors: tuple[int, ...], y: Atom):
    """Hom of a finite sum of cyclic groups into an atom."""
    if isinstance(y, _TORSION_FREE_ATOMS):
        return SymbolicGroup.zero()
    if isinstance(y, Prufer):
        # Hom(Z/d, Z/p^oo) = Z/p^{v_p(d)}: the colimit of Hom(Z/d, Z/p^n)
        # stabilizes once n exceeds v_p(d).
        return _primary_group(factors, (y.p,))
    if isinstance(y, PruferSum):
        return _primary_group(factors, y.primes.primes, y.primes.cofinite)
    return UNKNOWN


def _hom_atom_atom(x: Atom, y: Atom):
    if isinstance(x, Q):
        if isinstance(y, Q):
            return SymbolicGroup.of(Q())
        if isinstance(y, (ZLocal, ZpHat, ProdZpHat)):
            # Reduced torsion-free target: the image of a divisible group
            # is divisible, hence zero.
            return SymbolicGroup.zero()
        if isinstance(y, QpHat):
            # The p-adic rationals are a Q-vector space.
            return SymbolicGroup.of(y)
        return UNKNOWN
    if isinstance(x, Prufer):
        if isinstance(y, _TORSION_FREE_ATOMS):
            return SymbolicGroup.zero()  # torsion source, torsion-free target
        if isinstance(y, Prufer):
            # End(Z/p^oo) = ZpHat; different primes see only zero maps.
            return SymbolicGroup.of(ZpHat(x.p)) if x.p == y.p else SymbolicGroup.zero()
        if isinstance(y, PruferSum):
            return (SymbolicGroup.of(ZpHat(x.p)) if x.p in y.primes
                    else SymbolicGroup.zero())
        return UNKNOWN
    if isinstance(x, PruferSum):
        # Hom out of a sum is the product over the summands; the target
        # must localize that product to finitely many primes or to a
        # product atom.
        if isinstance(y, FgAbGroup) or isinstance(y, _TORSION_FREE_ATOMS):
            return SymbolicGroup.zero()
        if isinstance(y, Prufer):
            return (SymbolicGroup.of(ZpHat(y.p)) if y.p in x.primes
                    else SymbolicGroup.zero())
        if isinstance(y, PruferSum):
            both = x.primes.intersect(y.primes)
            return SymbolicGroup.of(ProdZpHat(both))
        return UNKNOWN
    if isinstance(x, ZpHat):
        if isinstance(y, ZpHat):
            # End(ZpHat) = ZpHat; across distinct primes everything dies.
            return SymbolicGroup.of(y) if x.p == y.p else SymbolicGroup.zero()
        return UNKNOWN
    if isinstance(x, ZLocal):
        if isinstance(y, Q):
            return SymbolicGroup.of(Q())
        if isinstance(y, ZLocal):
            # Maps must divide by every inverted prime of the source.
            return (SymbolicGroup.of(y) if y.primes.issubset(x.primes)
                    else SymbolicGroup.zero())
        if isinstance(y, Prufer) and y.p in x.primes:
            return SymbolicGroup.of(y)
        return UNKNOWN
    return UNKNOWN


def _hom_pair(x: _Piece, y: _Piece):
    if isinstance(x, FgAbGroup) and isinstance(y, FgAbGroup):
        return SymbolicGroup.of(hom_fg(x, y))
    if isinstance(x, FgAbGroup):
        # Hom(Z^r + T, A) = A^r + Hom(T, A).
        free_copies = [y] * x.rank
        tors = _torsion_to_atom_hom(x.invariant_factors, y)
        if tors is UNKNOWN:
            if x.invariant_factors:
                return UNKNOWN
            tors = SymbolicGroup.zero()
        return SymbolicGroup.of(*free_copies, tors)
    if isinstance(y, FgAbGroup):
        if isinstance(x, _DIVISIBLE_ATOMS):
            # Homomorphic images of divisible groups are divisible, and a
            # finitely generated group has none besides zero.
            return SymbolicGroup.zero()
        if isinstance(x, ZpHat):
            # Every map lands in the p-primary part and factors through
            # ZpHat/p^e = Z/p^e; maps to Z would have q-divisible image.
            return _primary_group(y.invariant_factors, (x.p,))
        if isinstance(x, ZLocal):
            # Hom(Z_P, finite) keeps the P-primary part; Hom(Z_P, Z) = 0
            # because images must be divisible by the inverted primes.
            return _primary_group(y.invariant_factors, x.primes.primes,
                                  x.primes.cofinite)
        return UNKNOWN
    return _hom_atom_atom(x, y)


def hom_rule(a: Union[SymbolicGroup, FgAbGroup],
             b: Union[SymbolicGroup, FgAbGroup]):
    """Hom(a, b) by the rule table, or UNKNOWN.

    On finitely generated inputs this agrees with :func:`~cellkit.groups.hom_fg`
    exactly.

    >>> print(hom_rule(SymbolicGroup.of(FgAbGroup.cyclic(8)), SymbolicGroup.of(Prufer(2))))
    Z/8
    >>> hom_rule(SymbolicGroup.of(Q()), SymbolicGroup.of(FgAbGroup.cyclic(9))).is_zero
    True
    """
    a, b = as_symbolic(a), as_symbolic(b)
    parts = []
    for x in _pieces(a):
        for y in _pieces(b):
            val = _hom_pair(x, y)
            if val is UNKNOWN:
                return UNKNOWN
            parts.append(val)
    return SymbolicGroup.of(*parts)


def _ext_pair(x: _Piece, y: _Piece):
    if isinstance(y, Atom) and isinstance(y, _DIVISIBLE_ATOMS):
        return SymbolicGroup.zero()  # divisible groups are injective
    if isinstance(x, FgAbGroup):
        if isinstance(y, FgAbGroup):
            return SymbolicGroup.of(ext_fg(x, y))
        # Free sources contribute nothing; for a cyclic source Z/d the
        # value is G/dG, read off the atom.
        if not x.invariant_factors:
            return SymbolicGroup.zero()
        if isinstance(y, ZpHat):
            return _primary_group(x.invariant_factors, (y.p,))
        if isinstance(y, (ZLocal, ProdZpHat)):
            return _primary_group(x.invariant_factors, y.primes.primes,
                                  y.primes.cofinite)
        return UNKNOWN
    return UNKNOWN


def ext_rule(a: Union[SymbolicGroup, FgAbGroup],
             b: Union[SymbolicGroup, FgAbGroup]):
    """Ext(a, b) by the rule table, or UNKNOWN.

    >>> ext_rule(SymbolicGroup.of(FgAbGroup.cyclic(8)), SymbolicGroup.of(Q())).is_zero
    True
    >>> print(ext_rule(SymbolicGroup.of(FgAbGroup.cyclic(12)), SymbolicGroup.of(ZpHat(2))))
    Z/4
    """
    a, b = as_symbolic(a), as_symbolic(b)
    parts = []
    for x in _pieces(a):
        for y in _pieces(b):
            val = _ext_pair(x, y)
            if val is UNKNOWN:
                return UNKNOWN
            parts.append(val)
    return SymbolicGroup.of(*parts)
