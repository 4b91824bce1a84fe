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

Each rule and each atom fact is stated once.  The divisible atoms and
the torsion-free atoms are listed once each, and the Q-vector spaces are
derived as the atoms in both lists.  A Pruefer group is the sum over a
one-prime set, so Pruefer groups and sums of them share every rule,
through the prime set that ``_primes`` reads off an atom.

Each class has one door, its public constructor, which checks and
canonicalizes at once: every value is a sum that has to be brought to
canonical form anyway, so no class has an unchecked door.  A prime is
read with ``json_int``, and ``SymbolicGroup(fg, atoms)`` refuses a
non-group or a non-atom with a TypeError, folds the finitely generated
and finite-sum atoms and sorts the rest, so equality is syntactic.
``SymbolicGroup.of`` is the direct sum and ``SymbolicGroup()`` zero.
"""

from __future__ import annotations

from collections.abc import Iterable

from .groups import (FgAbGroup, Z, ZERO_GROUP, check_prime, ext_fg, hom_fg,
                     primary_part)
from .base import Frozen, InputError, quoted


class UnknownValue:
    """Sentinel for Hom/Ext values outside the rule table."""

    def __repr__(self):
        return "UNKNOWN"


UNKNOWN = UnknownValue()


def is_unknown(x) -> bool:
    return x is UNKNOWN


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
        if type(cofinite) is not bool:
            raise TypeError(f"cofinite must be a boolean, got {quoted(cofinite)}")
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
        if not isinstance(primes, PrimeSet):
            raise TypeError(f"expected a prime set, got {quoted(primes)}")
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

    This atom is divisible: a prime q outside P is a unit in every ZpHat,
    and for q in P each x of the product has an integer n = x_q mod q, so
    x - n lies in q.Prod ZpHat.  The general rules for divisible groups
    apply to it; no rule specific to it exists, so every other query about
    it is UNKNOWN.
    """

    __slots__ = ()
    name = "ProdZpHatModZ"

    def __init__(self, primes: PrimeSet):
        super().__init__(primes)
        if primes.is_empty:
            raise InputError("product over the empty prime set has no quotient by Z")


# Atoms that are divisible groups.  ZpHat is not: ZpHat/p.ZpHat = Z/p != 0.
_DIVISIBLE_ATOMS = (Q, Prufer, PruferSum, QpHat, ProdZpHatModZ)
# Torsion-free atoms (no elements of finite order).
_TORSION_FREE_ATOMS = (Q, ZLocal, ZpHat, QpHat, ProdZpHat)
# Divisible and torsion-free: the atoms that are Q-vector spaces.
Q_VECTOR_ATOMS = tuple(a for a in _DIVISIBLE_ATOMS if a in _TORSION_FREE_ATOMS)


def _normalize_atom(atom: Atom) -> list[Atom]:
    """Expand an atom other than Z_P for P all primes, which is Z, into the
    canonical atoms that it is the sum of."""
    if isinstance(atom, ZLocal) and atom.primes.is_empty:
        return [Q()]              # everything inverted: the rationals
    if isinstance(atom, PruferSum) and not atom.primes.cofinite:
        return [Prufer(p) for p in atom.primes.listed]
    if isinstance(atom, ProdZpHat) and not atom.primes.cofinite:
        # A product over finitely many primes is the direct sum.
        return [ZpHat(p) for p in atom.primes.listed]
    return [atom]


class SymbolicGroup(Frozen):
    """A finite direct sum of one f.g. part and atoms, in canonical order.

    >>> g = SymbolicGroup.of(FgAbGroup.cyclic(4), Prufer(3), Q())
    >>> print(g)
    Z/4 + Z/3^inf + Q
    >>> SymbolicGroup.of(PruferSum(PrimeSet.of([5]))) == SymbolicGroup.of(Prufer(5))
    True
    >>> print(SymbolicGroup(FgAbGroup(), (ZLocal(PrimeSet.complement_of([])),)))
    Z
    """

    __slots__ = ("fg", "atoms")
    fg: FgAbGroup
    atoms: tuple[Atom, ...]

    def __init__(self, fg: FgAbGroup = ZERO_GROUP,
                 atoms: Iterable[Atom] = ()):
        if not isinstance(fg, FgAbGroup):
            raise TypeError(f"expected a finitely generated group, got {quoted(fg)}")
        residual: list[Atom] = []
        for a in atoms:
            if not isinstance(a, Atom):
                raise TypeError(f"expected an atom, got {quoted(a)}")
            if isinstance(a, ZLocal) and a.primes.is_all:
                fg = fg + Z  # nothing inverted: plain Z
            else:
                residual.extend(_normalize_atom(a))
        residual.sort(key=lambda a: a.sort_key())
        object.__setattr__(self, "fg", fg)
        object.__setattr__(self, "atoms", tuple(residual))

    @classmethod
    def of(cls, *parts: SymbolicGroup | FgAbGroup | Atom) -> "SymbolicGroup":
        """The direct sum of the parts; a lone group is returned as it is."""
        fgs: list[FgAbGroup] = []
        atoms: list[Atom] = []
        for part in parts:
            if isinstance(part, SymbolicGroup):
                if len(parts) == 1:
                    return part
                fgs.append(part.fg)
                atoms.extend(part.atoms)
            elif isinstance(part, FgAbGroup):
                fgs.append(part)
            else:  # an atom, or a value that the constructor refuses
                atoms.append(part)
        return cls(FgAbGroup.direct_sum(*fgs), atoms)

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
        return grammar.format_group(self)


def is_divisible(g: SymbolicGroup | FgAbGroup) -> bool:
    """True exactly for sums of the divisible atoms: Q, Pruefer groups and
    their sums, QpHat, and the quotients (Prod ZpHat)/Z.

    >>> is_divisible(SymbolicGroup.of(Q(), Prufer(2)))
    True
    >>> is_divisible(SymbolicGroup.of(ZpHat(2)))
    False
    """
    g = SymbolicGroup.of(g)
    return g.fg.is_zero and all(isinstance(a, _DIVISIBLE_ATOMS) for a in g.atoms)


_Piece = FgAbGroup | Atom


def _pieces(g: SymbolicGroup) -> list[_Piece]:
    out: list[_Piece] = []
    if not g.fg.is_zero:
        out.append(g.fg)
    out.extend(g.atoms)
    return out


def _bilinear(rule, a: SymbolicGroup | FgAbGroup,
              b: SymbolicGroup | FgAbGroup):
    """The sum of ``rule(x, y)`` over the summands x of a and y of b, or
    UNKNOWN as soon as one of them is."""
    a, b = SymbolicGroup.of(a), SymbolicGroup.of(b)
    parts = []
    for x in _pieces(a):
        for y in _pieces(b):
            val = rule(x, y)
            if is_unknown(val):
                return UNKNOWN
            parts.append(val)
    return SymbolicGroup.of(*parts)


def _primes(atom: PrimeAtom | SetAtom) -> PrimeSet:
    """The prime of a PrimeAtom as a one-prime set, or a SetAtom's set."""
    return PrimeSet.of((atom.p,)) if isinstance(atom, PrimeAtom) else atom.primes


def _primary_group(orders: Iterable[int],
                   atom: PrimeAtom | SetAtom) -> SymbolicGroup:
    """The sum of the primary parts of the cyclic groups Z/d at the primes
    of the atom."""
    s = _primes(atom)
    return SymbolicGroup(FgAbGroup.of_orders(
        primary_part(d, s.primes, s.cofinite) for d in orders))


def _hom_atom_atom(x: Atom, y: Atom):
    """Hom between two atoms; a pair that no branch answers is UNKNOWN."""
    if isinstance(x, Q):
        if isinstance(y, Q_VECTOR_ATOMS):
            return SymbolicGroup.of(y)  # Hom(Q, V) = V for a Q-vector space
        if isinstance(y, _TORSION_FREE_ATOMS):
            # Reduced torsion-free target: the image of a divisible group
            # is divisible, hence zero.
            return SymbolicGroup()
    elif isinstance(x, (Prufer, PruferSum)):
        if isinstance(y, _TORSION_FREE_ATOMS):
            return SymbolicGroup()  # torsion source, torsion-free target
        if isinstance(y, (Prufer, PruferSum)):
            # Hom out of a sum is the product over its summands, and
            # Hom(Z/p^oo, Z/q^oo) is ZpHat for p = q and 0 otherwise.
            return SymbolicGroup.of(ProdZpHat(_primes(x).intersect(_primes(y))))
    elif isinstance(x, ZpHat):
        if isinstance(y, ZpHat):
            # End(ZpHat) = ZpHat; across distinct primes everything dies.
            return SymbolicGroup.of(y) if x.p == y.p else SymbolicGroup()
    elif isinstance(x, ZLocal):
        if isinstance(y, Q_VECTOR_ATOMS):
            # V is uniquely divisible, so each map Z -> V extends uniquely
            # over Z_P: Hom(Z_P, V) = V.
            return SymbolicGroup.of(y)
        if isinstance(y, ZLocal):
            # Maps must divide by every inverted prime of the source.
            return (SymbolicGroup.of(y) if y.primes.issubset(x.primes)
                    else SymbolicGroup())
        if isinstance(y, Prufer) and y.p in x.primes:
            return SymbolicGroup.of(y)
    return UNKNOWN


def _hom_pair(x: _Piece, y: _Piece):
    if isinstance(x, FgAbGroup) and isinstance(y, FgAbGroup):
        return SymbolicGroup(hom_fg(x, y))
    if isinstance(x, FgAbGroup):
        # Hom(Z^r + T, A) = A^r + Hom(T, A), and Hom(T, A) = 0 for a
        # torsion-free A.
        free = [y] * x.rank
        if not x.invariant_factors or isinstance(y, _TORSION_FREE_ATOMS):
            return SymbolicGroup.of(*free)
        if isinstance(y, (Prufer, PruferSum)):
            # Hom(Z/d, Z/p^oo) = Z/p^{v_p(d)}: the colimit of
            # Hom(Z/d, Z/p^n) stabilizes once n exceeds v_p(d).
            return SymbolicGroup.of(*free, _primary_group(x.invariant_factors, y))
        return UNKNOWN
    if isinstance(y, FgAbGroup):
        if isinstance(x, _DIVISIBLE_ATOMS):
            # Homomorphic images of divisible groups are divisible, and a
            # finitely generated group has none besides zero.
            return SymbolicGroup()
        if isinstance(x, (ZpHat, ZLocal)):
            # Every map out of ZpHat lands in the p-primary part and
            # factors through ZpHat/p^e = Z/p^e; maps to Z would have
            # q-divisible image.  Hom(Z_P, finite) keeps the P-primary
            # part; Hom(Z_P, Z) = 0 because images must be divisible by
            # the inverted primes.
            return _primary_group(y.invariant_factors, x)
        return UNKNOWN
    return _hom_atom_atom(x, y)


def hom_rule(a: SymbolicGroup | FgAbGroup,
             b: SymbolicGroup | FgAbGroup):
    """Hom(a, b) by the rule table, or UNKNOWN.

    On finitely generated inputs this agrees with :func:`~cellkit.groups.hom_fg`
    exactly.

    >>> print(hom_rule(SymbolicGroup.of(FgAbGroup.cyclic(8)), SymbolicGroup.of(Prufer(2))))
    Z/8
    >>> hom_rule(SymbolicGroup.of(Q()), SymbolicGroup.of(FgAbGroup.cyclic(9))).is_zero
    True
    """
    return _bilinear(_hom_pair, a, b)


def _ext_pair(x: _Piece, y: _Piece):
    if isinstance(y, _DIVISIBLE_ATOMS):
        return SymbolicGroup()  # divisible groups are injective
    if not isinstance(x, FgAbGroup):
        return UNKNOWN
    if isinstance(y, FgAbGroup):
        return SymbolicGroup(ext_fg(x, y))
    # Free sources contribute nothing; for a cyclic source Z/d the value
    # is G/dG, read off the atom.
    if not x.invariant_factors:
        return SymbolicGroup()
    if isinstance(y, (ZpHat, ZLocal, ProdZpHat)):
        return _primary_group(x.invariant_factors, y)
    return UNKNOWN


def ext_rule(a: SymbolicGroup | FgAbGroup,
             b: SymbolicGroup | FgAbGroup):
    """Ext(a, b) by the rule table, or UNKNOWN.

    >>> ext_rule(SymbolicGroup.of(FgAbGroup.cyclic(8)), SymbolicGroup.of(Q())).is_zero
    True
    >>> print(ext_rule(SymbolicGroup.of(FgAbGroup.cyclic(12)), SymbolicGroup.of(ZpHat(2))))
    Z/4
    """
    return _bilinear(_ext_pair, a, b)


# Last, and as a module: grammar imports this one, and either may load first.
from . import grammar  # noqa: E402
