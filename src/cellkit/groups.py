"""Finitely generated abelian groups in invariant-factor normal form.

A group is ``Z^rank + Z/d1 + ... + Z/dt`` with d1 | d2 | ... | dt and every
di >= 2.  That normal form is unique, so equality of values is isomorphism
of groups; all the Hom/Ext computations below return canonical values.

Groups are validated once, where data enters, as every value class is:
``FgAbGroup(...)``, ``free``, ``cyclic`` and ``of_orders`` refuse floats,
booleans, factors below 2 and broken chains.  A group whose chain the
library computed itself (the torsion of a Smith diagonal in ``cokernel``
and homology, ``direct_sum``, ``hom_fg`` and ``ext_fg``) takes the one
unchecked door, ``FgAbGroup._trusted``, which checks nothing unless
``CELLKIT_CERTIFY=1`` makes ``base.certified`` rebuild it through the
public constructor and report a difference as an InternalInvariantError.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from math import gcd, prod

import cellkit  # for annotations that name IntMatrix, as base's do
from . import base
from .base import (Frozen, InputError, _invariant_chain, certified, json_int,
                   quoted_int, smith_normal_form)


class SizeBoundExceededError(InputError):
    """Brute-force enumeration would be too large."""


class FgAbGroup(Frozen):
    """A finitely generated abelian group in canonical form.

    >>> FgAbGroup.of_orders([6, 4, 0])
    FgAbGroup(rank=1, invariant_factors=(2, 12))
    >>> print(FgAbGroup.of_orders([2, 3]))
    Z/6
    """

    __slots__ = ("rank", "invariant_factors")
    rank: int
    invariant_factors: tuple[int, ...]

    def __init__(self, rank: int = 0,
                 invariant_factors: tuple[int, ...] = ()):
        if json_int(rank) < 0:
            raise InputError(f"negative rank {quoted_int(rank)}")
        fs = tuple(map(json_int, invariant_factors))
        if any(d < 2 for d in fs):
            raise InputError(f"invariant factors must be >= 2, got {quoted_int(min(fs))}")
        for a, b in zip(fs, fs[1:]):
            if b % a:
                raise InputError(f"divisibility chain violated: {quoted_int(a)} "
                                 f"does not divide {quoted_int(b)}")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "invariant_factors", fs)

    @classmethod
    def _trusted(cls, rank: int, factors: tuple[int, ...]) -> "FgAbGroup":
        """Z^rank plus Z/d for each d of ``factors``, a canonical chain that
        library code computed itself; only certify mode checks it.  The
        flag is tested before the call because this path is hot."""
        g = object.__new__(cls)
        object.__setattr__(g, "rank", rank)
        object.__setattr__(g, "invariant_factors", factors)
        return certified(g, cls, rank, factors) if base.CERTIFY else g

    @classmethod
    def free(cls, r: int) -> "FgAbGroup":
        return cls(r, ())

    @classmethod
    def cyclic(cls, n: int) -> "FgAbGroup":
        """Z/n, with Z/0 = Z and Z/1 = 0."""
        return cls.of_orders([n])

    @classmethod
    def of_orders(cls, orders: Iterable[int]) -> "FgAbGroup":
        rank = 0
        torsion = []
        for o in orders:
            o = abs(json_int(o))
            if o == 0:
                rank += 1
            elif o >= 2:
                torsion.append(o)
        return cls(rank, _invariant_chain(torsion))

    @classmethod
    def direct_sum(cls, *groups: "FgAbGroup") -> "FgAbGroup":
        """The sum of canonical groups: zero summands drop out, and a lone
        nonzero summand is the sum."""
        groups = [g for g in groups if not g.is_zero]
        if len(groups) == 1:
            return groups[0]
        torsion = [d for g in groups for d in g.invariant_factors]
        return cls._trusted(sum(g.rank for g in groups),
                            _invariant_chain(torsion))

    def __add__(self, other: "FgAbGroup") -> "FgAbGroup":
        return FgAbGroup.direct_sum(self, other)

    @property
    def is_zero(self) -> bool:
        return self.rank == 0 and not self.invariant_factors

    @property
    def is_finite(self) -> bool:
        return self.rank == 0

    @property
    def order(self) -> int | None:
        """Cardinality, or None when infinite."""
        if self.rank:
            return None
        return prod(self.invariant_factors)

    def is_annihilated_by(self, m: int) -> bool:
        return self.rank == 0 and all(m % d == 0 for d in self.invariant_factors)

    def to_json(self) -> dict:
        return {"rank": self.rank, "torsion": list(self.invariant_factors)}

    def __str__(self) -> str:
        parts = ["Z"] * self.rank + [f"Z/{d}" for d in self.invariant_factors]
        return " + ".join(parts) if parts else "0"


ZERO_GROUP = FgAbGroup()
Z = FgAbGroup.free(1)


def hom_fg(a: FgAbGroup, b: FgAbGroup) -> FgAbGroup:
    """Hom(a, b) as a finitely generated abelian group.

    Hom is additive and determined by Hom(Z, B) = B, Hom(Z/d, Z) = 0 and
    Hom(Z/d, Z/e) = Z/gcd(d, e).

    >>> print(hom_fg(FgAbGroup.cyclic(4), FgAbGroup.cyclic(6)))
    Z/2
    >>> print(hom_fg(Z, FgAbGroup.of_orders([0, 5])))
    Z + Z/5
    """
    torsion = [e for e in b.invariant_factors for _ in range(a.rank)]
    torsion += [gcd(d, e) for d in a.invariant_factors
                for e in b.invariant_factors]
    return FgAbGroup._trusted(a.rank * b.rank, _invariant_chain(torsion))


def ext_fg(a: FgAbGroup, b: FgAbGroup) -> FgAbGroup:
    """Ext(a, b), from Ext(Z/d, Z) = Z/d and Ext(Z/d, Z/e) = Z/gcd(d, e).

    >>> print(ext_fg(FgAbGroup.cyclic(2), Z))
    Z/2
    >>> print(ext_fg(Z, FgAbGroup.cyclic(12)))
    0
    """
    torsion: list[int] = []
    for d in a.invariant_factors:
        torsion.extend([d] * b.rank)
        torsion.extend(gcd(d, e) for e in b.invariant_factors)
    return FgAbGroup._trusted(0, _invariant_chain(torsion))


def cokernel(m: cellkit.IntMatrix) -> FgAbGroup:
    """Z^rows / im(m), in canonical form.

    >>> from cellkit.matrices import IntMatrix
    >>> print(cokernel(IntMatrix.diagonal([2, 3])))
    Z/6
    >>> print(cokernel(IntMatrix.zero(2, 0)))
    Z + Z
    """
    f = smith_normal_form(m)
    return FgAbGroup._trusted(m.rows - f.rank, f.torsion)


BRUTE_FORCE_BOUND = 10**6  # the largest |A| * |B| enumerated below


def brute_force_hom_count(a: FgAbGroup, b: FgAbGroup) -> int:
    """|Hom(a, b)| for finite groups, by exhaustive enumeration.

    The relation matrix of ``a`` in invariant-factor form is diagonal, so a
    map is an independent choice of image for each generator; the images
    allowed for a generator of order d are found by enumerating all of
    ``b`` and keeping the elements killed by d.  This is the independent
    oracle for :func:`hom_fg`: it never looks at a gcd.

    >>> brute_force_hom_count(FgAbGroup.cyclic(4), FgAbGroup.cyclic(6))
    2
    """
    if not (a.is_finite and b.is_finite):
        raise SizeBoundExceededError("both groups must be finite")
    if a.order * b.order > BRUTE_FORCE_BOUND:
        raise SizeBoundExceededError(
            f"|A| * |B| = {a.order * b.order} exceeds bound {BRUTE_FORCE_BOUND}")
    factors = b.invariant_factors
    elements = list(itertools.product(*(range(e) for e in factors)))
    count = 1
    for d in a.invariant_factors:
        killed = 0
        for x in elements:
            if all((d * xi) % e == 0 for xi, e in zip(x, factors)):
                killed += 1
        count *= killed
    return count


def p_valuation(n: int, p: int) -> int:
    """Largest e with p^e dividing n (n != 0)."""
    if n == 0:
        raise InputError("valuation of zero")
    n = abs(n)
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def primary_part(d: int, primes: Iterable[int], cofinite: bool = False) -> int:
    """The P-primary part of a cyclic order d != 0: the largest divisor of d
    all of whose prime factors lie in P.

    P is the listed primes, or with ``cofinite`` every prime but the listed
    ones; either way no factorization of d is needed.

    >>> primary_part(360, [2, 5])
    40
    >>> primary_part(360, [2, 5], cofinite=True)
    9
    """
    d = abs(d)
    if cofinite:
        for p in primes:
            d //= p ** p_valuation(d, p)
        return d
    return prod(p ** p_valuation(d, p) for p in primes)


# Miller-Rabin with the first twelve primes as bases has no strong
# pseudoprime below PSI_12 (Sorenson and Webster, "Strong pseudoprimes to
# twelve prime bases", Math. Comp. 86, 2017), so below it the test is exact.
_MR_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
PSI_12 = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Exact primality test for n < PSI_12; larger n raise InputError.

    >>> [n for n in range(-3, 20) if is_prime(n)]
    [2, 3, 5, 7, 11, 13, 17, 19]
    """
    if n >= PSI_12:
        raise InputError(
            f"{quoted_int(n)} is beyond the exact primality bound {PSI_12}")
    if n < 2:
        return False
    for a in _MR_PRIMES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_PRIMES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_prime(p: int) -> int:
    """``p`` itself when it is a prime integer; TypeError when it is no
    integer (a float, a boolean or a text) and InputError otherwise."""
    if not is_prime(json_int(p)):
        raise InputError(f"{quoted_int(p)} is not prime")
    return p
