"""Finitely generated abelian groups in invariant-factor normal form.

A group is ``Z^rank + Z/d1 + ... + Z/dt`` with d1 | d2 | ... | dt and every
di >= 2.  That normal form is unique, so equality of values is isomorphism
of groups; all the Hom/Ext computations below return canonical values.
"""

from __future__ import annotations

import itertools
from math import gcd, prod
from typing import Iterable

from .matrices import Frozen, InputError, IntMatrix, smith_normal_form


class SizeBoundExceededError(InputError):
    """Brute-force enumeration would be too large."""


def _invariant_chain(torsion: Iterable[int]) -> tuple[int, ...]:
    """Canonicalize a multiset of cyclic orders into a divisibility chain.

    Works by one sweep of gcd/lcm surgery on pairs, which never needs an
    integer factorization:

    >>> _invariant_chain([6, 4])
    (2, 12)
    >>> _invariant_chain([2, 3])
    (6,)
    """
    fs = [x for x in torsion if x > 1]
    # After step i, fs[i] divides every later entry: the gcd or lcm of two
    # multiples of fs[i] is again a multiple of fs[i].
    for i in range(len(fs)):
        for j in range(i + 1, len(fs)):
            a, b = fs[i], fs[j]
            if b % a:
                g = gcd(a, b)
                fs[i], fs[j] = g, (a // g) * b
    return tuple(x for x in fs if x > 1)


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
        if rank < 0:
            raise ValueError("negative rank")
        fs = tuple(int(d) for d in invariant_factors)
        if any(d < 2 for d in fs):
            raise ValueError(f"invariant factors must be >= 2, got {fs}")
        for a, b in zip(fs, fs[1:]):
            if b % a:
                raise ValueError(f"divisibility chain violated: {a} does not divide {b}")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "invariant_factors", fs)

    @classmethod
    def zero(cls) -> "FgAbGroup":
        return cls(0, ())

    @classmethod
    def free(cls, r: int) -> "FgAbGroup":
        return cls(r, ())

    @classmethod
    def cyclic(cls, n: int) -> "FgAbGroup":
        """Z/n, with Z/0 = Z and Z/1 = 0."""
        return cls.of_orders([n])

    @classmethod
    def of_chain(cls, rank: int, chain: Iterable[int]) -> "FgAbGroup":
        """Z^rank plus Z/d for each d > 1 of a divisibility chain."""
        return cls(rank, tuple(d for d in chain if d > 1))

    @classmethod
    def of_orders(cls, orders: Iterable[int]) -> "FgAbGroup":
        rank = 0
        torsion = []
        for o in orders:
            o = abs(int(o))
            if o == 0:
                rank += 1
            elif o >= 2:
                torsion.append(o)
        return cls(rank, _invariant_chain(torsion))

    @classmethod
    def direct_sum(cls, *groups: "FgAbGroup") -> "FgAbGroup":
        rank = sum(g.rank for g in groups)
        torsion = [d for g in groups for d in g.invariant_factors]
        return cls(rank, _invariant_chain(torsion))

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


ZERO_GROUP = FgAbGroup.zero()
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
    orders: list[int] = [0] * (a.rank * b.rank)
    for e in b.invariant_factors:
        orders.extend([e] * a.rank)
    for d in a.invariant_factors:
        for e in b.invariant_factors:
            orders.append(gcd(d, e))
    return FgAbGroup.of_orders(orders)


def ext_fg(a: FgAbGroup, b: FgAbGroup) -> FgAbGroup:
    """Ext(a, b), from Ext(Z/d, Z) = Z/d and Ext(Z/d, Z/e) = Z/gcd(d, e).

    >>> print(ext_fg(FgAbGroup.cyclic(2), Z))
    Z/2
    >>> print(ext_fg(Z, FgAbGroup.cyclic(12)))
    0
    """
    orders: list[int] = []
    for d in a.invariant_factors:
        orders.extend([d] * b.rank)
        for e in b.invariant_factors:
            orders.append(gcd(d, e))
    return FgAbGroup.of_orders(orders)


def cokernel(m: IntMatrix) -> FgAbGroup:
    """Z^rows / im(m), in canonical form.

    >>> print(cokernel(IntMatrix.diagonal([2, 3])))
    Z/6
    >>> print(cokernel(IntMatrix.zero(2, 0)))
    Z + Z
    """
    if m.rows == 0:
        return ZERO_GROUP
    if m.cols == 0 or m.is_zero:
        return FgAbGroup.free(m.rows)
    f = smith_normal_form(m)
    return FgAbGroup.of_chain(m.rows - f.rank, f.nonzero_diagonal)


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
        raise ValueError("valuation of zero")
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
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
PSI_12 = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Exact primality test for n < PSI_12; larger n raise InputError.

    >>> [n for n in range(-3, 20) if is_prime(n)]
    [2, 3, 5, 7, 11, 13, 17, 19]
    """
    if n >= PSI_12:
        raise InputError(f"{n} is beyond the exact primality bound {PSI_12}")
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
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
    """``p`` itself when it is prime; InputError otherwise."""
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    return p
