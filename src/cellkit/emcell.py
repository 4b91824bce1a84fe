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

``EMObject(summands)`` is the one door of a wedge, checked as the
symbolic groups are, and ``EMObject()`` is the zero wedge.  The public
functions read their integer parameters with ``json_int``.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import cellkit  # for annotations that name ChainComplex, as base's do
from .base import (ORDER_BOUND, ORDER_DIGIT_CAP, Frozen, InputError, json_int,
                   quoted, quoted_int, strict_int)
from .groups import FgAbGroup, Z, check_prime, ext_fg, hom_fg
from .symbolic import (Q_VECTOR_ATOMS, PrimeSet, ProdZpHatModZ, Prufer,
                       PruferSum, QpHat, SymbolicGroup, ext_rule, hom_rule,
                       is_divisible)

CONVENTION_NOTE = "convention: derived-category values"


class InadmissibleCaseError(InputError):
    """An acyclization outcome code outside the admissible list."""


class EMObject(Frozen):
    """A finite wedge of shifted single-homotopy-group pieces.

    The constructor takes (shift, group) pairs.  It reads each shift with
    ``json_int``, merges the groups at equal shifts with
    ``SymbolicGroup.of``, drops zero groups and sorts by shift, so
    equality is syntactic.

    >>> x = EMObject([(0, FgAbGroup.cyclic(2)), (0, FgAbGroup.cyclic(3))])
    >>> print(x)
    [0: Z/6]
    """

    __slots__ = ("summands",)
    summands: tuple[tuple[int, SymbolicGroup], ...]

    def __init__(self, summands: Iterable[tuple] = ()):
        by_shift: dict[int, list] = {}
        for s, g in summands:
            by_shift.setdefault(json_int(s), []).append(g)
        merged = []
        for s in sorted(by_shift):
            g = SymbolicGroup.of(*by_shift[s])
            if not g.is_zero:
                merged.append((s, g))
        object.__setattr__(self, "summands", tuple(merged))

    @property
    def is_zero(self) -> bool:
        return not self.summands

    def group_at(self, shift: int) -> SymbolicGroup:
        for s, g in self.summands:
            if s == shift:
                return g
        return SymbolicGroup()

    def to_json(self) -> list:
        return [{"shift": s, "group": g.to_json()} for s, g in self.summands]

    def __str__(self) -> str:
        if self.is_zero:
            return "[0]"
        return "[" + ", ".join(f"{s}: {g}" for s, g in self.summands) + "]"


def em_morphism_group(i: int, b: SymbolicGroup | FgAbGroup,
                      n: int, g: SymbolicGroup | FgAbGroup):
    """Morphism group from the piece (i, b) into the piece (n, g).

    Zero unless i = n (a Hom group) or i = n - 1 (an Ext group); values
    come from the closed rule tables and may be UNKNOWN.

    >>> print(em_morphism_group(0, FgAbGroup.cyclic(4), 0, FgAbGroup.cyclic(6)))
    Z/2
    >>> em_morphism_group(5, FgAbGroup.cyclic(4), 0, FgAbGroup.cyclic(6)).is_zero
    True
    """
    if json_int(i) == json_int(n):
        return hom_rule(b, g)
    if i == n - 1:
        return ext_rule(b, g)
    return SymbolicGroup()


def sphere_homotopy(i: int, x: EMObject) -> SymbolicGroup:
    """The i-th homotopy group of the wedge, through the morphism calculus.

    The generator is modeled by the integer piece in degree zero, so each
    summand contributes its Hom group in equal degrees and a vanishing Ext
    group from one degree up.  The rule table answers Hom(Z, G) and
    Ext(Z, G) for every group G, so the value is never UNKNOWN.
    """
    json_int(i)
    return SymbolicGroup.of(*(em_morphism_group(i, Z, s, g)
                              for s, g in x.summands))


def _shape_answer(n: int, target: SymbolicGroup, b_forced_zero: bool,
                  c_candidates: Sequence[FgAbGroup] | None = None) -> dict:
    """The answer that only the shape is known: two slots, in degrees n-1
    and n, with unresolved constraints.

    For target group G, candidate groups B (one degree down) and C (same
    degree) must satisfy:

        (i)   Hom(B, B) + Ext(B, C) = Ext(B, G)
        (ii)  Hom(C, C) = Hom(C, G)
        (iii) Hom(B, C) = Hom(B, G)

    ``b_forced_zero`` records that divisibility of G kills B; an optional
    candidate list for C narrows the solutions further.
    """
    constraints = {
        "target": target.to_json(),
        "identities": [
            "Hom(B,B) + Ext(B,C) = Ext(B,G)",
            "Hom(C,C) = Hom(C,G)",
            "Hom(B,C) = Hom(B,G)",
        ],
        "b_forced_zero": b_forced_zero,
    }
    if c_candidates is not None:
        constraints["c_candidates"] = [g.to_json() for g in c_candidates]
    return {"kind": "shape", "degrees": [n - 1, n], "constraints": constraints}


def exact_answer(obj: EMObject) -> dict:
    """The answer that the cellularization is the wedge ``obj``."""
    return {"kind": "exact", "object": obj.to_json()}


def cell_shape(n: int, g: SymbolicGroup | FgAbGroup) -> dict:
    """Shape of the cellularization of the single piece (n, g).

    At most two homotopy groups can survive, in degrees n and n-1, tied by
    the constraint system; when g is divisible the lower one is forced to
    vanish and the result is a single slot in degree n.

    >>> r = cell_shape(0, FgAbGroup.cyclic(8))
    >>> (r["kind"], r["degrees"], r["constraints"]["b_forced_zero"])
    ('shape', [-1, 0], False)
    """
    json_int(n)
    g = SymbolicGroup.of(g)
    if g.is_zero:
        return {"kind": "zero"}
    return _shape_answer(n, g, is_divisible(g))


def constraint_check(b: FgAbGroup, c: FgAbGroup, g: FgAbGroup) -> bool:
    """Evaluate the three shape constraints on finitely generated groups.

    >>> constraint_check(FgAbGroup(), FgAbGroup.cyclic(4), FgAbGroup.cyclic(8))
    True
    >>> constraint_check(FgAbGroup(), FgAbGroup.cyclic(9), FgAbGroup.cyclic(3))
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
        e = quoted_int(e)
        raise InputError(f"{name} = {e} is too large: {p}^{e} has more "
                         f"than {ORDER_DIGIT_CAP} digits")
    return q


def cell_primary_torsion(m: int, k: int, n: int, p: int) -> EMObject:
    """Cellularization of the p-power piece (m, Z/p^n) at the generator
    (m, Z/p^k): a single piece with the smaller exponent.

    >>> print(cell_primary_torsion(0, 1, 2, 5))
    [0: Z/5]
    """
    if min(json_int(k), json_int(n)) < 1:
        raise InputError("exponents must be positive")
    check_prime(p)
    e, name = (k, "k") if k <= n else (n, "n")
    return EMObject([(m, FgAbGroup.cyclic(_prime_power(p, e, name)))])


def hzp_dichotomy(cellular_flag: bool, r: int, p: int) -> dict:
    """Propagate the mod-p dichotomy through the p-power tower.

    If the mod-p piece dies (flag False), every Z/p^r piece dies with it.
    If it survives, the r = 1 answer is exact, and for r >= 2 the shape
    has no lower slot and the surviving group is one of Z/p^j, j <= r.
    """
    if type(cellular_flag) is not bool:
        raise TypeError(f"cellular_flag must be a boolean, got {quoted(cellular_flag)}")
    if json_int(r) < 1:
        raise InputError("r must be positive")
    check_prime(p)
    if not cellular_flag:
        return {"kind": "zero"}
    if r == 1:
        return exact_answer(EMObject([(0, FgAbGroup.cyclic(p))]))
    # The report lists every candidate order, so their digits together
    # are held to ORDER_DIGIT_CAP; the loop stops at the first excess.
    candidates = []
    q, digits = 1, 0
    for _ in range(r):
        q *= p
        digits += len(str(q))
        if digits > ORDER_DIGIT_CAP:
            r = quoted_int(r)
            raise InputError(
                f"r = {r} is too large: the candidate orders {p}^1 .. {p}^{r}"
                f" have more than {ORDER_DIGIT_CAP} digits in all")
        candidates.append(FgAbGroup.cyclic(q))
    return _shape_answer(0, SymbolicGroup(FgAbGroup.cyclic(q)), True, candidates)


_ADMISSIBLE = {
    "HZ": ("zero", "HZ", "HZ_P", "ProdZpHat"),
    "HZpk": ("zero", "HZpk"),
    "HZpinf": ("zero", "HZpinf", "SigmaZpHat"),
}


def acyclization(target: str, outcome: str, primes: PrimeSet | None = None,
                 p: int | None = None, k: int | None = None) -> EMObject:
    """Cellularization of the target piece, per nullification outcome.

    target "HZ":     outcome in {"zero", "HZ", "HZ_P", "ProdZpHat"}, the
                     last two with a prime set
    target "HZpk":   outcome in {"zero", "HZpk"}, parameters p, k
    target "HZpinf": outcome in {"zero", "HZpinf", "SigmaZpHat"}, parameter p

    Any other case is an InadmissibleCaseError.  A vanished localization
    leaves the whole piece; the identity localization leaves nothing.  For
    the integer piece, localized integers leave the desuspended sum of
    Pruefer groups at the complementary primes, and the p-adic product
    leaves the desuspended product-modulo-Z piece.  For the Pruefer piece,
    SigmaZpHat leaves the p-adic rationals.
    """
    if primes is not None and not isinstance(primes, PrimeSet):
        raise TypeError(f"expected a prime set, got {quoted(primes)}")
    allowed = _ADMISSIBLE.get(target)
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
    if target == "HZpk" and json_int(k) < 1:
        raise InadmissibleCaseError("HZpk cases need k >= 1")
    if target == "HZpinf" and p is None:
        raise InadmissibleCaseError("HZpinf cases need p")
    if target != "HZ":
        check_prime(p)
    if outcome == target:
        return EMObject()
    if outcome == "zero":
        if target == "HZ":
            return EMObject([(0, Z)])
        if target == "HZpk":
            return EMObject([(0, FgAbGroup.cyclic(_prime_power(p, k, "k")))])
        return EMObject([(0, Prufer(p))])
    if outcome == "HZ_P":
        return EMObject([(-1, PruferSum(primes.complement()))])
    if outcome == "ProdZpHat":
        return EMObject([(-1, ProdZpHatModZ(primes))])
    return EMObject([(0, QpHat(p))])


def ring_unit_obstruction(x: EMObject) -> bool:
    """True when x is nonzero but has no possible unit: pi_0(x) = 0.

    A unital multiplication needs a unit map from the generator; if the
    degree-zero morphism group vanishes while the object does not, the
    identity would factor through zero, so no ring structure exists.

    >>> ring_unit_obstruction(EMObject([(0, Z)]))
    False
    """
    return not x.is_zero and sphere_homotopy(0, x).is_zero


def gem_closure_check(obj: EMObject, ring: str = "Z") -> bool:
    """Is the wedge made of pieces with groups that are modules over the
    declared ring, ``"Z"``, ``"Q"`` or ``"Z/m"``?

    The ring is read first, even for the zero wedge; the summands are then
    checked one by one against the atom table.

    >>> gem_closure_check(EMObject([(0, FgAbGroup.cyclic(5))]), "Z/5")
    True
    """
    if not isinstance(obj, EMObject):
        raise TypeError(f"expected an EM object, got {quoted(obj)}")
    if not isinstance(ring, str):
        raise TypeError(f"ring must be a string, got {quoted(ring)}")
    groups = [g for _, g in obj.summands]
    if ring == "Z":
        return True
    if ring == "Q":
        # Q-modules are the rational vector spaces in the atom zoo.
        return all(g.fg.is_zero and
                   all(isinstance(a, Q_VECTOR_ATOMS) for a in g.atoms)
                   for g in groups)
    if ring.startswith("Z/"):
        m = strict_int(ring[2:])
        if m < 1:
            raise InputError(f"ring {quoted(ring)} needs m >= 1")
        # Annihilated by m: finite with all invariant factors dividing m;
        # no atom in the zoo is annihilated by an integer.
        return all(not g.atoms and g.fg.is_annihilated_by(m) for g in groups)
    raise InputError("ring must be 'Z', 'Q', or 'Z/m'")


def semiexact_counterexample(p: int = 2) -> dict:
    """The fixed witness that cellular classes miss extension closure, as
    a JSON report, chain-validated.

    The p-power tower gives a triangle with outer pieces mod p and middle
    piece mod p^2; cellularizing at the mod-p generator keeps only a mod-p
    piece in the middle, so the middle is not cellular even though both
    outer pieces are.  The verdict is True when the counterexample is
    fully exhibited.
    """
    from .complexes import ChainMap, em_complex, triangle_check
    from .matrices import IntMatrix
    zp = FgAbGroup.cyclic(p)
    zp2 = FgAbGroup.cyclic(p * p)
    triangle = (EMObject([(0, zp)]), EMObject([(0, zp2)]),
                EMObject([(0, zp)]))
    cell_middle = cell_primary_torsion(0, 1, 2, p)
    closure_holds = cell_middle == EMObject([(0, zp2)])
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


def chain_model(x: EMObject) -> cellkit.ChainComplex:
    """Chain-complex realization of a wedge with f.g. groups."""
    from .complexes import coproduct, em_complex
    parts = []
    for s, g in x.summands:
        if not g.is_fg:
            raise InputError(f"the summand in degree {quoted_int(s)} is not "
                             "finitely generated")
        parts.append(em_complex(g.fg, s))
    return coproduct(parts)


def chain_homotopy_group(x: cellkit.ChainComplex, i: int) -> FgAbGroup:
    """Homotopy through the derived morphism group out of the generator."""
    from .complexes import derived_hom, em_complex
    return derived_hom(em_complex(Z, 0), x, json_int(i))
