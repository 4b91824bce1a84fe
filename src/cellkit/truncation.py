"""Connective covers, Postnikov sections, and their verification suites.

For the sphere-like generator sitting in degree k, the colocal objects are
the complexes with homology concentrated in degrees >= k and the null
objects are those with homology in degrees < k.  Both truncations are
exact at the matrix level: the cover replaces degree k by the kernel of
d_k, and the section replaces it by the image of d_k, a quotient of x
with a chain-level projection from x.

The suites turn the closure lemmas, the decomposition triangle, the
t-structure axioms and the failure of suspension-commutation into
machine checks over sample families.
"""

from __future__ import annotations

from collections.abc import Sequence

from .base import InputError, json_int, smith_normal_form
from .complexes import (ChainComplex, ChainMap, GradedGroup, cone,
                        coproduct, derived_hom, em_complex, fiber,
                        map_on_homology_is_iso, quasi_iso_eq, shift,
                        shift_map)
from .groups import FgAbGroup
from .matrices import IntMatrix


class PreconditionError(InputError):
    """A stated precondition of an operation does not hold."""


def is_colocal(x: ChainComplex, k: int) -> bool:
    """Homology concentrated in degrees >= k (the cover-side class)."""
    return all(n >= k for n in x.homology.degrees)


def is_null(x: ChainComplex, k: int) -> bool:
    """Homology concentrated in degrees < k (the section-side class)."""
    return all(n < k for n in x.homology.degrees)


def _cover_data(x: ChainComplex, k: int) -> tuple[ChainComplex, IntMatrix | None]:
    """The cover, and the kernel of d_k that becomes its degree k when the
    cut falls inside the support (None when the cover is x or zero).

    A cut inside the support is computed once per complex object: the
    answer is kept in ``x.__dict__``, keyed by k, like ``x.homology``.
    The two outer cases are not kept, so x never refers to itself.
    """
    if json_int(k) <= x.lo:
        return x, None
    if k > x.hi:
        return ChainComplex.zero_complex(), None
    covers = x.__dict__.setdefault("_covers", {})
    if k in covers:
        return covers[k]
    kernel, coords = smith_normal_form(x.boundary(k)).kernel()
    # d o d = 0 is inherited from x: the one new composite is coords @
    # d_{k+1} @ d_{k+2} = 0.  Normalized as build would: coords is a left
    # inverse on the kernel, which holds im d_{k+1}, so coords @ d_{k+1}
    # is zero only where x has no d_{k+1}.
    ranks = {n: r for n, r in x.ranks if n > k}
    boundaries = {n: d for n, d in x.boundaries if n >= k + 2}
    if kernel.cols:                                    # kernel is rank(k) x kappa
        ranks[k] = kernel.cols
        d = x._boundary_map.get(k + 1)
        if d is not None:
            boundaries[k + 1] = coords @ d
    found = covers[k] = ChainComplex._assembled(ranks, boundaries), kernel
    return found


def connective_cover(x: ChainComplex, k: int) -> ChainComplex:
    """Good truncation keeping homology in degrees >= k.

    Degrees above k are untouched; degree k is replaced by the kernel of
    the outgoing boundary, so H_n agrees with x for n >= k and vanishes
    below.
    """
    return _cover_data(x, k)[0]


def cover_inclusion(x: ChainComplex, k: int) -> ChainMap:
    """The canonical chain-level map connective_cover(x, k) -> x."""
    cover, kernel = _cover_data(x, k)
    comps = {n: kernel if n == k and kernel is not None
             else IntMatrix.identity(r) for n, r in cover.ranks}
    return ChainMap.build(cover, x, comps)


def _section_data(x: ChainComplex, k: int) -> tuple[ChainComplex, IntMatrix | None]:
    """The section, and the projection of x_k onto the image of d_k that
    becomes its degree k (None when the section is x or zero)."""
    if json_int(k) > x.hi:
        return x, None
    if k <= x.lo:
        return ChainComplex.zero_complex(), None
    image, proj = smith_normal_form(x.boundary(k)).image()
    ranks = {n: x.rank(n) for n in range(x.lo, k)}
    ranks[k] = image.cols
    boundaries = {n: x.boundary(n) for n in range(x.lo + 1, k)}
    boundaries[k] = image
    return ChainComplex.build(ranks, boundaries), proj


def postnikov(x: ChainComplex, k: int) -> ChainComplex:
    """Good truncation keeping homology in degrees < k: degrees below k are
    untouched, and degree k becomes the image of d_k, a free group."""
    return _section_data(x, k)[0]


def section_with_projection(x: ChainComplex, k: int) -> tuple[ChainComplex, ChainMap]:
    """postnikov(x, k) and the chain-level projection onto it from x: the
    identity below k and onto the image of d_k in degree k.  It commutes
    unchecked: d_k = basis @ proj, and as the basis has full column rank,
    proj @ d_{k+1} = 0 follows from d_k @ d_{k+1} = 0."""
    section, proj = _section_data(x, k)
    comps = {n: proj if n == k else IntMatrix.identity(r)
             for n, r in section.ranks}
    return section, ChainMap._assembled(x, section, comps)


def nullification_fiber(x: ChainComplex, k: int) -> tuple[ChainComplex, bool]:
    """Fibre of the canonical projection to the section, and whether it
    agrees with the connective cover up to quasi-isomorphism.

    In this model the agreement always holds: the morphism group out of
    the desuspended generator into the cover vanishes, so the fibre of the
    nullification is the cellularization.
    """
    _, proj = section_with_projection(x, k)
    fib = fiber(proj)
    return fib, quasi_iso_eq(fib, connective_cover(x, k))


def cell_null_triangle(x: ChainComplex, k: int) -> bool:
    """Does the triangle cover -> x -> section -> shift(cover, 1) verify?

    The three graded pieces determine the homology sequence completely
    (each map is degreewise either an isomorphism or zero), so the check
    reduces to exact bookkeeping: the cover carries H_n(x) for n >= k,
    the section carries it for n < k, and each vanishes on the
    complementary side.  Exactness at the three nodes follows.
    """
    hx = x.homology.groups
    return (connective_cover(x, k).homology
            == GradedGroup._trusted(tuple((n, g) for n, g in hx if n >= k))
            and postnikov(x, k).homology
            == GradedGroup._trusted(tuple((n, g) for n, g in hx if n < k)))


def suspension_noncommute_witness(x: ChainComplex, k: int) -> bool:
    """True when covering does not commute with suspension on x.

    Requires H_{k-1}(x) != 0; under that hypothesis the cover of the
    suspension sees the extra class in degree k while the suspended cover
    cannot, so the result is expected True.
    """
    json_int(k)  # a float or a boolean is no degree
    if x.homology.at(k - 1).is_zero:
        raise PreconditionError(f"H_{k-1}(X) vanishes; the witness needs it nonzero")
    return not quasi_iso_eq(connective_cover(shift(x, 1), k),
                            shift(connective_cover(x, k), 1))


# ---------------------------------------------------------------------------
# t-structure check


def in_heart(x: ChainComplex, k: int) -> bool:
    """Homology concentrated in the single degree k."""
    return all(n == k for n in x.homology.degrees)


def tstructure_check(k: int, samples: Sequence[tuple[ChainComplex, ChainComplex]]
                     ) -> dict:
    """Check the three t-structure axioms on a family of sample pairs, and
    return the JSON report.

    The lower class is "homology >= k" (covers), the upper class is
    "homology < k" (sections).  For each pair (X, Y):

    * morphism groups from the cover of X into the section of Y vanish;
    * the classes nest correctly under shifting the cut and are closed
      under the appropriate suspensions;
    * the decomposition triangle of X verifies.
    """
    hom_vanishing = shift_nesting = decomposition = True
    for x, y in samples:
        xc = connective_cover(x, k)
        yn = postnikov(y, k)
        hom_vanishing &= derived_hom(xc, yn, 0).is_zero
        shift_nesting &= (is_colocal(xc, k - 1)
                          and is_null(yn, k + 1)
                          and is_colocal(shift(xc, 1), k)
                          and is_null(shift(yn, -1), k))
        decomposition &= cell_null_triangle(x, k)
    probe_group = FgAbGroup.of_orders([0, 4])
    single = in_heart(em_complex(probe_group, k), k)
    two = in_heart(coproduct([em_complex(probe_group, k),
                              em_complex(probe_group, k + 1)]), k)
    heart = (("single-degree object", single), ("two-degree object", two),
             ("heart detection", single and not two))
    return {
        "k": k,
        "samples": len(samples),
        "axioms": {"hom_vanishing": hom_vanishing,
                   "shift_nesting": shift_nesting,
                   "decomposition": decomposition},
        "heart": [{"object": name, "in_heart": ok} for name, ok in heart],
        "verdict": hom_vanishing and shift_nesting and decomposition,
    }


# ---------------------------------------------------------------------------
# Suites


def _check(name: str, k: int, verdict: bool, witnesses: Sequence[str],
           expected: bool = True) -> dict:
    """The JSON body of one suite check."""
    return {"check": name, "k": k, "verdict": verdict, "expected": expected,
            "witnesses": list(witnesses)}


def _suite(name: str, k: int, checks: list[dict], seed: int | None = None
           ) -> dict:
    """The JSON report of a suite: ok when every check came out as expected."""
    return {"suite": name, "k": k, "seed": seed,
            "ok": all(c["verdict"] == c["expected"] for c in checks),
            "checks": checks}


def _canonical_maps(a: ChainComplex, b: ChainComplex) -> list[tuple[str, ChainMap]]:
    """A small family of honest chain maps between two complexes."""
    out = [("zero", ChainMap.zero_map(a, b))]
    if a == b:
        out.append(("identity", ChainMap.identity(a)))
        out.append(("double", ChainMap.scalar(a, 2)))
    return out


def closure_suite(samples: Sequence[ChainComplex], k: int,
                  seed: int | None = None) -> dict:
    """Closure properties of the cover and section classes on samples,
    as the JSON report of the suite.

    Checks, with witnesses for any violation found (none are expected):

    a. the cover class is closed under cofibres and coproducts;
    b. the section class is closed under fibres, extensions, and finite
       products (= finite sums);
    c. covering a section and sectioning a cover both give acyclics;
    d. covers commute with shifting against a moved cut:
       cover(shift(X, j), k) agrees with shift(cover(X, k - j), j);
    e. when the cofibre of a map has acyclic cover, the map itself is an
       equivalence on homology in degrees >= k (checked on honest induced
       maps);

    plus one adversarial probe that must FAIL: the section class is not
    closed under cofibres, exhibited on a Pruefer-style witness.
    """
    samples = list(samples)
    covers = [connective_cover(s, k) for s in samples]
    sections = [postnikov(s, k) for s in samples]
    checks = []

    # (a) cofibres and coproducts of covers stay covers.
    bad: list[str] = []
    for i, a in enumerate(covers):
        b = covers[(i + 1) % len(covers)]
        for name, f in _canonical_maps(a, b):
            c = cone(f)
            if not is_colocal(c, k):
                bad.append(f"cone of {name} map on sample {i}")
    for i in range(0, len(covers) - 1, 2):
        if not is_colocal(coproduct(covers[i:i + 2]), k):
            bad.append(f"coproduct of samples {i},{i + 1}")
    checks.append(_check("cover-class-closed-under-cofibres-and-coproducts",
                         k, not bad, bad))

    # (b) fibres, extensions and finite sums of sections stay sections.
    bad = []
    for i, a in enumerate(sections):
        b = sections[(i + 1) % len(sections)]
        for name, f in _canonical_maps(a, b):
            if not is_null(fiber(f), k):
                bad.append(f"fibre of {name} map on sample {i}")
        # Extension of a by shift(b, 0): the cone of a map
        # shift(b, -1) -> a is an extension of b by a.
        for name, g in _canonical_maps(shift(b, -1), a):
            ext = cone(g)
            if not is_null(ext, k):
                bad.append(f"extension via {name} map on sample {i}")
    for i in range(0, len(sections) - 1, 2):
        if not is_null(coproduct(sections[i:i + 2]), k):
            bad.append(f"finite product of samples {i},{i + 1}")
    # One honest non-split extension: Z/p^2 glued from Z/p and Z/p via the
    # generator of Ext(Z/p, Z/p), realized as a chain-level cone.
    p = 3
    base = em_complex(FgAbGroup.cyclic(p), k - 2)
    glue = ChainMap.build(shift(base, -1), base,
                          {k - 2: IntMatrix.from_rows([[1]])})
    ext = cone(glue)
    if not (is_null(ext, k) and ext.homology.at(k - 2) == FgAbGroup.cyclic(p * p)):
        bad.append("non-split extension probe")
    checks.append(_check("section-class-closed-under-fibres-extensions-products",
                         k, not bad, bad))

    # (c) mixed truncations are acyclic.
    bad = []
    for i, s in enumerate(samples):
        if not connective_cover(postnikov(s, k), k).homology.is_zero:
            bad.append(f"cover of section, sample {i}")
        if not postnikov(connective_cover(s, k), k).homology.is_zero:
            bad.append(f"section of cover, sample {i}")
    checks.append(_check("mixed-truncations-acyclic", k, not bad, bad))

    # (d) shifted covers against a moved cut.
    bad = []
    for i, s in enumerate(samples):
        for j in range(-2, 3):
            if not quasi_iso_eq(connective_cover(shift(s, j), k),
                                shift(connective_cover(s, k - j), j)):
                bad.append(f"sample {i}, shift {j}")
    checks.append(_check("cover-commutes-with-shifted-cut", k, not bad, bad))

    # (e) acyclic cofibre-cover forces an equivalence above the cut.
    bad = []
    for i, s in enumerate(samples):
        f = cover_inclusion(s, k)
        z = cone(f)
        if not connective_cover(z, k).homology.is_zero:
            bad.append(f"sample {i}: cofibre cover unexpectedly nonzero")
            continue
        degrees = set(f.source.homology.degrees) | set(s.homology.degrees)
        for n in degrees:
            if n >= k and not map_on_homology_is_iso(f, n):
                bad.append(f"sample {i}: not iso on H{n}")
    checks.append(_check("acyclic-cofibre-cover-gives-equivalence",
                         k, not bad, bad))

    # Adversarial probe: cofibres do NOT preserve the section class.
    p = 2
    null_source = shift(em_complex(FgAbGroup.cyclic(p), 0), k - 1)
    target = em_complex(FgAbGroup.free(1), k)
    probe_map = ChainMap.build(null_source, target,
                               {k: IntMatrix.from_rows([[1]])})
    probe_cone = cone(probe_map)
    checks.append(_check(
        "section-class-closed-under-cofibres", k, is_null(probe_cone, k),
        [f"cone has H{k} = {probe_cone.homology.at(k)}"], expected=False))

    return _suite("closure-suite", k, checks, seed)


def nontriangulated_witness_suite(k: int) -> dict:
    """Four witnesses that covering at a cut is not a triangulated functor,
    as the JSON report of the suite.

    Each check exhibits the expected failure: a colocal object whose
    desuspension is not colocal; an equivalence whose suspension is not;
    two cuts that disagree on one object; and a triangle whose image
    under the cover has a non-exact homology sequence.
    """
    checks = []

    w = em_complex(FgAbGroup.free(1), k)
    checks.append(_check(
        "colocal-object-with-non-colocal-desuspension", k,
        is_colocal(w, k) and not is_colocal(shift(w, -1), k),
        [f"object with H{k} = Z; desuspension has H{k - 1} = Z"]))

    x0 = em_complex(FgAbGroup.cyclic(2), k - 1)
    c = cover_inclusion(x0, k)          # zero complex into x0
    sc = shift_map(c, 1)
    equiv_now = all(map_on_homology_is_iso(c, n)
                    for n in set(x0.homology.degrees) if n >= k)
    equiv_after = all(map_on_homology_is_iso(sc, n)
                      for n in set(shift(x0, 1).homology.degrees) if n >= k)
    checks.append(_check(
        "equivalence-with-non-equivalence-suspension", k,
        equiv_now and not equiv_after,
        [f"suspended map misses H{k} = {shift(x0, 1).homology.at(k)}"]))

    checks.append(_check(
        "covers-at-adjacent-cuts-differ", k,
        not quasi_iso_eq(connective_cover(w, k), connective_cover(w, k + 1)),
        [f"cut {k} keeps H{k} = Z, cut {k + 1} kills it"]))

    # Image of the triangle X --p--> X -> cone under the cover: the four
    # truncated corners cannot sit in an exact sequence because only the
    # suspended corner survives.
    p = 2
    x = em_complex(FgAbGroup.free(1), k - 1)
    f = ChainMap.scalar(x, p)
    z = cone(f)
    corners = [connective_cover(obj, k) for obj in (x, x, z, shift(x, 1))]
    survivor = corners[3].homology.at(k)
    dead = all(c.homology.is_zero for c in corners[:3])
    checks.append(_check(
        "triangle-image-not-exact", k, dead and not survivor.is_zero,
        [f"image sequence 0 -> 0 -> 0 -> {survivor}: "
         f"exactness fails at the last corner"]))

    return _suite("nontriangulated-suite", k, checks)
