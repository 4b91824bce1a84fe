"""Bounded chain complexes of finitely generated free abelian groups.

The grading is homological: the boundary in degree n maps rank(n) to
rank(n-1).  Suspension shifts degrees up by one and negates boundaries.
Over the integers every bounded complex splits, up to quasi-isomorphism,
as a sum of its homology placed in single degrees; graded homology is
therefore a complete invariant here, and `quasi_iso_eq` is decided by it.

Besides the object-level operations (homology, shift, cones, fibres,
coproducts) this module computes presentations of homology groups and the
maps induced on them by chain maps, which the verification suites use to
decide whether a map is an isomorphism on homology.  Homology already
computed on the parts is carried through `shift` and `coproduct`; certify
mode (``base.certified``) compares it with a fresh computation.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from functools import lru_cache

from . import base
from .base import (DEGREE_CAP, ORDER_BOUND, ORDER_DIGIT_CAP, RANK_CAP, Frozen,
                   InputError, SupportCapError, cached_property, certified,
                   json_int, quoted, quoted_int, quoted_shape,
                   smith_normal_form, strict_int)
from .groups import FgAbGroup, ZERO_GROUP, cokernel, ext_fg, hom_fg
from .matrices import IntMatrix, kernel_basis, product_is_zero, solve

_new, _set = object.__new__, object.__setattr__  # bound once: the doors are hot


class ChainComplexError(InputError):
    """Boundary maps fail the chain complex conditions."""


class ChainMapError(InputError):
    """Components fail the chain map condition."""


class GradedGroup(Frozen):
    """Finitely many degrees carrying f.g. abelian groups; rest are zero."""

    __slots__ = ("groups",)
    groups: tuple[tuple[int, FgAbGroup], ...]

    def __init__(self, groups: Mapping | Sequence = ()):
        table = _degree_table(groups, "group", FgAbGroup)
        _set(self, "groups", tuple(sorted(
            (n, g) for n, g in table.items() if not g.is_zero)))

    @classmethod
    def _trusted(cls, groups: tuple) -> "GradedGroup":
        """``groups``, nonzero and sorted, as library code computed them."""
        h = _new(cls)
        _set(h, "groups", groups)
        return certified(h, cls, groups) if base.CERTIFY else h

    def at(self, n: int) -> FgAbGroup:
        for m, g in self.groups:
            if m == n:
                return g
        return ZERO_GROUP

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(n for n, _ in self.groups)

    @property
    def is_zero(self) -> bool:
        return not self.groups

    def shifted(self, k: int) -> "GradedGroup":
        return GradedGroup._trusted(tuple((n + k, g) for n, g in self.groups))

    def direct_sum(self, *others: "GradedGroup") -> "GradedGroup":
        acc: dict[int, FgAbGroup] = {}
        for gg in (self, *others):
            for n, g in gg.groups:
                acc[n] = acc.get(n, ZERO_GROUP) + g
        return GradedGroup._trusted(tuple(sorted(acc.items())))

    def to_json(self) -> dict:
        return {str(n): g.to_json() for n, g in self.groups}

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        return ", ".join(f"H{n}={g}" for n, g in self.groups)


def _check_caps(n: int, r: int) -> None:
    if abs(n) > DEGREE_CAP:
        raise SupportCapError(
            f"degree {quoted_int(n)} outside the cap |n| <= {DEGREE_CAP}")
    if r > RANK_CAP:
        raise SupportCapError(
            f"rank {quoted_int(r)} exceeds the cap {RANK_CAP}")


def _json_table(obj, key: str, read) -> dict:
    """The JSON object under ``key`` in the JSON object ``obj`` (or {}),
    with each key read by ``strict_int`` and each value by ``read``."""
    if not isinstance(obj, dict):
        raise TypeError(f"expected a JSON object, got {type(obj).__name__}")
    table = obj.get(key, {})
    if not isinstance(table, dict):
        raise TypeError(f"{key!r} must be a JSON object, got {type(table).__name__}")
    return {strict_int(n): read(v) for n, v in table.items()}


def _degree_table(items, what: str, kind=None, shape=None, error=InputError) -> dict:
    """``items`` (a mapping or pairs (n, value)) as a dict: each n an integer
    given once, each value a ``kind`` of the shape ``shape(n)`` if given."""
    table = {}
    for n, v in items.items() if isinstance(items, Mapping) else items:
        if json_int(n) in table:
            raise InputError(f"two {what}s in degree {quoted_int(n)}")
        if kind and type(v) is not kind:
            raise TypeError(f"expected {kind.__name__}, got {quoted(v)}")
        if shape and (v.rows, v.cols) != shape(n):
            raise error(f"{what} in degree {quoted_int(n)} has shape "
                        f"{quoted_shape(v)}, expected {'%dx%d' % shape(n)}")
        table[n] = v
    return table


class ChainComplex(Frozen):
    """A bounded complex of free abelian groups with exact integer boundaries.

    The constructor (and :meth:`build`) takes ranks and boundaries keyed by
    degree, drops zeros, and rejects a repeated degree, a wrong shape and
    d o d != 0.  EM complexes, covers, and `shift`, `cone` and `coproduct`
    go through :meth:`_assembled`, which checks only the caps unless
    ``CELLKIT_CERTIFY=1`` makes ``certified`` rebuild them checked.
    """

    __slots__ = ("ranks", "boundaries", "__dict__")
    ranks: tuple[tuple[int, int], ...]
    boundaries: tuple[tuple[int, IntMatrix], ...]

    def __init__(self, ranks: Mapping | Sequence = (),
                 boundaries: Mapping | Sequence = ()):
        rank_map = _degree_table(ranks, "rank")
        for n, r in rank_map.items():
            if json_int(r) < 0:
                raise ChainComplexError(f"negative rank {quoted_int(r)} in "
                                        f"degree {quoted_int(n)}")
            _check_caps(n, r)
        kept = {n: d for n, d in _degree_table(
            boundaries, "boundary", IntMatrix,
            lambda n: (rank_map.get(n - 1, 0), rank_map.get(n, 0)),
            ChainComplexError).items() if not d.is_zero}
        for n, d in kept.items():
            below = kept.get(n - 1)
            if below is not None and not product_is_zero(below, d):
                raise ChainComplexError(f"d o d != 0 between degrees {n} and {n - 2}")
        _set(self, "ranks", tuple(sorted((n, r) for n, r in rank_map.items() if r)))
        _set(self, "boundaries", tuple(sorted(kept.items())))

    @classmethod
    def build(cls, ranks: Mapping, boundaries: Mapping | None = None) -> "ChainComplex":
        return cls(ranks, boundaries or ())

    @classmethod
    def _assembled(cls, ranks: dict, boundaries: dict) -> "ChainComplex":
        """Normalized with d o d = 0 by construction: shift negates each d,
        the cone's D o D has blocks d_X o d_X, f d_X - d_Y f and d_Y o d_Y,
        a sum is block diagonal, a cover adds only coords @ d @ d = 0, and
        an EM complex has one boundary.  Only the caps are checked,
        unless CERTIFY is set."""
        for n, r in ranks.items():
            _check_caps(n, r)
        x = _new(cls)
        _set(x, "ranks", tuple(sorted(ranks.items())))
        _set(x, "boundaries", tuple(sorted(boundaries.items())))
        return certified(x, cls, *cls._values(x)) if base.CERTIFY else x

    @classmethod
    @lru_cache(maxsize=None)
    def zero_complex(cls) -> "ChainComplex":
        """One shared value; with an empty support it never keeps a cover."""
        return cls._assembled({}, {})

    @cached_property
    def _rank_map(self) -> dict[int, int]:
        return dict(self.ranks)

    @cached_property
    def _boundary_map(self) -> dict[int, IntMatrix]:
        return dict(self.boundaries)

    @property
    def is_zero(self) -> bool:
        return not self.ranks

    @property
    def lo(self) -> int:
        """The lowest degree of nonzero rank; the zero complex has lo = 0
        and hi = -1, so its support lo..hi is empty."""
        return self.ranks[0][0] if self.ranks else 0

    @property
    def hi(self) -> int:
        return self.ranks[-1][0] if self.ranks else -1

    def degrees(self) -> range:
        return range(self.lo, self.hi + 1)

    def rank(self, n: int) -> int:
        return self._rank_map.get(n, 0)

    def boundary(self, n: int) -> IntMatrix:
        d = self._boundary_map.get(n)
        if d is None:
            return IntMatrix.zero(self.rank(n - 1), self.rank(n))
        return d

    @cached_property
    def homology(self) -> GradedGroup:
        """Graded homology, canonical in every degree.

        In a Smith basis for the incoming boundary the cycle group splits
        off the image, so H_n is free of rank
        rank(n) - rank(d_n) - rank(d_{n+1}) plus the torsion cokernel of
        d_{n+1}, read off its Smith diagonal.
        """
        out = []
        boundaries = self._boundary_map      # a missing boundary is zero
        for n in self.degrees():
            down = boundaries.get(n)
            up = boundaries.get(n + 1)
            r_down = 0 if down is None else smith_normal_form(down).rank
            if up is None:
                r_up, torsion = 0, ()
            else:
                f_up = smith_normal_form(up)
                r_up, torsion = f_up.rank, f_up.torsion
            g = FgAbGroup._trusted(self.rank(n) - r_down - r_up, torsion)
            if not g.is_zero:
                out.append((n, g))
        return GradedGroup._trusted(tuple(out))

    def to_json(self) -> dict:
        return {
            "lo": self.lo,
            "hi": self.hi,
            "ranks": {str(n): r for n, r in self.ranks},
            "boundaries": {str(n): d.to_json() for n, d in self.boundaries},
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "ChainComplex":
        return cls.build(_json_table(obj, "ranks", json_int),
                         _json_table(obj, "boundaries", IntMatrix.from_json))

    def __str__(self) -> str:
        if self.is_zero:
            return "ChainComplex(0)"
        return ("ChainComplex(" +
                ", ".join(f"{n}:Z^{r}" for n, r in self.ranks) + ")")


class ChainMap(Frozen):
    """A degreewise integer map commuting with the boundaries.

    The constructor (and :meth:`build`, for payloads, literal maps and
    cover inclusions, and `zero_map`) checks the squares.  Identity and
    scalar maps, `shift_map` and the section projection commute by
    construction and use :meth:`_assembled`.
    """

    __slots__ = ("source", "target", "components", "__dict__")
    source: ChainComplex
    target: ChainComplex
    components: tuple[tuple[int, IntMatrix], ...]

    def __init__(self, source: ChainComplex, target: ChainComplex,
                 components: Mapping | Sequence = ()):
        if not type(source) is type(target) is ChainComplex:
            raise TypeError("a chain map goes between two ChainComplex values")
        kept = {n: m for n, m in _degree_table(
            components, "component", IntMatrix,
            lambda n: (target.rank(n), source.rank(n)),
            ChainMapError).items() if not m.is_zero}
        # f d_X == d_Y f; a missing factor, and so its product, is zero.
        for n in {*kept, *(n for n, _ in source.ranks),
                  *(n for n, _ in target.ranks)}:
            pairs = ((kept.get(n - 1), source._boundary_map.get(n)),
                     (target._boundary_map.get(n), kept.get(n)))
            factors = [m for pair in pairs if None not in pair for m in pair]
            if factors and not product_is_zero(*factors):
                raise ChainMapError(f"not a chain map in degree {n}")
        _set(self, "source", source)
        _set(self, "target", target)
        _set(self, "components", tuple(sorted(kept.items())))

    @classmethod
    def build(cls, source: ChainComplex, target: ChainComplex,
              components: Mapping[int, IntMatrix]) -> "ChainMap":
        return cls(source, target, components)

    @classmethod
    def _assembled(cls, source: ChainComplex, target: ChainComplex,
                   components: dict) -> "ChainMap":
        """Zero components dropped and the rest sorted, as in build, with
        the chain-map condition holding by construction."""
        f = _new(cls)
        _set(f, "source", source)
        _set(f, "target", target)
        _set(f, "components", tuple(sorted(
            (n, m) for n, m in components.items() if not m.is_zero)))
        return certified(f, cls, *cls._values(f)) if base.CERTIFY else f

    @classmethod
    def identity(cls, x: ChainComplex) -> "ChainMap":
        return cls._assembled(x, x, {n: IntMatrix.identity(r) for n, r in x.ranks})

    @classmethod
    def zero_map(cls, source: ChainComplex, target: ChainComplex) -> "ChainMap":
        return cls(source, target)

    @classmethod
    def scalar(cls, x: ChainComplex, m: int) -> "ChainMap":
        return cls._assembled(
            x, x, {n: IntMatrix.diagonal([m] * r) for n, r in x.ranks})

    @cached_property
    def _component_map(self) -> dict[int, IntMatrix]:
        return dict(self.components)

    def component(self, n: int) -> IntMatrix:
        f = self._component_map.get(n)
        if f is None:
            return IntMatrix.zero(self.target.rank(n), self.source.rank(n))
        return f

    @classmethod
    def from_json(cls, obj: Mapping) -> "ChainMap":
        return cls.build(
            ChainComplex.from_json(obj["source"]),
            ChainComplex.from_json(obj["target"]),
            _json_table(obj, "components", IntMatrix.from_json))


def _carry_homology(out: ChainComplex, parts, combine) -> ChainComplex:
    """``out``, with ``combine(*hs)`` as its homology when each of ``parts``
    has its homology h computed already.  The carried value is unchecked;
    certify mode compares it with homology computed afresh."""
    hs = [x.__dict__.get("homology") for x in parts]
    if all(h is not None for h in hs):
        out.__dict__["homology"] = certified(
            combine(*hs), ChainComplex.homology.func, out)
    return out


def _place(rows: int, cols: int, blocks) -> IntMatrix:
    """The rows x cols matrix that holds sign * m with its top left corner
    at (row, col) for each (row, col, m, sign) of ``blocks``, and zeros
    elsewhere; a block whose m is None is zero."""
    entries = [0] * (rows * cols)
    for row, col, m, sign in blocks:
        if m is None:
            continue
        e, c = m.entries, m.cols
        for i in range(m.rows):
            start = (row + i) * cols + col
            line = e[i * c:(i + 1) * c]
            entries[start:start + c] = line if sign == 1 else [-v for v in line]
    return IntMatrix._trusted(rows, cols, tuple(entries))


def shift(x: ChainComplex, k: int) -> ChainComplex:
    """Suspension: degree n of the result is degree n-k of x.

    Boundaries pick up the sign (-1)^k, so shifting is involutive on
    presentations: shift(shift(x, k), -k) == x.  Homology already computed
    on x is carried over, shifted.
    """
    if k == 0 or x.is_zero:
        return x
    sign = -1 if k % 2 else 1
    ranks = {n + k: r for n, r in x.ranks}
    boundaries = {n + k: (d if sign == 1 else -d) for n, d in x.boundaries}
    return _carry_homology(ChainComplex._assembled(ranks, boundaries), [x],
                           lambda h: h.shifted(k))


def shift_map(f: ChainMap, k: int) -> ChainMap:
    """Suspend a chain map; components are reused at shifted degrees, and
    commute with the boundaries, which all change by the same sign."""
    if k == 0:
        return f
    comps = {n + k: m for n, m in f.components}
    return ChainMap._assembled(shift(f.source, k), shift(f.target, k), comps)


def cone(f: ChainMap) -> ChainComplex:
    """Mapping cone C = shift(X, 1) (+) Y with boundary [[d_SigmaX, 0], [-f, d_Y]].

    In degree n, C_n = X_{n-1} (+) Y_n, so X -> Y -> C -> Sigma X is a
    triangle.
    """
    sx, y = shift(f.source, 1), f.target
    degrees = {n for n, _ in sx.ranks} | {n for n, _ in y.ranks}
    ranks = {n: sx.rank(n) + y.rank(n) for n in degrees}
    d_sx, d_y, comps = sx._boundary_map, y._boundary_map, f._component_map
    boundaries = {}
    # Only degrees with a nonzero block get a matrix; the rest are zero.
    for n in set(d_sx) | set(d_y) | {n + 1 for n in comps}:
        rows_x, cols_x = sx.rank(n - 1), sx.rank(n)
        boundaries[n] = _place(
            rows_x + y.rank(n - 1), cols_x + y.rank(n),
            ((0, 0, d_sx.get(n), 1), (rows_x, 0, comps.get(n - 1), -1),
             (rows_x, cols_x, d_y.get(n), 1)))
    return ChainComplex._assembled(ranks, boundaries)


def fiber(f: ChainMap) -> ChainComplex:
    """The fibre shift(cone(f), -1), so that fiber -> X -> Y extends to a triangle."""
    return shift(cone(f), -1)


def coproduct(xs: Sequence[ChainComplex]) -> ChainComplex:
    """Degreewise direct sum.  The sum of the summands' homology is carried
    over when every summand's homology has been computed already."""
    xs = [x for x in xs if not x.is_zero]
    if not xs:
        return ChainComplex.zero_complex()
    if len(xs) == 1:
        return xs[0]
    ranks: dict[int, int] = {}
    for x in xs:
        for n, r in x.ranks:
            ranks[n] = ranks.get(n, 0) + r
    boundaries = {}
    # Block diagonal: only degrees where some summand has a boundary.
    for n in {n for x in xs for n, _ in x.boundaries}:
        blocks = []
        row = col = 0
        for x in xs:
            blocks.append((row, col, x._boundary_map.get(n), 1))
            row += x.rank(n - 1)
            col += x.rank(n)
        boundaries[n] = _place(row, col, blocks)
    return _carry_homology(ChainComplex._assembled(ranks, boundaries), xs,
                           GradedGroup.direct_sum)


def em_complex(g: FgAbGroup, n: int) -> ChainComplex:
    """A free two-term complex with homology g concentrated in degree n.

    The presentation places Z^(t+r) in degree n and Z^t in degree n+1,
    with the invariant factors of g on the diagonal of the boundary.  That
    boundary is the only one, of the right shape, and nonzero (every
    factor is at least 2), so the complex is assembled unchecked.

    >>> em_complex(FgAbGroup.cyclic(4), 2).homology.at(2)
    FgAbGroup(rank=0, invariant_factors=(4,))
    """
    if g.is_zero:
        return ChainComplex.zero_complex()
    t = len(g.invariant_factors)
    ranks = {n: t + g.rank}
    boundaries = {}
    if t:
        ranks[n + 1] = t
        entries = [0] * ((t + g.rank) * t)
        entries[:t * (t + 1):t + 1] = g.invariant_factors
        boundaries[n + 1] = IntMatrix._trusted(t + g.rank, t, tuple(entries))
    return ChainComplex._assembled(ranks, boundaries)


def derived_hom(x: ChainComplex, y: ChainComplex, k: int = 0) -> FgAbGroup:
    """The morphism group T(shift(x, k), y) of the derived category model.

    Over the integers every bounded complex splits as its homology, so the
    group is the sum of degreewise Hom's plus Ext's one degree up:

        T(X, Y) = sum_n Hom(H_n X, H_n Y) + sum_n Ext(H_n X, H_{n+1} Y).
    """
    hx = x.homology.shifted(k)
    hy = y.homology
    parts = []
    for n, a in hx.groups:
        parts.append(hom_fg(a, hy.at(n)))
        parts.append(ext_fg(a, hy.at(n + 1)))
    return FgAbGroup.direct_sum(*parts)


def quasi_iso_eq(x: ChainComplex, y: ChainComplex) -> bool:
    """Quasi-isomorphism type equality: graded homology in canonical form.

    Sound and complete in this model: integral bounded complexes are
    determined up to quasi-isomorphism by graded homology.
    """
    return x.homology == y.homology


def triangle_check(f: ChainMap, z_candidate: ChainComplex) -> dict:
    """Is x -> y -> z_candidate a triangle?  Decided against the cone.

    The candidate closes the triangle exactly when it has the homology of
    cone(f); the JSON report carries both graded homologies degree by
    degree.
    """
    hc = cone(f).homology
    hz = z_candidate.homology
    # The notes below write every invariant factor as text.
    if any(d >= ORDER_BOUND for h in (hc, hz) for _, g in h.groups
           for d in g.invariant_factors):
        raise InputError(f"answer too long: an invariant factor has more "
                         f"than {ORDER_DIGIT_CAP} digits")
    degrees = sorted(set(hc.degrees) | set(hz.degrees))
    checks = [{"degree": n, "ok": hc.at(n) == hz.at(n),
               "note": f"H{n}: cone={hc.at(n)} candidate={hz.at(n)}"}
              for n in degrees]
    if not degrees:
        checks = [{"degree": 0, "ok": True, "note": "both sides acyclic"}]
    return {"method": "cone-comparison",
            "verdict": all(c["ok"] for c in checks),
            "cone_homology": hc.to_json(),
            "candidate_homology": hz.to_json(),
            "checks": checks}


# ---------------------------------------------------------------------------
# Homology presentations and induced maps


@lru_cache(maxsize=8192)
def homology_presentation(x: ChainComplex, n: int
                          ) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """H_n as coker(relations) on a chosen basis of the cycle subgroup,
    given as the triple (cycles, coords, relations).

    ``cycles`` embeds the basis into the chain group, ``coords`` is a left
    inverse defined on cycles, and ``relations`` expresses the incoming
    boundary image in that basis.
    """
    cycles, coords = smith_normal_form(x.boundary(n)).kernel()
    return cycles, coords, coords @ x.boundary(n + 1)


def induced_map(f: ChainMap, n: int) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """The matrix of H_n(f) between the chosen presentations, followed by
    the relations of the source's and of the target's presentation."""
    cycles, _, rel_x = homology_presentation(f.source, n)
    _, coords, rel_y = homology_presentation(f.target, n)
    return coords @ (f.component(n) @ cycles), rel_x, rel_y


def map_on_homology_is_iso(f: ChainMap, n: int) -> bool:
    """Is H_n(f), the map m of :func:`induced_map`, an isomorphism?"""
    m, rel_x, rel_y = induced_map(f, n)
    stacked = _place(m.rows, m.cols + rel_y.cols,
                     ((0, 0, m, 1), (0, m.cols, rel_y, 1)))
    # The kernel before the cokernel, so one tracked reduction serves both.
    preimage = kernel_basis(stacked).take(range(m.cols), None)
    if not cokernel(stacked).is_zero:  # not onto
        return False
    # One to one: every preimage of a relation of y is a relation of x.
    return all(solve(rel_x, preimage.column(j)) is not None
               for j in range(preimage.cols))
