"""Bounded chain complexes of finitely generated free abelian groups.

The grading is homological: the boundary in degree n maps rank(n) to
rank(n-1).  Suspension shifts degrees up by one and negates boundaries.
Over the integers every bounded complex splits, up to quasi-isomorphism,
as a sum of its homology placed in single degrees; graded homology is
therefore a complete invariant here, and `quasi_iso_eq` is decided by it.

Besides the object-level operations (homology, shift, cones, fibres,
coproducts) this module computes presentations of homology groups and the
maps induced on them by chain maps, which the verification suites use to
decide whether a map is an isomorphism on homology.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping, Sequence

from .groups import FgAbGroup, ZERO_GROUP, cokernel, ext_fg, hom_fg
from .matrices import (ORDER_BOUND, ORDER_DIGIT_CAP, Frozen, InputError,
                       IntMatrix, cached_property, hstack, json_int,
                       kernel_basis, smith_normal_form, solve, strict_int)

DEGREE_CAP = 64
RANK_CAP = 512


class SupportCapError(InputError):
    """Degree or rank outside the supported desk-scale window."""


class ChainComplexError(InputError):
    """Boundary maps fail the chain complex conditions."""


class ChainMapError(InputError):
    """Components fail the chain map condition."""


class GradedGroup(Frozen):
    """Finitely many degrees carrying f.g. abelian groups; rest are zero."""

    __slots__ = ("groups",)
    groups: tuple[tuple[int, FgAbGroup], ...]

    def __init__(self, groups: tuple[tuple[int, FgAbGroup], ...] = ()):
        object.__setattr__(self, "groups", groups)

    @classmethod
    def of(cls, mapping: Mapping[int, FgAbGroup]) -> "GradedGroup":
        items = tuple(sorted((int(n), g) for n, g in mapping.items()
                             if not g.is_zero))
        return cls(items)

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
        return GradedGroup(tuple((n + k, g) for n, g in self.groups))

    def direct_sum(self, *others: "GradedGroup") -> "GradedGroup":
        acc: dict[int, FgAbGroup] = {}
        for gg in (self, *others):
            for n, g in gg.groups:
                acc[n] = acc.get(n, ZERO_GROUP) + g
        return GradedGroup.of(acc)

    def to_json(self) -> dict:
        return {str(n): g.to_json() for n, g in self.groups}

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        return ", ".join(f"H{n}={g}" for n, g in self.groups)


def _json_table(obj, key: str) -> dict:
    """The JSON object under ``key`` in the JSON object ``obj``, or {}."""
    if not isinstance(obj, dict):
        raise TypeError(f"expected a JSON object, got {type(obj).__name__}")
    table = obj.get(key, {})
    if not isinstance(table, dict):
        raise TypeError(f"{key!r} must be a JSON object, got {type(table).__name__}")
    return table


class ChainComplex(Frozen):
    """A bounded complex of free abelian groups with exact integer boundaries.

    Construct through :meth:`build`, which normalizes the presentation
    (zero ranks and zero boundary matrices are dropped) and rejects data
    with d o d != 0.
    """

    __slots__ = ("ranks", "boundaries", "__dict__")
    ranks: tuple[tuple[int, int], ...]
    boundaries: tuple[tuple[int, IntMatrix], ...]

    def __init__(self, ranks: tuple[tuple[int, int], ...] = (),
                 boundaries: tuple[tuple[int, IntMatrix], ...] = ()):
        object.__setattr__(self, "ranks", ranks)
        object.__setattr__(self, "boundaries", boundaries)

    @classmethod
    def build(cls, ranks: Mapping[int, int],
              boundaries: Mapping[int, IntMatrix] | None = None) -> "ChainComplex":
        boundaries = dict(boundaries or {})
        rank_map = {}
        for n, r in ranks.items():
            n, r = int(n), int(r)
            if r < 0:
                raise ChainComplexError(f"negative rank {r} in degree {n}")
            if abs(n) > DEGREE_CAP:
                raise SupportCapError(
                    f"degree {n} outside the cap |n| <= {DEGREE_CAP}")
            if r > RANK_CAP:
                raise SupportCapError(f"rank {r} exceeds the cap {RANK_CAP}")
            if r:
                rank_map[n] = r

        def rank_of(n):
            return rank_map.get(n, 0)

        kept = {}
        for n, d in boundaries.items():
            n = int(n)
            expected = (rank_of(n - 1), rank_of(n))
            if (d.rows, d.cols) != expected:
                raise ChainComplexError(
                    f"boundary in degree {n} has shape {d.rows}x{d.cols}, "
                    f"expected {expected[0]}x{expected[1]}")
            if not d.is_zero:
                kept[n] = d

        for n, d in kept.items():
            below = kept.get(n - 1)
            if below is not None and not (below @ d).is_zero:
                raise ChainComplexError(f"d o d != 0 between degrees {n} and {n - 2}")

        return cls(tuple(sorted(rank_map.items())),
                   tuple(sorted(kept.items())))

    @classmethod
    def zero_complex(cls) -> "ChainComplex":
        return cls((), ())

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
        if self.is_zero:
            raise ValueError("zero complex has no support")
        return self.ranks[0][0]

    @property
    def hi(self) -> int:
        if self.is_zero:
            raise ValueError("zero complex has no support")
        return self.ranks[-1][0]

    def degrees(self) -> range:
        if self.is_zero:
            return range(0)
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
                r_up, chain = 0, ()
            else:
                f_up = smith_normal_form(up)
                r_up, chain = f_up.rank, f_up.nonzero_diagonal
            g = FgAbGroup.of_chain(self.rank(n) - r_down - r_up, chain)
            if not g.is_zero:
                out.append((n, g))
        return GradedGroup(tuple(out))

    def to_json(self) -> dict:
        lo, hi = (self.lo, self.hi) if not self.is_zero else (0, -1)
        return {
            "lo": lo,
            "hi": hi,
            "ranks": {str(n): r for n, r in self.ranks},
            "boundaries": {str(n): d.to_json() for n, d in self.boundaries},
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "ChainComplex":
        ranks = {strict_int(n): json_int(r)
                 for n, r in _json_table(obj, "ranks").items()}
        boundaries = {strict_int(n): IntMatrix.from_json(d)
                      for n, d in _json_table(obj, "boundaries").items()}
        return cls.build(ranks, boundaries)

    def __str__(self) -> str:
        if self.is_zero:
            return "ChainComplex(0)"
        return ("ChainComplex(" +
                ", ".join(f"{n}:Z^{r}" for n, r in self.ranks) + ")")


class ChainMap(Frozen):
    """A degreewise integer map commuting with the boundaries."""

    __slots__ = ("source", "target", "components", "__dict__")
    source: ChainComplex
    target: ChainComplex
    components: tuple[tuple[int, IntMatrix], ...]

    def __init__(self, source: ChainComplex, target: ChainComplex,
                 components: tuple[tuple[int, IntMatrix], ...] = ()):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "components", components)

    @classmethod
    def build(cls, source: ChainComplex, target: ChainComplex,
              components: Mapping[int, IntMatrix]) -> "ChainMap":
        kept = {}
        for n, f in components.items():
            n = int(n)
            expected = (target.rank(n), source.rank(n))
            if (f.rows, f.cols) != expected:
                raise ChainMapError(
                    f"component in degree {n} has shape {f.rows}x{f.cols}, "
                    f"expected {expected[0]}x{expected[1]}")
            if not f.is_zero:
                kept[n] = f

        def product(a, b):
            # A missing factor is a zero matrix, and so is the product.
            return None if a is None or b is None else a @ b

        degrees = set(kept)
        degrees.update(n for n, _ in source.ranks)
        degrees.update(n for n, _ in target.ranks)
        for n in degrees:
            left = product(kept.get(n - 1), source._boundary_map.get(n))
            right = product(target._boundary_map.get(n), kept.get(n))
            if left is None:
                commutes = right is None or right.is_zero
            elif right is None:
                commutes = left.is_zero
            else:
                commutes = left == right
            if not commutes:
                raise ChainMapError(f"not a chain map in degree {n}")
        return cls(source, target, tuple(sorted(kept.items())))

    @classmethod
    def identity(cls, x: ChainComplex) -> "ChainMap":
        return cls.build(x, x, {n: IntMatrix.identity(r) for n, r in x.ranks})

    @classmethod
    def zero_map(cls, source: ChainComplex, target: ChainComplex) -> "ChainMap":
        return cls.build(source, target, {})

    @classmethod
    def scalar(cls, x: ChainComplex, m: int) -> "ChainMap":
        return cls.build(x, x, {n: IntMatrix.diagonal([m] * r) for n, r in x.ranks})

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
            {strict_int(n): IntMatrix.from_json(f)
             for n, f in _json_table(obj, "components").items()})


def _known_homology(x: ChainComplex) -> GradedGroup | None:
    """The homology of x if it has been computed already, else None."""
    return x.__dict__.get("homology")


def _place(entries: list, width: int, row: int, col: int, m: IntMatrix,
           sign: int = 1) -> None:
    """Write sign * m into the row-major ``entries`` of a matrix ``width``
    columns wide, with the top left corner of m at (row, col)."""
    e, c = m.entries, m.cols
    for i in range(m.rows):
        start = (row + i) * width + col
        line = e[i * c:(i + 1) * c]
        entries[start:start + c] = line if sign == 1 else [-v for v in line]


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
    out = ChainComplex.build(ranks, boundaries)
    h = _known_homology(x)
    if h is not None:
        out.__dict__["homology"] = h.shifted(k)
    return out


def shift_map(f: ChainMap, k: int) -> ChainMap:
    """Suspend a chain map; components are reused at shifted degrees."""
    if k == 0:
        return f
    comps = {n + k: m for n, m in f.components}
    return ChainMap.build(shift(f.source, k), shift(f.target, k), comps)


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
        rows, cols = rows_x + y.rank(n - 1), cols_x + y.rank(n)
        entries = [0] * (rows * cols)
        for row, col, m, sign in ((0, 0, d_sx.get(n), 1),
                                  (rows_x, 0, comps.get(n - 1), -1),
                                  (rows_x, cols_x, d_y.get(n), 1)):
            if m is not None:
                _place(entries, cols, row, col, m, sign)
        boundaries[n] = IntMatrix(rows, cols, tuple(entries))
    return ChainComplex.build(ranks, boundaries)


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
        rows, cols = ranks[n - 1], ranks[n]
        entries = [0] * (rows * cols)
        row = col = 0
        for x in xs:
            d = x._boundary_map.get(n)
            if d is not None:
                _place(entries, cols, row, col, d)
            row += x.rank(n - 1)
            col += x.rank(n)
        boundaries[n] = IntMatrix(rows, cols, tuple(entries))
    out = ChainComplex.build(ranks, boundaries)
    hs = [_known_homology(x) for x in xs]
    if all(h is not None for h in hs):
        out.__dict__["homology"] = hs[0].direct_sum(*hs[1:])
    return out


def em_complex(g: FgAbGroup, n: int) -> ChainComplex:
    """A free two-term complex with homology g concentrated in degree n.

    The presentation places Z^(t+r) in degree n and Z^t in degree n+1,
    with the invariant factors of g on the diagonal of the boundary.

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
        boundaries[n + 1] = IntMatrix.diagonal(
            list(g.invariant_factors), rows=t + g.rank, cols=t)
    return ChainComplex.build(ranks, boundaries)


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


class HomologyPresentation(Frozen):
    """H_n as coker(relations) on a chosen basis of the cycle subgroup.

    ``cycles`` embeds the basis into the chain group, ``coords`` is a left
    inverse defined on cycles, and ``relations`` expresses the incoming
    boundary image in that basis.
    """

    __slots__ = ("cycles", "coords", "relations")
    cycles: IntMatrix
    coords: IntMatrix
    relations: IntMatrix

    def __init__(self, cycles: IntMatrix, coords: IntMatrix,
                 relations: IntMatrix):
        object.__setattr__(self, "cycles", cycles)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "relations", relations)


@lru_cache(maxsize=8192)
def homology_presentation(x: ChainComplex, n: int) -> HomologyPresentation:
    down = x.boundary(n)
    up = x.boundary(n + 1)
    r = x.rank(n)
    if down.rows and down.cols:
        cycles, coords = smith_normal_form(down).kernel()
    else:
        cycles = IntMatrix.identity(r)
        coords = IntMatrix.identity(r)
    return HomologyPresentation(cycles, coords, coords @ up)


def induced_map(f: ChainMap, n: int) -> tuple[HomologyPresentation,
                                              HomologyPresentation, IntMatrix]:
    """The matrix of H_n(f) between the chosen presentations."""
    px = homology_presentation(f.source, n)
    py = homology_presentation(f.target, n)
    m = py.coords @ (f.component(n) @ px.cycles)
    return px, py, m


def map_on_homology_is_iso(f: ChainMap, n: int) -> bool:
    """Is H_n(f), the map m of :func:`induced_map`, an isomorphism?"""
    px, py, m = induced_map(f, n)
    stacked = hstack([m, py.relations])
    # The kernel before the cokernel, so one tracked reduction serves both.
    preimage = kernel_basis(stacked).take(range(m.cols), None)
    if not cokernel(stacked).is_zero:  # not onto
        return False
    # One to one: every preimage of a relation of y is a relation of x.
    return all(solve(px.relations, preimage.column(j)) is not None
               for j in range(preimage.cols))
