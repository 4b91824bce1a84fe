import random

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import counted_passes, cyc, fresh_forms, time_limit
from cellkit import base as base_mod, complexes as complexes_mod
from cellkit.complexes import (DEGREE_CAP, ChainComplex, ChainComplexError,
                               ChainMap, ChainMapError, GradedGroup,
                               SupportCapError, cone, coproduct, derived_hom,
                               em_complex, fiber, homology_presentation,
                               induced_map, map_on_homology_is_iso,
                               quasi_iso_eq, shift, shift_map, triangle_check)
from cellkit.groups import FgAbGroup, Z, ext_fg, hom_fg
from cellkit.matrices import (IntMatrix, InternalInvariantError,
                              kernel_basis, solve)
from cellkit.sampling import random_complex, random_matrix
from cellkit.truncation import (connective_cover, cover_inclusion, postnikov,
                                section_with_projection,
                                suspension_noncommute_witness)


def two_term(d, lo=0):
    return ChainComplex.build({lo: 1, lo + 1: 1},
                              {lo + 1: IntMatrix.from_rows([[d]])})


class TestConstruction:
    def test_d_squared_rejected(self):
        with pytest.raises(ChainComplexError):
            ChainComplex.build(
                {0: 1, 1: 1, 2: 1},
                {1: IntMatrix.from_rows([[1]]), 2: IntMatrix.from_rows([[1]])})

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ChainComplexError):
            ChainComplex.build({0: 2, 1: 1}, {1: IntMatrix.from_rows([[1]])})

    def test_caps(self):
        with pytest.raises(SupportCapError):
            ChainComplex.build({100: 1})
        with pytest.raises(SupportCapError):
            ChainComplex.build({0: 1000})
        # shift, cone and coproduct check only the caps, with build's messages.
        with pytest.raises(SupportCapError,
                           match=r"^degree 65 outside the cap \|n\| <= 64$"):
            shift(two_term(2, lo=63), 1)
        wide = ChainComplex.build({0: 300})
        with pytest.raises(SupportCapError,
                           match=r"^rank 600 exceeds the cap 512$"):
            coproduct([wide, wide])
        with pytest.raises(SupportCapError,
                           match=r"^rank 600 exceeds the cap 512$"):
            cone(ChainMap.zero_map(wide, shift(wide, 1)))

    def test_normalization_drops_zeros(self):
        x = ChainComplex.build({0: 1, 1: 0, 5: 0})
        assert x.ranks == ((0, 1),)
        y = ChainComplex.build({0: 1, 1: 1}, {1: IntMatrix.zero(1, 1)})
        assert y.boundaries == ()

    def test_json_round_trip(self):
        x = two_term(4, lo=-2)
        assert ChainComplex.from_json(x.to_json()) == x
        z = ChainComplex.zero_complex()
        assert ChainComplex.from_json(z.to_json()) == z


class TestHomology:
    def test_multiplication_complex(self):
        assert two_term(2).homology == GradedGroup({0: cyc(2)})

    def test_zero_complex(self):
        assert ChainComplex.zero_complex().homology.is_zero

    def test_em_complex(self):
        g = FgAbGroup.of_orders([0, 2, 6])
        x = em_complex(g, -1)
        assert x.homology == GradedGroup({-1: g})
        assert em_complex(cyc(4), 2).homology == GradedGroup({2: cyc(4)})
        assert em_complex(FgAbGroup(), 3).is_zero

    def test_free_rank_bookkeeping(self):
        # Z^3 --[[1,0,0]]--> Z : H_1 = Z^2, H_0 = 0
        x = ChainComplex.build({0: 1, 1: 3},
                               {1: IntMatrix.from_rows([[1, 0, 0]])})
        assert x.homology == GradedGroup({1: FgAbGroup.free(2)})

    def test_builds_no_zero_matrix(self, monkeypatch):
        # Degrees 1 and 2 have no boundary, and degree 4 has no chains.
        x = ChainComplex.build({0: 1, 1: 2, 2: 1, 3: 1, 5: 2},
                               {3: IntMatrix.from_rows([[3]])})
        built = []
        real = IntMatrix.zero.__func__

        def counting(cls, *args):
            built.append(args)
            return real(cls, *args)

        monkeypatch.setattr(IntMatrix, "zero", classmethod(counting))
        assert x.homology == GradedGroup({
            0: Z, 1: FgAbGroup.free(2), 2: cyc(3), 5: FgAbGroup.free(2)})
        assert built == []


class TestShift:
    def test_identity_and_inverse(self):
        x = two_term(6)
        assert shift(x, 0) == x
        assert shift(shift(x, 3), -3) == x

    def test_homology_shifts(self):
        x = em_complex(cyc(2), 0)
        assert shift(x, 1).homology == GradedGroup({1: cyc(2)})

    def test_sign_keeps_chain_condition(self):
        rng = random.Random(5)
        for _ in range(10):
            x = random_complex(rng, max_degrees=5, max_rank=4)
            for k in (-3, -1, 1, 2):
                assert shift(x, k).homology == x.homology.shifted(k)


# A degree, a cut or a vector entry is read as a JSON integer: a float or a
# boolean raises TypeError instead of naming a degree such as 0.5 or 1.
@pytest.mark.parametrize("call", [
    lambda x: shift(x, 0.5),
    lambda x: shift_map(ChainMap.identity(x), 0.5),
    lambda x: em_complex(cyc(4), 0.5),
    lambda x: derived_hom(x, x, 0.5),
    lambda x: connective_cover(x, 0.5),
    lambda x: connective_cover(x, True),
    lambda x: postnikov(x, 1.5),
    lambda x: solve(IntMatrix.from_rows([[2]]), [2.0]),
    lambda x: IntMatrix.from_rows([[2]]).apply([1.5]),
], ids=["shift", "shift-map", "em-complex", "derived-hom", "cover",
        "cover-bool", "section", "solve", "apply"])
def test_degrees_and_vectors_are_strict(call):
    with pytest.raises(TypeError, match="expected an integer, got "):
        call(em_complex(cyc(4), 0))


# The homology of a map in one degree and the suspension witness refuse a
# float or boolean degree before any Smith pass, even where the integer
# degree that it equals is cached; solve refuses a float entry of its
# right-hand side before its pass.
@pytest.mark.parametrize("call", [
    lambda x: homology_presentation(x, 0.0),
    lambda x: homology_presentation(x, False),
    lambda x: induced_map(ChainMap.identity(x), 0.0),
    lambda x: map_on_homology_is_iso(ChainMap.identity(x), 0.5),
    lambda x: map_on_homology_is_iso(ChainMap.identity(x), 0.0),
    lambda x: suspension_noncommute_witness(x, 0.5),
    lambda x: solve(IntMatrix.from_rows([[2, 1], [1, 3]]), [2.0, 1]),
], ids=["presentation", "presentation-bool", "induced-map", "iso", "iso-0.0",
        "witness", "solve-rhs"])
def test_degrees_are_refused_before_any_pass(call):
    x = em_complex(cyc(4), 0)
    assert map_on_homology_is_iso(ChainMap.identity(x), 0)  # caches degree 0
    with fresh_forms(), counted_passes() as passes:
        with pytest.raises(TypeError, match="expected an integer, got "):
            call(x)
    assert passes == []


class TestChainMaps:
    def test_invalid_rejected(self):
        x = two_term(2)
        y = two_term(3)
        with pytest.raises(ChainMapError):
            ChainMap.build(x, y, {0: IntMatrix.from_rows([[1]]),
                                  1: IntMatrix.from_rows([[1]])})
        # A missing component on either side of a nonzero boundary.
        for n in (0, 1):
            with pytest.raises(ChainMapError):
                ChainMap.build(x, x, {n: IntMatrix.from_rows([[1]])})

    def test_check_agrees_with_dense_products(self):
        # The commuting check skips products with a missing factor; it must
        # accept exactly the maps that the products of full (zero-filled)
        # matrices accept.
        def commutes(x, y, comps):
            def comp(n):
                return comps.get(n, IntMatrix.zero(y.rank(n), x.rank(n)))
            degrees = {n for n, _ in x.ranks} | {n for n, _ in y.ranks}
            return all(comp(n - 1) @ x.boundary(n) == y.boundary(n) @ comp(n)
                       for n in degrees | set(comps))

        rng = random.Random(23)
        accepted = rejected = 0
        for _ in range(150):
            x = random_complex(rng, max_degrees=4, max_rank=3)
            y = x if rng.random() < 0.5 else random_complex(
                rng, max_degrees=4, max_rank=3)
            if y is x:
                m = rng.randint(-3, 3)
                comps = {n: IntMatrix.diagonal([m] * r) for n, r in x.ranks}
            else:
                comps = {n: random_matrix(rng, y.rank(n), x.rank(n), 1)
                         for n in {n for n, _ in x.ranks} & {n for n, _ in y.ranks}}
            if comps and rng.random() < 0.5:
                del comps[rng.choice(sorted(comps))]
            try:
                ChainMap.build(x, y, comps)
                built = True
            except ChainMapError:
                built = False
            assert built == commutes(x, y, comps)
            accepted += built
            rejected += not built
        assert accepted and rejected

    def test_json_round_trip(self):
        x = two_term(2)
        payload = {
            "source": x.to_json(), "target": x.to_json(),
            "components": {"0": {"rows": 1, "cols": 1, "data": [3]},
                           "1": {"rows": 1, "cols": 1, "data": [3]}}}
        assert ChainMap.from_json(payload) == ChainMap.scalar(x, 3)


class TestCone:
    def test_cone_of_identity_acyclic(self):
        x = two_term(4, lo=-1)
        c = cone(ChainMap.identity(x))
        assert c.homology.is_zero

    def test_cone_of_multiplication(self):
        emz = em_complex(Z, 0)
        c = cone(ChainMap.scalar(emz, 2))
        assert quasi_iso_eq(c, em_complex(cyc(2), 0))

    def test_cone_of_zero_map(self):
        x = two_term(5)
        c = cone(ChainMap.zero_map(ChainComplex.zero_complex(), x))
        assert quasi_iso_eq(c, x)

    def test_fiber(self):
        emz = em_complex(Z, 0)
        assert fiber(ChainMap.identity(emz)).homology.is_zero
        x = two_term(5)
        f = fiber(ChainMap.zero_map(ChainComplex.zero_complex(), x))
        assert quasi_iso_eq(f, shift(x, -1))
        fp = fiber(ChainMap.scalar(emz, 3))
        assert quasi_iso_eq(fp, shift(em_complex(cyc(3), 0), -1))

    def test_cone_builds_no_chain_map(self, monkeypatch):
        monkeypatch.setattr(base_mod, "CERTIFY", False)
        x = random_complex(random.Random(12), max_degrees=5, max_rank=4)
        _, proj = section_with_projection(x, x.lo + 1)
        maps = [ChainMap.scalar(x, 3), ChainMap.zero_map(x, shift(x, 1)), proj]
        built = []
        real = ChainMap.build.__func__

        def counting(cls, *args, **kwargs):
            built.append(args)
            return real(cls, *args, **kwargs)

        monkeypatch.setattr(ChainMap, "build", classmethod(counting))
        for f in maps:
            cone(f)
        assert built == []


class TestCoproduct:
    def test_empty_and_singleton(self):
        assert coproduct([]) == ChainComplex.zero_complex()
        x = two_term(2)
        assert coproduct([x]) == x

    def test_homology_adds(self):
        a = em_complex(cyc(2), 0)
        b = em_complex(cyc(3), 0)
        assert coproduct([a, b]).homology == GradedGroup({0: cyc(6)})

    def test_commutes_with_homology(self):
        rng = random.Random(3)
        xs = [random_complex(rng, max_degrees=4, max_rank=3) for _ in range(3)]
        total = coproduct(xs)
        summed = xs[0].homology.direct_sum(*(x.homology for x in xs[1:]))
        assert total.homology == summed


def _assemble(rows, cols, pieces):
    """A dense rows x cols matrix: zero but for its (top, left, block) pieces."""
    grid = [[0] * cols for _ in range(rows)]
    for top, left, m in pieces:
        for i, line in enumerate(m.to_rows()):
            grid[top + i][left:left + len(line)] = line
    return IntMatrix(rows, cols, tuple(v for line in grid for v in line))


def _dense_cone(f):
    """cone(f) with every block, zero ones included, written out in full."""
    x, y = f.source, f.target
    degrees = {n + 1 for n, _ in x.ranks} | {n for n, _ in y.ranks}
    ranks = {n: x.rank(n - 1) + y.rank(n) for n in degrees}
    boundaries = {}
    for n in degrees:
        top = x.rank(n - 2)
        boundaries[n] = _assemble(top + y.rank(n - 1), ranks[n], [
            (0, 0, -x.boundary(n - 1)),
            (top, 0, -f.component(n - 1)),
            (top, x.rank(n - 1), y.boundary(n))])
    return ChainComplex.build(ranks, boundaries)


def _dense_coproduct(xs):
    degrees = {n for x in xs for n, _ in x.ranks}
    ranks = {n: sum(x.rank(n) for x in xs) for n in degrees}
    boundaries = {}
    for n in degrees:
        pieces, top, left = [], 0, 0
        for x in xs:
            pieces.append((top, left, x.boundary(n)))
            top, left = top + x.rank(n - 1), left + x.rank(n)
        boundaries[n] = _assemble(top, left, pieces)
    return ChainComplex.build(ranks, boundaries)


# Random complexes with empty degrees, and zero complexes at max_rank 0.
complexes = st.builds(
    lambda seed, degrees, rank: random_complex(
        random.Random(seed), max_degrees=degrees, max_rank=rank),
    st.integers(0, 2**32), st.integers(1, 5), st.integers(0, 4))


def _chain_map(x, y, kind, m):
    if kind == "scalar":      # m = 0 gives a map with no nonzero component
        return ChainMap.scalar(x, m)
    if kind == "zero":
        return ChainMap.zero_map(x, y)
    if kind == "section":
        return section_with_projection(x, m)[1]
    if kind == "cover":
        return cover_inclusion(x, m)
    # The structure maps Y -> C -> shift(X, 1) of the cone C of m on x.
    c, sx = cone(ChainMap.scalar(x, m)), shift(x, 1)
    if kind == "inject":
        return ChainMap.build(x, c, {
            n: _assemble(r, x.rank(n), [(sx.rank(n), 0,
                                         IntMatrix.identity(x.rank(n)))])
            for n, r in c.ranks})
    return ChainMap.build(c, sx, {
        n: _assemble(sx.rank(n), r, [(0, 0, IntMatrix.identity(sx.rank(n)))])
        for n, r in c.ranks})


class TestSupport:
    @settings(max_examples=60, deadline=None)
    @given(complexes)
    @example(ChainComplex.zero_complex())
    def test_support_is_lo_to_hi(self, x):
        # The zero complex has the empty support lo..hi = 0..-1, and its
        # covers and sections are zero at any cut.
        assert x.degrees() == range(x.lo, x.hi + 1)
        assert (x.to_json()["lo"], x.to_json()["hi"]) == (x.lo, x.hi)
        if not x.is_zero:
            assert (x.lo, x.hi) == (x.ranks[0][0], x.ranks[-1][0])
            return
        assert (x.lo, x.hi) == (0, -1)
        for k in (-1, 0, 1):
            inclusion = cover_inclusion(x, k)
            section, projection = section_with_projection(x, k)
            for c in (connective_cover(x, k), postnikov(x, k), section,
                      inclusion.source, inclusion.target,
                      projection.source, projection.target):
                assert c.is_zero
            assert inclusion.components == projection.components == ()
        # One zero complex is shared: no cut is inside its support, so it
        # keeps no cover.
        shared = ChainComplex.zero_complex()
        assert shared is ChainComplex.zero_complex()
        assert "_covers" not in shared.__dict__


class TestAssembly:
    @settings(max_examples=80, deadline=None)
    @given(complexes, complexes,
           st.sampled_from(["scalar", "zero", "section", "inject", "project"]),
           st.integers(-3, 3))
    def test_cone_matches_dense_reference(self, x, y, kind, m):
        f = _chain_map(x, y, kind, m)
        assert cone(f) == _dense_cone(f)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(complexes, max_size=4))
    def test_coproduct_matches_dense_reference(self, xs):
        assert coproduct(xs) == _dense_coproduct(xs)

    @settings(max_examples=80, deadline=None)
    @given(complexes, complexes,
           st.sampled_from(["scalar", "zero", "section", "cover", "inject",
                            "project"]),
           st.integers(-3, 3), st.integers(-3, 3))
    def test_outputs_pass_the_checked_build(self, x, y, kind, m, k):
        # shift, cone, fiber and coproduct skip the shape and d o d checks;
        # build runs them, and must return the same complex.
        f = _chain_map(x, y, kind, m)
        c = cone(f)
        for out in (shift(f.source, k), shift(f.target, k), c, shift(c, k),
                    fiber(f), coproduct([f.source, f.target, c])):
            assert ChainComplex.build(dict(out.ranks),
                                      dict(out.boundaries)) == out

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2), st.lists(st.integers(0, 50), max_size=4),
           st.integers(-DEGREE_CAP, DEGREE_CAP - 1))
    def test_em_complex_passes_the_checked_build(self, rank, orders, n):
        x = em_complex(FgAbGroup.direct_sum(FgAbGroup.free(rank),
                                            FgAbGroup.of_orders(orders)), n)
        assert ChainComplex.build(dict(x.ranks), dict(x.boundaries)) == x

    @settings(max_examples=60, deadline=None)
    @given(complexes, st.integers(-3, 3), st.integers(-2, 2))
    def test_assembled_maps_pass_the_checked_build(self, x, m, k):
        # identity, zero and scalar maps, the section projection at every
        # cut and shift_map of these and of cover inclusions take no
        # product; build runs the chain-map check, and must return the
        # same map.
        maps = [ChainMap.identity(x), ChainMap.zero_map(x, x),
                ChainMap.scalar(x, m), ChainMap.zero_map(x, shift(x, 1))]
        for cut in range(x.lo - 1, x.hi + 2):
            maps += [section_with_projection(x, cut)[1],
                     cover_inclusion(x, cut)]
        maps += [shift_map(f, k) for f in maps]
        for f in maps:
            assert ChainMap.build(f.source, f.target,
                                  dict(f.components)) == f
        assert ChainMap.scalar(x, 0) == ChainMap.zero_map(x, x)

    def test_assembly_runs_no_product(self, monkeypatch):
        monkeypatch.setattr(base_mod, "CERTIFY", False)
        x = random_complex(random.Random(29), max_degrees=5, max_rank=4)
        # Adjacent boundaries, so a d o d check would multiply them.
        assert any(n - 1 in dict(x.boundaries) for n, _ in x.boundaries)
        maps = [ChainMap.scalar(x, 3), ChainMap.zero_map(x, shift(x, 1)),
                section_with_projection(x, x.lo + 1)[1]]
        # A check forms products with @ or compares them packed.
        products = []

        def counting(real):
            def count(*factors):
                products.append(factors)
                return real(*factors)
            return count

        monkeypatch.setattr(IntMatrix, "__matmul__",
                            counting(IntMatrix.__matmul__))
        monkeypatch.setattr(complexes_mod, "product_is_zero",
                            counting(complexes_mod.product_is_zero))
        for k in (-2, -1, 1, 2, 3):
            assert shift(x, k).rank(x.lo + k) == x.rank(x.lo)
        for f in maps:
            assert not cone(f).is_zero and not fiber(f).is_zero
        assert coproduct([x, shift(x, 1), x]).rank(x.lo) == 2 * x.rank(x.lo)
        assert products == []

    def test_dense_check_scales(self):
        # d1 = [A | A] and d2 = [[B], [-B]] give d1 @ d2 = AB - AB = 0, so
        # the check is a dense 256x384 by 384x256 product, and the complex
        # is built without one.
        rng = random.Random(31)
        a = [[rng.randint(-9, 9) for _ in range(192)] for _ in range(256)]
        b = [[rng.randint(-9, 9) for _ in range(256)] for _ in range(192)]
        d1 = IntMatrix.from_rows([row + row for row in a])
        d2 = IntMatrix.from_rows(b + [[-x for x in row] for row in b])
        ranks = {0: 256, 1: 384, 2: 256}
        with time_limit(1.5):
            x = ChainComplex.build(ranks, {1: d1, 2: d2})
        assert x.boundary(2) is d2
        bad = list(d2.entries)
        bad[-1] += 1
        with time_limit(1.5), pytest.raises(ChainComplexError):
            ChainComplex.build(ranks, {1: d1, 2: IntMatrix(384, 256, tuple(bad))})

    def test_cone_builds_no_zero_matrix(self, monkeypatch):
        x = random_complex(random.Random(12), max_degrees=5, max_rank=4)
        maps = [ChainMap.scalar(x, 3), ChainMap.zero_map(x, shift(x, 1)),
                section_with_projection(x, x.lo + 1)[1]]
        built = []
        real = IntMatrix.zero.__func__

        def counting(cls, *args):
            built.append(args)
            return real(cls, *args)

        monkeypatch.setattr(IntMatrix, "zero", classmethod(counting))
        for f in maps:
            assert not cone(f).is_zero
        assert built == []

    def test_library_values_take_no_public_constructor(self, monkeypatch):
        # Certify mode rebuilds each value through its public constructor
        # on purpose.
        monkeypatch.setattr(base_mod, "CERTIFY", False)
        x = ChainComplex.build({0: 2, 1: 3, 2: 1}, {
            1: IntMatrix.from_rows([[2, 4, 6], [4, 8, 12]]),
            2: IntMatrix.from_rows([[2], [-1], [0]])})
        y = two_term(4, lo=1)
        f = ChainMap.scalar(x, 3)
        g = FgAbGroup.of_orders([0, 2, 6])
        calls = []
        for cls in (IntMatrix, GradedGroup, ChainComplex, ChainMap, FgAbGroup):
            def spy(self, *args, _init=cls.__init__, _name=cls.__name__):
                calls.append(_name)
                _init(self, *args)
            monkeypatch.setattr(cls, "__init__", spy)
        with fresh_forms():
            h = x.homology
            cone(f).homology, fiber(f).homology, shift_map(f, -1)
            shift(x, 1), coproduct([x, y]).homology, em_complex(g, 2).homology
            covers = [connective_cover(x, k).homology for k in range(4)]
        assert calls == []
        assert covers == [GradedGroup(tuple((n, a) for n, a in h.groups
                                            if n >= k)) for k in range(4)]


class TestCarriedHomology:
    @settings(max_examples=80, deadline=None)
    @given(complexes, st.integers(-3, 3))
    def test_shift_carries_the_homology_of_a_fresh_build(self, x, k):
        x.homology
        s = shift(x, k)
        assert "homology" in s.__dict__
        fresh = ChainComplex.build(dict(s.ranks), dict(s.boundaries))
        assert "homology" not in fresh.__dict__
        assert fresh == s and s.homology == fresh.homology

    @settings(max_examples=60, deadline=None)
    @given(st.lists(complexes, min_size=1, max_size=4))
    def test_coproduct_carries_the_homology_of_a_fresh_build(self, xs):
        for x in xs:
            x.homology
        total = coproduct(xs)
        fresh = ChainComplex.build(dict(total.ranks), dict(total.boundaries))
        assert total.is_zero or "homology" in total.__dict__
        assert fresh == total and total.homology == fresh.homology

    def test_nothing_is_carried_from_unread_homology(self):
        x = two_term(6)
        assert "homology" not in shift(x, 1).__dict__
        assert "homology" not in coproduct([x, x]).__dict__

    def test_known_homology_needs_no_reduction(self, reductions,
                                               monkeypatch):
        # Certify mode recomputes carried homology on purpose.
        monkeypatch.setattr(base_mod, "CERTIFY", False)
        x = ChainComplex.build({0: 2, 1: 3, 2: 1}, {
            1: IntMatrix.from_rows([[2, 4, 6], [4, 8, 12]]),
            2: IntMatrix.from_rows([[2], [-1], [0]])})
        h = x.homology
        assert reductions
        reductions.clear()
        for k in (-3, -1, 1, 2):
            assert shift(x, k).homology == h.shifted(k)
        assert coproduct([x, shift(x, 1)]).homology == h.direct_sum(
            h.shifted(1))
        assert reductions == []

    @pytest.mark.parametrize("method, carry", [
        ("shifted", lambda x: shift(x, 1)),
        ("direct_sum", lambda x: coproduct([x, x])),
    ], ids=["shift", "coproduct"])
    def test_certify_catches_wrong_carried_homology(self, monkeypatch,
                                                    method, carry):
        x = two_term(2)
        x.homology
        # A wrong carry: zero, where the fresh homology is not.
        monkeypatch.setattr(GradedGroup, method,
                            lambda self, *args: GradedGroup())
        monkeypatch.setattr(base_mod, "CERTIFY", True)
        with pytest.raises(InternalInvariantError,
                           match="GradedGroup differs from its checked"):
            carry(x)
        # Without certify mode the wrong value comes back, so the check
        # above is certify mode's own.
        monkeypatch.setattr(base_mod, "CERTIFY", False)
        assert carry(x).homology.is_zero

    def test_em_complex_homology_is_computed(self, reductions):
        g = FgAbGroup.of_orders([0, 2, 6])
        x = em_complex(g, 1)
        assert "homology" not in x.__dict__
        assert x.homology == GradedGroup({1: g})
        assert reductions

    def test_homology_is_computed_once_per_instance(self, monkeypatch):
        prop = ChainComplex.__dict__["homology"]
        calls = []
        real = prop.func

        def counting(x):
            calls.append(x)
            return real(x)

        monkeypatch.setattr(prop, "func", counting)
        x, y = two_term(4), two_term(4)
        assert x.homology is x.homology
        assert y.homology == x.homology
        assert calls == [x, y] and calls[0] is x and calls[1] is y


class TestDerivedHom:
    def test_single_piece_identities(self):
        b, c = FgAbGroup.of_orders([4]), FgAbGroup.of_orders([0, 6])
        eb, ec = em_complex(b, 0), em_complex(c, 0)
        assert derived_hom(eb, ec, 0) == hom_fg(b, c)
        assert derived_hom(eb, shift(ec, 1), 0) == ext_fg(b, c)
        assert derived_hom(shift(eb, 1), ec, 0).is_zero

    def test_shift_invariance(self):
        rng = random.Random(9)
        for _ in range(8):
            x = random_complex(rng, max_degrees=4, max_rank=3)
            y = random_complex(rng, max_degrees=4, max_rank=3)
            for k in range(-3, 4):
                assert derived_hom(x, y, k) == derived_hom(shift(x, k), y, 0)

    def test_ties_to_group_layer(self):
        rng = random.Random(13)
        for _ in range(10):
            b = FgAbGroup.of_orders([rng.randint(2, 9), rng.randint(0, 4)])
            g = FgAbGroup.of_orders([rng.randint(2, 9)])
            n = rng.randint(-2, 2)
            assert derived_hom(em_complex(b, n), em_complex(g, n), 0) == hom_fg(b, g)
            assert derived_hom(em_complex(b, n), em_complex(g, n + 1), 0) == ext_fg(b, g)


class TestTriangleCheck:
    def test_examples(self):
        x = two_term(7)
        assert triangle_check(ChainMap.identity(x),
                              ChainComplex.zero_complex())["verdict"]
        emz = em_complex(Z, 0)
        f = ChainMap.scalar(emz, 2)
        assert triangle_check(f, em_complex(cyc(2), 0))["verdict"]
        assert not triangle_check(f, em_complex(cyc(3), 0))["verdict"]

    def test_report_carries_homology(self):
        emz = em_complex(Z, 0)
        rep = triangle_check(ChainMap.scalar(emz, 2), em_complex(cyc(3), 0))
        assert rep["cone_homology"]["0"] == cyc(2).to_json()
        assert rep["candidate_homology"]["0"] == cyc(3).to_json()
        assert [c["degree"] for c in rep["checks"] if not c["ok"]] == [0]


def _iso_by_lattices(f, n):
    """H_n(f) is an isomorphism, decided by lattice membership alone: onto
    when every unit vector lies in the span of [m | R_y], one to one when
    every x with m x in the span of R_y lies in the span of R_x."""
    m, rx, r = induced_map(f, n)

    def inside(a, b):
        return all(solve(b, a.column(j)) is not None for j in range(a.cols))

    stacked = _assemble(m.rows, m.cols + r.cols, [(0, 0, m), (0, m.cols, r)])
    if not inside(IntMatrix.identity(m.rows), stacked):
        return False
    return inside(kernel_basis(stacked).take(range(m.cols), None), rx)


class TestLongExactSequence:
    def test_presentation_at_the_edges(self):
        # Degree 0 is the lowest: every chain is a cycle, and d_1 gives the
        # relations.  Degrees -1 and 2 have rank 0 below a degree of rank
        # 1: no cycles, and relations with no rows and one column.
        d1 = IntMatrix.from_rows([[2, 4]])
        x = ChainComplex.build({0: 1, 1: 2, 3: 1}, {1: d1})
        assert homology_presentation.__wrapped__(x, 0) == (
            IntMatrix.identity(1), IntMatrix.identity(1), d1)
        for n in (-1, 2):
            assert homology_presentation.__wrapped__(x, n) == (
                IntMatrix.zero(0, 0), IntMatrix.zero(0, 0),
                IntMatrix.zero(0, 1)), n

    def test_iso_detection(self):
        x = em_complex(FgAbGroup.of_orders([2, 4]), 0)
        assert map_on_homology_is_iso(ChainMap.identity(x), 0)
        assert not map_on_homology_is_iso(ChainMap.scalar(x, 2), 0)
        assert map_on_homology_is_iso(ChainMap.scalar(x, 3), 0)

    @settings(max_examples=80, deadline=None)
    @given(complexes, complexes,
           st.sampled_from(["scalar", "zero", "section", "cover", "inject",
                            "project"]),
           st.integers(-3, 3))
    def test_iso_matches_lattice_definition(self, x, y, kind, m):
        f = _chain_map(x, y, kind, m)
        support = [n for c in (f.source, f.target) for n in c.degrees()]
        for n in range(min(support, default=0) - 1, max(support, default=0) + 2):
            assert map_on_homology_is_iso(f, n) == _iso_by_lattices(f, n), n

    def test_shift_map_consistency(self):
        x = two_term(6)
        f = ChainMap.scalar(x, 2)
        sf = shift_map(f, 2)
        assert sf.source == shift(x, 2)
        assert shift_map(sf, -2) == f
