import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import cyc
from cellkit import base, cli, truncation
from cellkit.acceptance import criterion_truncation_triangle
from cellkit.complexes import (ChainComplex, ChainMapError, GradedGroup,
                               coproduct, em_complex, map_on_homology_is_iso,
                               quasi_iso_eq, shift, triangle_check)
from cellkit.groups import FgAbGroup, Z
from cellkit.matrices import (IntMatrix, InternalInvariantError,
                              SmithNormalForm, kernel_basis)
from cellkit.sampling import random_complex, random_complex_family, sample_pairs
from cellkit.truncation import (PreconditionError, cell_null_triangle,
                                closure_suite, connective_cover,
                                cover_inclusion, in_heart, is_colocal,
                                is_null, nontriangulated_witness_suite,
                                nullification_fiber, postnikov,
                                section_with_projection,
                                suspension_noncommute_witness,
                                tstructure_check)


def mixed_sample():
    """H_0 = Z and H_{-1} = Z/3."""
    return coproduct([em_complex(Z, 0), shift(em_complex(cyc(3), 0), -1)])


def top_boundary_sample():
    """Support -1..1 with d_1 nonzero, so the cover at 0 has a d_1."""
    return coproduct([mixed_sample(), em_complex(cyc(4), 0)])


class TestCover:
    def test_kills_low_homology(self):
        x = mixed_sample()
        c = connective_cover(x, 0)
        assert c.homology == GradedGroup({0: Z})

    def test_below_support_is_input(self):
        x = em_complex(cyc(5), 2)
        assert connective_cover(x, -3) == x

    def test_above_support_acyclic(self):
        assert connective_cover(em_complex(cyc(3), 0), 1).homology.is_zero

    def test_inclusion_is_iso_above_the_cut(self):
        rng = random.Random(2)
        for _ in range(15):
            x = random_complex(rng, max_degrees=6, max_rank=5)
            for k in (-1, 0, 1):
                inc = cover_inclusion(x, k)
                for n in x.degrees():
                    if n >= k:
                        assert map_on_homology_is_iso(inc, n), (k, n)
                # The section closes the triangle on the inclusion.
                assert triangle_check(inc, postnikov(x, k))["verdict"]

    def test_builds_no_identity_matrix(self, monkeypatch):
        x = random_complex(random.Random(8), max_degrees=6, max_rank=5)
        built = []
        real = IntMatrix.identity.__func__

        def counting(cls, n):
            built.append(n)
            return real(cls, n)

        monkeypatch.setattr(IntMatrix, "identity", classmethod(counting))
        for k in range(x.lo - 1, x.hi + 2):
            connective_cover(x, k)
        assert built == []

    def test_zero_kernel_basis_fails_the_inclusion_check(self, monkeypatch):
        # A zero kernel basis leaves the cover intact but zeroes the
        # inclusion at the cut, where d_1 of the sample is nonzero; only
        # the chain-map check of cover_inclusion can see it.
        sample = top_boundary_sample
        cover_inclusion(sample(), 0)
        kernel = SmithNormalForm.kernel

        def zeroed(form):
            basis, coords = kernel(form)
            return IntMatrix.zero(basis.rows, basis.cols), coords

        monkeypatch.setattr(SmithNormalForm, "kernel", zeroed)
        assert connective_cover(sample(), 0).homology == GradedGroup(
            {0: FgAbGroup.of_orders([0, 4])})
        with pytest.raises(ChainMapError, match="not a chain map in degree 1"):
            cover_inclusion(sample(), 0)

    # d_1 = (2, 4)^T is one to one, so the cut at 1 has a zero kernel.
    INJECTIVE = ChainComplex.build({0: 2, 1: 1}, {1: IntMatrix.from_rows([[2], [4]])})

    @staticmethod
    def assert_inherits_validity(x):
        for k in range(x.lo - 1, x.hi + 2):
            c = connective_cover(x, k)
            assert ChainComplex.build(dict(c.ranks), dict(c.boundaries)) == c, k

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_covers_pass_the_checked_build(self, seed):
        x = random_complex(random.Random(seed), max_degrees=6, max_rank=5)
        if not x.is_zero:
            self.assert_inherits_validity(x)

    def test_zero_kernel_and_zero_top_boundary(self):
        x = self.INJECTIVE
        assert connective_cover(x, 1).is_zero           # kappa = 0
        assert connective_cover(x, 1).to_json()["ranks"] == {}
        # d_2 = 0 above a nonzero kernel of d_1: no boundary in degree 2.
        y = coproduct([x, em_complex(Z, 1), em_complex(Z, 2)])
        assert y.boundary(2).is_zero and y.rank(2) == 1
        cover = connective_cover(y, 1)
        assert dict(cover.ranks) == {1: 1, 2: 1} and cover.boundaries == ()
        for z in (x, y):
            self.assert_inherits_validity(z)

    def test_doubled_kernel_coords_fail_the_inclusion_check(self, monkeypatch):
        # Doubled coordinates still make a complex, with d_1 of the cover
        # doubled; only the chain-map check of cover_inclusion can see it.
        sample = top_boundary_sample
        top = connective_cover(sample(), 0).boundary(1)
        kernel = SmithNormalForm.kernel

        def doubled(form):
            basis, coords = kernel(form)
            return basis, IntMatrix(coords.rows, coords.cols,
                                    tuple(2 * e for e in coords.entries))

        monkeypatch.setattr(SmithNormalForm, "kernel", doubled)
        x = sample()
        cover = connective_cover(x, 0)
        assert cover.boundary(1).entries == tuple(2 * e for e in top.entries)
        with pytest.raises(ChainMapError, match="not a chain map in degree 1"):
            cover_inclusion(x, 0)

    def test_inclusion_components(self):
        # Identities on the degrees above the cut, the kernel of the
        # outgoing boundary at the cut, and the identity of x below its
        # support.
        rng = random.Random(5)
        for _ in range(10):
            x = random_complex(rng, max_degrees=6, max_rank=5)
            for k in range(x.lo - 1, x.hi + 2):
                inc = cover_inclusion(x, k)
                assert inc.target == x
                assert inc.source == connective_cover(x, k)
                want = {}
                for n, r in x.ranks:
                    if n > k or k <= x.lo:
                        want[n] = IntMatrix.identity(r)
                    elif n == k:
                        kernel = kernel_basis(x.boundary(k))
                        if kernel.cols:
                            want[n] = kernel
                assert dict(inc.components) == want

    def test_idempotent(self):
        rng = random.Random(4)
        for _ in range(10):
            x = random_complex(rng, max_degrees=6, max_rank=5)
            for k in (-2, 0, 2):
                once = connective_cover(x, k)
                assert quasi_iso_eq(connective_cover(once, k), once)


class TestCoverMemo:
    """A cover inside the support is computed once per complex object."""

    @staticmethod
    def count_work(monkeypatch):
        """Count kernel takes and ChainComplex._assembled calls from now on."""
        monkeypatch.setattr(base, "CERTIFY", False)
        calls = {"kernel": 0, "assembled": 0}
        kernel = SmithNormalForm.kernel
        assembled = ChainComplex._assembled.__func__

        def counting_kernel(self):
            calls["kernel"] += 1
            return kernel(self)

        def counting_assembled(cls, *args, **kwargs):
            calls["assembled"] += 1
            return assembled(cls, *args, **kwargs)

        monkeypatch.setattr(SmithNormalForm, "kernel", counting_kernel)
        monkeypatch.setattr(ChainComplex, "_assembled",
                            classmethod(counting_assembled))
        return calls

    def test_second_cover_and_inclusion_do_no_new_work(self, monkeypatch):
        x = mixed_sample()                  # support -1..0, cut inside
        first = connective_cover(x, 0)
        calls = self.count_work(monkeypatch)
        assert connective_cover(x, 0) is first
        assert cover_inclusion(x, 0).source is first
        assert calls == {"kernel": 0, "assembled": 0}

    def test_equal_copy_is_covered_afresh(self, monkeypatch):
        x = mixed_sample()
        first = connective_cover(x, 0)
        y = ChainComplex.from_json(x.to_json())
        assert y == x and y is not x
        calls = self.count_work(monkeypatch)
        again = connective_cover(y, 0)
        assert again == first and again is not first
        assert calls == {"kernel": 1, "assembled": 1}

    def test_outer_cuts_store_nothing(self):
        x = mixed_sample()
        assert connective_cover(x, x.lo) is x
        assert connective_cover(x, x.hi + 1).is_zero
        assert cover_inclusion(x, x.lo - 1).source is x
        assert "_covers" not in x.__dict__


class TestSection:
    def test_keeps_low_homology(self):
        x = mixed_sample()
        p = postnikov(x, 0)
        assert p.homology == GradedGroup({-1: cyc(3)})

    def test_above_support_quasi_iso(self):
        x = em_complex(cyc(4), 2)
        assert quasi_iso_eq(postnikov(x, 5), x)

    def test_at_support_acyclic(self):
        assert postnikov(em_complex(Z, 0), 0).homology.is_zero

    def test_idempotent(self):
        rng = random.Random(6)
        for _ in range(10):
            x = random_complex(rng, max_degrees=6, max_rank=5)
            for k in (-1, 0, 1):
                once = postnikov(x, k)
                assert quasi_iso_eq(postnikov(once, k), once)

    @staticmethod
    def random_cuts():
        rng = random.Random(8)
        for _ in range(15):
            x = random_complex(rng, max_degrees=6, max_rank=5)
            for k in (-1, 0, 1):
                yield x, k

    def test_projection_target_is_the_section(self):
        for x, k in self.random_cuts():
            assert section_with_projection(x, k)[0] == postnikov(x, k)

    def test_keeps_boundaries_below_the_cut(self):
        for x, k in self.random_cuts():
            section = postnikov(x, k)
            for n in x.degrees():
                if n < k:
                    assert section.rank(n) == x.rank(n), (k, n)
                    assert section.boundary(n) == x.boundary(n), (k, n)

    def test_projection_is_iso_below_the_cut(self):
        for x, k in self.random_cuts():
            _, proj = section_with_projection(x, k)
            for n in x.degrees():
                if n < k:
                    assert map_on_homology_is_iso(proj, n), (k, n)

    def test_partition_of_homology(self):
        rng = random.Random(10)
        for _ in range(15):
            x = random_complex(rng, max_degrees=7, max_rank=5)
            for k in (-2, 0, 2):
                c = connective_cover(x, k).homology
                p = postnikov(x, k).homology
                assert c.direct_sum(p) == x.homology


class TestCertifyMode:
    """A wrong projection is assembled unchecked, and only certify mode
    (CELLKIT_CERTIFY=1) re-runs the chain-map check that catches it."""

    @staticmethod
    def negate_first_projection_row(monkeypatch):
        real = truncation._section_data

        def wrong(x, k):
            section, proj = real(x, k)
            if proj is not None and proj.rows:
                e, c = proj.entries, proj.cols
                proj = IntMatrix(proj.rows, c,
                                 tuple(-v for v in e[:c]) + e[c:])
            return section, proj

        monkeypatch.setattr(truncation, "_section_data", wrong)

    def test_only_certify_mode_rejects_the_wrong_projection(self, monkeypatch):
        x = mixed_sample()                  # d_0 is nonzero
        self.negate_first_projection_row(monkeypatch)
        monkeypatch.setattr(base, "CERTIFY", False)
        section, proj = section_with_projection(x, 0)
        assert section.boundary(0) @ proj.component(0) == -x.boundary(0)
        monkeypatch.setattr(base, "CERTIFY", True)
        with pytest.raises(InternalInvariantError,
                           match="not a chain map in degree 0"):
            section_with_projection(x, 0)

    def test_certify_mode_exits_3_on_the_wrong_projection(self, monkeypatch,
                                                          capsys):
        self.negate_first_projection_row(monkeypatch)
        monkeypatch.setattr(base, "CERTIFY", True)
        assert cli.main(["acceptance"]) == 3
        assert "not a chain map" in capsys.readouterr().err


class TestDecompositionTriangle:
    def test_mixed_example(self):
        x = mixed_sample()
        assert cell_null_triangle(x, 0)
        assert quasi_iso_eq(connective_cover(x, 0), em_complex(Z, 0))
        assert quasi_iso_eq(postnikov(x, 0), shift(em_complex(cyc(3), 0), -1))

    def test_acyclic_input(self):
        x = ChainComplex.zero_complex()
        assert cell_null_triangle(x, 0)
        assert connective_cover(x, 0).homology.is_zero
        assert postnikov(x, 0).homology.is_zero

    def test_one_sided(self):
        x = em_complex(cyc(4), 2)
        assert cell_null_triangle(x, 3)
        assert connective_cover(x, 3).homology.is_zero
        assert quasi_iso_eq(postnikov(x, 3), x)

    @staticmethod
    def verdicts(x):
        return (cell_null_triangle(x, 0),
                criterion_truncation_triangle([x]).passed,
                tstructure_check(0, [(x, x)])["axioms"]["decomposition"])

    @pytest.mark.parametrize("name, mutant", [
        ("postnikov", lambda right: lambda y, k: right(y, k + 1)),
        ("connective_cover", lambda right: lambda y, k: y),
    ], ids=["section-cut-one-high", "cover-is-input"])
    def test_wrong_truncation_fails_every_triangle_check(self, monkeypatch,
                                                         name, mutant):
        # cell_null_triangle alone decides the triangle, so a broken cover
        # or section must fail it and both of the checks built on it.  The
        # input has H_0 != 0 and homology below the cut 0.
        x = mixed_sample()
        assert self.verdicts(x) == (True, True, True)
        monkeypatch.setattr(truncation, name, mutant(getattr(truncation, name)))
        assert self.verdicts(x) == (False, False, False)

    def test_doubled_image_basis_fails_every_triangle_check(self, monkeypatch):
        # The section's degree k is the image basis of d_k, so its homology
        # comes from that basis: doubling it makes H_{-1} of the section
        # Z/6 instead of Z/3, and the triangle and both of its readers fail.
        x = mixed_sample()
        assert self.verdicts(x) == (True, True, True)
        image = SmithNormalForm.image

        def doubled(form):
            basis, proj = image(form)
            return IntMatrix(basis.rows, basis.cols,
                             tuple(2 * e for e in basis.entries)), proj

        monkeypatch.setattr(SmithNormalForm, "image", doubled)
        assert self.verdicts(x) == (False, False, False)

    def test_short_kernel_basis_fails_every_triangle_check(self, monkeypatch):
        # The cover's degree k is the kernel basis of d_k: without its last
        # column, the cover of the sample loses H_0 = Z.  Covers are kept
        # per complex, so the mutant covers a fresh copy.
        assert self.verdicts(mixed_sample()) == (True, True, True)
        kernel = SmithNormalForm.kernel

        def short(form):
            basis, coords = kernel(form)
            return (basis.take(None, range(basis.cols - 1)),
                    coords.take(range(coords.rows - 1), None))

        monkeypatch.setattr(SmithNormalForm, "kernel", short)
        assert self.verdicts(mixed_sample()) == (False, False, False)


class TestNullificationFiber:
    def test_agreement_examples(self):
        x = coproduct([em_complex(Z, 0), shift(em_complex(cyc(2), 0), -1)])
        fib, agrees = nullification_fiber(x, 0)
        assert agrees
        _, agrees = nullification_fiber(ChainComplex.zero_complex(), 0)
        assert agrees
        x = em_complex(cyc(9), 5)
        fib, agrees = nullification_fiber(x, 5)
        assert agrees and quasi_iso_eq(fib, x)

    def test_agreement_random(self):
        rng = random.Random(12)
        for _ in range(20):
            x = random_complex(rng, max_degrees=6, max_rank=5)
            for k in (-2, -1, 0, 1, 2):
                _, agrees = nullification_fiber(x, k)
                assert agrees


class TestSuspensionWitness:
    def test_spec_examples(self):
        x = shift(em_complex(cyc(5), 0), -1)
        assert suspension_noncommute_witness(x, 0)
        with pytest.raises(PreconditionError):
            suspension_noncommute_witness(em_complex(Z, 0), 0)
        y = coproduct([em_complex(cyc(4), 1), em_complex(Z, 2)])
        assert suspension_noncommute_witness(y, 2)

    def test_fires_whenever_obstruction_nonzero(self):
        rng = random.Random(14)
        for _ in range(25):
            x = random_complex(rng, max_degrees=6, max_rank=5)
            for k in (-1, 0, 1):
                if not x.homology.at(k - 1).is_zero:
                    assert suspension_noncommute_witness(x, k)


class TestTStructure:
    def test_axioms_on_family(self):
        rng = random.Random(18)
        family = random_complex_family(rng, 30, max_degrees=6, max_rank=5)
        for k in (-2, -1, 0, 1, 2):
            report = tstructure_check(k, sample_pairs(family, 15))
            assert report["verdict"]

    def test_hom_vanishing_example(self):
        x = em_complex(Z, 0)
        y = shift(em_complex(cyc(2), 0), -1)
        report = tstructure_check(0, [(x, y)])
        assert report["axioms"]["hom_vanishing"]

    def test_heart_membership(self):
        g = FgAbGroup.of_orders([0, 4])
        assert in_heart(em_complex(g, 2), 2)
        assert not in_heart(coproduct([em_complex(g, 2), em_complex(g, 3)]), 2)
        assert in_heart(ChainComplex.zero_complex(), 2)


class TestSuites:
    def test_closure_clean_on_em_family(self):
        family = [em_complex(FgAbGroup.of_orders([d]), n)
                  for d in (2, 3, 4) for n in range(-2, 3)]
        report = closure_suite(family, 0, seed=0)
        assert report["ok"]
        probe = [c for c in report["checks"]
                 if c["check"] == "section-class-closed-under-cofibres"][0]
        assert not probe["verdict"] and not probe["expected"]

    def test_closure_empty_samples(self):
        report = closure_suite([], 0)
        assert report["ok"]

    def test_closure_random(self):
        rng = random.Random(20)
        family = random_complex_family(rng, 25, max_degrees=6, max_rank=5)
        for k in (-1, 0, 1):
            assert closure_suite(family, k, seed=20)["ok"]

    def test_nontriangulated_witnesses(self):
        for k in (-2, 0, 3):
            report = nontriangulated_witness_suite(k)
            assert len(report["checks"]) == 4
            assert report["ok"]
            kinds = {c["check"] for c in report["checks"]}
            assert kinds == {
                "colocal-object-with-non-colocal-desuspension",
                "equivalence-with-non-equivalence-suspension",
                "covers-at-adjacent-cuts-differ",
                "triangle-image-not-exact",
            }

    def test_report_json_shape(self):
        body = nontriangulated_witness_suite(0)
        assert body["suite"] == "nontriangulated-suite"
        assert all(set(c) >= {"check", "k", "verdict", "witnesses"}
                   for c in body["checks"])


class TestClassPredicates:
    def test_colocal_null(self):
        assert is_colocal(em_complex(Z, 1), 0)
        assert not is_colocal(em_complex(Z, -1), 0)
        assert is_null(em_complex(Z, -1), 0)
        assert is_null(ChainComplex.zero_complex(), 0)
