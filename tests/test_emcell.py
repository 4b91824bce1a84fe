import json
import random

import pytest

from conftest import cyc
from cellkit.complexes import em_complex
from cellkit.emcell import (EMObject, InadmissibleCaseError, acyclization,
                            cell_primary_torsion, cell_shape,
                            chain_homotopy_group, chain_model, constraint_check,
                            em_morphism_group, gem_closure_check, hzp_dichotomy,
                            ring_unit_obstruction, semiexact_counterexample,
                            sphere_homotopy)
from cellkit.groups import FgAbGroup, Z, ext_fg, hom_fg
from cellkit.matrices import InputError
from cellkit.sampling import random_finite_group
from cellkit.symbolic import (PrimeSet, ProdZpHat, ProdZpHatModZ, Prufer,
                              PruferSum, Q, QpHat, SymbolicGroup, ZLocal, ZpHat,
                              is_unknown)


class TestEMObject:
    def test_merge_and_sort(self):
        x = EMObject([(1, cyc(3)), (0, cyc(2)), (1, cyc(5))])
        assert [s for s, _ in x.summands] == [0, 1]
        assert x.group_at(1) == SymbolicGroup.of(cyc(15))

    def test_zero_groups_dropped(self):
        assert EMObject([(0, FgAbGroup())]).is_zero


# Integer parameters are read strictly: a boolean or a float is refused,
# not taken for 1 or truncated, and the dichotomy flag must be a boolean.
# A prime set, a wedge and a ring name of another type are refused too.
@pytest.mark.parametrize("call", [
    lambda: cell_primary_torsion(0, True, 2, 5),
    lambda: acyclization("HZpk", "zero", p=2, k=True),
    lambda: acyclization("HZpinf", "zero", p=2.0),
    lambda: cell_shape(0.5, cyc(2)),
    lambda: hzp_dichotomy(True, 2.0, 3),
    lambda: hzp_dichotomy(1, 2, 3),
    lambda: em_morphism_group(0, cyc(2), 0.0, cyc(2)),
    lambda: sphere_homotopy(0.5, EMObject()),
    lambda: chain_homotopy_group(em_complex(cyc(2), 0), 0.5),
    lambda: acyclization("HZ", "HZ_P", {2, 3}),
    lambda: acyclization("HZ", "ProdZpHat", [2]),
    lambda: gem_closure_check(SymbolicGroup.of(cyc(2))),
    lambda: gem_closure_check(EMObject(), 5),
], ids=["primary-k", "hzpk-k", "hzpinf-p", "shape-n",
        "dichotomy-r", "dichotomy-flag", "morphism-n", "sphere-i", "chain-i",
        "acyclization-primes-set", "acyclization-primes-list",
        "gem-closure-object", "gem-closure-ring"])
def test_integer_parameters_are_strict(call):
    with pytest.raises(TypeError, match="expected an integer, got |"
                                        "must be a boolean, got |"
                                        "expected a prime set, got |"
                                        "expected an EM object, got |"
                                        "ring must be a string, got "):
        call()


class TestMorphismGroups:
    def test_adjacent_degrees_only(self):
        b, g = cyc(4), cyc(6)
        assert em_morphism_group(0, b, 0, g) == SymbolicGroup.of(hom_fg(b, g))
        assert em_morphism_group(-1, b, 0, g) == SymbolicGroup.of(ext_fg(b, g))
        for i in (-3, -2, 1, 2, 5):
            assert em_morphism_group(i, b, 0, g).is_zero

    def test_ext_into_integers(self):
        val = em_morphism_group(-1, cyc(2), 0, Z)
        assert val == SymbolicGroup.of(cyc(2))

    def test_vanishing_across_atom_universe(self):
        atoms = [SymbolicGroup.of(a) for a in
                 (Q(), Prufer(3), ZpHat(2), QpHat(5),
                  PruferSum(PrimeSet.complement_of([2])),
                  ProdZpHatModZ(PrimeSet.of([3])))]
        for src in atoms:
            for tgt in atoms:
                for i in (-4, -2, 2, 4):
                    assert em_morphism_group(i, src, 0, tgt).is_zero

    def test_sphere_homotopy(self):
        x = EMObject([(0, cyc(6)), (2, Z)])
        assert sphere_homotopy(0, x) == SymbolicGroup.of(cyc(6))
        assert sphere_homotopy(2, x) == SymbolicGroup.of(Z)
        assert sphere_homotopy(1, x).is_zero


class TestCellShape:
    def test_generic_two_slots(self):
        result = cell_shape(0, cyc(8))
        assert result["kind"] == "shape" and result["degrees"] == [-1, 0]
        assert not result["constraints"]["b_forced_zero"]

    def test_divisible_forces_single_slot(self):
        result = cell_shape(3, SymbolicGroup.of(Q()))
        assert result["kind"] == "shape"
        assert result["constraints"]["b_forced_zero"]

    def test_zero(self):
        assert cell_shape(0, FgAbGroup()) == {"kind": "zero"}

    def test_fresh_answer_per_call(self):
        # A caller may add keys to an answer, as the CLI adds "convention".
        for answer in (lambda: cell_shape(0, FgAbGroup()),
                       lambda: cell_shape(0, cyc(8)),
                       lambda: hzp_dichotomy(False, 2, 2),
                       lambda: hzp_dichotomy(True, 1, 2)):
            first = answer()
            first["note"] = 1
            first.get("constraints", {}).setdefault("identities", []).clear()
            assert answer() != first and "note" not in answer()

class TestConstraintCheck:
    def test_examples(self):
        # nested cyclic p-groups satisfy all three identities
        for j, k in ((1, 3), (2, 2), (3, 5)):
            assert constraint_check(FgAbGroup(), cyc(2 ** j), cyc(2 ** k))
        assert constraint_check(FgAbGroup(), FgAbGroup(), FgAbGroup())
        # endomorphisms of C detect a too-large candidate
        assert not constraint_check(FgAbGroup(), cyc(9), cyc(3))

    def test_nontrivial_b(self):
        # B = C = G = Z/p passes: Hom(B,B) + Ext(B,C) = Z/p + Z/p = Ext(B,G)?
        # Ext(Z/p, Z/p) = Z/p only, so this must FAIL.
        p = cyc(3)
        assert not constraint_check(p, p, p)


class TestPrimaryTable:
    def test_spec_rows(self):
        p = 7
        assert cell_primary_torsion(0, 1, 2, p) == EMObject([(0, cyc(p))])
        assert cell_primary_torsion(0, 3, 2, p) == EMObject([(0, cyc(p * p))])
        assert cell_primary_torsion(7, 4, 4, p) == EMObject([(7, cyc(p ** 4))])

    def test_idempotent(self):
        for k, n in ((1, 4), (3, 2), (2, 2)):
            first = cell_primary_torsion(0, k, n, 5)
            j = min(k, n)
            again = cell_primary_torsion(0, k, j, 5)
            assert first == again

    def test_validation(self):
        with pytest.raises(ValueError):
            cell_primary_torsion(0, 0, 1, 2)


class TestDichotomy:
    def test_dead_generator_kills_tower(self):
        for r in (1, 2, 5):
            assert hzp_dichotomy(False, r, 2) == {"kind": "zero"}

    def test_alive_rank_one(self):
        result = hzp_dichotomy(True, 1, 3)
        assert result == {"kind": "exact",
                          "object": EMObject([(0, cyc(3))]).to_json()}

    def test_alive_higher_rank_gives_shape(self):
        result = hzp_dichotomy(True, 3, 2)
        assert result["kind"] == "shape" and result["degrees"] == [-1, 0]
        cs = result["constraints"]
        assert cs["b_forced_zero"]
        assert cs["c_candidates"] == [cyc(q).to_json() for q in (2, 4, 8)]
        assert cs["target"] == cyc(8).to_json()
        # every candidate passes the constraints against G = Z/8
        for q in (2, 4, 8):
            assert constraint_check(FgAbGroup(), cyc(q), cyc(8))


class TestAcyclization:
    def test_hz_cases(self):
        assert acyclization("HZ", "zero") == EMObject([(0, Z)])
        assert acyclization("HZ", "HZ").is_zero
        got = acyclization("HZ", "HZ_P", primes=PrimeSet.of([2, 3]))
        want = EMObject([(-1, SymbolicGroup.of(
            PruferSum(PrimeSet.complement_of([2, 3]))))])
        assert got == want
        got = acyclization("HZ", "ProdZpHat", primes=PrimeSet.of([2]))
        assert got == EMObject([(-1, SymbolicGroup.of(
            ProdZpHatModZ(PrimeSet.of([2]))))])

    def test_hz_cofinite_localization(self):
        # localizing away from finitely many primes leaves a finite sum
        got = acyclization("HZ", "HZ_P",
                           primes=PrimeSet.complement_of([2, 3]))
        assert got == EMObject([(-1, SymbolicGroup.of(Prufer(2), Prufer(3)))])

    def test_hzpk_cases(self):
        assert acyclization("HZpk", "zero", p=2, k=3) \
            == EMObject([(0, cyc(8))])
        assert acyclization("HZpk", "HZpk", p=2, k=3).is_zero
        assert acyclization("HZpk", "zero", p=5, k=1) \
            == EMObject([(0, cyc(5))])

    def test_hzpinf_cases(self):
        assert acyclization("HZpinf", "zero", p=3) \
            == EMObject([(0, SymbolicGroup.of(Prufer(3)))])
        assert acyclization("HZpinf", "HZpinf", p=3).is_zero
        assert acyclization("HZpinf", "SigmaZpHat", p=3) == \
            EMObject([(0, SymbolicGroup.of(QpHat(3)))])

    def test_inadmissible_cases(self):
        with pytest.raises(InadmissibleCaseError):
            acyclization("HZ", "SigmaZpHat")
        with pytest.raises(InadmissibleCaseError):
            acyclization("HZ", "HZ_P")  # missing primes
        with pytest.raises(InadmissibleCaseError):
            acyclization("HZpk", "zero", p=2)  # missing k
        with pytest.raises(InadmissibleCaseError):
            acyclization("HZ", "ProdZpHat", primes=PrimeSet.of([]))

    def test_involution_consistency(self):
        pairs = [
            ({"target": "HZ", "outcome": "zero"},
             {"target": "HZ", "outcome": "HZ"}),
            ({"target": "HZpk", "outcome": "zero", "p": 3, "k": 2},
             {"target": "HZpk", "outcome": "HZpk", "p": 3, "k": 2}),
            ({"target": "HZpinf", "outcome": "zero", "p": 2},
             {"target": "HZpinf", "outcome": "HZpinf", "p": 2}),
        ]
        for keep, kill in pairs:
            assert not acyclization(**keep).is_zero
            assert acyclization(**kill).is_zero

    def test_fg_outputs_satisfy_constraints_and_closure(self):
        # Every exact output with f.g. groups: read B one degree below the
        # surviving piece and C at it, then replay the shape constraints.
        cases = [
            ({"target": "HZ", "outcome": "zero"}, 0, Z),
            ({"target": "HZpk", "outcome": "zero", "p": 2, "k": 3}, 0, cyc(8)),
            ({"target": "HZpk", "outcome": "zero", "p": 5, "k": 1}, 0, cyc(5)),
        ]
        for case, n, g in cases:
            obj = acyclization(**case)
            b = obj.group_at(n - 1).fg
            c = obj.group_at(n).fg
            assert constraint_check(b, c, g)
            assert gem_closure_check(obj, "Z")


class TestRingObstruction:
    def test_localized_output_has_no_unit(self):
        for primes in ([2], [2, 3], [5, 7, 11], []):
            obj = acyclization("HZ", "HZ_P", primes=PrimeSet.of(primes))
            assert ring_unit_obstruction(obj)

    def test_product_output_has_no_unit(self):
        obj = acyclization("HZ", "ProdZpHat", primes=PrimeSet.of([2, 5]))
        assert ring_unit_obstruction(obj)

    def test_negatives(self):
        assert not ring_unit_obstruction(EMObject([(0, Z)]))
        assert not ring_unit_obstruction(EMObject([(0, cyc(8))]))
        assert not ring_unit_obstruction(EMObject())

    # Every atom kind, the prime-set ones with a finite and a cofinite set.
    ATOMS = (Q(), Prufer(2), ZpHat(2), QpHat(3)) + tuple(
        cls(primes) for cls in (ZLocal, PruferSum, ProdZpHat, ProdZpHatModZ)
        for primes in (PrimeSet.of([2, 3]), PrimeSet.complement_of([2])))

    def test_pi0_is_answered_for_every_atom(self):
        # pi_0 reads only Hom(Z, G) at shift 0 and Ext(Z, G) = 0 at shift 1,
        # which the rule table answers for every group G.
        for atom in self.ATOMS:
            for s in (-1, 0, 1):
                want = SymbolicGroup.of(atom) if s == 0 else SymbolicGroup()
                assert sphere_homotopy(0, EMObject([(s, atom)])) == want

    def test_summands_off_degree_zero_leave_no_unit(self):
        obj = EMObject([(s, g) for g in self.ATOMS + (Z, cyc(4))
                        for s in (-1, 1)])
        assert not obj.is_zero and ring_unit_obstruction(obj)


class TestGemClosure:
    def test_examples(self):
        assert gem_closure_check(EMObject([(0, cyc(5))]), "Z/5")
        assert not gem_closure_check(EMObject([(0, cyc(25))]), "Z/5")
        sum_obj = EMObject([(-1, SymbolicGroup.of(
            PruferSum(PrimeSet.complement_of([2]))))])
        assert gem_closure_check(sum_obj, "Z")
        assert not gem_closure_check(sum_obj, "Z/2")
        assert gem_closure_check(EMObject(), "Q")

    def test_rational_ring(self):
        qobj = EMObject([(0, SymbolicGroup.of(QpHat(3)))])
        assert gem_closure_check(qobj, "Q")
        zobj = EMObject([(0, Z)])
        assert not gem_closure_check(zobj, "Q")

    # int() would read the first five as 0, 4, 12, -4 and 4; with Z/0,
    # Z/4 was a module and Z/2^inf not, although Z accepts both.
    @pytest.mark.parametrize("ring", ["Z/0", "Z/ 4", "Z/1_2", "Z/-4", "Z/4 ",
                                      "Z/", "R"])
    def test_bad_ring_is_input_error(self, ring):
        # The ring is read whatever the wedge: the zero wedge has no
        # summand to test it on.
        for obj in (EMObject([(0, cyc(4))]), EMObject(),
                    EMObject([(0, SymbolicGroup.of(Q()))])):
            with pytest.raises(InputError):
                gem_closure_check(obj, ring)


class TestSemiexactCounterexample:
    def test_report(self):
        rep = semiexact_counterexample(2)
        assert rep["verdict"]
        assert not rep["extension_closure_holds"]
        assert (rep["cellularization_of_middle"]
                == EMObject([(0, cyc(2))]).to_json())
        assert rep["chain_triangle_verdict"]

    def test_other_primes(self):
        for p in (3, 5):
            assert semiexact_counterexample(p)["verdict"]


class TestChainAgreement:
    def test_chain_model_matches_symbolic(self):
        rng = random.Random(1)
        for _ in range(20):
            b = random_finite_group(rng, 50)
            n = rng.randint(-2, 2)
            obj = EMObject([(n, b)])
            model = chain_model(obj)
            for i in range(n - 2, n + 3):
                assert chain_homotopy_group(model, i) == \
                    em_morphism_group(i, Z, n, b).fg

    def test_chain_model_rejects_atoms(self):
        with pytest.raises(ValueError):
            chain_model(EMObject([(0, SymbolicGroup.of(Q()))]))
