import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from cellkit.grammar import parse_group
from cellkit.groups import FgAbGroup, Z, hom_fg, primary_part
from cellkit.symbolic import (UNKNOWN, PrimeSet, ProdZpHat, ProdZpHatModZ,
                              Prufer, PruferSum, Q, QpHat, SymbolicGroup,
                              ZLocal, ZpHat, ext_rule, hom_rule, is_divisible,
                              is_unknown)

PRIMES = (2, 3, 5, 7, 11)

prime_sets = st.tuples(st.booleans(), st.sets(st.sampled_from(PRIMES))).map(
    lambda t: PrimeSet(t[0], frozenset(t[1])))
fg_groups = st.tuples(st.integers(0, 2), st.lists(st.integers(2, 12), max_size=3)).map(
    lambda t: FgAbGroup.direct_sum(FgAbGroup.free(t[0]),
                                   FgAbGroup.of_orders(t[1])))


class TestPrimeSet:
    @given(prime_sets)
    def test_complement_involution(self, s):
        assert s.complement().complement() == s

    @given(prime_sets, st.sampled_from(PRIMES))
    def test_complement_membership(self, s, p):
        assert (p in s) != (p in s.complement())

    def test_intersect(self):
        a = PrimeSet.of([2, 3, 5])
        b = PrimeSet.complement_of([3])
        assert a.intersect(b) == PrimeSet.of([2, 5])
        assert b.intersect(b.complement()).is_empty
        assert PrimeSet.complement_of([]).intersect(a) == a

    def test_validation(self):
        with pytest.raises(ValueError):
            PrimeSet.of([4])


class TestCanonicalization:
    def test_finite_sums_expand(self):
        g = SymbolicGroup.of(PruferSum(PrimeSet.of([3, 2])))
        assert g == SymbolicGroup.of(Prufer(2), Prufer(3))
        h = SymbolicGroup.of(ProdZpHat(PrimeSet.of([5])))
        assert h == SymbolicGroup.of(ZpHat(5))

    def test_localized_integer_edges(self):
        assert SymbolicGroup.of(ZLocal(PrimeSet.complement_of([]))) == \
            SymbolicGroup.of(Z)
        assert SymbolicGroup.of(ZLocal(PrimeSet.of([]))) == SymbolicGroup.of(Q())
        assert SymbolicGroup.of(PruferSum(PrimeSet.of([]))).is_zero

    def test_quotient_atom_needs_primes(self):
        with pytest.raises(ValueError):
            ProdZpHatModZ(PrimeSet.of([]))

    def test_fg_parts_merge(self):
        g = SymbolicGroup.of(FgAbGroup.cyclic(2), FgAbGroup.cyclic(3))
        assert g.fg == FgAbGroup.cyclic(6) and not g.atoms

    def test_lone_group_is_returned(self):
        g = SymbolicGroup.of(FgAbGroup.cyclic(4), Prufer(3))
        assert SymbolicGroup.of(g) is g


class TestDivisibility:
    def test_examples(self):
        assert is_divisible(SymbolicGroup.of(Q(), Prufer(3)))
        assert not is_divisible(SymbolicGroup.of(Z))
        # the p-adic integers are reduced: dividing by p fails
        assert not is_divisible(SymbolicGroup.of(ZpHat(2)))
        assert is_divisible(SymbolicGroup())
        assert is_divisible(SymbolicGroup.of(QpHat(7)))
        assert not is_divisible(SymbolicGroup.of(ProdZpHat(PrimeSet.complement_of([]))))

    def test_ext_divisible(self):
        assert ext_rule(FgAbGroup.cyclic(8), SymbolicGroup.of(Q())).is_zero
        assert ext_rule(Z, SymbolicGroup.of(Prufer(2))).is_zero
        assert ext_rule(FgAbGroup.cyclic(5), SymbolicGroup.of(Prufer(5))).is_zero
        # A reduced target keeps its Ext.
        assert (ext_rule(FgAbGroup.cyclic(2), SymbolicGroup.of(Z))
                == SymbolicGroup.of(FgAbGroup.cyclic(2)))

    # Every atom kind with its two facts: divisible, torsion-free.
    @pytest.mark.parametrize("atom, divisible, torsion_free", [
        ("Q", True, True),
        ("Z_(2,3)", False, True),
        ("Z/3^inf", True, False),
        ("Psum_(!2)", True, False),
        ("Zhat_2", False, True),
        ("Qhat_3", True, True),
        ("Pzhat_(!3)", False, True),
        ("PzhatmodZ_(2)", True, False),
        ("PzhatmodZ_(!5)", True, False),
    ])
    def test_atom_facts(self, atom, divisible, torsion_free):
        g = parse_group(atom)
        assert g.fg.is_zero and len(g.atoms) == 1
        assert is_divisible(g) == divisible
        if divisible:  # divisible groups are injective
            assert ext_rule(FgAbGroup.cyclic(2), g).is_zero
        if torsion_free:  # no element of order 2 to map Z/2 onto
            assert hom_rule(FgAbGroup.cyclic(2), g).is_zero

    @settings(max_examples=30, deadline=None)
    @given(fg_groups)
    def test_divisible_targets_kill_ext(self, a):
        for target in (SymbolicGroup.of(Q()), SymbolicGroup.of(Prufer(3)),
                       SymbolicGroup.of(QpHat(2)),
                       SymbolicGroup.of(PruferSum(PrimeSet.complement_of([7])))):
            assert ext_rule(a, target) == SymbolicGroup()


class TestHomRules:
    def test_prufer_target_stabilizes(self):
        # Hom(Z/p^k, Z/p^oo) is the colimit of Hom(Z/p^k, Z/p^n); compare
        # against the finite stages, which stabilize once n >= k.
        for p, k in ((2, 3), (3, 1), (5, 2)):
            val = hom_rule(FgAbGroup.cyclic(p ** k), SymbolicGroup.of(Prufer(p)))
            stable = hom_fg(FgAbGroup.cyclic(p ** k), FgAbGroup.cyclic(p ** (k + 3)))
            assert val == SymbolicGroup.of(stable) == \
                SymbolicGroup.of(FgAbGroup.cyclic(p ** k))

    def test_free_rank_one_copies_target(self):
        for atom in (ZpHat(3), Q(), Prufer(2), QpHat(5),
                     ProdZpHatModZ(PrimeSet.of([2]))):
            assert hom_rule(Z, SymbolicGroup.of(atom)) == SymbolicGroup.of(atom)

    def test_divisible_source_into_finite(self):
        assert hom_rule(SymbolicGroup.of(Q()), FgAbGroup.cyclic(9)).is_zero
        assert hom_rule(SymbolicGroup.of(Prufer(2)), FgAbGroup.cyclic(8)).is_zero

    def test_mixed_torsion_into_prufer_sum(self):
        # Hom(Z/12, sum of Z/p^oo over p != 2) keeps only the 3-part.
        val = hom_rule(FgAbGroup.cyclic(12),
                       SymbolicGroup.of(PruferSum(PrimeSet.complement_of([2]))))
        assert val == SymbolicGroup.of(FgAbGroup.cyclic(3))

    def test_padic_endomorphisms(self):
        assert hom_rule(SymbolicGroup.of(ZpHat(2)), SymbolicGroup.of(ZpHat(2))) \
            == SymbolicGroup.of(ZpHat(2))
        assert hom_rule(SymbolicGroup.of(ZpHat(2)), SymbolicGroup.of(ZpHat(3))) \
            == SymbolicGroup()
        assert hom_rule(SymbolicGroup.of(ZpHat(2)), FgAbGroup.cyclic(12)) \
            == SymbolicGroup.of(FgAbGroup.cyclic(4))

    def test_localized_integers(self):
        zp = SymbolicGroup.of(ZLocal(PrimeSet.of([2, 3])))
        assert hom_rule(zp, FgAbGroup.cyclic(12)) == \
            SymbolicGroup.of(FgAbGroup.cyclic(12))
        assert hom_rule(zp, FgAbGroup.cyclic(5)).is_zero
        smaller = SymbolicGroup.of(ZLocal(PrimeSet.of([2])))
        assert hom_rule(zp, smaller) == smaller
        assert hom_rule(smaller, zp).is_zero

    # One test per rule branch that a single-rule mutation of the table
    # could change with every other test still passing.
    def test_prufer_groups_of_distinct_primes(self):
        # Only zero maps Z/2^oo -> Z/3^oo: the image would be 2- and
        # 3-primary at once.
        assert hom_rule(parse_group("Z/2^inf"), parse_group("Z/3^inf")).is_zero

    def test_rationals_into_padic_rationals(self):
        # Qhat_3 is a Q-vector space, so Hom(Q, Qhat_3) = Qhat_3.
        assert hom_rule(parse_group("Q"), parse_group("Qhat_3")) == \
            parse_group("Qhat_3")

    def test_prufer_sums_meet_in_common_primes(self):
        # Hom out of the sum over p != 2 is the product of its summands'
        # Hom; only the primes of the target's sum (p != 3) survive.
        assert hom_rule(parse_group("Psum_(!2)"), parse_group("Psum_(!3)")) \
            == parse_group("Pzhat_(!2,3)")

    def test_local_integers_onto_inverted_prufer(self):
        # Z_(2,3) inverts the primes other than 2 and 3, and Z/3^oo is
        # uniquely divisible by each of them, so every map from Z extends:
        # Hom(Z_(2,3), Z/3^oo) = Hom(Z, Z/3^oo) = Z/3^oo.
        assert hom_rule(parse_group("Z_(2,3)"), parse_group("Z/3^inf")) == \
            parse_group("Z/3^inf")

    @pytest.mark.parametrize("source", ["Z_(2,3)", "Z_(!2)"])
    @pytest.mark.parametrize("target", ["Q", "Qhat_3", "Q + Qhat_2"])
    def test_local_integers_into_vector_spaces(self, source, target):
        # A Q-vector space V is uniquely divisible, so each map Z -> V
        # extends uniquely over Z_P: Hom(Z_P, V) = V.
        target = parse_group(target)
        assert hom_rule(parse_group(source), target) == target

    # The shared rules, checked against their definitions rather than
    # against pinned answers.
    @settings(max_examples=80, deadline=None)
    @given(prime_sets, prime_sets)
    def test_prufer_sums_meet_prime_by_prime(self, s, t):
        # Hom(sum_{p in S} Z/p^oo, sum_{q in T} Z/q^oo) is the product of
        # End(Z/p^oo) = ZpHat over the primes in both sets.
        val = hom_rule(SymbolicGroup.of(PruferSum(s)),
                       SymbolicGroup.of(PruferSum(t)))
        assert val.fg.is_zero
        assert all(isinstance(a, (ZpHat, ProdZpHat)) for a in val.atoms)
        for p in PRIMES:
            has_zphat = any(a.p == p if isinstance(a, ZpHat) else p in a.primes
                            for a in val.atoms)
            assert has_zphat == (p in s and p in t)

    @pytest.mark.parametrize("target, want_target", [
        ("Q", True), ("Qhat_3", True), ("Q + Qhat_2", True),
        ("Z_(2,3)", False), ("Z_(!2)", False), ("Zhat_3", False),
        ("Pzhat_(!3)", False),
    ])
    def test_rationals_map_onto_vector_spaces_only(self, target, want_target):
        # Hom(Q, V) = V for a Q-vector space V; a reduced torsion-free
        # target has no nonzero divisible subgroup, so Hom(Q, -) is 0.
        target = parse_group(target)
        val = hom_rule(parse_group("Q"), target)
        assert val == (target if want_target else SymbolicGroup())

    @settings(max_examples=60, deadline=None)
    @given(fg_groups, fg_groups)
    def test_agrees_with_hom_fg(self, a, b):
        val = hom_rule(a, b)
        assert not is_unknown(val)
        assert val == SymbolicGroup.of(hom_fg(a, b))

    def test_closed_world_returns_unknown(self):
        assert is_unknown(hom_rule(SymbolicGroup.of(ZpHat(2)),
                                   SymbolicGroup.of(Q())))
        assert is_unknown(hom_rule(SymbolicGroup.of(Q()),
                                   SymbolicGroup.of(Prufer(2))))
        modz = SymbolicGroup.of(ProdZpHatModZ(PrimeSet.of([2])))
        assert is_unknown(hom_rule(FgAbGroup.cyclic(2), modz))

    def test_quotient_atom_takes_the_divisible_rules(self):
        # (Prod ZpHat)/Z is divisible: it has no nonzero map to a finitely
        # generated group, and it is injective, so Ext into it vanishes.
        modz = SymbolicGroup.of(ProdZpHatModZ(PrimeSet.of([2])))
        assert hom_rule(modz, SymbolicGroup.of(Z)).is_zero
        assert ext_rule(modz, modz).is_zero


class TestExtRules:
    def test_quotient_formula_against_finite_stages(self):
        # Ext(Z/d, ZpHat) = ZpHat/d; compare with Ext(Z/d, Z/p^n) for n
        # far beyond the p-valuation of d, where both are Z/p^{v_p(d)}.
        from cellkit.groups import ext_fg
        for d, p in ((12, 2), (9, 3), (10, 5), (7, 2)):
            val = ext_rule(FgAbGroup.cyclic(d), SymbolicGroup.of(ZpHat(p)))
            stage = ext_fg(FgAbGroup.cyclic(d), FgAbGroup.cyclic(p ** 6))
            assert val == SymbolicGroup.of(stage)

    def test_free_source_vanishes(self):
        for atom in (ZpHat(3), Q(), ProdZpHatModZ(PrimeSet.of([2]))):
            assert ext_rule(FgAbGroup.free(2), SymbolicGroup.of(atom)).is_zero

    def test_localized_target(self):
        val = ext_rule(FgAbGroup.cyclic(12),
                       SymbolicGroup.of(ZLocal(PrimeSet.of([2]))))
        assert val == SymbolicGroup.of(FgAbGroup.cyclic(4))


def _factor(n):
    """{p: v_p(n)} by trial division."""
    out, d = {}, 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _primary_orders(orders, s):
    """One Z/p^e summand per prime p in s dividing each order."""
    return [p ** e for d in orders for p, e in _factor(d).items() if p in s]


class TestPrimaryParts:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 10**6), prime_sets)
    def test_primary_part_matches_factorization(self, d, s):
        expected = 1
        for q in _primary_orders([d], s):
            expected *= q
        assert primary_part(d, s.primes, s.cofinite) == expected

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(2, 3000), min_size=1, max_size=3), prime_sets)
    def test_rules_match_per_prime_sums(self, orders, s):
        # Every P-primary site of the rule table, including the single-prime
        # Prufer and ZpHat ones that finite sets normalize into.
        g = FgAbGroup.of_orders(orders)
        expected = SymbolicGroup.of(FgAbGroup.of_orders(_primary_orders(orders, s)))
        assert hom_rule(g, SymbolicGroup.of(PruferSum(s))) == expected
        assert hom_rule(SymbolicGroup.of(ZLocal(s)), g) == expected
        assert ext_rule(g, SymbolicGroup.of(ZLocal(s))) == expected
        assert ext_rule(g, SymbolicGroup.of(ProdZpHat(s))) == expected


# Every ordered pair of these groups runs through hom_rule and ext_rule:
# 0, Z, cyclic and mixed finitely generated sums, every atom kind with
# finite and cofinite prime sets, and mixed sums of atoms.
RULE_GRID = (
    "0", "Z", "Z/4", "Z/12", "Z + Z", "Z + Z/6", "Z/8 + Z/2",
    "Q", "Z/2^inf", "Z/3^inf", "Zhat_2", "Zhat_3", "Qhat_3",
    "Z_(2,3)", "Z_(!2)", "Psum_(2,3)", "Psum_(!2)", "Pzhat_(2,5)",
    "Pzhat_(!3)", "PzhatmodZ_(2,3)", "PzhatmodZ_(!2)",
    "Z/8 + Z/2^inf + Q", "Z + Zhat_2", "Z/6 + Z_(!3)", "Q + Qhat_2",
    "Z/4 + Psum_(!2)",
)
# sha256 of the answer lines below, one per rule and ordered pair.
RULE_GRID_DIGEST = ("e3c7b0740dc9dcce087455090d0a2455"
                    "1c014b47862e8ee2fd097f6331995911")


def test_rule_grid_answers_are_pinned():
    groups = [parse_group(text) for text in RULE_GRID]
    lines = []
    for rule in (hom_rule, ext_rule):
        for a in groups:
            for b in groups:
                val = rule(a, b)
                lines.append("UNKNOWN" if is_unknown(val) else json.dumps(
                    val.to_json(), sort_keys=True, separators=(",", ":")))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == (2 * len(RULE_GRID) ** 2, RULE_GRID_DIGEST)
