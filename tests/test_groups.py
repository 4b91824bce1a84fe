import math

import pytest
from hypothesis import given, settings, strategies as st

from conftest import cyc
from cellkit import base as base_mod, groups as groups_mod
from cellkit.complexes import ChainComplex
from cellkit.groups import (PSI_12, FgAbGroup, SizeBoundExceededError, Z,
                            ZERO_GROUP, brute_force_hom_count, cokernel,
                            ext_fg, hom_fg, is_prime, p_valuation)
from cellkit.matrices import (InputError, IntMatrix, InternalInvariantError,
                              _invariant_chain)
from cellkit.symbolic import SymbolicGroup


small_finite_groups = st.lists(st.integers(2, 12), max_size=3).map(
    FgAbGroup.of_orders).filter(lambda g: (g.order or 10**9) <= 100)
small_groups = st.tuples(st.integers(0, 2), st.lists(st.integers(2, 12), max_size=3)).map(
    lambda t: FgAbGroup.direct_sum(FgAbGroup.free(t[0]), FgAbGroup.of_orders(t[1])))


def invariant_factors_by_factoring(orders):
    """The invariant factors of the finite cyclic orders above 1, from their
    prime factorizations: for each prime, the k-th largest of its powers
    goes into the k-th largest factor."""
    powers = {}
    for n in orders:
        d = 2
        while n > 1:
            if d * d > n:
                d = n
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            if e:
                powers.setdefault(d, []).append(d ** e)
            d += 1
    depth = max((len(ps) for ps in powers.values()), default=0)
    factors = [1] * depth
    for ps in powers.values():
        for k, q in enumerate(sorted(ps, reverse=True)):
            factors[k] *= q
    return tuple(reversed(factors))


# Unsorted orders: 0s and 1s, small integers, repeated small primes and
# their products, and prime powers up to 2^30.
cyclic_orders = st.one_of(
    st.sampled_from((0, 1)),
    st.integers(2, 10**4),
    st.sampled_from((2, 3, 5, 7)),
    st.lists(st.sampled_from((2, 3, 5, 7)), min_size=2, max_size=6).map(
        math.prod),
    st.sampled_from((3, 5, 7, 11, 13)).flatmap(
        lambda p: st.integers(1, 8).map(lambda e: p ** e)),
    st.integers(1, 30).map(lambda e: 2 ** e),
)


class TestCanonicalForm:
    def test_chain_enforced(self):
        with pytest.raises(ValueError):
            FgAbGroup(0, (4, 6))
        with pytest.raises(ValueError):
            FgAbGroup(0, (1,))

    def test_of_orders_crt(self):
        assert FgAbGroup.of_orders([2, 3]) == cyc(6)
        assert FgAbGroup.of_orders([6, 4]).invariant_factors == (2, 12)
        assert FgAbGroup.of_orders([0, 1, 1]) == Z

    def test_equality_is_isomorphism(self):
        assert FgAbGroup.of_orders([4, 3]) == FgAbGroup.of_orders([12])
        assert FgAbGroup.of_orders([2, 2]) != FgAbGroup.of_orders([4])

    def test_order_and_exponent(self):
        g = FgAbGroup.of_orders([2, 12])
        assert g.order == 24
        assert g.is_annihilated_by(12) and not g.is_annihilated_by(6)
        assert Z.order is None

    @given(st.lists(st.integers(0, 30), max_size=5))
    def test_of_orders_canonical(self, orders):
        g = FgAbGroup.of_orders(orders)
        fs = g.invariant_factors
        assert all(b % a == 0 for a, b in zip(fs, fs[1:]))
        finite = [o for o in orders if o >= 2]
        assert (g.order if g.rank == 0 else None) == (
            math.prod(finite) if g.rank == 0 else None)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(cyclic_orders, max_size=8))
    def test_of_orders_matches_trial_division(self, orders):
        g = FgAbGroup.of_orders(orders)
        assert g.rank == orders.count(0)
        assert g.invariant_factors == invariant_factors_by_factoring(orders)


class TestHomExt:
    def test_hom_examples(self):
        assert hom_fg(cyc(4), cyc(6)) == cyc(2)
        g = FgAbGroup.of_orders([0, 0, 5])
        assert hom_fg(Z, g) == g
        assert hom_fg(FgAbGroup.direct_sum(Z, cyc(2)), cyc(4)) == \
            FgAbGroup.of_orders([4, 2])

    def test_ext_examples(self):
        assert ext_fg(cyc(2), Z) == cyc(2)
        assert ext_fg(Z, FgAbGroup.of_orders([7, 0])).is_zero
        assert ext_fg(cyc(4), cyc(6)) == cyc(2)

    @settings(max_examples=80, deadline=None)
    @given(small_finite_groups, small_finite_groups)
    def test_hom_against_enumeration(self, a, b):
        assert hom_fg(a, b).order == brute_force_hom_count(a, b)

    @settings(max_examples=60, deadline=None)
    @given(small_groups, small_groups, small_groups)
    def test_additivity(self, a, b, c):
        lhs = hom_fg(FgAbGroup.direct_sum(a, b), c)
        assert lhs == FgAbGroup.direct_sum(hom_fg(a, c), hom_fg(b, c))
        rhs = ext_fg(a, FgAbGroup.direct_sum(b, c))
        assert rhs == FgAbGroup.direct_sum(ext_fg(a, b), ext_fg(a, c))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 4), small_groups)
    def test_ext_vanishes_on_free(self, r, b):
        assert ext_fg(FgAbGroup.free(r), b).is_zero

    def test_hom_bilinearity_with_free_parts(self):
        # Hom(Z^2 + Z/4, Z + Z/8) = Z^2 + (Z/8)^2 + Z/4
        a = FgAbGroup.direct_sum(FgAbGroup.free(2), cyc(4))
        b = FgAbGroup.direct_sum(Z, cyc(8))
        assert hom_fg(a, b) == FgAbGroup.of_orders([0, 0, 8, 8, 4])


def hom_orders(a, b):
    """Cyclic orders whose sum is Hom(a, b), by additivity over the
    summands: the reference for the trusted path of hom_fg."""
    orders = [0] * (a.rank * b.rank)
    for e in b.invariant_factors:
        orders.extend([e] * a.rank)
    orders += [math.gcd(d, e) for d in a.invariant_factors
               for e in b.invariant_factors]
    return orders


def ext_orders(a, b):
    orders = []
    for d in a.invariant_factors:
        orders.extend([d] * b.rank)
        orders += [math.gcd(d, e) for e in b.invariant_factors]
    return orders


order_lists = st.lists(cyclic_orders, max_size=4)


class TestTrustedConstruction:
    """Library-made groups skip validation; each must equal the validated
    FgAbGroup.of_orders of the same raw orders."""

    @settings(max_examples=200, deadline=None)
    @given(order_lists, st.integers(0, 3))
    def test_smith_diagonal(self, orders, ones):
        # A Smith diagonal: its unit factors first, then the chain, and a
        # zero row for each free summand.  Both readers of its torsion
        # build a trusted group.
        chain = (1,) * ones + _invariant_chain(o for o in orders if o)
        rows = len(chain) + orders.count(0)
        m = IntMatrix.diagonal(list(chain), rows=rows, cols=len(chain))
        x = ChainComplex.build({0: rows, 1: len(chain)}, {1: m})
        assert cokernel(m) == FgAbGroup.of_orders(orders)
        assert x.homology.at(0) == FgAbGroup.of_orders(orders)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(order_lists, max_size=4))
    def test_direct_sum(self, parts):
        # Empty lists and lists of 1s are zero summands.
        g = FgAbGroup.direct_sum(*map(FgAbGroup.of_orders, parts))
        assert g == FgAbGroup.of_orders([o for p in parts for o in p])
        assert SymbolicGroup.of(*map(FgAbGroup.of_orders, parts)) == \
            SymbolicGroup(g, ())

    @settings(max_examples=200, deadline=None)
    @given(order_lists, order_lists)
    def test_hom_and_ext(self, a, b):
        a, b = FgAbGroup.of_orders(a), FgAbGroup.of_orders(b)
        assert hom_fg(a, b) == FgAbGroup.of_orders(hom_orders(a, b))
        assert ext_fg(a, b) == FgAbGroup.of_orders(ext_orders(a, b))

    def test_lone_summand_is_returned(self):
        g = FgAbGroup.of_orders([0, 4, 6])
        assert FgAbGroup.direct_sum(ZERO_GROUP, g, ZERO_GROUP) is g
        assert FgAbGroup.direct_sum() == ZERO_GROUP

    def test_certify_catches_a_broken_chain(self, monkeypatch):
        a, b = cyc(4), cyc(6)
        monkeypatch.setattr(groups_mod, "_invariant_chain", lambda t: (4, 6))
        monkeypatch.setattr(base_mod, "CERTIFY", True)
        with pytest.raises(InternalInvariantError,
                           match="4 does not divide 6"):
            hom_fg(a, b)
        # Without certify mode the malformed value goes through, so the
        # check above is certify mode's own.
        monkeypatch.setattr(base_mod, "CERTIFY", False)
        assert hom_fg(a, b).invariant_factors == (4, 6)

    def test_no_public_constructor_builds_a_broken_chain(self):
        # Z/4 + Z/6 is Z/2 + Z/12: the value (0, (4, 6)) is not canonical,
        # and only the private _trusted may build a value unchecked.
        public = {name for name, attr in vars(FgAbGroup).items()
                  if isinstance(attr, classmethod) and name[0] != "_"}
        assert public == {"free", "cyclic", "of_orders", "direct_sum"}
        with pytest.raises(InputError, match="4 does not divide 6"):
            FgAbGroup(0, (4, 6))
        for g in (FgAbGroup.of_orders([4, 6]),
                  FgAbGroup.direct_sum(cyc(4), cyc(6))):
            assert g.invariant_factors == (2, 12)

    @pytest.mark.parametrize("make, error, message", [
        (lambda: FgAbGroup(True), TypeError, "expected an integer, got true"),
        (lambda: FgAbGroup(0, (2.0,)), TypeError,
         "expected an integer, got 2.0"),
        (lambda: FgAbGroup(0, (4, 6)), InputError,
         "divisibility chain violated: 4 does not divide 6"),
        (lambda: FgAbGroup(0, (1,)), InputError,
         "invariant factors must be >= 2, got 1"),
        (lambda: FgAbGroup.of_orders([2.0]), TypeError,
         "expected an integer, got 2.0"),
    ], ids=["bool-rank", "float-factor", "broken-chain", "unit-factor",
            "float-order"])
    def test_public_constructors_still_validate(self, make, error, message):
        with pytest.raises(error) as info:
            make()
        assert str(info.value) == message

    def test_library_paths_validate_nothing(self, monkeypatch):
        # Validate once: on library-made inputs none of these runs the
        # validating FgAbGroup.__init__ (certify mode would, on purpose).
        a = FgAbGroup.of_orders([0, 4, 12])
        b = FgAbGroup.of_orders([0, 0, 6, 8])
        m = IntMatrix.from_rows([[2, 4, 0], [0, 6, 3], [0, 0, 0]])
        d2 = IntMatrix.from_rows([[-4], [2], [-4]])
        x = ChainComplex.build({0: 3, 1: 3, 2: 1}, {1: m, 2: d2})
        validated = []

        def spy(self, *args):
            validated.append(args)

        monkeypatch.setattr(base_mod, "CERTIFY", False)
        monkeypatch.setattr(FgAbGroup, "__init__", spy)
        made = [g for _, g in x.homology.groups]
        made += [cokernel(m), hom_fg(a, b), ext_fg(b, a),
                 FgAbGroup.direct_sum(a, b, ZERO_GROUP)]
        monkeypatch.undo()
        assert validated == []
        assert len(made) == 6
        assert all(FgAbGroup(g.rank, g.invariant_factors) == g for g in made)


class TestBruteForce:
    def test_examples(self):
        assert brute_force_hom_count(cyc(4), cyc(6)) == 2
        assert brute_force_hom_count(FgAbGroup.of_orders([2, 2]), cyc(2)) == 4
        assert brute_force_hom_count(ZERO_GROUP, cyc(5)) == 1

    def test_bounds(self):
        with pytest.raises(SizeBoundExceededError):
            brute_force_hom_count(Z, cyc(2))
        with pytest.raises(SizeBoundExceededError):
            brute_force_hom_count(cyc(2000), cyc(2000))


class TestCokernel:
    def test_examples(self):
        assert cokernel(IntMatrix.diagonal([2, 3])) == cyc(6)
        assert cokernel(IntMatrix.zero(2, 0)) == FgAbGroup.free(2)
        assert cokernel(IntMatrix.identity(2)).is_zero

    def test_nonsquare(self):
        # Z^2 <- Z^3 by [[2,0,0],[0,3,0]]: cokernel Z/6
        m = IntMatrix.from_rows([[2, 0, 0], [0, 3, 0]])
        assert cokernel(m) == cyc(6)
        # extra target rows become free summands
        m = IntMatrix.from_rows([[2], [0], [0]])
        assert cokernel(m) == FgAbGroup.of_orders([2, 0, 0])


def test_p_valuation():
    assert p_valuation(48, 2) == 4
    assert p_valuation(48, 3) == 1
    assert p_valuation(5, 2) == 0
    with pytest.raises(ValueError):
        p_valuation(0, 3)


def _trial_division_is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# psi_k: the least strong pseudoprime to all of the first k prime bases
# (OEIS A014233), i.e. the first input a k-base Miller-Rabin test gets wrong.
PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
       341550071728321, 341550071728321, 3825123056546413051,
       3825123056546413051, 3825123056546413051)


class TestIsPrime:
    def test_matches_trial_division(self):
        for n in range(-5, 10**5):
            assert is_prime(n) == _trial_division_is_prime(n), n

    def test_strong_pseudoprimes_are_composite(self):
        for psi in PSI:
            assert not is_prime(psi), psi

    def test_mersenne(self):
        assert is_prime(2**61 - 1)
        assert not is_prime(2**67 - 1)  # 193707721 * 761838257287

    def test_refuses_beyond_exact_bound(self):
        assert not is_prime(PSI_12 - 1)  # even
        for n in (PSI_12, PSI_12 + 2, 10**30):
            with pytest.raises(ValueError):
                is_prime(n)
