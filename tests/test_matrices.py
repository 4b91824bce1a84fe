import gc
import hashlib
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (bareiss_determinant, counted_passes, fresh_forms,
                      time_limit)
from cellkit import matrices as matrices_mod
from cellkit.acceptance import _family
from cellkit.complexes import ChainComplex, ChainMap, homology_presentation
from cellkit.groups import FgAbGroup, cokernel
from cellkit.sampling import random_complex_family
from cellkit.base import ORDER_DIGIT_CAP, QUOTE_CAP, quoted, strict_int
from cellkit.matrices import (TRANSFORMS, InputError, IntMatrix,
                              InternalInvariantError, MatrixShapeError,
                              SmithNormalForm, _reduce, is_unimodular,
                              kernel_basis, product_is_zero, quoted_int,
                              smith_normal_form, solve)
from cellkit.truncation import connective_cover, section_with_projection


ALL = frozenset(TRANSFORMS)
# The transforms that kernel() and image() track.
BASES = frozenset(("v", "v_inv"))


def mat(rows):
    return IntMatrix.from_rows(rows)


matrices = st.integers(1, 8).flatmap(
    lambda r: st.integers(1, 8).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-50, 50), min_size=c, max_size=c),
            min_size=r, max_size=r).map(mat)))


def dense(rows, cols, elements):
    return st.lists(elements, min_size=rows * cols, max_size=rows * cols).map(
        lambda e: IntMatrix(rows, cols, tuple(e)))


shapes = st.tuples(st.integers(0, 7), st.integers(0, 7))
# Every shape from 0x0 up, small and wider-than-64-bit entries, products
# through at most three columns (rank-deficient), and zero matrices.
snf_inputs = st.one_of(
    shapes.flatmap(lambda s: dense(*s, st.integers(-50, 50))),
    shapes.flatmap(lambda s: dense(*s, st.integers(-2**80, 2**80))),
    st.tuples(st.integers(1, 7), st.integers(0, 3), st.integers(1, 7)).flatmap(
        lambda s: st.tuples(dense(s[0], s[1], st.integers(-9, 9)),
                            dense(s[1], s[2], st.integers(-9, 9)))).map(
        lambda ab: ab[0] @ ab[1]),
    shapes.map(lambda s: IntMatrix.zero(*s)),
)


def triple_loop(a, b):
    """The product a @ b, one dot product per entry, zeros included."""
    return IntMatrix(a.rows, b.cols, tuple(
        sum(a.row(i)[t] * b.row(t)[j] for t in range(a.cols))
        for i in range(a.rows) for j in range(b.cols)))


# Entry kinds of the golden corpus below: dense small entries, sparse
# units, and entries of at least 2^100 in absolute value.
ENTRY_KINDS = (
    st.integers(-9, 9),
    st.sampled_from((0,) * 6 + (1, -1)),
    st.sampled_from((0, 1, -1)).flatmap(
        lambda s: st.integers(2**100, 2**110).map(lambda x: s * x)),
)


def scaled(shape):
    """k times a random matrix, k in 2..12: no entry is +-1 and the
    factors have real torsion."""
    return st.tuples(st.integers(2, 12), dense(*shape, st.integers(-9, 9))).map(
        lambda km: IntMatrix(km[1].rows, km[1].cols,
                             tuple(km[0] * x for x in km[1].entries)))


# P diag(2, 4, 12) Q through three columns: rank at most 3, so mostly
# rank-deficient, with every entry even.
torsion_products = st.tuples(st.integers(1, 7), st.integers(1, 7)).flatmap(
    lambda s: st.tuples(dense(s[0], 3, st.integers(-3, 3)),
                        dense(3, s[1], st.integers(-3, 3)))).map(
    lambda pq: pq[0] @ IntMatrix.diagonal([2, 4, 12]) @ pq[1])

# Inputs for every phase of the transform-free pass, in every shape from
# 0x0 up, rows > cols included: cores of units alone, entries of 2 to 9
# (often the g = 1 exit), scaled matrices and torsion products (the
# modular phase), and entries of at least 2^100, alone or among units.
invariant_factor_inputs = st.one_of(
    shapes.flatmap(lambda s: dense(*s, st.sampled_from((0, 0, 1, -1)))),
    shapes.flatmap(lambda s: dense(*s, st.integers(2, 9).flatmap(
        lambda x: st.sampled_from((0, x, -x))))),
    shapes.flatmap(scaled),
    torsion_products,
    shapes.flatmap(lambda s: dense(*s, ENTRY_KINDS[2])),
    shapes.flatmap(lambda s: dense(*s, st.one_of(
        st.sampled_from((0, 1, -1)), ENTRY_KINDS[2]))),
)


def factor(rows, cols):
    """A rows x cols matrix of one entry kind, or a product through at
    most three columns."""
    low_rank = st.integers(0, 3).flatmap(lambda j: st.tuples(
        dense(rows, j, ENTRY_KINDS[0]), dense(j, cols, ENTRY_KINDS[0])))
    return st.one_of(*(dense(rows, cols, e) for e in ENTRY_KINDS),
                     low_rank.map(lambda ab: triple_loop(*ab)))


def golden_corpus():
    """520 seeded matrices up to 10x10: 200 dense with entries in [-9, 9],
    150 sparse (mostly 0, else +-1 or 2), 100 products through at most
    three columns, ten each of 0 x n and n x 0, and 50 with entries of at
    least 2^100 in absolute value."""
    rng = random.Random(9)

    def rand(r, c, draw):
        return IntMatrix(r, c, tuple(draw() for _ in range(r * c)))

    def size():
        return rng.randint(1, 10), rng.randint(1, 10)

    out = []
    for _ in range(200):
        out.append(rand(*size(), lambda: rng.randint(-9, 9)))
    for _ in range(150):
        out.append(rand(*size(),
                        lambda: rng.choice((0,) * 12 + (1, -1, 1, -1, 2))))
    for _ in range(100):
        (r, c), k = size(), rng.randint(0, 3)
        out.append(triple_loop(rand(r, k, lambda: rng.randint(-9, 9)),
                               rand(k, c, lambda: rng.randint(-9, 9))))
    for n in range(10):
        out.append(IntMatrix.zero(0, n))
        out.append(IntMatrix.zero(n, 0))
    for _ in range(50):
        out.append(rand(*size(), lambda: rng.choice((1, -1))
                        * rng.randint(2**100, 2**110)))
    return out


# sha256 over the golden corpus of, for each matrix, repr of its diagonal
# and then repr of _reduce(m, ALL), the rows of s, u, v and v_inv, as the
# plain elimination that visits every entry computes them.  Skipping known
# zeros must leave all four row lists bit-identical.
GOLDEN_REDUCE_DIGEST = (
    "5397fd03ac74e1e28bcb1dc7b2302e434757f811f7f9cd18e80a97a3602b9b9c")


def hcat(a, b):
    """[a | b]."""
    return IntMatrix(a.rows, a.cols + b.cols, tuple(
        x for i in range(a.rows) for x in a.row(i) + b.row(i)))


def vcat(a, b):
    """[[a], [b]]."""
    return IntMatrix(a.rows + b.rows, a.cols, a.entries + b.entries)


def digit_bits(*terms):
    """The s of product_is_zero for the products x @ y of ``terms``: the
    bits of the sum of k max|x| max|y|, so that no entry of a difference
    reaches 2^s."""
    return sum(x.cols * max(map(abs, x.entries), default=0)
               * max(map(abs, y.entries), default=0)
               for x, y in terms).bit_length() or 1


# Entries of the packed test's factors: small, sparse units, and small
# mixed with magnitudes up to 2^400, so that digits run to hundreds of bits.
PACKED_KINDS = (st.integers(-9, 9), st.sampled_from((0, 0, 1, -1)),
                st.one_of(st.integers(-9, 9), st.integers(-2**400, 2**400)))


@st.composite
def packed_cases(draw):
    """(a, b, c, d) in every shape from zero sides up: a @ b is often zero
    ([a | a] @ [[b], [-b]]), and c @ d often equals it ([a | z] @ [[b],
    [0]]), sometimes with one entry changed."""
    n, k, m, j = (draw(st.integers(0, 5)) for _ in range(4))
    a = draw(dense(n, k, draw(st.sampled_from(PACKED_KINDS))))
    b = draw(dense(k, m, draw(st.sampled_from(PACKED_KINDS))))
    if draw(st.booleans()):
        a, b = hcat(a, a), vcat(b, -b)
    z = draw(dense(n, j, draw(st.sampled_from(PACKED_KINDS))))
    c, d = hcat(a, z), vcat(b, IntMatrix.zero(j, m))
    if draw(st.booleans()) and d.entries:
        e = list(d.entries)
        e[draw(st.integers(0, len(e) - 1))] += draw(st.sampled_from((1, -1)))
        d = IntMatrix(d.rows, d.cols, tuple(e))
    if draw(st.booleans()):
        c = draw(dense(n, c.cols, draw(st.sampled_from(PACKED_KINDS))))
    return a, b, c, d


def cold(m):
    """An equal matrix with no cached Smith normal form."""
    return IntMatrix(m.rows, m.cols, m.entries)


def fresh_complex():
    # d1 has rank 1, so degree 1 has both a kernel and an image.
    return ChainComplex.build({0: 2, 1: 3, 2: 1}, {
        1: IntMatrix.from_rows([[2, 4, 6], [4, 8, 12]]),
        2: IntMatrix.from_rows([[2], [-1], [0]]),
    })


class TestIntMatrix:
    def test_shape_validation(self):
        with pytest.raises(MatrixShapeError):
            IntMatrix(2, 2, (1, 2, 3))
        with pytest.raises(MatrixShapeError):
            IntMatrix.from_rows([[1, 2], [3]])

    def test_empty_shapes(self):
        z = IntMatrix.zero(0, 3)
        assert z.rows == 0 and z.cols == 3
        assert (z @ IntMatrix.zero(3, 2)) == IntMatrix.zero(0, 2)

    def test_matmul(self):
        a = mat([[1, 2], [3, 4]])
        b = mat([[0, 1], [1, 0]])
        assert a @ b == mat([[2, 1], [4, 3]])

    @settings(max_examples=300, deadline=None)
    @given(st.tuples(st.integers(0, 10), st.integers(0, 10),
                     st.integers(0, 10)).flatmap(
        lambda s: st.tuples(factor(s[0], s[1]), factor(s[1], s[2]))))
    def test_matmul_matches_triple_loop(self, ab):
        a, b = ab
        assert a @ b == triple_loop(a, b)

    @settings(max_examples=100, deadline=None)
    @given(snf_inputs)
    def test_identity_factor_is_returned(self, m):
        assert IntMatrix.identity(m.rows) @ m is m
        right = m @ IntMatrix.identity(m.cols)
        # When m is an identity itself, either factor is the product.
        assert right is m or (m.is_identity and right == m)

    def test_identity_is_found_by_value(self):
        assert IntMatrix.identity(3).is_identity
        assert IntMatrix.identity(0).is_identity
        assert IntMatrix.diagonal([1, 1]).is_identity
        assert not IntMatrix.diagonal([1, 2]).is_identity
        assert not IntMatrix.zero(2, 2).is_identity
        assert not mat([[1, 0, 0], [0, 1, 0]]).is_identity
        assert IntMatrix.identity(4).entries is IntMatrix.identity(4).entries

    def test_non_identity_factor_is_multiplied(self):
        m = mat([[1, 2, 3], [4, 5, 6]])
        out = IntMatrix.diagonal([1, 2]) @ m
        assert out == mat([[1, 2, 3], [8, 10, 12]]) and out is not m
        square = mat([[1, 0], [0, 1], [0, 0]])   # identity rows, not square
        assert square @ mat([[7, 8], [9, 10]]) == mat([[7, 8], [9, 10], [0, 0]])

    def test_identity_map_makes_no_product(self, monkeypatch):
        # The chain-map check of ChainMap.identity compares d with 1 @ d
        # and d @ 1 in every degree, and each product is its factor.
        made = []
        real_matmul = IntMatrix.__matmul__
        real_post_init = IntMatrix.__post_init__
        inside = []

        def matmul(a, b):
            inside.append(True)
            try:
                return real_matmul(a, b)
            finally:
                inside.pop()

        def post_init(self):
            if inside:
                made.append(self)
            real_post_init(self)

        family = random_complex_family(random.Random(0), 20)
        monkeypatch.setattr(IntMatrix, "__matmul__", matmul)
        monkeypatch.setattr(IntMatrix, "__post_init__", post_init)
        for x in family:
            f = ChainMap.identity(x)
            assert f.source is x and len(f.components) == len(x.ranks)
        assert made == []

    @settings(max_examples=400, deadline=None)
    @given(packed_cases())
    def test_packed_test_matches_products(self, case):
        a, b, c, d = case
        assert product_is_zero(a, b) == (a @ b).is_zero
        assert product_is_zero(c, d) == (c @ d).is_zero
        assert product_is_zero(a, b, c, d) == (a @ b == c @ d)
        assert product_is_zero(c, d, a, b) == (a @ b == c @ d)

    def test_packed_test_at_the_digit_bound(self):
        # The only nonzero entry is 15 = 2^s - 1 for s = 4.
        a, b = mat([[3], [0]]), mat([[5, 0]])
        assert digit_bits((a, b)) == 4
        assert not product_is_zero(a, b)
        assert product_is_zero(a, b, a, b)
        # a @ b - c @ d = [[31, 0], [0, 0]]: 2^s - 1 for s = 5.
        c, d = mat([[4], [0]]), mat([[-4, 0]])
        assert digit_bits((a, b), (c, d)) == 5
        assert not product_is_zero(a, b, c, d)
        assert not product_is_zero(c, d, a, b)

    def test_packed_test_carries_across_digits(self):
        # Rows of mixed signs whose packed integers would agree one digit
        # size lower: 16 - 1 * 2^4 = 0, and [[15, 0]] and [[-17, 1]] as
        # 15 = -17 + 2^5.
        one = mat([[1]])
        assert digit_bits((one, mat([[16, -1]]))) == 5
        assert not product_is_zero(one, mat([[16, -1]]))
        a, b, d = mat([[3], [0]]), mat([[5, 0]]), mat([[-17, 1]])
        c = mat([[1], [0]])
        assert digit_bits((a, b), (c, d)) == 6
        assert not product_is_zero(a, b, c, d)
        assert not product_is_zero(c, d, a, b)
        # Every digit borrows from the next, and rows agree entry by entry.
        x, y = mat([[3], [-3]]), mat([[5, -5, 5, -5]])
        assert not product_is_zero(x, y)
        assert product_is_zero(x, y, -x, -y)
        assert product_is_zero(x, y, mat([[1], [-1]]),
                               mat([[15, -15, 15, -15]]))
        assert not product_is_zero(x, y, x, mat([[5, -5, 5, 5]]))
        assert not product_is_zero(x, y, x, mat([[-5, 5, -5, 5]]))

    def test_packed_test_shapes(self):
        for n, k, m in ((0, 3, 2), (2, 3, 0), (2, 0, 3), (0, 0, 0)):
            a, b = IntMatrix.zero(n, k), IntMatrix.zero(k, m)
            assert product_is_zero(a, b) and product_is_zero(a, b, a, b)
        ones = IntMatrix(2, 3, (1,) * 6)
        c, d = mat([[1], [1]]), mat([[1, 1, 1]])
        assert not product_is_zero(IntMatrix.zero(2, 0),
                                   IntMatrix.zero(0, 3), c, d)
        assert product_is_zero(c, d, IntMatrix.identity(2), ones)
        with pytest.raises(MatrixShapeError):
            product_is_zero(c, c)
        with pytest.raises(MatrixShapeError):
            product_is_zero(c, d, c, c)

    def test_packed_test_packs_the_larger_factor(self, monkeypatch):
        packed = []
        real = matrices_mod._packed_lines
        monkeypatch.setattr(matrices_mod, "_packed_lines",
                            lambda *args: packed.append(args) or real(*args))
        small = mat([[2, 3], [4, 5]])
        big = IntMatrix(2, 2, tuple(2 ** 400 * x for x in small.entries))
        # The factor with the larger entries is packed: the rows of big
        # here, then its columns.
        assert not product_is_zero(small, big) and packed[-1][3] is True
        assert not product_is_zero(big, small) and packed[-1][3] is False
        # An identity factor leaves the other factor as the product.
        assert not product_is_zero(IntMatrix.identity(2), small)
        assert len(packed) == 2

    def test_take_keeps_shape(self):
        a = mat([[1, 2, 3], [4, 5, 6]])
        sub = a.take(row_idx=[], col_idx=None)
        assert (sub.rows, sub.cols) == (0, 3)
        sub = a.take(None, [2, 0])
        assert sub == mat([[3, 1], [6, 4]])

    def test_json_round_trip(self):
        a = mat([[1, -2], [0, 7]])
        assert IntMatrix.from_json(a.to_json()) == a

    def test_zero_and_identity_are_shared_per_shape(self):
        assert IntMatrix.zero(2, 3) is IntMatrix.zero(2, 3)
        assert IntMatrix.identity(3) is IntMatrix.identity(3)
        assert IntMatrix.zero(3, 3) is not IntMatrix.identity(3)
        assert IntMatrix.zero(2, 3) == IntMatrix(2, 3, (0,) * 6)
        assert IntMatrix.identity(2) == mat([[1, 0], [0, 1]])
        # The cache is bounded: a shape pushed out is built again, equal.
        first = IntMatrix.zero(1, 1)
        for n in range(matrices_mod.SHARED_SHAPES):
            IntMatrix.identity(n)
        assert matrices_mod._shared.cache_info().currsize == (
            matrices_mod.SHARED_SHAPES)
        again = IntMatrix.zero(1, 1)
        assert again == first and again is not first

    @pytest.mark.parametrize("make", [
        lambda: IntMatrix(True, 2, (0, 0)),
        lambda: IntMatrix(2, 1.0, (0, 0)),
        lambda: IntMatrix.zero(True, 2),
        lambda: IntMatrix.zero(1, False),
        lambda: IntMatrix.identity(True),
        lambda: IntMatrix.diagonal([1], rows=True, cols=1),
    ], ids=["init", "float", "zero rows", "zero cols", "identity",
            "diagonal"])
    def test_shapes_must_be_integers(self, make):
        with pytest.raises(TypeError):
            make()
        # True == 1, but no bool-shaped matrix reaches the shared ones.
        assert IntMatrix.zero(1, 2).to_json()["rows"] is not True
        assert type(IntMatrix.identity(1).rows) is int


class TestSmithNormalForm:
    def test_worked_example(self):
        # Row/column reduction of [[2,4],[6,8]] ends at diag(2, 4); the
        # absolute determinant 8 survives the unimodular changes of basis.
        f = smith_normal_form(mat([[2, 4], [6, 8]]))
        assert f.diagonal == (2, 4)
        assert abs(f.s.row(0)[0] * f.s.row(1)[1]) == 8

    def test_identity(self):
        f = smith_normal_form(IntMatrix.identity(3))
        assert f.s == IntMatrix.identity(3)
        assert f.u == IntMatrix.identity(3)
        assert f.v == IntMatrix.identity(3)

    def test_zero_matrix(self):
        f = smith_normal_form(IntMatrix.zero(2, 3))
        assert f.s == IntMatrix.zero(2, 3)
        assert f.rank == 0

    def test_empty(self):
        f = smith_normal_form(IntMatrix.zero(0, 4))
        assert f.s.rows == 0 and f.s.cols == 4
        assert f.v == IntMatrix.identity(4)

    @settings(max_examples=150, deadline=None)
    @given(matrices)
    def test_certified_decomposition(self, m):
        f = smith_normal_form(m)
        assert f.u @ m @ f.v == f.s
        assert is_unimodular(f.u) and is_unimodular(f.v)
        assert f.v @ f.v_inv == IntMatrix.identity(m.cols)
        diag = f.diagonal
        assert all(d >= 0 for d in diag)
        nonzero = [d for d in diag if d]
        # nonzero entries form a leading prefix with a divisibility chain
        assert diag[:len(nonzero)] == tuple(nonzero)
        assert all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))

    @settings(max_examples=100, deadline=None)
    @given(matrices)
    def test_kernel_and_solve(self, m):
        k = kernel_basis(m)
        assert (m @ k).is_zero
        # every kernel column really solves m x = 0 and solve() agrees
        zero_rhs = (0,) * m.rows
        x = solve(m, zero_rhs)
        assert x is not None and not any(m.apply(x))
        # solving against a known-image vector succeeds
        probe = m.apply(tuple(1 for _ in range(m.cols)))
        y = solve(m, probe)
        assert y is not None and m.apply(y) == probe

    @settings(max_examples=100, deadline=None)
    @given(snf_inputs)
    def test_image_basis_spans_the_image(self, m):
        f = smith_normal_form(m)
        basis, proj = f.image()
        r = f.rank
        assert (basis.rows, basis.cols, proj.rows, proj.cols) == (
            m.rows, r, r, m.cols)
        # im(m) lies in the span of basis, and basis in im(m).
        assert basis @ proj == m
        assert m @ f.v.take(None, range(r)) == basis

    def test_reduction_matches_golden_digest(self):
        corpus = golden_corpus()
        assert len(corpus) == 520
        h = hashlib.sha256()
        with time_limit(60):
            for m in corpus:
                h.update(repr(SmithNormalForm(m).diagonal).encode())
                h.update(repr(_reduce(m, ALL)).encode())
        assert h.hexdigest() == GOLDEN_REDUCE_DIGEST

    @settings(max_examples=150, deadline=None)
    @given(snf_inputs, st.permutations(
        ("kernel", "image", "solve", "diagonal", "rank") + TRANSFORMS))
    def test_tracked_reads_match_the_full_pass(self, m, order):
        # Whatever is read first, every transform and basis is the one the
        # pass that tracks all three builds, and no transform is built
        # twice.  Bases, then a solve or a bare u, run two tracked passes;
        # a solve or a bare read first runs one.
        a, *transforms = _reduce(m, ALL)
        u, v, v_inv = (
            IntMatrix(len(t), len(t), tuple(x for row in t for x in row))
            for t in transforms)
        diag = tuple(a[i][i] for i in range(min(m.rows, m.cols)))
        r = sum(1 for d in diag if d)
        probe = m.apply((1,) * m.cols)
        y = [0] * m.cols
        for i, c in enumerate(u.apply(probe)):
            if c:
                y[i] = c // diag[i]
        want = {
            "kernel": (v.take(None, range(r, m.cols)),
                       v_inv.take(range(r, m.cols), None)),
            "image": (m @ v.take(None, range(r)), v_inv.take(range(r), None)),
            "solve": v.apply(y) if m.cols else (),
            "diagonal": diag,
            "rank": r,
            "u": u, "v": v, "v_inv": v_inv,
        }
        x = cold(m)
        with fresh_forms(), counted_passes() as passes:
            f = smith_normal_form(x)
            read = {
                "kernel": f.kernel, "image": f.image,
                "solve": lambda: solve(x, probe),
                "diagonal": lambda: f.diagonal, "rank": lambda: f.rank,
                **{name: (lambda name=name: getattr(f, name))
                   for name in TRANSFORMS}}
            for name in order:
                assert read[name]() == want[name], name
        tracked = [t for t in passes if t]
        assert passes.count(frozenset()) <= 1
        assert len(tracked) <= 2
        assert sum(len(t) for t in tracked) == len(ALL)   # each built once
        # A bare read or a solve, of any shape, builds all three at once.
        if order[0] in (*TRANSFORMS, "solve"):
            assert tracked == [ALL]

    @settings(max_examples=50, deadline=None)
    @given(snf_inputs, st.booleans())
    def test_kernel_and_image_share_one_pass(self, m, kernel_first):
        f = SmithNormalForm(cold(m))
        with counted_passes() as passes:
            for read in ((f.kernel, f.image) if kernel_first
                         else (f.image, f.kernel)):
                read()
            f.rank
        assert passes == [BASES]

    @settings(max_examples=50, deadline=None)
    @given(snf_inputs)
    def test_bases_build_no_u(self, m):
        f = SmithNormalForm(cold(m))
        f.kernel()
        f.image()
        assert "u" not in f.__dict__
        # A later bare read builds it, as the three-transform pass does.
        want = _reduce(m, ALL)[1]
        assert f.u == IntMatrix(m.rows, m.rows,
                                tuple(x for row in want for x in row))

    @settings(max_examples=50, deadline=None)
    @given(snf_inputs)
    def test_u_inv_is_derived_without_products(self, m):
        f = SmithNormalForm(cold(m))
        with mock.patch.object(IntMatrix, "__matmul__", side_effect=AssertionError):
            u_inv = f.u_inv
        assert f.u @ u_inv == IntMatrix.identity(m.rows)

    @pytest.mark.parametrize("bare_first", [False, True])
    def test_library_reads_run_at_most_two_passes(self, bare_first):
        m = mat([[2, 4, 6], [6, 8, 10], [1, 3, 5]])
        with fresh_forms(), counted_passes() as passes:
            f = smith_normal_form(m)
            if bare_first:
                f.u
            f.kernel()
            f.image()
            solve(m, (2, 6, 1))
        # Bases and a solve: v and v_inv, then u.  A bare read first
        # builds all three, and nothing later runs a pass.
        assert passes == ([ALL] if bare_first
                          else [BASES, frozenset(("u",))])

    def test_solve_unsolvable(self):
        assert solve(mat([[2]]), (1,)) is None
        assert solve(mat([[2, 0], [0, 0]]), (2, 1)) is None
        assert solve(IntMatrix.zero(1, 0), (5,)) is None

    # (shape, kernel basis, solution of m x = 0, a right-hand side with no
    # solution, cokernel) of zero matrices; 0-row matrices have only the
    # empty right-hand side.
    @pytest.mark.parametrize("shape, kernel, zero_x, unsolvable, coker", [
        ((0, 0), IntMatrix.zero(0, 0), (), None, FgAbGroup()),
        ((0, 3), IntMatrix.identity(3), (0, 0, 0), None, FgAbGroup()),
        ((3, 0), IntMatrix.zero(0, 0), (), (1, 0, 0), FgAbGroup.free(3)),
        ((2, 3), IntMatrix.identity(3), (0, 0, 0), (0, 1),
         FgAbGroup.free(2)),
    ], ids=["0x0", "0x3", "3x0", "zero 2x3"])
    def test_degenerate_shapes(self, shape, kernel, zero_x, unsolvable,
                               coker):
        m = IntMatrix.zero(*shape)
        assert kernel_basis(m) == kernel
        assert solve(m, (0,) * m.rows) == zero_x
        if unsolvable is not None:
            assert solve(m, unsolvable) is None
        assert cokernel(m) == coker
        assert is_unimodular(m) == (shape == (0, 0))

    @pytest.mark.parametrize("rows, unimodular", [
        ([[2, 3], [3, 5]], True),
        ([[2]], False),
        ([[1, 0], [0, 0]], False),
        ([[1, 0, 0], [0, 1, 0]], False),
    ])
    def test_is_unimodular(self, rows, unimodular):
        assert is_unimodular(mat(rows)) is unimodular

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(snf_inputs, invariant_factor_inputs))
    def test_transform_free_diagonal_matches_full_reduction(self, m):
        # No equal form is left over with its s read, and a broken modular
        # phase fails instead of looping.
        with fresh_forms(), time_limit(20):
            diag = smith_normal_form(cold(m)).diagonal
            f = smith_normal_form(m)
        # The tracked pass ends at the very diagonal matrix that s is.
        assert _reduce(m, ALL)[0] == IntMatrix.diagonal(
            diag, m.rows, m.cols).to_rows()
        assert f.diagonal == diag
        assert f.u @ m @ f.v == f.s

    def test_diagonal_alone_builds_no_transform(self, reductions):
        f = smith_normal_form(mat([[2, 4], [6, 8]]))
        assert (f.diagonal, f.rank, f.torsion) == ((2, 4), 2, (2, 4))
        assert f.s == mat([[2, 0], [0, 4]])
        assert [track for _, track in reductions] == [frozenset()]

    def test_homology_of_fresh_complex_builds_no_transform(self, reductions):
        h = fresh_complex().homology
        assert str(h) == "H0=Z + Z/2, H1=Z"
        assert reductions and all(
            track == frozenset() for _, track in reductions)

    @pytest.mark.parametrize("use, only", [
        (lambda: kernel_basis(mat([[1, 2, 3], [2, 4, 6]])), None),
        (lambda: solve(mat([[1, 2, 3], [2, 4, 6]]), (1, 2)), None),
        (lambda: section_with_projection(fresh_complex(), 1), None),
        (lambda: connective_cover(fresh_complex(), 1), None),
        # The cycles of d_1 alone: the relations are never reduced.
        (lambda: homology_presentation.__wrapped__(fresh_complex(), 1),
         [(fresh_complex().boundary(1), BASES)]),
    ], ids=["kernel_basis", "solve", "section_with_projection",
            "connective_cover", "homology_presentation"])
    def test_basis_users_reduce_each_matrix_once(self, reductions, use, only):
        use()
        reduced = [m for m, _ in reductions]
        assert reduced and len(reduced) == len({id(m) for m in reduced})
        if only is not None:
            assert reductions == only
        for m in reduced:  # a later rank is read off the same reduction
            smith_normal_form(m).rank
        assert len(reductions) == len(reduced)


def chain_map_condition(a, b):
    """The matrix of the conditions d_b f_n = f_(n-1) d_a on a degree-0
    map f: a -> b, one column per entry of f (by degree, then row-major)
    and one row per entry of the conditions."""
    degrees = sorted({n for n, _ in a.ranks} | {n for n, _ in b.ranks})
    col = {}
    for n in degrees:
        for t in range(b.rank(n)):
            for j in range(a.rank(n)):
                col[n, t, j] = len(col)
    rows = []
    for n in degrees:
        da, db = a.boundary(n), b.boundary(n)
        for i in range(b.rank(n - 1)):
            for j in range(a.rank(n)):
                row = [0] * len(col)
                for t in range(b.rank(n)):
                    row[col[n, t, j]] += db.row(i)[t]
                for t in range(a.rank(n - 1)):
                    row[col[n - 1, i, t]] -= da.row(t)[j]
                rows.append(row)
    return mat(rows)


class TestInvariantFactorPass:
    @pytest.mark.parametrize("rows, diagonal, phases", [
        # Unit pivots leave nothing.
        ([[1, 2], [3, 7]], (1, 1), set()),
        # Unit pivots leave the one row [-2], whose gcd is its factor.
        ([[0, 1, 1], [1, 0, 1], [1, 1, 0]], (1, 1, 2), set()),
        # No unit entry; Bareiss ends at the minor -1, so g = 1.
        ([[2, 3], [5, 7]], (1, 1), {"bareiss"}),
        # g = 2 is d1 d2 and d2 itself: modulo g it would read as zero.
        ([[2, 3], [4, 5]], (1, 2), {"bareiss", "modular"}),
        ([[2, 4], [6, 8]], (2, 4), {"bareiss", "modular"}),
        # Rank 1 of 2 rows: one copy of 2g for the zero factor.
        ([[2, 4, 6], [4, 8, 12]], (2, 0), {"bareiss", "modular"}),
        # Rows > cols, with entries of 2^100 and more.
        ([[2 ** 100, 0], [0, 3 * 2 ** 100], [2 ** 100, 3 * 2 ** 100]],
         (2 ** 100, 3 * 2 ** 100), {"bareiss", "modular"}),
        # The last pivot row [2, 4] has gcd 2, but the row it clears leads
        # with the 1 x 1 minor 3, so g = 1.
        ([[2, 4], [3, 6]], (1, 0), {"bareiss"}),
    ])
    def test_each_phase_on_a_fixed_input(self, rows, diagonal, phases):
        with mock.patch.object(matrices_mod, "_bareiss",
                               wraps=matrices_mod._bareiss) as bareiss, \
                mock.patch.object(matrices_mod, "_factors_mod",
                                  wraps=matrices_mod._factors_mod) as modular:
            assert SmithNormalForm(mat(rows)).diagonal == diagonal
        reached = {name for name, spy in (("bareiss", bareiss),
                                          ("modular", modular)) if spy.called}
        assert reached == phases
        assert _reduce(mat(rows), ALL)[0] == IntMatrix.diagonal(
            diagonal, len(rows), len(rows[0])).to_rows()

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 4), st.integers(1, 6),
           st.integers(1, 12), st.data())
    def test_low_rank_products_match_the_euclidean_pass(
            self, rows, inner, cols, scale, data):
        # P Q with P of entries up to 2^200: huge minors, small factors.
        def entries(n, bound):
            return tuple(data.draw(st.lists(st.integers(-bound, bound),
                                            min_size=n, max_size=n)))

        p = IntMatrix(rows, inner, entries(rows * inner, 2 ** 200))
        q = IntMatrix(inner, cols, entries(inner * cols, 9))
        m = mat([[scale * v for v in row] for row in (p @ q).to_rows()])
        s = _reduce(m, frozenset())[0]
        want = [s[i][i] for i in range(min(rows, cols)) if s[i][i]]
        assert matrices_mod._invariant_factors(m) == want

    @pytest.mark.parametrize("shape", [(0, 0), (0, 4), (4, 0)])
    def test_empty_shapes_reach_no_phase(self, shape):
        with mock.patch.object(matrices_mod, "_unit_pivots",
                               wraps=matrices_mod._unit_pivots) as units:
            assert SmithNormalForm(IntMatrix.zero(*shape)).diagonal == ()
        assert units.call_args.args[0] == []

    def test_miscounted_zero_factors_are_an_internal_error(self):
        # A modular phase that reports every factor as zero disagrees with
        # the Bareiss rank.
        with mock.patch.object(matrices_mod, "_factors_mod",
                               lambda a, n: [n] * len(a)):
            with pytest.raises(InternalInvariantError):
                SmithNormalForm(mat([[2, 4], [6, 8]])).diagonal

    def test_pinned_cliff_matrix(self):
        # The chain-map condition between the covers at k = 0 of complexes
        # 496 and 497 of the acceptance family of seed 0.  The full
        # elimination takes about 1.3 s for this diagonal.
        family = _family(0)
        a, b = (connective_cover(x, 0) for x in family[496:498])
        m = chain_map_condition(a, b)
        assert (m.rows, m.cols) == (44, 44)
        assert sum(1 for x in m.entries if x) == 252
        assert max(abs(x) for x in m.entries).bit_length() == 17
        f = SmithNormalForm(m)
        with time_limit(1):
            diagonal = f.diagonal
        assert diagonal == (1,) * 28 + (2,) * 4 + (0,) * 12

    def test_huge_columns_in_the_span_of_small_ones(self):
        # [S H | S] with S 13x3 small and H 3x16 of 100,000-bit entries:
        # the columns of S H lie in the lattice of S, so the factors are
        # those of S.  Pivots in the huge columns would make 200,000-bit
        # minors; columns of small entries go first and reach rank 3.
        rng = random.Random(3)
        small = IntMatrix(13, 3, tuple(rng.randint(-9, 9) for _ in range(39)))
        huge = IntMatrix(3, 16, tuple(rng.randint(-2 ** 100_000, 2 ** 100_000)
                                      for _ in range(48)))
        m = mat([a + b for a, b in zip((small @ huge).to_rows(),
                                       small.to_rows())])
        f = SmithNormalForm(m)
        with time_limit(1):
            diagonal = f.diagonal
        want = _reduce(small, ALL)[0]
        assert diagonal == tuple(want[i][i] for i in range(3)) + (0,) * 10

    def test_dense_80x80_homology(self):
        rng = random.Random(80)
        d = IntMatrix(80, 80, tuple(rng.randint(-9, 9) for _ in range(6400)))
        x = ChainComplex.build({0: 80, 1: 80}, {1: d})
        with time_limit(10):
            h = x.homology
        # d is invertible over Q, so H1 = 0 and H0 has order |det d|.
        det = bareiss_determinant(d)
        assert det and h.at(1).is_zero
        assert h.at(0).order == abs(det)


class TestSharedForms:
    def test_equal_matrices_share_one_form(self, reductions):
        a = mat([[2, 4], [6, 8]])
        b = cold(a)
        assert a is not b
        assert smith_normal_form(a) is smith_normal_form(b)
        assert smith_normal_form(a).diagonal == (2, 4)
        f = smith_normal_form(cold(a))
        assert f.u @ a @ f.v == f.s and smith_normal_form(b).rank == 2
        # A bare read of u tracks all three transforms in one pass.
        assert [track for _, track in reductions] == [frozenset(), ALL]

    def test_unequal_matrices_do_not_share(self, reductions):
        a, b = mat([[2, 4], [6, 8]]), mat([[2, 4, 6, 8]])
        assert a.entries == b.entries
        assert smith_normal_form(a) is not smith_normal_form(b)
        assert smith_normal_form(a).diagonal == (2, 4)
        assert smith_normal_form(b).diagonal == (2,)

    def test_form_leaves_table_with_last_matrix(self):
        with fresh_forms() as table:
            a = mat([[3, 0], [0, 6]])
            b = cold(a)
            key = (2, 2, a.entries)
            assert smith_normal_form(a) is smith_normal_form(b)
            assert key in table
            del a
            gc.collect()
            assert key in table  # b still holds the form
            del b
            gc.collect()
            assert key not in table and len(table) == 0

    @settings(max_examples=50, deadline=None)
    @given(snf_inputs)
    def test_bases_are_built_once(self, m):
        f = SmithNormalForm(cold(m))
        assert f.kernel() is f.kernel() and f.image() is f.image()
        x = cold(m)
        basis = kernel_basis(x)
        assert kernel_basis(x) is basis
        # An equal matrix finds the same form, and so the same basis.
        assert kernel_basis(cold(m)) is basis

    def test_take_of_every_row_and_column_is_the_matrix_itself(self):
        # A zero matrix has no image, so its kernel pair is all of (v, v_inv);
        # a nonsingular one has no kernel, so its image's proj is v_inv.
        f = smith_normal_form(IntMatrix.zero(3, 4))
        assert f.kernel()[0] is f.v and f.kernel()[1] is f.v_inv
        g = smith_normal_form(mat([[2, 0], [0, 3]]))
        assert g.image()[1] is g.v_inv
        m = mat([[1, 2], [3, 4]])
        assert m.take() is m and m.take([0, 1], range(2)) is m
        assert m.take([1, 0]) == mat([[3, 4], [1, 2]])
        assert m.take(None, [0]) == mat([[1], [3]])

    def test_covers_of_equal_complexes_reduce_a_missing_boundary_once(self):
        # d_1 is missing, so both covers at 1 read the kernel of the 2 x 3
        # zero matrix; the collection drops any form that only a cycle of
        # the first cover's zero matrix kept.
        def build():
            return ChainComplex.build({0: 2, 1: 3, 2: 1},
                                      {2: mat([[1], [2], [3]])})
        with fresh_forms(), counted_passes() as passes:
            first = connective_cover(build(), 1)
            gc.collect()
            second = connective_cover(build(), 1)
        assert first == second and first is not second
        assert passes == [BASES]

    def test_rebuilt_section_reuses_its_boundary(self, reductions):
        x = fresh_complex()
        section, proj = section_with_projection(x, 1)
        section.homology
        assert reductions
        reductions.clear()
        again, proj_again = section_with_projection(x, 1)
        again.homology
        assert reductions == []
        assert again.boundary(1) is section.boundary(1)
        assert proj_again.component(1) is proj.component(1)

    @settings(max_examples=150, deadline=None)
    @given(snf_inputs)
    def test_shared_form_matches_cold_reduction(self, m):
        with fresh_forms():
            first, second = cold(m), cold(m)
            diagonal = smith_normal_form(first).diagonal
            shared = smith_normal_form(second)
            assert shared is smith_normal_form(first)
            direct = SmithNormalForm(cold(m))
            assert diagonal == shared.diagonal == direct.diagonal
            for name in ("s",) + TRANSFORMS:
                assert getattr(shared, name) == getattr(direct, name)


def test_quoted_cuts_long_text():
    assert quoted("x" * QUOTE_CAP) == repr("x" * QUOTE_CAP)
    assert quoted("x" * (QUOTE_CAP + 1)) == (
        repr("x" * QUOTE_CAP) + f"... ({QUOTE_CAP + 1} characters)")


# Lengths on both sides of QUOTE_CAP and of CPython's 4,300-digit limit on
# writing an integer as text; the smallest and largest integers of each
# length, where a digit count from the bit length could be off by one.
def test_quoted_int_cuts_long_integers():
    assert quoted_int(0) == "0"
    for length in [*range(1, 130), 4299, 4300, 4301, 8598, 20_000]:
        for n, digits in [(10 ** (length - 1), "1" + "0" * (length - 1)),
                          (10 ** length - 1, "9" * length),
                          (7 * (10 ** length - 1) // 9, "7" * length)]:
            want = digits if length <= QUOTE_CAP else (
                f"{digits[:QUOTE_CAP]}... ({length} digits)")
            assert (quoted_int(n), quoted_int(-n)) == (want, "-" + want)


@pytest.mark.parametrize("sign", ["", "-"])
def test_strict_int_digit_cap(sign):
    assert strict_int(sign + "9" * ORDER_DIGIT_CAP) == int(
        sign + "9" * ORDER_DIGIT_CAP)
    with pytest.raises(InputError) as err:
        strict_int(sign + "9" * (ORDER_DIGIT_CAP + 1))
    assert str(err.value) == (f"an integer may have at most {ORDER_DIGIT_CAP}"
                              f" digits, not {ORDER_DIGIT_CAP + 1}")
    with pytest.raises(InputError) as err:
        strict_int("x" * 5000)
    assert str(err.value) == f"not an integer: {quoted('x' * 5000)}"
