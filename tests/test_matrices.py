import gc
import hashlib
import random
import signal
import weakref
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from cellkit import matrices as matrices_mod
from cellkit.complexes import ChainComplex, homology_presentation
from cellkit.matrices import (ORDER_DIGIT_CAP, QUOTE_CAP, InputError,
                              IntMatrix, MatrixShapeError, SmithNormalForm,
                              _reduce, hstack, kernel_basis, quoted,
                              smith_normal_form, solve, strict_int)
from cellkit.truncation import connective_cover, section_with_projection


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
        sum(a.entry(i, t) * b.entry(t, j) for t in range(a.cols))
        for i in range(a.rows) for j in range(b.cols)))


# Entry kinds of the golden corpus below: dense small entries, sparse
# units, and entries of at least 2^100 in absolute value.
ENTRY_KINDS = (
    st.integers(-9, 9),
    st.sampled_from((0,) * 6 + (1, -1)),
    st.sampled_from((0, 1, -1)).flatmap(
        lambda s: st.integers(2**100, 2**110).map(lambda x: s * x)),
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


# sha256 of repr(_reduce(m, track)) over the golden corpus, the
# transform-free pass then the tracked pass of each matrix, as the plain
# elimination that visits every entry computes it.  Skipping known zeros
# must leave all five row lists bit-identical.
GOLDEN_REDUCE_DIGEST = (
    "d8688407e505a1b831f527304c3d80772b324f9b2f16531a9e011347ace158bd")


@contextmanager
def time_limit(seconds):
    """Fail with TimeoutError, instead of hanging, if the block is still
    running after ``seconds``: a broken elimination can loop forever."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def cold(m):
    """An equal matrix with no cached Smith normal form."""
    return IntMatrix(m.rows, m.cols, m.entries)


@contextmanager
def fresh_forms():
    """An empty table of shared Smith normal forms while the block runs."""
    saved = matrices_mod._FORMS
    matrices_mod._FORMS = weakref.WeakValueDictionary()
    try:
        yield matrices_mod._FORMS
    finally:
        matrices_mod._FORMS = saved


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

    def test_take_keeps_shape(self):
        a = mat([[1, 2, 3], [4, 5, 6]])
        sub = a.take(row_idx=[], col_idx=None)
        assert (sub.rows, sub.cols) == (0, 3)
        sub = a.take(None, [2, 0])
        assert sub == mat([[3, 1], [6, 4]])

    def test_json_round_trip(self):
        a = mat([[1, -2], [0, 7]])
        assert IntMatrix.from_json(a.to_json()) == a

    def test_block_assembly(self):
        assert hstack([]) == IntMatrix.zero(0, 0)

    def test_hstack(self):
        a, b = mat([[1, 2], [3, 4]]), mat([[5], [6]])
        assert hstack([a, b]) == mat([[1, 2, 5], [3, 4, 6]])
        assert hstack([a]) == a
        assert hstack([IntMatrix.zero(0, 2), IntMatrix.zero(0, 3)]) == \
            IntMatrix.zero(0, 5)
        with pytest.raises(MatrixShapeError):
            hstack([a, mat([[1]])])


class TestSmithNormalForm:
    def test_worked_example(self):
        # Row/column reduction of [[2,4],[6,8]] ends at diag(2, 4); the
        # absolute determinant 8 survives the unimodular changes of basis.
        f = smith_normal_form(mat([[2, 4], [6, 8]]))
        assert f.diagonal == (2, 4)
        assert abs(f.s.entry(0, 0) * f.s.entry(1, 1)) == 8

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
        assert f.u @ f.u_inv == IntMatrix.identity(m.rows)
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
                for track in (False, True):
                    h.update(repr(_reduce(m, track)).encode())
        assert h.hexdigest() == GOLDEN_REDUCE_DIGEST

    def test_solve_unsolvable(self):
        assert solve(mat([[2]]), (1,)) is None
        assert solve(mat([[2, 0], [0, 0]]), (2, 1)) is None
        assert solve(IntMatrix.zero(1, 0), (5,)) is None

    @settings(max_examples=200, deadline=None)
    @given(snf_inputs)
    def test_transform_free_diagonal_matches_full_reduction(self, m):
        with fresh_forms():  # no equal form left over with its s read
            diag = smith_normal_form(cold(m)).diagonal
            f = smith_normal_form(m)
        assert f.s == IntMatrix.diagonal(diag, m.rows, m.cols)
        assert f.diagonal == diag
        assert f.u @ m @ f.v == f.s

    def test_diagonal_alone_builds_no_transform(self, reductions):
        f = smith_normal_form(mat([[2, 4], [6, 8]]))
        assert (f.diagonal, f.rank, f.nonzero_diagonal) == ((2, 4), 2, (2, 4))
        assert [track for _, track in reductions] == [False]

    def test_homology_of_fresh_complex_builds_no_transform(self, reductions):
        h = fresh_complex().homology
        assert str(h) == "H0=Z + Z/2, H1=Z"
        assert reductions and not any(track for _, track in reductions)

    @pytest.mark.parametrize("use, only", [
        (lambda: kernel_basis(mat([[1, 2, 3], [2, 4, 6]])), None),
        (lambda: solve(mat([[1, 2, 3], [2, 4, 6]]), (1, 2)), None),
        (lambda: section_with_projection(fresh_complex(), 1), None),
        (lambda: connective_cover(fresh_complex(), 1), None),
        # The cycles of d_1 alone: the relations are never reduced.
        (lambda: homology_presentation.__wrapped__(fresh_complex(), 1),
         [(fresh_complex().boundary(1), True)]),
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


class TestSharedForms:
    def test_equal_matrices_share_one_form(self, reductions):
        a = mat([[2, 4], [6, 8]])
        b = cold(a)
        assert a is not b
        assert smith_normal_form(a) is smith_normal_form(b)
        assert smith_normal_form(a).diagonal == (2, 4)
        f = smith_normal_form(cold(a))
        assert f.u @ a @ f.v == f.s and smith_normal_form(b).rank == 2
        assert [track for _, track in reductions] == [False, True]

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
            for name in ("s", "u", "v", "u_inv", "v_inv"):
                assert getattr(shared, name) == getattr(direct, name)


def test_quoted_cuts_long_text():
    assert quoted("x" * QUOTE_CAP) == repr("x" * QUOTE_CAP)
    assert quoted("x" * (QUOTE_CAP + 1)) == (
        repr("x" * QUOTE_CAP) + f"... ({QUOTE_CAP + 1} characters)")


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
