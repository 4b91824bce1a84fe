"""Exact integer matrix arithmetic and the Smith normal form.

Everything runs on Python's unbounded integers: invariant factors of even
small random matrices overflow 64-bit types, so no fixed-width arithmetic
appears anywhere.

The invariant factors come from ``_invariant_factors``, which builds no
change-of-basis matrix, in three phases:

1. unit pivots: while an entry is +-1, clear its column and drop its row
   and column.  This is a Schur complement with unit pivots, so every
   entry stays a minor of the input, bounded by Hadamard's bound;
2. Bareiss elimination with column skipping on what is left gives its
   rank r and g, the gcd of the r x r minors on the last pivot row.
   Every entry is again a minor, and d1...dr divides g, so g = 1 ends the
   pass with every nonzero factor 1;
3. otherwise elimination modulo N = 2g, with 2 x 2 extended-gcd
   transforms of determinant 1, keeps every entry below N.  The nonzero
   factors are the invariant chain of the gcd(e_i, N), less one copy of N
   for each zero factor.

Homology, rank and cokernels read only the invariant factors.  Kernel,
image, solve and ``cellkit snf`` read change-of-basis matrices, which the
tracked elimination of ``_reduce`` builds on first use, and only those
that are read: kernel and image bases read v and v_inv, and a solve or
``cellkit snf`` u, v and v_inv.  ``cellkit snf`` proves u and v
unimodular with the same three phases (``is_unimodular``: a square
matrix has determinant +-1 exactly when its invariant factors are n
ones), so no inverse of u is built.  Empty and zero matrices take the
same path as any other.  A product with an identity factor is the other
factor.

``product_is_zero`` tests a product for zero, or two for equality, without
forming them: each line of the factor with the larger entries is packed in
base 2^s, so a line of a product is one dot product in CPython's big-integer
code (Kronecker substitution).  It is exact: with s the bit length of the
sum of k max|x| max|y| over the products, no entry of a difference reaches
2^s, so a packed line sum_j e_j 2^(s j) is zero only when every e_j is.

Equal matrices share one Smith normal form, found through a table of weak
references, so a value that is rebuilt (the same cone, shift or cover
made again) is reduced once while its form lives.  A form and the matrix
it was made from refer to each other, so the form outlives the last
matrix that uses it until the cyclic garbage collector frees the pair:
whether a rebuilt value is reduced again depends on collection timing.
A form keeps the kernel and image bases it builds, so every reader of it
gets the same matrices.  ``IntMatrix.zero`` and ``IntMatrix.identity``
return one shared matrix per shape, with its form, from a cache of the
SHARED_SHAPES = 64 shapes last used: a missing boundary is reduced once per
shape.  At RANK_CAP = 512 such a matrix holds 2 MiB of entries, and so
do u, v, v_inv and one basis pair on its form (a zero matrix has no image,
an identity no kernel), so the cache may hold up to 64 x 12 = 768 MiB.
The cache of ``complexes.homology_presentation`` also keeps up to 8,192
complexes alive across operations, with their matrices and forms.
"""

from __future__ import annotations

import weakref
from collections.abc import Iterable, Sequence
from functools import lru_cache
from itertools import compress
from math import gcd
from operator import eq, lshift, mul

from . import base
from .base import (Frozen, InputError, InternalInvariantError,
                   _invariant_chain, cached_property, certified, json_int,
                   quoted_int, quoted_shape, smith_normal_form)


class MatrixShapeError(InputError):
    """Inconsistent matrix dimensions."""


# How many zero and identity matrices _shared keeps, the ones used last.
SHARED_SHAPES = 64


@lru_cache(maxsize=SHARED_SHAPES)
def _shared(rows: int, cols: int, identity: bool) -> "IntMatrix":
    """The one zero or identity matrix of its shape, with its form."""
    if rows < 0 or cols < 0:
        raise MatrixShapeError(f"negative shape {quoted_int(rows)}x{quoted_int(cols)}")
    return IntMatrix._trusted(rows, cols, tuple(
        int(i == j) for i in range(rows) for j in range(cols))
        if identity else (0,) * (rows * cols))


class IntMatrix(Frozen):
    """Immutable integer matrix, entries stored row-major.

    >>> m = IntMatrix.from_rows([[2, 4], [6, 8]])
    >>> m.row(1)
    (6, 8)
    """

    __slots__ = ("rows", "cols", "entries", "__dict__")
    rows: int
    cols: int
    entries: tuple[int, ...]

    def __init__(self, rows: int, cols: int, entries: Iterable[int] = ()):
        self.__post_init__(rows, cols, tuple(entries))
        if not {int}.issuperset(map(type, (rows, cols, *self.entries))):
            json_int(rows), json_int(cols)  # a bool or a float is no shape
            json_int(next(x for x in self.entries if type(x) is not int))
        if rows < 0 or cols < 0:
            raise MatrixShapeError(f"negative shape {quoted_shape(self)}")
        if len(self.entries) != rows * cols:
            raise MatrixShapeError(
                f"{quoted_shape(self)} matrix needs "
                f"{quoted_int(rows * cols)} entries, got {len(self.entries)}")

    @classmethod
    def _trusted(cls, rows: int, cols: int, entries: tuple) -> "IntMatrix":
        """Unchecked: a tuple of rows * cols ints that library code made."""
        m = object.__new__(cls)
        m.__post_init__(rows, cols, entries)
        return certified(m, cls, rows, cols, entries) if base.CERTIFY else m

    # Every matrix, checked or trusted, sets its fields here once:
    # perfbench/tracer.py counts the matrices built by wrapping this method.
    def __post_init__(self, rows: int, cols: int, entries: tuple[int, ...]):
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise MatrixShapeError("ragged rows")
        return cls(r, c, [x for row in rows for x in row])

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return _shared(json_int(n), n, True)

    @cached_property
    def is_identity(self) -> bool:
        n, e = self.rows, self.entries
        return (n == self.cols and e[::n + 1] == (1,) * n
                and e.count(0) == n * n - n)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        return _shared(json_int(rows), json_int(cols), False)

    @classmethod
    def diagonal(cls, diag: Sequence[int], rows: int | None = None,
                 cols: int | None = None) -> "IntMatrix":
        r = len(diag) if rows is None else rows
        c = len(diag) if cols is None else cols
        if len(diag) > min(r, c):
            raise MatrixShapeError("diagonal longer than matrix")
        ents = [0] * (r * c)
        ents[:len(diag) * (c + 1):c + 1] = diag
        return cls(r, c, ents)

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def column(self, j: int) -> tuple[int, ...]:
        return self.entries[j::self.cols] if self.cols else ()

    def to_rows(self) -> list[list[int]]:
        c = self.cols
        return [list(self.entries[i * c:(i + 1) * c]) for i in range(self.rows)]

    def take(self, row_idx: Sequence[int] | None = None,
             col_idx: Sequence[int] | None = None) -> "IntMatrix":
        """Submatrix on the given row/column indices (None keeps all)."""
        ri = range(self.rows) if row_idx is None else list(row_idx)
        ci = range(self.cols) if col_idx is None else list(col_idx)
        if not all(0 <= i < self.rows for i in ri) or not all(
                0 <= j < self.cols for j in ci):
            raise IndexError((row_idx, col_idx))
        if list(ri) == [*range(self.rows)] and list(ci) == [*range(self.cols)]:
            return self  # every row and column in order: no copy
        c, e = self.cols, self.entries
        ents: list[int] = []
        for i in ri:
            row = e[i * c:(i + 1) * c]
            ents.extend(row if col_idx is None else [row[j] for j in ci])
        return IntMatrix._trusted(len(ri), len(ci), tuple(ents))

    def __neg__(self) -> "IntMatrix":
        return IntMatrix._trusted(self.rows, self.cols, tuple(-e for e in self.entries))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise MatrixShapeError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        n, m, k = self.rows, other.cols, self.cols
        # An identity factor gives the other one back: the values are equal
        # and immutable, so no copy is needed.
        if n == k and self.is_identity:
            return other
        if k == m and other.is_identity:
            return self
        a, b = self.entries, other.entries
        # The nonzero (column, value) pairs of each row of the right
        # factor, listed once; zeros on either side add nothing.
        bnz = [[(j, y) for j, y in enumerate(b[t * m:(t + 1) * m]) if y]
               for t in range(k)]
        out = [0] * (n * m)
        for i in range(n):
            base = i * m
            for t, x in enumerate(a[i * k:(i + 1) * k]):
                if x:
                    for j, y in bnz[t]:
                        out[base + j] += x * y
        return IntMatrix._trusted(n, m, tuple(out))

    def apply(self, vec: Sequence[int]) -> tuple[int, ...]:
        if len(vec) != self.cols:
            raise MatrixShapeError("vector length mismatch")
        c, e = self.cols, self.entries
        return tuple(sum(x * y for x, y in zip(e[i * c:(i + 1) * c], vec))
                     for i in range(self.rows))

    @property
    def is_zero(self) -> bool:
        return not any(self.entries)

    def to_json(self) -> dict:
        return {"rows": self.rows, "cols": self.cols, "data": list(self.entries)}

    @classmethod
    def from_json(cls, obj: dict) -> "IntMatrix":
        return cls(obj["rows"], obj["cols"], obj["data"])

    @cached_property
    def _snf(self) -> "SmithNormalForm":
        key = (self.rows, self.cols, self.entries)
        f = _FORMS.get(key)
        if f is None:
            f = _FORMS[key] = SmithNormalForm(self)
        return f


def _packed_lines(x: IntMatrix, y: IntMatrix, s: int, by_rows: bool):
    """Rows (by_rows) or columns of x @ y in base 2^s; zeros are skipped."""
    def lines(m):
        return (map(m.row, range(m.rows)) if by_rows
                else map(m.column, range(m.cols)))
    if not by_rows:  # the columns of x @ y are the rows of y^T @ x^T
        x, y = y, x
    shifts = range(0, s * (y.cols if by_rows else y.rows), s)
    packed = [sum(map(lshift, line, shifts)) for line in lines(y)]
    return (sum(map(mul, compress(line, line), compress(packed, line)))
            for line in lines(x))


def product_is_zero(a: IntMatrix, b: IntMatrix, c: IntMatrix | None = None,
                    d: IntMatrix | None = None) -> bool:
    """Whether ``a @ b`` is zero or, given c and d, whether a @ b == c @ d,
    by the packed test above; it stops at the first line that differs.

    >>> a = IntMatrix.from_rows([[1, 2], [2, 4]])
    >>> b = IntMatrix.from_rows([[2, -4], [-1, 2]])
    >>> [product_is_zero(*m) for m in ((a, b), (b, a), (b, a, -b, -a))]
    [True, False, True]
    """
    terms = ((a, b),) if c is None else ((a, b), (c, d))
    free = True
    for x, y in terms:
        if x.cols != y.rows or x.rows != a.rows or y.cols != b.cols:
            raise MatrixShapeError("cannot compare products of these shapes")
        free = free and (x.is_identity or y.is_identity)
    if free:  # each product is a factor, at no cost (cover inclusions)
        return (a @ b).is_zero if c is None else a @ b == c @ d
    bound = right_heavy = 0
    for x, y in terms:
        p = max(map(abs, x.entries), default=0)
        q = max(map(abs, y.entries), default=0)
        bound += x.cols * p * q
        right_heavy += q.bit_length() - p.bit_length()
    s, by_rows = bound.bit_length() or 1, right_heavy >= 0
    lines = [_packed_lines(x, y, s, by_rows) for x, y in terms]
    return not any(lines[0]) if c is None else all(map(eq, *lines))


# The change-of-basis matrices of a Smith normal form, in the order that
# _reduce returns them after s.  A bare read of any of them builds all
# three, so a solve (u and v) leaves the bases nothing to build.
TRANSFORMS = ("u", "v", "v_inv")
_ALL = frozenset(TRANSFORMS)
# What a basis reader needs: kernel() and image() both read v and v_inv,
# so one pass serves a cover and a section of the same matrix.
_BASES = frozenset(("v", "v_inv"))


class SmithNormalForm(Frozen):
    """Certified decomposition ``s == u @ m @ v`` with unimodular u, v.

    ``s`` is diagonal with nonnegative entries satisfying the divisibility
    chain d1 | d2 | ...; the nonzero entries occupy a leading prefix of the
    diagonal.  ``v_inv`` is the exact inverse of v, accumulated during the
    reduction.

    Everything is computed lazily, and only what is read.  ``diagonal``
    (and with it ``rank``, ``torsion`` and ``s``) comes from
    ``_invariant_factors``: unit pivots, a Bareiss rank and minor gcd g,
    then, only if g > 1, elimination modulo 2g.  Its entries are minors of
    ``m`` in the first two phases and below 2g in the last, so its cost is
    bounded by the size of the input.  The transforms come from the
    tracked elimination of ``_reduce``: ``kernel`` and ``image`` track v
    and v_inv, and a bare read of ``u``, ``v`` or ``v_inv``, as ``solve``
    makes, tracks all three.  A pass tracks only the transforms not yet
    stored, so a form runs at most one diagonal pass and two tracked
    passes (bases, then u for a solve), and every transform is the same
    whichever pass built it.  A tracked pass also stores the diagonal, so
    a later rank costs nothing.  ``kernel()`` and ``image()`` keep their
    pairs on the form, so a second read returns the same matrices.
    """

    # __weakref__: the table _FORMS below holds forms weakly.
    __slots__ = ("matrix", "__dict__", "__weakref__")
    matrix: IntMatrix

    def __init__(self, matrix: IntMatrix):
        object.__setattr__(self, "matrix", matrix)

    def transforms(self, names: frozenset) -> dict:
        """A mapping that holds every transform in ``names``; those not yet
        stored are built by one tracked pass."""
        known = self.__dict__
        missing = names.difference(known)
        if missing:
            m = self.matrix
            a, *found = _reduce(m, missing)
            known.setdefault("diagonal", tuple(
                a[i][i] for i in range(min(m.rows, m.cols))))
            for name, rows in zip(TRANSFORMS, found):
                if rows is not None:
                    n = len(rows)
                    known[name] = IntMatrix._trusted(
                        n, n, tuple(x for row in rows for x in row))
        return known

    u = cached_property(lambda self: self.transforms(_ALL)["u"])
    v = cached_property(lambda self: self.transforms(_ALL)["v"])
    v_inv = cached_property(lambda self: self.transforms(_ALL)["v_inv"])

    @cached_property
    def u_inv(self) -> IntMatrix:
        """The inverse of u, derived on demand.  Only the benchmark's tracer
        reads it, for the size of its entries; it goes when the benchmark
        reads counters kept inside the package (ROADMAP item 4)."""
        # g_u u g_v = I for a unimodular u, so u^-1 = g_v g_u, multiplied
        # on plain lists: the tracer counts and times IntMatrix products.
        _, gu, gv, _ = _reduce(self.u, frozenset(("u", "v")))
        return IntMatrix.from_rows([[sum(x * y for x, y in zip(row, col))
                                     for col in zip(*gu)] for row in gv])

    @property
    def s(self) -> IntMatrix:
        return IntMatrix.diagonal(self.diagonal, self.matrix.rows,
                                  self.matrix.cols)

    def kernel(self) -> tuple[IntMatrix, IntMatrix]:
        """(basis, coords): the columns of ``basis`` are a basis of ker(m),
        and ``coords`` is its left inverse, zero on the other columns of v.
        """
        return self._kernel

    def image(self) -> tuple[IntMatrix, IntMatrix]:
        """(basis, proj): the columns of ``basis`` are a basis of im(m), the
        images of the first rank columns of v (m v = u^-1 s, so these are
        the columns of u^-1 scaled by the invariant factors), and ``proj``
        is the matching rows of v_inv, so that m == basis @ proj.
        """
        return self._image

    @cached_property
    def _kernel(self) -> tuple[IntMatrix, IntMatrix]:
        t = self.transforms(_BASES)
        r, n = self.rank, self.matrix.cols
        return t["v"].take(None, range(r, n)), t["v_inv"].take(range(r, n), None)

    @cached_property
    def _image(self) -> tuple[IntMatrix, IntMatrix]:
        t = self.transforms(_BASES)
        r = self.rank
        return (self.matrix @ t["v"].take(None, range(r)),
                t["v_inv"].take(range(r), None))

    @cached_property
    def diagonal(self) -> tuple[int, ...]:
        m = self.matrix
        factors = _invariant_factors(m)
        return tuple(factors) + (0,) * (min(m.rows, m.cols) - len(factors))

    @cached_property
    def torsion(self) -> tuple[int, ...]:
        """The diagonal entries above 1, a divisibility chain."""
        return tuple(d for d in self.diagonal if d > 1)

    @cached_property
    def rank(self) -> int:
        return len(self.diagonal) - self.diagonal.count(0)


# Smith normal forms keyed by matrix value.  The table holds them weakly,
# but a form and the matrix it was made from refer to each other, so a form
# leaves the table when the cyclic collector frees that pair, not when the
# last matrix that reads it goes.
_FORMS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _eye_rows(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _unit_pivots(a: list[list[int]]) -> int:
    """Eliminate with +-1 pivots while ``a`` has such an entry; returns
    their number and leaves in ``a`` the rest of the matrix.

    A pivot's row clears its column in the other rows; the column
    operations would then touch only the pivot's row, so the row and the
    column are dropped.  Every entry left is a minor of the input.
    """
    units = i = 0
    while i < len(a):
        row = a[i]
        p = 1 if 1 in row else -1 if -1 in row else 0
        if not p:
            i += 1
            continue
        j = row.index(p)
        del a[i]
        for k, other in enumerate(a):
            q = other[j] * p
            if q:
                other = a[k] = [x - q * y for x, y in zip(other, row)]
            del other[j]
        units += 1
        i = 0  # the elimination may have made units in earlier rows
    return units


def _bareiss(a: list[list[int]]) -> tuple[int, int]:
    """(r, g): the rank of ``a`` and the gcd of its last pivot row and of
    the leading entries of the rows that pivot cleared, under fraction-free
    elimination: a gcd of r x r minors and so a multiple of d1...dr.
    ``a`` (nonzero rows, none of them empty) is not changed.
    """
    # Columns of small entries first.  The rank does not depend on the
    # column order, but the size of the minors on the way does: with huge
    # entries in some columns, the rank is often reached before any of
    # them is a pivot.
    rest = [list(row) for row in zip(*sorted(
        zip(*a), key=lambda col: max(map(abs, col))))]
    prev, r, last, cleared = 1, 0, (), ()
    while rest and rest[0]:
        i = next((i for i, row in enumerate(rest) if row[0]), None)
        if i is None:  # no pivot in this column
            rest = [row[1:] for row in rest]
            continue
        last = rest.pop(i)
        cleared = [row[0] for row in rest]
        p, tail = last[0], last[1:]
        below = []
        for row in rest:
            # Each entry becomes a minor one size larger, divided exactly
            # by the previous pivot (Sylvester's identity).
            x = row[0]
            row = [(p * y - x * z) // prev for y, z in zip(row[1:], tail)]
            if any(row):
                below.append(row)
        rest, prev = below, p
        r += 1
    return r, gcd(*last, *cleared)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s a + t b = g = gcd(a, b)."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, c = divmod(a, b)
        a, b = b, c
        s0, s1, t0, t1 = s1, s0 - q * s1, t1, t0 - q * t1
    return a, s0, t0


def _factors_mod(a: list[list[int]], n: int) -> list[int]:
    """gcd(e_i, n) for each diagonal entry e_i of ``a`` diagonalized over
    Z/n, one per row of ``a``.

    Row and column operations are 2 x 2 transforms of determinant 1.  A
    multiple of the pivot is cleared by plain elimination, which leaves
    the pivot as it is; any other entry gets the extended-gcd transform,
    which makes the pivot a proper divisor of itself, so each pivot takes
    at most log2(n) of those and the loop ends.
    """
    rows = [[x % n for x in row] for row in a]
    out = []
    while rows := [row for row in rows if any(row)]:
        prow = rows.pop()
        p = min(filter(None, prow))
        j = prow.index(p)
        while True:
            for k, row in enumerate(rows):
                y = row[j]
                if not y:
                    continue
                if y % p == 0:
                    q = y // p
                    rows[k] = [(x - q * z) % n for x, z in zip(row, prow)]
                else:
                    g, s, t = _xgcd(p, y)
                    b, c = p // g, y // g
                    rows[k] = [(b * x - c * z) % n for x, z in zip(row, prow)]
                    prow = [(s * z + t * x) % n for x, z in zip(row, prow)]
                    p = g
            # Column j is clear in the other rows, so an entry of the pivot
            # row that p divides is cleared by a column operation on that
            # row alone, and the row can be dropped.
            c = next((c for c, x in enumerate(prow) if x % p), None)
            if c is None:
                break
            g, s, t = _xgcd(p, prow[c])
            b, y = p // g, prow[c] // g
            for row in (*rows, prow):
                z, x = row[j], row[c]
                row[j], row[c] = (s * z + t * x) % n, (b * x - y * z) % n
            p = g
        out.append(gcd(p, n))
        for row in rows:
            del row[j]
    return out + [n] * (len(a) - len(out))


def _invariant_factors(m: IntMatrix) -> list[int]:
    """The nonzero invariant factors of ``m``, in chain order."""
    # Rows no longer than columns: the factors of the transpose are the
    # same, and each phase keeps that shape.
    c, e = m.cols, m.entries
    if m.rows > c:
        a = [list(e[j::c]) for j in range(c)]
    else:
        a = [list(e[i:i + c]) for i in range(0, len(e), c or 1)]
    units = _unit_pivots(a)
    a = [row for row in a if any(row)]
    if len(a) < 2:  # one row: its gcd is its only factor
        return [1] * units + [gcd(*row) for row in a]
    r, g = _bareiss(a)
    if g == 1:
        return [1] * (units + r)
    # Each nonzero d_i divides g, so gcd(d_i, 2g) = d_i < 2g, and each
    # zero factor gives 2g itself.
    n = 2 * g
    chain = _invariant_chain(_factors_mod(a, n))
    free = len(a) - r
    torsion = chain[:len(chain) - free]
    if (chain[len(torsion):] != (n,) * free or n in torsion
            or len(torsion) > r):
        raise InternalInvariantError(
            f"modular Smith pass found {chain.count(n)} zero factors, "
            f"not {free}")
    return [1] * (units + r - len(torsion)) + list(torsion)


def _reduce(m: IntMatrix, track: frozenset
            ) -> tuple[list[list[int]] | None, ...]:
    """Reduce ``m`` to Smith form by Euclidean elimination; returns the rows
    of s, u, v and v_inv.

    Only the transforms named in ``track`` (a subset of TRANSFORMS) are
    built; the others come back as None.  The pivoting never reads a
    transform, and each transform's updates read only that transform, so
    a tracked one is the same whatever else is tracked.  Neither the
    entries of the working matrix nor those of the transforms are bounded
    by the size of ``m``: a diagonal alone comes from
    ``_invariant_factors``.
    """
    nr, nc = m.rows, m.cols
    a = m.to_rows()
    tu, tv, tvi = (name in track for name in TRANSFORMS)
    # The working matrix is [[A, u], [v, .]]: u = I takes columns nc...
    # of rows 0..nr-1 and v = I rows nr..., so every row operation on A
    # reaches u and every column operation reaches v.
    width, height = nc + nr * tu, nr + nc * tv
    if tu:
        for row, eye in zip(a, _eye_rows(nr)):
            row.extend(eye)
    if tv:
        a.extend(_eye_rows(nc))
    vinv = _eye_rows(nc) if tvi else None

    # A column operation A <- A F keeps vinv <- F^{-1} vinv.
    #
    # Invariant at step t (the loop variable below, which the helpers read
    # when they are called): rows above t are zero in columns >= t of A,
    # and rows t..nr-1 are zero left of t.  Every operation acts on rows
    # and columns >= t, so row additions run from column t to the end of
    # the row, u included, and column operations from row t to the last
    # row, v included.  Skipping those known zeros, and the zero
    # multipliers of the column additions, leaves every entry of a and
    # vinv as it was.

    def add_row(i, j, q):  # row_i += q * row_j
        ai, aj = a[i], a[j]
        for c in range(t, width):
            ai[c] += q * aj[c]

    def swap_cols(i, j):
        for r in range(t, height):
            row = a[r]
            row[i], row[j] = row[j], row[i]
        if tvi:
            vinv[i], vinv[j] = vinv[j], vinv[i]

    def add_col(j, i, q):  # col_j += q * col_i
        for r in range(t, height):
            row = a[r]
            x = row[i]
            if x:
                row[j] += q * x
        if tvi:
            ri, rj = vinv[i], vinv[j]
            for c in range(nc):
                ri[c] -= q * rj[c]

    t = 0
    limit = min(nr, nc)
    while t < limit:
        # Pivot: the nonzero entry of minimal absolute value in the active
        # submatrix, row-then-column position breaking ties.  Keeps entry
        # growth modest and makes the reduction deterministic.
        pi = pj = -1
        best = 0
        for i in range(t, nr):
            arow = a[i]
            for j in range(t, nc):
                x = arow[j]
                if x and (best == 0 or -best < x < best):
                    best = abs(x)
                    pi, pj = i, j
        if pi < 0:
            break
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
        if pj != t:
            swap_cols(t, pj)
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
        while True:
            dirty = False
            for i in range(t + 1, nr):
                while a[i][t]:
                    q = a[i][t] // a[t][t]
                    if q:
                        add_row(i, t, -q)
                    if a[i][t]:  # remainder is a strictly smaller pivot
                        a[t], a[i] = a[i], a[t]
                        dirty = True
            for j in range(t + 1, nc):
                while a[t][j]:
                    q = a[t][j] // a[t][t]
                    if q:
                        add_col(j, t, -q)
                    if a[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if dirty:
                continue
            p = a[t][t]
            if p == 1:  # divides the rest of the submatrix
                break
            bad_row = None
            for i in range(t + 1, nr):
                arow = a[i]
                for j in range(t + 1, nc):
                    if arow[j] % p:
                        bad_row = i
                        break
                if bad_row is not None:
                    break
            if bad_row is None:
                break
            # Pivot must divide the rest of the submatrix; pulling the
            # offending row up forces a smaller pivot on the next pass.
            add_row(t, bad_row, 1)
        t += 1

    s = [row[:nc] for row in a[:nr]] if tu else a[:nr]
    u = [row[nc:] for row in a[:nr]] if tu else None
    return s, u, a[nr:] if tv else None, vinv


def is_unimodular(m: IntMatrix) -> bool:
    """Whether ``m`` is square with determinant +-1 (the 0 x 0 matrix is):
    a square matrix is unimodular exactly when it has full rank and every
    invariant factor is 1.

    >>> is_unimodular(IntMatrix.from_rows([[2, 3], [3, 5]]))
    True
    """
    return m.rows == m.cols and _invariant_factors(m) == [1] * m.rows


def kernel_basis(m: IntMatrix) -> IntMatrix:
    """Matrix whose columns are a basis of ker(m) inside Z^cols.

    The kernel of an integer matrix is a direct summand, so the columns are
    an honest basis, not just generators.
    """
    return smith_normal_form(m).kernel()[0]


def solve(m: IntMatrix, rhs: Sequence[int]) -> tuple[int, ...] | None:
    """One integer solution x of ``m @ x = rhs``, or None if there is none."""
    if len(rhs) != m.rows:
        raise MatrixShapeError("right-hand side length mismatch")
    f = smith_normal_form(m)
    c = f.u.apply(rhs)
    diag = f.diagonal
    y = [0] * m.cols
    for i in range(m.rows):
        d = diag[i] if i < len(diag) else 0
        if d:
            if c[i] % d:
                return None
            y[i] = c[i] // d
        elif c[i]:
            return None
    return f.v.apply(y)
