"""Exact integer matrix arithmetic and the Smith normal form.

Everything runs on Python's unbounded integers: invariant factors of even
small random matrices overflow 64-bit types, so no fixed-width arithmetic
appears anywhere.  The Smith normal form gives its diagonal without
building any change-of-basis matrix: homology, rank and cokernels read
only the invariant factors, and transform entries grow far faster than
the diagonal.  The change-of-basis matrices and their inverses are built
on first use, by the code that needs a basis: kernel bases, linear
solves, cycles rewritten in kernel coordinates, and ``cellkit snf``.

Equal matrices share one Smith normal form, found through a table of weak
references, so a value that is rebuilt (the same cone, shift or cover
made again) is reduced once while its form lives.  A form and the matrix
it was made from refer to each other, so the form outlives the last
matrix that uses it until the cyclic garbage collector frees the pair:
whether a rebuilt value is reduced again depends on collection timing.
The cache of ``complexes.homology_presentation`` also keeps up to 8,192
complexes alive across operations, with their matrices and forms.
"""

from __future__ import annotations

import re
import weakref
from operator import attrgetter
from typing import Sequence


# CPython writes no integer of more than ORDER_DIGIT_CAP decimal digits as
# text (its int-to-str limit), so a longer answer could be computed but
# never reported.
ORDER_DIGIT_CAP = 4300
ORDER_BOUND = 10 ** ORDER_DIGIT_CAP


class InputError(ValueError):
    """The caller's data is bad.  Every cellkit error of this kind derives
    from it, and it is the one error that ``cellkit`` reports with exit
    code 2."""


class MatrixShapeError(InputError):
    """Inconsistent matrix dimensions."""


class cached_property:
    """``functools.cached_property`` without its lock.

    The first read on an instance stores the value in the instance's
    ``__dict__``, where later reads find it before this (non-data)
    descriptor.  Up to Python 3.11 the stdlib version takes a lock on
    every first read; these values are pure functions of frozen data, so
    two threads that race only compute the same value twice.
    """

    def __init__(self, func):
        self.func = func
        self.attrname = func.__name__
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.attrname = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.attrname] = self.func(instance)
        return value


class Frozen:
    """Base of the immutable value types.

    A subclass lists its fields in ``__slots__``, after those of its base,
    and its ``__init__`` sets them with ``object.__setattr__``; a class
    with cached properties also lists ``"__dict__"``.  Instances compare
    equal only within one class, by their field tuples, hash as that
    tuple, and show as ``Qualname(field=value, ...)``.  Assigning or
    deleting an attribute raises AttributeError.

    Plain classes cost little to define, which matters because every
    ``cellkit`` query is a fresh process, and slots make the instances
    small and quick to build.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    # The field tuple of an instance, as ``self._values(self)``.
    _values = staticmethod(lambda self: ())

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._fields = fields = cls._fields + tuple(
            f for f in cls.__dict__.get("__slots__", ())
            if not f.startswith("__"))
        if len(fields) > 1:
            cls._values = staticmethod(attrgetter(*fields))
        elif fields:  # attrgetter of one name returns the bare value
            get = attrgetter(fields[0])
            cls._values = staticmethod(lambda self: (get(self),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            values = self._values
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        return type(self), self._values(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def json_int(x) -> int:
    """``x`` itself if it is a JSON integer; floats, booleans and strings
    raise TypeError instead of being coerced."""
    if type(x) is not int:
        raise TypeError(f"expected an integer, got {x!r}")
    return x


_INT_TEXT = re.compile(r"0|-?[1-9][0-9]*")

# Most characters of a text that an error message quotes.  A longer text is
# cut there and its length given, so that every error stays a short line.
QUOTE_CAP = 40


def quoted(text: str) -> str:
    """``repr(text)``, or the repr of its first QUOTE_CAP characters and
    its length when it is longer.

    >>> print(quoted("Z/4"))
    'Z/4'
    >>> print(quoted("x" * 100))
    'xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx'... (100 characters)
    """
    if len(text) <= QUOTE_CAP:
        return repr(text)
    return f"{text[:QUOTE_CAP]!r}... ({len(text)} characters)"


def strict_int(text: str) -> int:
    """The integer written in ``text`` as ASCII digits with an optional
    minus sign and no leading zero.

    Unlike ``int()``, it refuses underscores, a plus sign, surrounding
    spaces, leading zeros and non-ASCII digits, so every integer has one
    spelling:

    >>> strict_int("-12")
    -12
    >>> strict_int("1_0")
    Traceback (most recent call last):
    ...
    cellkit.matrices.InputError: not an integer: '1_0'
    """
    if not _INT_TEXT.fullmatch(text):
        raise InputError(f"not an integer: {quoted(text)}")
    digits = len(text) - text.startswith("-")
    if digits > ORDER_DIGIT_CAP:  # more than CPython reads
        raise InputError(f"an integer may have at most {ORDER_DIGIT_CAP} "
                         f"digits, not {digits}")
    return int(text)


class IntMatrix(Frozen):
    """Immutable integer matrix, entries stored row-major.

    >>> m = IntMatrix.from_rows([[2, 4], [6, 8]])
    >>> m.entry(1, 0)
    6
    """

    __slots__ = ("rows", "cols", "entries", "__dict__")
    rows: int
    cols: int
    entries: tuple[int, ...]

    def __init__(self, rows: int, cols: int, entries: tuple[int, ...] = ()):
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)
        self.__post_init__()

    # Kept apart from __init__ because perfbench/tracer.py counts the
    # matrices built by wrapping this method.
    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise MatrixShapeError(f"negative shape {self.rows}x{self.cols}")
        ents = tuple(self.entries)
        if len(ents) != self.rows * self.cols:
            raise MatrixShapeError(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols}"
                f" entries, got {len(ents)}"
            )
        object.__setattr__(self, "entries", ents)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise MatrixShapeError("ragged rows")
        return cls(r, c, tuple(int(x) for row in rows for x in row))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, (0,) * (rows * cols))

    @classmethod
    def diagonal(cls, diag: Sequence[int], rows: int | None = None,
                 cols: int | None = None) -> "IntMatrix":
        r = len(diag) if rows is None else rows
        c = len(diag) if cols is None else cols
        if len(diag) > min(r, c):
            raise MatrixShapeError("diagonal longer than matrix")
        ents = [0] * (r * c)
        for i, d in enumerate(diag):
            ents[i * c + i] = int(d)
        return cls(r, c, tuple(ents))

    def entry(self, i: int, j: int) -> int:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError((i, j))
        return self.entries[i * self.cols + j]

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
        c, e = self.cols, self.entries
        ents: list[int] = []
        for i in ri:
            row = e[i * c:(i + 1) * c]
            ents.extend(row if col_idx is None else [row[j] for j in ci])
        return IntMatrix(len(ri), len(ci), tuple(ents))

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, tuple(-e for e in self.entries))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise MatrixShapeError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        n, m, k = self.rows, other.cols, self.cols
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
        return IntMatrix(n, m, tuple(out))

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
        return cls(json_int(obj["rows"]), json_int(obj["cols"]),
                   tuple(json_int(x) for x in obj["data"]))

    def __str__(self) -> str:
        if self.rows == 0 or self.cols == 0:
            return f"<empty {self.rows}x{self.cols}>"
        return "\n".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows))

    @cached_property
    def _snf(self) -> "SmithNormalForm":
        key = (self.rows, self.cols, self.entries)
        f = _FORMS.get(key)
        if f is None:
            f = _FORMS[key] = SmithNormalForm(self)
        return f


def hstack(mats: Sequence[IntMatrix]) -> IntMatrix:
    mats = [m for m in mats]
    if not mats:
        return IntMatrix.zero(0, 0)
    r = mats[0].rows
    if any(m.rows != r for m in mats):
        raise MatrixShapeError("hstack with differing row counts")
    ents: list[int] = []
    for i in range(r):
        for m in mats:
            ents.extend(m.row(i))
    return IntMatrix(r, sum(m.cols for m in mats), tuple(ents))


class SmithNormalForm(Frozen):
    """Certified decomposition ``s == u @ m @ v`` with unimodular u, v.

    ``s`` is diagonal with nonnegative entries satisfying the divisibility
    chain d1 | d2 | ...; the nonzero entries occupy a leading prefix of the
    diagonal.  ``u_inv`` and ``v_inv`` are the exact inverses, accumulated
    during the reduction.

    The two halves are computed lazily.  ``diagonal`` (and with it
    ``rank`` and ``nonzero_diagonal``) comes from a reduction of ``m``
    alone, which builds no transform.  The first read of ``s``, ``u``,
    ``v``, ``u_inv`` or ``v_inv`` runs the tracked reduction once and
    freezes all five; a later ``diagonal`` is read off that ``s``.  A
    reader of a basis therefore reads a transform before the diagonal, or
    the matrix is reduced twice; ``kernel`` and ``image`` do so.
    """

    # __weakref__: the table _FORMS below holds forms weakly.
    __slots__ = ("matrix", "__dict__", "__weakref__")
    matrix: IntMatrix

    def __init__(self, matrix: IntMatrix):
        object.__setattr__(self, "matrix", matrix)

    @cached_property
    def _certified(self) -> tuple[IntMatrix, ...]:
        nr, nc = self.matrix.rows, self.matrix.cols
        a, u, v, uinv, vinv = _reduce(self.matrix, track=True)
        shapes = ((nr, nc), (nr, nr), (nc, nc), (nr, nr), (nc, nc))
        return tuple(IntMatrix(r, c, tuple(x for row in rows for x in row))
                     for rows, (r, c) in zip((a, u, v, uinv, vinv), shapes))

    @property
    def s(self) -> IntMatrix:
        return self._certified[0]

    @property
    def u(self) -> IntMatrix:
        return self._certified[1]

    @property
    def v(self) -> IntMatrix:
        return self._certified[2]

    @property
    def u_inv(self) -> IntMatrix:
        return self._certified[3]

    @property
    def v_inv(self) -> IntMatrix:
        return self._certified[4]

    def kernel(self) -> tuple[IntMatrix, IntMatrix]:
        """(basis, coords): the columns of ``basis`` are a basis of ker(m),
        and ``coords`` is its left inverse, zero on the other columns of v.
        """
        # Transforms before the rank, so one reduction serves both.
        v, v_inv = self.v, self.v_inv
        r, n = self.rank, self.matrix.cols
        return v.take(None, range(r, n)), v_inv.take(range(r, n), None)

    def image(self) -> tuple[IntMatrix, IntMatrix]:
        """(basis, proj): the columns of ``basis`` are a basis of im(m), the
        first rank columns of u_inv scaled by the invariant factors, and
        ``proj`` is the matching rows of v_inv, so that m == basis @ proj.
        """
        # Transforms before the rank, so one reduction serves both.
        u_inv, v_inv = self.u_inv, self.v_inv
        r, d = self.rank, self.diagonal
        scaled = tuple(u_inv.entry(i, j) * d[j]
                       for i in range(self.matrix.rows) for j in range(r))
        return IntMatrix(self.matrix.rows, r, scaled), v_inv.take(range(r), None)

    @cached_property
    def diagonal(self) -> tuple[int, ...]:
        if "_certified" in self.__dict__:
            a = self.s.to_rows()
        else:
            a = _reduce(self.matrix, track=False)[0]
        return tuple(a[i][i] for i in range(min(self.matrix.rows, self.matrix.cols)))

    @cached_property
    def nonzero_diagonal(self) -> tuple[int, ...]:
        return tuple(d for d in self.diagonal if d)

    @cached_property
    def rank(self) -> int:
        return len(self.nonzero_diagonal)


# Smith normal forms keyed by matrix value.  The table holds them weakly,
# but a form and the matrix it was made from refer to each other, so a form
# leaves the table when the cyclic collector frees that pair, not when the
# last matrix that reads it goes.
_FORMS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _eye_rows(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _reduce(m: IntMatrix, track: bool) -> tuple[list[list[int]] | None, ...]:
    """Reduce ``m`` to Smith form; returns the rows of s, u, v, u_inv, v_inv.

    With ``track`` false the same pivoting runs on ``m`` alone and the four
    transforms come back as None, so the diagonal is found without the
    coefficient growth of u and v.
    """
    nr, nc = m.rows, m.cols
    a = m.to_rows()
    u = uinv = v = vinv = None
    if track:
        u, uinv = _eye_rows(nr), _eye_rows(nr)
        v, vinv = _eye_rows(nc), _eye_rows(nc)

    # Row operation A <- E A keeps u <- E u and uinv <- uinv E^{-1};
    # column operation A <- A F keeps v <- v F and vinv <- F^{-1} vinv.
    #
    # Invariant at step t (the loop variable below, which the helpers read
    # when they are called): rows above t are zero in columns >= t, and
    # rows t and below are zero left of t.  Every operation acts on rows
    # and columns >= t, so row additions start at column t, and column
    # operations touch only rows t and below.  Skipping those known zeros,
    # and the zero multipliers of the uinv and v updates, leaves every
    # entry of a, u, v, uinv and vinv as it was.

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        if track:
            u[i], u[j] = u[j], u[i]
            for row in uinv:
                row[i], row[j] = row[j], row[i]

    def add_row(i, j, q):  # row_i += q * row_j
        ai, aj = a[i], a[j]
        for c in range(t, nc):
            ai[c] += q * aj[c]
        if track:
            ui, uj = u[i], u[j]
            for c in range(nr):
                ui[c] += q * uj[c]
            for row in uinv:
                x = row[i]
                if x:
                    row[j] -= q * x

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        if track:
            u[i] = [-x for x in u[i]]
            for row in uinv:
                row[i] = -row[i]

    def swap_cols(i, j):
        for r in range(t, nr):
            row = a[r]
            row[i], row[j] = row[j], row[i]
        if track:
            for row in v:
                row[i], row[j] = row[j], row[i]
            vinv[i], vinv[j] = vinv[j], vinv[i]

    def add_col(j, i, q):  # col_j += q * col_i
        for r in range(t, nr):
            row = a[r]
            x = row[i]
            if x:
                row[j] += q * x
        if track:
            for row in v:
                x = row[i]
                if x:
                    row[j] += q * x
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
            swap_rows(t, pi)
        if pj != t:
            swap_cols(t, pj)
        if a[t][t] < 0:
            negate_row(t)
        while True:
            dirty = False
            for i in range(t + 1, nr):
                while a[i][t]:
                    q = a[i][t] // a[t][t]
                    if q:
                        add_row(i, t, -q)
                    if a[i][t]:  # remainder is a strictly smaller pivot
                        swap_rows(t, i)
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

    return a, u, v, uinv, vinv


def smith_normal_form(m: IntMatrix) -> SmithNormalForm:
    """Smith normal form of ``m``, shared by every live matrix equal to it.

    >>> f = smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]]))
    >>> f.diagonal
    (2, 4)
    >>> f.u @ f.matrix @ f.v == f.s
    True
    """
    return m._snf


def kernel_basis(m: IntMatrix) -> IntMatrix:
    """Matrix whose columns are a basis of ker(m) inside Z^cols.

    The kernel of an integer matrix is a direct summand, so the columns are
    an honest basis, not just generators.
    """
    if m.cols == 0:
        return IntMatrix.zero(0, 0)
    if m.rows == 0:
        return IntMatrix.identity(m.cols)
    return smith_normal_form(m).kernel()[0]


def solve(m: IntMatrix, rhs: Sequence[int]) -> tuple[int, ...] | None:
    """One integer solution x of ``m @ x = rhs``, or None if there is none."""
    if len(rhs) != m.rows:
        raise MatrixShapeError("right-hand side length mismatch")
    if m.cols == 0:
        return () if not any(rhs) else None
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
