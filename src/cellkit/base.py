"""What every layer reads that needs no linear algebra.  The symbolic layer
loads this module and never ``matrices``, so a symbolic query, a fresh
process, compiles no Smith code."""

from __future__ import annotations

import json
import os
from collections.abc import Iterable
from math import gcd
from operator import attrgetter

# The package itself, loaded before any of its modules.  Annotations name
# the classes of modules that this one must not load through its lazy
# names (``cellkit.IntMatrix``), so typing.get_type_hints resolves them
# on demand.
import cellkit


# CPython writes no integer of more than ORDER_DIGIT_CAP decimal digits as
# text (its int-to-str limit), so a longer answer could be computed but
# never reported.
ORDER_DIGIT_CAP = 4300
ORDER_BOUND = 10 ** ORDER_DIGIT_CAP


class InputError(ValueError):
    """The caller's data is bad.  Every cellkit error of this kind derives
    from it, and it is the one error that ``cellkit`` reports with exit
    code 2."""


# The window of chain complexes: degrees |n| <= DEGREE_CAP, ranks <= RANK_CAP.
DEGREE_CAP = 64
RANK_CAP = 512


class SupportCapError(InputError):
    """Degree or rank outside the supported desk-scale window."""


class InternalInvariantError(RuntimeError):
    """A certified identity or an internal count failed to verify; this is
    a bug, and ``cellkit`` exits 3 on it."""


# CELLKIT_CERTIFY=1, read once at import: values that the library builds
# through the unchecked door of their class (``_trusted``, ``_assembled``)
# are rebuilt through its public constructor by ``certified``, which also
# recomputes homology carried by shift and coproduct; a failure is a bug.
# This is the flag's only binding: other modules read ``base.CERTIFY``.
CERTIFY = os.environ.get("CELLKIT_CERTIFY") == "1"


def certified(value, build, *args):
    """``value``, which library code built unchecked.  In certify mode it
    must also equal the checked ``build(*args)``; an InputError or
    TypeError of that build, or a difference, is an InternalInvariantError."""
    if CERTIFY:
        try:
            checked = build(*args)
        except (InputError, TypeError) as e:
            raise InternalInvariantError(
                f"unchecked {type(value).__name__} fails: {e}") from e
        if checked != value:
            raise InternalInvariantError(f"unchecked {type(value).__name__}"
                                         " differs from its checked build")
    return value


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
        raise TypeError(f"expected an integer, got {quoted(x)}")
    return x


# Most characters of a text that an error message quotes.  A longer text is
# cut there and its length given, so that every error stays a short line.
QUOTE_CAP = 40


def quoted(x) -> str:
    """The repr of a text ``x`` and the JSON text of any other ``x``, or
    that of its first QUOTE_CAP characters and its length when it is longer.

    >>> print(quoted("Z/4"))
    'Z/4'
    >>> print(quoted("x" * 100))
    'xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx'... (100 characters)
    >>> print(quoted([0] * 400))
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, ... (1200 characters)
    """
    if isinstance(x, str):
        text, show = x, repr
    else:  # one with no JSON text, such as a Fraction, gives its repr
        text, show = json.dumps(x, default=repr), str
    if len(text) <= QUOTE_CAP:
        return show(text)
    return f"{show(text[:QUOTE_CAP])}... ({len(text)} characters)"


def quoted_int(n: int) -> str:
    """``str(n)``, or its sign, its first QUOTE_CAP digits and its number
    of digits when it has more, as :func:`quoted` cuts a text.

    >>> print(quoted_int(-12))
    -12
    >>> print(quoted_int(-7 ** 100))
    -3234476509624757991344647769100216810857... (85 digits)
    """
    m = abs(n)
    if m < 10 ** QUOTE_CAP:
        return str(n)
    # Counted without writing n as text, which CPython refuses past 4,300
    # digits: the count starts from a lower bound, as 1233/4096 < log10 2.
    digits = (m.bit_length() - 1) * 1233 // 4096
    while 10 ** digits <= m:
        digits += 1
    head = m // 10 ** (digits - QUOTE_CAP)
    return f"{'-' * (n < 0)}{head}... ({digits} digits)"


def quoted_shape(m: cellkit.IntMatrix) -> str:
    """The shape of ``m`` as ``RxC``, each side cut by :func:`quoted_int`."""
    return f"{quoted_int(m.rows)}x{quoted_int(m.cols)}"


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
    cellkit.base.InputError: not an integer: '1_0'
    """
    digits = text[text.startswith("-"):]
    if not (digits.isascii() and digits.isdigit()) or (
            digits[0] == "0" and text != "0"):
        raise InputError(f"not an integer: {quoted(text)}")
    if len(digits) > ORDER_DIGIT_CAP:  # more than CPython reads
        raise InputError(f"an integer may have at most {ORDER_DIGIT_CAP} "
                         f"digits, not {len(digits)}")
    return int(text)


def _invariant_chain(torsion: Iterable[int]) -> tuple[int, ...]:
    """Canonicalize a multiset of cyclic orders into a divisibility chain.

    Works by one sweep of gcd/lcm surgery on pairs, which never needs an
    integer factorization:

    >>> _invariant_chain([6, 4])
    (2, 12)
    >>> _invariant_chain([2, 3])
    (6,)
    """
    fs = [x for x in torsion if x > 1]
    if len(fs) < 2:
        return tuple(fs)
    # After step i, fs[i] divides every later entry: the gcd or lcm of two
    # multiples of fs[i] is again a multiple of fs[i].
    for i in range(len(fs)):
        for j in range(i + 1, len(fs)):
            a, b = fs[i], fs[j]
            if b % a:
                g = gcd(a, b)
                fs[i], fs[j] = g, (a // g) * b
    return tuple(x for x in fs if x > 1)


def smith_normal_form(m: cellkit.IntMatrix) -> cellkit.SmithNormalForm:
    """Smith normal form of ``m``, shared by every live matrix equal to it.

    >>> from cellkit.matrices import IntMatrix
    >>> f = smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]]))
    >>> f.diagonal
    (2, 4)
    >>> f.u @ f.matrix @ f.v == f.s
    True
    """
    return m._snf
