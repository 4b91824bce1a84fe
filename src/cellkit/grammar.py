"""Text grammar for symbolic groups.

Summands are separated by ``+``:

    Z             the integers
    Z/12          a cyclic group
    0             the zero group
    Q             the rationals
    Z/5^inf       the Pruefer group at 5
    Zhat_7        the 7-adic integers
    Qhat_3        the 3-adic rationals
    Z_(2,3)       integers localized at {2,3}
    Z_(!2,3)      integers localized away from {2,3} (cofinite prime set)
    Psum_(!2)     sum of Pruefer groups over a cofinite prime set
    Pzhat_(!2)    product of p-adic integers over a cofinite prime set
    PzhatmodZ_(2,3)   such a product modulo its diagonal copy of Z

``parse_group(format_group(g)) == g`` for every canonical group.
"""

from __future__ import annotations

import re

from .groups import FgAbGroup
from .matrices import strict_int
from .symbolic import (PrimeSet, ProdZpHat, ProdZpHatModZ, Prufer, PruferSum,
                       Q, QpHat, SymbolicGroup, ZLocal, ZpHat)


class GroupSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# Orders and primes are ASCII digits, read by ``strict_int``; ``\d``
# would also match non-ASCII digits.
_PRUFER_RE = re.compile(r"Z/([0-9]+)\^inf$")
_CYCLIC_RE = re.compile(r"Z/([0-9]+)$")
_ZHAT_RE = re.compile(r"Zhat_([0-9]+)$")
_QHAT_RE = re.compile(r"Qhat_([0-9]+)$")
_SET_RE = re.compile(r"(Z|Psum|Pzhat|PzhatmodZ)_\(([^)]*)\)$")


def _parse_primeset(body: str, pos: int) -> PrimeSet:
    body = body.strip()
    cofinite = body.startswith("!")
    if cofinite:
        body = body[1:]
    items = [s.strip() for s in body.split(",")] if body.strip() else []
    try:
        primes = frozenset(strict_int(s) for s in items)
        return PrimeSet(cofinite, primes)
    except ValueError as exc:
        raise GroupSyntaxError(f"bad prime set: {exc}", pos) from None


def _parse_token(token: str, pos: int):
    if token == "0":
        return SymbolicGroup.zero()
    if token == "Z":
        return FgAbGroup.free(1)
    if token == "Q":
        return Q()
    m = _PRUFER_RE.match(token)
    if m:
        try:
            return Prufer(strict_int(m.group(1)))
        except ValueError as exc:
            raise GroupSyntaxError(str(exc), pos) from None
    m = _CYCLIC_RE.match(token)
    if m:
        try:
            n = strict_int(m.group(1))
        except ValueError as exc:  # a leading zero, or too many digits
            raise GroupSyntaxError(str(exc), pos) from None
        if n == 0:
            raise GroupSyntaxError("Z/0 is not allowed; write Z", pos)
        return FgAbGroup.cyclic(n)
    m = _ZHAT_RE.match(token)
    if m:
        try:
            return ZpHat(strict_int(m.group(1)))
        except ValueError as exc:
            raise GroupSyntaxError(str(exc), pos) from None
    m = _QHAT_RE.match(token)
    if m:
        try:
            return QpHat(strict_int(m.group(1)))
        except ValueError as exc:
            raise GroupSyntaxError(str(exc), pos) from None
    m = _SET_RE.match(token)
    if m:
        head = m.group(1)
        primes = _parse_primeset(m.group(2), pos)
        try:
            if head == "Z":
                return ZLocal(primes)
            if head == "Psum":
                return PruferSum(primes)
            if head == "Pzhat":
                return ProdZpHat(primes)
            return ProdZpHatModZ(primes)
        except ValueError as exc:
            raise GroupSyntaxError(str(exc), pos) from None
    raise GroupSyntaxError(f"unrecognized summand {token!r}", pos)


def parse_group(text: str) -> SymbolicGroup:
    """Parse the grammar above into a canonical symbolic group.

    >>> print(parse_group("Z + Z/6 + Z/4"))
    Z + Z/2 + Z/12
    >>> parse_group("Z/3^inf") == SymbolicGroup.of(Prufer(3))
    True
    """
    parts = []
    pos = 0
    for chunk in text.split("+"):
        token = chunk.strip()
        token_pos = pos + (len(chunk) - len(chunk.lstrip()))
        if not token:
            raise GroupSyntaxError("empty summand", token_pos)
        parts.append(_parse_token(token, token_pos))
        pos += len(chunk) + 1
    return SymbolicGroup.of(*parts)


def _format_atom(atom) -> str:
    if isinstance(atom, Q):
        return "Q"
    if isinstance(atom, Prufer):
        return f"Z/{atom.p}^inf"
    if isinstance(atom, ZpHat):
        return f"Zhat_{atom.p}"
    if isinstance(atom, QpHat):
        return f"Qhat_{atom.p}"
    if isinstance(atom, ZLocal):
        return f"Z_({atom.primes})"
    if isinstance(atom, PruferSum):
        return f"Psum_({atom.primes})"
    if isinstance(atom, ProdZpHat):
        return f"Pzhat_({atom.primes})"
    if isinstance(atom, ProdZpHatModZ):
        return f"PzhatmodZ_({atom.primes})"
    raise TypeError(f"unknown atom {atom!r}")


def format_group(g: SymbolicGroup) -> str:
    """Render a symbolic group in the grammar accepted by parse_group."""
    parts = ["Z"] * g.fg.rank
    parts += [f"Z/{d}" for d in g.fg.invariant_factors]
    parts += [_format_atom(a) for a in g.atoms]
    return " + ".join(parts) if parts else "0"
