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

from .groups import FgAbGroup, Z
from .base import InputError, quoted, strict_int
from .symbolic import (PrimeAtom, PrimeSet, ProdZpHat, ProdZpHatModZ, Prufer,
                       PruferSum, Q, QpHat, SetAtom, SymbolicGroup, ZLocal,
                       ZpHat)

# Most summands that one group text may have.  Canonical form is quadratic
# in the number of cyclic orders, and Hom and Ext multiply the counts, so
# without a cap a short text can keep `hom` busy for minutes.  At the cap,
# `hom`, `ext` and `constraint-check` finish in well under a second even
# when every order has thousands of digits.
SUMMAND_CAP = 12


class GroupSyntaxError(InputError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _parse_primeset(body: str) -> PrimeSet:
    body = body.strip()
    cofinite = body.startswith("!")
    if cofinite:
        body = body[1:]
    items = [s.strip() for s in body.split(",")] if body.strip() else []
    try:
        return PrimeSet(cofinite, frozenset(strict_int(s) for s in items))
    except InputError as exc:
        raise InputError(f"bad prime set: {exc}") from None


def _cyclic(n: int) -> FgAbGroup:
    if n == 0:
        raise InputError("Z/0 is not allowed; write Z")
    return FgAbGroup.cyclic(n)


# How each atom is written; "{}" stands for its prime or its prime set.
_SPELLINGS = {
    Q: "Q",
    Prufer: "Z/{}^inf",
    ZpHat: "Zhat_{}",
    QpHat: "Qhat_{}",
    ZLocal: "Z_({})",
    PruferSum: "Psum_({})",
    ProdZpHat: "Pzhat_({})",
    ProdZpHatModZ: "PzhatmodZ_({})",
}


# The summands without a parameter.
_WORDS = {"0": SymbolicGroup(), "Z": Z, "Q": Q()}

# Every other summand, as (text before its parameter, text after it,
# constructor, parameter reader).  An order or a prime is ASCII digits, read
# by ``strict_int``; ``str.isdigit`` alone would also take non-ASCII digits.
# A prime set is any text without ")", the empty one included.
_TOKENS = [("Z/", "", _cyclic, strict_int)] + [
    (*spelling.split("{}"), cls,
     _parse_primeset if issubclass(cls, SetAtom) else strict_int)
    for cls, spelling in _SPELLINGS.items() if cls is not Q]


def _parse_token(token: str, pos: int):
    if token in _WORDS:
        return _WORDS[token]
    for head, tail, build, read in _TOKENS:
        param = token[len(head):len(token) - len(tail)]
        # No head ends as a tail begins, so the two never overlap.
        if (token.startswith(head) and token.endswith(tail)
                and (")" not in param if read is _parse_primeset
                     else param.isascii() and param.isdigit())):
            try:
                return build(read(param))
            except InputError as exc:  # a bad order, prime or prime set
                raise GroupSyntaxError(str(exc), pos) from None
    raise GroupSyntaxError(f"unrecognized summand {quoted(token)}", pos)


def parse_group(text: str) -> SymbolicGroup:
    """Parse the grammar above into a canonical symbolic group.

    >>> print(parse_group("Z + Z/6 + Z/4"))
    Z + Z/2 + Z/12
    >>> parse_group("Z/3^inf") == SymbolicGroup.of(Prufer(3))
    True
    """
    chunks = text.split("+")
    if len(chunks) > SUMMAND_CAP:
        raise InputError(f"a group may have at most {SUMMAND_CAP} summands, "
                         f"not {len(chunks)}")
    parts = []
    pos = 0
    for chunk in chunks:
        token = chunk.strip()
        token_pos = pos + (len(chunk) - len(chunk.lstrip()))
        if not token:
            raise GroupSyntaxError("empty summand", token_pos)
        parts.append(_parse_token(token, token_pos))
        pos += len(chunk) + 1
    return SymbolicGroup.of(*parts)


def format_group(g: SymbolicGroup) -> str:
    """Render a symbolic group in the grammar accepted by parse_group."""
    parts = ["Z"] * g.fg.rank
    parts += [f"Z/{d}" for d in g.fg.invariant_factors]
    parts += [_SPELLINGS[type(a)].format(
        a.p if isinstance(a, PrimeAtom) else getattr(a, "primes", ""))
        for a in g.atoms]
    return " + ".join(parts) if parts else "0"
