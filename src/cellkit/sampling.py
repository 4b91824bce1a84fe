"""Seeded random generators for the verification suites.

Complexes are built bottom-up: the lowest boundary is free, and each
higher boundary is drawn inside the kernel of the one below it, so the
chain condition holds exactly.  All draws come from a caller-supplied
``random.Random``, making every suite reproducible from its seed.
"""

from __future__ import annotations

import random
from collections.abc import Sequence

from .complexes import ChainComplex
from .groups import FgAbGroup
from .matrices import IntMatrix, kernel_basis


def random_matrix(rng: random.Random, rows: int, cols: int, bound: int) -> IntMatrix:
    return IntMatrix(rows, cols, tuple(
        rng.randint(-bound, bound) for _ in range(rows * cols)))


def random_complex(rng: random.Random, max_degrees: int = 8, max_rank: int = 6
                   ) -> ChainComplex:
    """A random bounded complex with exact boundaries.

    The free parameters (the lowest boundary and the coefficients mixing
    each kernel basis) stay within small bounds; the boundaries built from
    them can exceed those bounds, which is forced by the chain condition.
    """
    span = rng.randint(1, max_degrees)
    lo = rng.randint(-4, 1)
    degrees = list(range(lo, lo + span))
    ranks = {n: rng.randint(0, max_rank) for n in degrees}
    boundaries: dict[int, IntMatrix] = {}
    prev = IntMatrix.zero(0, ranks.get(lo, 0))
    for n in degrees[1:]:
        rows, cols = ranks[n - 1], ranks[n]
        if rows == 0 or cols == 0:
            d = IntMatrix.zero(rows, cols)
        elif n == lo + 1:
            d = random_matrix(rng, rows, cols, 9)
        else:
            allowed = kernel_basis(prev)
            mix = random_matrix(rng, allowed.cols, cols, 2)
            d = allowed @ mix
        boundaries[n] = d
        prev = d
    return ChainComplex.build(ranks, boundaries)


def random_complex_family(rng: random.Random, count: int, **kwargs
                          ) -> list[ChainComplex]:
    return [random_complex(rng, **kwargs) for _ in range(count)]


def random_finite_group(rng: random.Random, max_order: int = 100) -> FgAbGroup:
    """A random finite abelian group of order at most max_order."""
    orders = []
    budget = max_order
    while budget >= 2 and rng.random() < 0.8:
        d = rng.randint(2, max(2, min(budget, 16)))
        orders.append(d)
        budget //= d
    return FgAbGroup.of_orders(orders)


def sample_pairs(items: Sequence, count: int) -> list[tuple]:
    """Deterministic pairing: consecutive items, wrapping around."""
    items = list(items)
    if not items:
        return []
    return [(items[i % len(items)], items[(i + 1) % len(items)])
            for i in range(count)]
