import weakref
from contextlib import contextmanager
from unittest import mock

import pytest

from cellkit import matrices as matrices_mod


@contextmanager
def fresh_forms():
    """An empty table of shared Smith normal forms while the block runs."""
    saved = matrices_mod._FORMS
    matrices_mod._FORMS = weakref.WeakValueDictionary()
    try:
        yield matrices_mod._FORMS
    finally:
        matrices_mod._FORMS = saved


@contextmanager
def counted_passes(entry=lambda m, track: track):
    """``entry(m, track)`` for every Smith reduction of a matrix m run while
    the block runs, with track the set of transforms it builds; a diagonal
    pass (``_invariant_factors``) shows as the empty set."""
    passes = []
    real_reduce = matrices_mod._reduce
    real_factors = matrices_mod._invariant_factors

    def counting(m, track):
        passes.append(entry(m, track))
        return real_reduce(m, track)

    def counting_factors(m):
        passes.append(entry(m, frozenset()))
        return real_factors(m)

    with mock.patch.object(matrices_mod, "_reduce", counting), \
            mock.patch.object(matrices_mod, "_invariant_factors",
                              counting_factors):
        yield passes


@pytest.fixture
def reductions():
    """(matrix, track) for every Smith reduction run while the test runs,
    which starts from an empty table of shared forms."""
    with fresh_forms(), counted_passes(lambda m, track: (m, track)) as calls:
        yield calls
