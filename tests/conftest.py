import signal
import weakref
from contextlib import contextmanager
from unittest import mock

import pytest

from cellkit import matrices as matrices_mod
from cellkit.groups import FgAbGroup


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


def cyc(n):
    """The cyclic group Z/n."""
    return FgAbGroup.cyclic(n)


def bareiss_determinant(m):
    """det m of a square matrix by fraction-free elimination."""
    a, sign, prev = m.to_rows(), 1, 1
    n = len(a)
    for t in range(n):
        p = next((i for i in range(t, n) if a[i][t]), None)
        if p is None:
            return 0
        if p != t:
            a[t], a[p], sign = a[p], a[t], -sign
        for i in range(t + 1, n):
            a[i] = [(a[t][t] * a[i][j] - a[i][t] * a[t][j]) // prev
                    for j in range(n)]
        prev = a[t][t]
    return sign * prev if n else 1


@contextmanager
def fresh_forms():
    """An empty table of shared Smith normal forms while the block runs,
    which also starts from no shared zero or identity matrix, so that no
    form read in an earlier test is found on one."""
    matrices_mod._shared.cache_clear()
    saved = matrices_mod._FORMS
    matrices_mod._FORMS = weakref.WeakValueDictionary()
    try:
        yield matrices_mod._FORMS
    finally:
        matrices_mod._FORMS = saved


@contextmanager
def counted_passes(entry=lambda m, shape: shape):
    """``entry(m, shape)`` for every Smith reduction of a matrix m run while
    the block runs.  The shape is "bases" for a tracked pass that builds v
    and v_inv, "full" for one that builds u too, and "diagonal" for a pass
    that builds no transform (``_invariant_factors``)."""
    passes = []
    real_reduce = matrices_mod._reduce
    real_factors = matrices_mod._invariant_factors

    def counting(m, with_u):
        passes.append(entry(m, "full" if with_u else "bases"))
        return real_reduce(m, with_u)

    def counting_factors(m):
        passes.append(entry(m, "diagonal"))
        return real_factors(m)

    with mock.patch.object(matrices_mod, "_reduce", counting), \
            mock.patch.object(matrices_mod, "_invariant_factors",
                              counting_factors):
        yield passes


@pytest.fixture
def reductions():
    """(matrix, shape) for every Smith reduction run while the test runs,
    which starts from an empty table of shared forms."""
    with fresh_forms(), counted_passes(lambda m, shape: (m, shape)) as calls:
        yield calls
