import weakref

import pytest

from cellkit import matrices as matrices_mod


@pytest.fixture
def reductions(monkeypatch):
    """(matrix, track) for every Smith reduction run while the test runs,
    which starts from an empty table of shared forms.  A diagonal pass
    (``_invariant_factors``) shows as an empty track set."""
    calls = []
    real_reduce = matrices_mod._reduce
    real_factors = matrices_mod._invariant_factors

    def counting(m, track):
        calls.append((m, track))
        return real_reduce(m, track)

    def counting_factors(m):
        calls.append((m, frozenset()))
        return real_factors(m)

    monkeypatch.setattr(matrices_mod, "_reduce", counting)
    monkeypatch.setattr(matrices_mod, "_invariant_factors", counting_factors)
    monkeypatch.setattr(matrices_mod, "_FORMS", weakref.WeakValueDictionary())
    return calls
