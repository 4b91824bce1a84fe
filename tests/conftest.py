import weakref

import pytest

from cellkit import matrices as matrices_mod


@pytest.fixture
def reductions(monkeypatch):
    """(matrix, track) for every Smith reduction run while the test runs,
    which starts from an empty table of shared forms."""
    calls = []
    real = matrices_mod._reduce

    def counting(m, track):
        calls.append((m, track))
        return real(m, track)

    monkeypatch.setattr(matrices_mod, "_reduce", counting)
    monkeypatch.setattr(matrices_mod, "_FORMS", weakref.WeakValueDictionary())
    return calls
