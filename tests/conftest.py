import numpy as np
import pytest


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    """Counts the np.linalg.eigvalsh calls made while it is active."""
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls
