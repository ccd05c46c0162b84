import numpy as np
import pytest


@pytest.fixture
def qr_calls(monkeypatch):
    """A list that grows by one for every numpy.linalg.qr call."""
    calls = []
    qr = np.linalg.qr

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return qr(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counting)
    return calls


@pytest.fixture
def factor_calls(monkeypatch):
    """A list that grows by one for every oamix.linalg.factor call: one
    factorization, whichever way it takes its R."""
    import oamix.linalg

    calls = []
    factor = oamix.linalg.factor

    def counting(X, *names):
        calls.append(np.shape(X))
        return factor(X, *names)

    monkeypatch.setattr(oamix.linalg, "factor", counting)
    return calls
