import pytest


@pytest.fixture
def kernel_calls(monkeypatch):
    """The row count of every ``_fista`` call, wherever it is made."""
    from proxmix import compositions, moreau, oracles

    calls, kernel = [], moreau._fista

    def counted(step, z, *args, **kwargs):
        calls.append(len(z))
        return kernel(step, z, *args, **kwargs)

    for module in (compositions, moreau, oracles):
        monkeypatch.setattr(module, "_fista", counted)
    return calls
