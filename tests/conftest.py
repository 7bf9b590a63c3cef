import numpy as np
import pytest


@pytest.fixture(autouse=True)
def no_env_tolerance(monkeypatch):
    # the command line reads its default tolerance from G2ABC_TOL; tests that want one set it
    monkeypatch.delenv("G2ABC_TOL", raising=False)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
