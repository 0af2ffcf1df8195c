import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
# the package needs no sympy: any import of it in a test fails
sys.modules["sympy"] = None

from mhom import spaces


@pytest.fixture(scope="session")
def s1():
    return spaces.load_space("s1")


@pytest.fixture(scope="session")
def s2():
    return spaces.load_space("s2")


@pytest.fixture(scope="session")
def torus():
    return spaces.load_space("torus")


@pytest.fixture(scope="session")
def arcs3(s1):
    return spaces.load_cover(s1, "s1_arcs3")


@pytest.fixture(scope="session")
def arcs2(s1):
    return spaces.load_cover(s1, "s1_arcs2")


@pytest.fixture(scope="session")
def torus_balls(torus):
    return spaces.load_cover(torus, "torus_balls")


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(owner, name) wraps owner.name, and the same function
    wherever an mhom module imported it, until the test ends; returns the
    list that each call appends to."""
    def wrap(owner, name):
        real = getattr(owner, name)
        calls = []

        def counted(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("mhom.")
                    and vars(mod).get(name) is real):
                monkeypatch.setattr(mod, name, counted)
        return calls

    return wrap
