import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
# the package needs no sympy: any import of it in a test fails
sys.modules["sympy"] = None

from mhom import spaces
from mhom.weighted import WeightedSimplices


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
def validations(monkeypatch):
    """Class names of the objects built through the validating
    WeightedSimplices constructor while the test runs."""
    seen = []
    real = WeightedSimplices.__init__

    def counted(self, degree, terms=None):
        seen.append(type(self).__name__)
        real(self, degree, terms)

    monkeypatch.setattr(WeightedSimplices, "__init__", counted)
    return seen
