import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from thinlab import (
    GroupModQ,
    SchottkyData,
    ThermoLab,
    build_markov_model,
    detect_expansion,
)

EXAMPLE_GENERATORS = [(2, 3, 1, 2), (6, 35, 1, 6)]


@pytest.fixture(scope="session")
def model():
    return build_markov_model(SchottkyData.from_matrices(EXAMPLE_GENERATORS))


@pytest.fixture(scope="session")
def lab(model):
    lab = ThermoLab(model, degree=16)
    lab.delta  # warm the cache once per session
    return lab


@pytest.fixture(scope="session")
def consts(lab):
    return lab.constants()


@pytest.fixture(scope="session")
def groups():
    cache = {}

    def get(q):
        if q not in cache:
            cache[q] = GroupModQ.build(q)
        return cache[q]

    return get


@pytest.fixture(scope="session")
def expansion(model):
    """Detected return level and bad primes over the acceptance moduli."""
    return detect_expansion(model, [5, 7, 11, 13, 15, 35])
