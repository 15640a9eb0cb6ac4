import pytest

from dischar import build_root_system, generate

CARTAN = {
    "A1": [[2]],
    "A1xA1": [[2, 0], [0, 2]],
    "A2": [[2, -1], [-1, 2]],
    "B2": [[2, -2], [-1, 2]],
    "G2": [[2, -1], [-3, 2]],
    "A3": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
    "B3": [[2, -1, 0], [-1, 2, -1], [0, -2, 2]],
    "C3": [[2, -1, 0], [-1, 2, -2], [0, -1, 2]],
}


def _permuted(cartan, perm):
    return [[cartan[perm[i]][perm[j]] for j in range(len(perm))] for i in range(len(perm))]


# larger and reordered types, built on demand by the oracle tests only
EXTRA_CARTAN = {
    "D4": [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
    "F4": [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
    "A1xA2": [[2, 0, 0], [0, 2, -1], [0, -1, 2]],
    "B3perm": _permuted(CARTAN["B3"], (2, 0, 1)),
}

# |W| = 51 840, built by the tests that need it
E6 = [[2, 0, -1, 0, 0, 0], [0, 2, 0, -1, 0, 0], [-1, 0, 2, -1, 0, 0],
      [0, -1, -1, 2, -1, 0], [0, 0, 0, -1, 2, -1], [0, 0, 0, 0, -1, 2]]

# |W| = 2 903 040, past generate's default bound: refused before any closure
E7 = [[2, 0, -1, 0, 0, 0, 0], [0, 2, 0, -1, 0, 0, 0], [-1, 0, 2, -1, 0, 0, 0],
      [0, -1, -1, 2, -1, 0, 0], [0, 0, 0, -1, 2, -1, 0], [0, 0, 0, 0, -1, 2, -1],
      [0, 0, 0, 0, 0, -1, 2]]


@pytest.fixture(scope="session")
def systems():
    return {name: build_root_system(cartan) for name, cartan in CARTAN.items()}


@pytest.fixture(scope="session")
def groups(systems):
    return {name: generate(rs) for name, rs in systems.items()}


@pytest.fixture(scope="session")
def extra_systems():
    return {name: build_root_system(cartan) for name, cartan in EXTRA_CARTAN.items()}
