import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dischar import (
    Weight,
    act,
    build_grading,
    build_root_system,
    enumerate_closed_orbits,
    generate,
    kostant_table,
    kostant_via_bgg,
    schmid_table,
    schmid_via_trauber,
    weyl_k,
)
from tests.conftest import CARTAN, EXTRA_CARTAN


def test_a1_noncompact_orbits(systems, groups):
    rs, W = systems["A1"], groups["A1"]
    grading = build_grading(rs, (-1,))
    orbits = enumerate_closed_orbits(rs, grading, W, weyl_k(rs, grading, W))
    assert [o.u.word_str() for o in orbits] == ["e", "s1"]


def test_a2_mixed_orbit_count(systems, groups):
    rs, W = systems["A2"], groups["A2"]
    grading = build_grading(rs, (1, -1))
    orbits = enumerate_closed_orbits(rs, grading, W, weyl_k(rs, grading, W))
    assert len(orbits) == 3


def test_all_compact_single_orbit(systems, groups):
    rs, W = systems["A2"], groups["A2"]
    kdata = weyl_k(rs, build_grading(rs, (1, 1)), W)
    orbits = enumerate_closed_orbits(rs, build_grading(rs, (1, 1)), W, kdata)
    assert len(orbits) == 1
    assert orbits[0].u == W.elements[0]
    # full Bruhat stratification, in the (dimension, cell word) order the
    # orbits command prints
    strata = sorted(zip(kdata.lengthK, orbits[0].cells, kdata.elements),
                    key=lambda s: (s[0], s[1].reduced_word))
    assert [(w, cell, dim) for dim, cell, w in strata] == [
        (w, w, w.length) for w in sorted(W.elements, key=lambda w: (w.length, w.reduced_word))
    ]


def _triples(kdata, orbit):
    """(w, w*u, l_K(w)) as words, in ``kdata.elements`` order."""
    return [(w.word_str(), cell.word_str(), dim)
            for w, cell, dim in zip(kdata.elements, orbit.cells, kdata.lengthK)]


def test_strata_examples(systems, groups):
    rs, W = systems["A1"], groups["A1"]
    grading = build_grading(rs, (-1,))
    kdata = weyl_k(rs, grading, W)
    orbits = enumerate_closed_orbits(rs, grading, W, kdata)
    assert _triples(kdata, orbits[0]) == [("e", "e", 0)]

    rs2, W2 = systems["A2"], groups["A2"]
    grading2 = build_grading(rs2, (1, -1))
    kdata2 = weyl_k(rs2, grading2, W2)
    orbits2 = enumerate_closed_orbits(rs2, grading2, W2, kdata2)
    first = orbits2[0]
    assert first.u == W2.elements[0]
    assert _triples(kdata2, first) == [
        ("e", "e", 0),
        ("s1", "s1", 1),
    ]


def test_orbit_count_and_partition(systems, groups, extra_systems):
    cases = [(systems[name], groups[name]) for name in ("A1", "A1xA1", "A2", "B2", "G2")]
    # D4, F4, A1xA2 and the permuted B3, on every grading
    cases += [(rs, generate(rs)) for rs in extra_systems.values()]
    for rs, W in cases:
        for signs in itertools.product((1, -1), repeat=rs.rank):
            grading = build_grading(rs, signs)
            kdata = weyl_k(rs, grading, W)
            orbits = enumerate_closed_orbits(rs, grading, W, kdata)
            assert len(orbits) * kdata.order == W.order
            cells = [cell for orbit in orbits for cell in orbit.cells]
            assert len(cells) == W.order
            assert set(cells) == set(W.elements)


def test_positive_system_contains_compact_positives(systems, groups):
    for name in ("A2", "B2"):
        rs, W = systems[name], groups[name]
        for signs in itertools.product((1, -1), repeat=rs.rank):
            grading = build_grading(rs, signs)
            orbits = enumerate_closed_orbits(rs, grading, W, weyl_k(rs, grading, W))
            # u's positive system holds beta > 0 exactly when <beta-check, u rho> > 0
            systems_of = [
                frozenset(a for a in rs.positive_roots if orbit.u.rho_pairing(a) > 0)
                for orbit in orbits
            ]
            assert all(set(grading.compact_positive) <= system for system in systems_of)
            assert len(set(systems_of)) == len(orbits)


def test_cells_are_the_coset_w_k_u(systems, groups, extra_systems):
    # cells[k] = elements[k] * u, checked by the word action, which shares no
    # sweep with kdata.orbit; on every grading of the conftest types, D4 and F4
    cases = [(rs, groups[name]) for name, rs in systems.items()]
    cases += [(extra_systems[name], generate(extra_systems[name])) for name in ("D4", "F4")]
    for rs, W in cases:
        for signs in itertools.product((1, -1), repeat=rs.rank):
            grading = build_grading(rs, signs)
            kdata = weyl_k(rs, grading, W)
            for orbit in enumerate_closed_orbits(rs, grading, W, kdata):
                assert orbit.elements is kdata.elements
                assert len(orbit.cells) == kdata.order
                u_rho = Weight(orbit.u.rho_image)
                for w, cell in zip(kdata.elements, orbit.cells):
                    assert act(w, u_rho) == Weight(cell.rho_image)


def _classical(kind, n):
    """Cartan matrix of A_n, B_n, C_n or D_n (n >= 3) in the conftest conventions."""
    c = [[2 if i == j else -int(abs(i - j) == 1) for j in range(n)] for i in range(n)]
    if kind == "B":
        c[n - 1][n - 2] = -2
    elif kind == "C":
        c[n - 2][n - 1] = -2
    elif kind == "D":  # move the last node from n-2 to n-3
        c[n - 2][n - 1] = c[n - 1][n - 2] = 0
        c[n - 3][n - 1] = c[n - 1][n - 3] = -1
    return c


RANDOM_TYPES = {f"{kind}{n}": _classical(kind, n) for kind in "ABC" for n in range(1, 5)}
RANDOM_TYPES.update(
    D3=_classical("D", 3), D4=_classical("D", 4), G2=CARTAN["G2"], F4=EXTRA_CARTAN["F4"],
    A1xA2=EXTRA_CARTAN["A1xA2"], B3perm=EXTRA_CARTAN["B3perm"],
)
del RANDOM_TYPES["B1"], RANDOM_TYPES["C1"]


@pytest.fixture(scope="module")
def random_cases():
    rss = {name: build_root_system(cartan) for name, cartan in RANDOM_TYPES.items()}
    return {name: (rs, generate(rs)) for name, rs in rss.items()}


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(RANDOM_TYPES)), data=st.data())
def test_random_gradings(random_cases, name, data):
    rs, W = random_cases[name]
    signs = data.draw(st.tuples(*[st.sampled_from((1, -1))] * rs.rank), label="signs")
    shifts = st.tuples(*[st.integers(0, 2)] * rs.rank)
    grading = build_grading(rs, signs)
    kdata = weyl_k(rs, grading, W)
    orbits = enumerate_closed_orbits(rs, grading, W, kdata)
    assert len(orbits) * kdata.order == W.order
    cells = [cell for orbit in orbits for cell in orbit.cells]
    assert len(cells) == W.order and set(cells) == set(W.elements)
    # -d is antidominant and -rho - d strongly antidominant for dominant d
    lam = -Weight(data.draw(shifts, label="kostant shift"))
    assert kostant_via_bgg(rs, W, lam) == kostant_table(rs, W, lam)
    lam = -rs.rho - Weight(data.draw(shifts, label="schmid shift"))
    for orbit in orbits:
        table = schmid_table(grading, kdata, orbit, lam)
        assert table.total_multiplicity() == kdata.order
        assert schmid_via_trauber(grading, kdata, orbit, lam) == table
