"""Homology degrees read off each weight alone: an oracle for the table rows.

A weight mu in degree p of a Kostant table (lam integral and antidominant)
satisfies p = #{beta > 0 : <beta-check, mu - rho> > 0}.  The reason:
mu - rho = w(lam - rho) with lam - rho strictly antidominant, so the positive
pairings count the inversions of w^-1, and l(w^-1) = l(w) (Kostant, "Lie
algebra cohomology and the generalized Borel-Weil theorem", Ann. of Math. 74
(1961), Thm 5.14; Humphreys, *Reflection Groups and Coxeter Groups*, 1.6-1.7).
In a Schmid table mu - rho = w u(lam) with lam strictly antidominant and
u(lam) antidominant for R_c+, so the same counts over R+ and R_c+ give
p = q - #{beta > 0 : ...} + 2 #{beta in R_c+ : ...} = q - l(wu) + 2 l_K(w).

The checks use coroot pairings of the tables' own doubled weights and
nothing else: no sweep, no orbit cells, no Weyl element.  The BGG and Trauber
re-derivations share the tables' sweeps and cells, so a wrong cell length
passes them; it does not pass these.
"""

import itertools
from operator import mul

import pytest

from dischar import (
    Weight,
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
from dischar.verify import _schmid_sweep, _weyl_sweep
from tests.conftest import CARTAN, EXTRA_CARTAN
from tests.helpers import dominant_representative

NAMES = sorted(CARTAN) + ["D4"]


@pytest.fixture(scope="module")
def built():
    cache = {}

    def get(name):
        if name not in cache:
            rs = build_root_system({**CARTAN, **EXTRA_CARTAN}[name])
            cache[name] = rs, generate(rs)
        return cache[name]

    return get


def _positive(roots, twice):
    """#{beta in roots : <beta-check, mu - rho> > 0} for twice = 2 mu."""
    shifted = [t - 2 for t in twice]  # 2 (mu - rho)
    return sum(sum(map(mul, beta.coroot_coords, shifted)) > 0 for beta in roots)


def _orbit_class(rs, twice):
    """dom(mu - rho) for twice = 2 mu."""
    return dominant_representative(rs, Weight.from_twice(twice) - rs.rho)


@pytest.mark.parametrize("name", NAMES)
def test_kostant_degrees_from_pairings(name, built):
    rs, W = built(name)
    for lam in _weyl_sweep(rs):
        for table in (kostant_table(rs, W, lam), kostant_via_bgg(rs, W, lam)):
            weights = []
            for p, row in table.rows.items():
                for mu in row:
                    assert p == _positive(rs.positive_roots, mu), (lam, mu)
                weights += row
            # |W| distinct mu - rho, each in the W-orbit of lam - rho
            assert len(set(weights)) == len(weights) == W.order
            target = dominant_representative(rs, lam - rs.rho)
            assert {_orbit_class(rs, mu) for mu in weights} == {target}


@pytest.mark.parametrize("name", NAMES)
def test_schmid_degrees_from_pairings(name, built):
    rs, W = built(name)
    for signs in itertools.product((1, -1), repeat=rs.rank):
        grading = build_grading(rs, signs)
        kdata = weyl_k(rs, grading, W)
        orbits = enumerate_closed_orbits(rs, grading, W, kdata)
        for lam in _schmid_sweep(rs):
            weights = []
            for orbit in orbits:
                table = schmid_table(grading, kdata, orbit, lam)
                assert schmid_via_trauber(grading, kdata, orbit, lam) == table
                for p, row in table.rows.items():
                    for mu in row:
                        expected = (grading.q - _positive(rs.positive_roots, mu)
                                    + 2 * _positive(grading.compact_positive, mu))
                        assert p == expected, (signs, orbit.u, lam, mu)
                    weights += row
            # over all closed orbits the mu - rho = w u(lam) run once through W lam
            assert len(set(weights)) == len(weights) == W.order
            assert {_orbit_class(rs, mu) for mu in weights} == {dominant_representative(rs, lam)}
