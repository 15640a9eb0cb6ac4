"""The oracle's fill by distinct sums, against the multiset walk it replaces.

``blattner._filtration_walk`` counts the multisets of noncompact roots by
their sum kappa and resolves each distinct kappa once; ``multiset_walk`` in
``tests/helpers.py`` resolves every multiset of at most the level's roots on
its own.  The two truncate differently (by noncompact degree and by number
of roots), so they agree on the nu the level was computed for, not on every
bucket.  The bound test counts the BWB calls the fill makes, and the last
test pins Schmid's theorem that the lowest K-type lam - rho_n + rho_c
occurs once, on both Blattner paths.
"""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dischar import (
    Weight,
    blattner_multiplicity,
    build_grading,
    filtration_oracle,
    filtration_table,
    generate,
    weyl_k,
)
from dischar import blattner
from dischar.blattner import _box_points, _filtration_level, _filtration_walk
from tests.conftest import CARTAN
from tests.helpers import lattice_coords, multiset_sums, multiset_walk, scaled

GRADINGS = [(name, signs) for name, cartan in CARTAN.items()
            for signs in itertools.product((1, -1), repeat=len(cartan))]


def setup(rs, group, signs):
    grading = build_grading(rs, signs)
    return grading, weyl_k(rs, grading, group)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(GRADINGS), st.data())
def test_filtration_table_equals_multiset_walk(systems, groups, graded, data):
    name, signs = graded
    rs = systems[name]
    grading, kdata = setup(rs, groups[name], signs)
    lam = -rs.rho - Weight(data.draw(st.tuples(*[st.integers(0, 1)] * rs.rank)))
    # a box of side 2 ending at the lowest K-type lam - rho_n + rho_c
    lowest = lam - grading.rho_n + grading.rho_c
    box = (tuple(c - 1 for c in lowest.coords), lowest.coords)
    points = _box_points(grading, box)
    buckets = multiset_walk(grading, kdata, lam, _filtration_level(grading, kdata, lam, points))
    expected = {nu: buckets[nu] for nu in points if buckets.get(nu)}
    assert filtration_table(grading, kdata, lam, box).entries == expected


def noncompact_degree(rs, grading, kappa):
    coords = lattice_coords(rs, kappa)
    return sum(c for c, s in zip(coords, grading.simple_signs) if s == -1)


@pytest.mark.parametrize("level", [3, 6])
def test_walk_resolves_each_distinct_sum_once(monkeypatch, systems, groups, level):
    # one BWB call per distinct kappa of degree <= level, which the multisets
    # of at most level roots bound; one call per multiset fails the equality
    calls = []

    def counted(grading, kdata, eta):
        calls.append(eta)
        return bwb(grading, kdata, eta)

    bwb = blattner.bwb_cohomology
    monkeypatch.setattr(blattner, "bwb_cohomology", counted)
    grouped = 0
    for name, signs in GRADINGS:
        rs = systems[name]
        grading, kdata = setup(rs, groups[name], signs)
        calls.clear()
        _filtration_walk(grading, kdata, -rs.rho, level, [])
        sums = {kappa for kappa in multiset_sums(grading, level)
                if noncompact_degree(rs, grading, kappa) <= level}
        assert len(calls) == len(sums), (name, signs)
        assert len(calls) <= math.comb(grading.q + level, level), (name, signs)
        grouped += len(sums) < math.comb(grading.q + level, level)
    # on half the gradings the equality tells the fill from a walk of every multiset
    assert 2 * grouped >= len(GRADINGS)


@pytest.mark.parametrize("name", [*CARTAN, "D4", "F4"])
def test_lowest_ktype_occurs_once(systems, groups, extra_systems, name):
    # Schmid: the K-type with lowest weight lam - rho_n + rho_c has
    # multiplicity one, on every grading and at lam = -2 rho and -rho
    rs = systems[name] if name in CARTAN else extra_systems[name]
    group = groups[name] if name in CARTAN else generate(rs)
    for signs in itertools.product((1, -1), repeat=rs.rank):
        grading, kdata = setup(rs, group, signs)
        for lam in (scaled(rs.rho, -2), -rs.rho):
            lowest = lam - grading.rho_n + grading.rho_c
            assert blattner_multiplicity(grading, kdata, lam, lowest) == 1, (signs, lam)
            assert filtration_oracle(grading, kdata, lam, lowest) == 1, (signs, lam)
