"""The closed formula's fast paths against the references in ``tests.helpers``.

``_closed_formula`` prunes W_K against the box, steps the arguments from one
nu to the next and fills a padded partition table a slab at a time.
``reference_closed_formula`` does none of that: every w at every nu, a fresh
matrix product per nu and the row-at-a-time ``RowPartitionTable``.  The two
must agree on every value, on the table's extent and on every entry of the
table.  The boundary tests pin the cases a one-character change to the prune
or to the padding would get wrong, entry by entry against
``enumeration_oracle``.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dischar import (
    Weight,
    act,
    blattner,
    blattner_multiplicity,
    build_grading,
    build_root_system,
    generate,
    ktype_table,
    partition_p,
    weyl_k,
)
from dischar.blattner import _alternating_terms, _box_points, _PartitionTable
from tests.conftest import CARTAN, EXTRA_CARTAN
from tests.helpers import RowPartitionTable, lattice_coords, reference_closed_formula, scaled
from tests.test_blattner import enumeration_oracle, graded_systems


def graded(cartan, signs):
    rs = build_root_system(cartan)
    grading = build_grading(rs, signs)
    return rs, grading, weyl_k(rs, grading, generate(rs))


def entries(table, extent):
    return [table[m] for m in itertools.product(*(range(e + 1) for e in extent))]


def assert_matches_reference(grading, kdata, lam, box):
    """ktype_table over ``box`` equals the reference, down to the partition table."""
    made = []

    class Spy(_PartitionTable):
        def __init__(self, roots, extent):
            super().__init__(roots, extent)
            made.append((roots, extent, self))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(blattner, "_PartitionTable", Spy)
        table = ktype_table(grading, kdata, lam, box)
    points = _box_points(grading, box)
    values, extent = reference_closed_formula(grading, kdata, lam, points)
    assert table.entries == {nu: v for nu, v in zip(points, values) if v}
    if not made:  # no nu has arguments in the root lattice
        assert extent == (0,) * grading.rs.rank
        return table
    [(roots, built, fast)] = made
    assert built == extent
    assert entries(fast, extent) == entries(RowPartitionTable(roots, extent), extent)
    return table


def lowest_box(grading, lam, below):
    """The box from the lowest K-type lam - rho_n + rho_c down ``below`` on every axis."""
    lowest = lam - grading.rho_n + grading.rho_c
    return tuple(c - below for c in lowest.coords), lowest.coords


@pytest.mark.parametrize("name", CARTAN)
def test_every_conftest_grading_matches_reference(name):
    rs = build_root_system(CARTAN[name])
    group = generate(rs)
    lam = scaled(rs.rho, -2)
    for signs in itertools.product((1, -1), repeat=rs.rank):
        grading = build_grading(rs, signs)
        kdata = weyl_k(rs, grading, group)
        table = assert_matches_reference(grading, kdata, lam, lowest_box(grading, lam, 2))
        assert table.entries


@pytest.mark.parametrize("name", ["D4", "F4"])
def test_rank4_sign_vectors_match_reference(name):
    # every one of the 15 gradings with a noncompact root, lam = -2 rho
    rs = build_root_system(EXTRA_CARTAN[name])
    group = generate(rs)
    lam = scaled(rs.rho, -2)
    for signs in itertools.product((1, -1), repeat=4):
        if -1 not in signs:
            continue
        grading = build_grading(rs, signs)
        kdata = weyl_k(rs, grading, group)
        table = assert_matches_reference(grading, kdata, lam, lowest_box(grading, lam, 1))
        assert table.entries, signs


@st.composite
def boxes(draw, rank):
    """A box placed around the lowest K-type: sides -1 (empty) to 2, corners up to 6 above."""
    corner = draw(st.lists(st.integers(-3, 6), min_size=rank, max_size=rank))
    sides = draw(st.lists(st.integers(-1, 2), min_size=rank, max_size=rank))
    return corner, sides


@settings(max_examples=60, deadline=None)
@given(graded_systems(), st.data())
def test_drawn_boxes_match_reference(case, data):
    cartan, signs, shift = case
    rs, grading, kdata = graded(cartan, signs)
    lam = -rs.rho - Weight(shift)
    corner, sides = data.draw(boxes(rs.rank))
    lowest = lam - grading.rho_n + grading.rho_c
    lo = tuple(c - d for c, d in zip(lowest.coords, corner))
    assert_matches_reference(grading, kdata, lam, (lo, tuple(c + s for c, s in zip(lo, sides))))


def test_empty_one_point_and_no_survivor_boxes():
    rs, grading, kdata = graded(CARTAN["B3"], (1, 1, -1))
    lam = scaled(rs.rho, -2)
    lowest = (lam - grading.rho_n + grading.rho_c).coords
    empty = (lowest, tuple(c - 1 for c in lowest))
    assert _box_points(grading, empty) == []
    assert assert_matches_reference(grading, kdata, lam, empty).entries == {}
    one = assert_matches_reference(grading, kdata, lam, (lowest, lowest))
    assert one.entries == {Weight(lowest): 1}
    # above the lowest K-type on the noncompact axis no w reaches the cone
    far = ((-1, -1, 0), (0, 0, 1))
    assert len(_box_points(grading, far)) == 6
    assert _alternating_terms(grading, kdata, lam, *far)[0] == []
    assert assert_matches_reference(grading, kdata, lam, far).entries == {}


def test_prune_keeps_a_w_whose_coordinate_maximum_is_zero():
    # over this box one w has a root coordinate whose maximum is exactly 0,
    # reached at the corner nu = (-6, -2), where that w's argument lies in
    # the cone and counts; dropping it there would turn 3 into 4
    rs, grading, kdata = graded(CARTAN["G2"], (1, -1))
    lam = scaled(rs.rho, -2)
    box = ((-6, -2), (-4, 0))
    corner = Weight((-6, -2))
    points = _box_points(grading, box)
    assert len(points) == 9

    def argument(w, nu):
        return lattice_coords(rs, lam - grading.rho_n - act(w, nu - grading.rho_c))

    boundary = [
        w for w in kdata.elements
        if any(max(argument(w, nu)[r] for nu in points) == 0 for r in range(rs.rank))
        and min(argument(w, corner)) >= 0
        and enumeration_oracle(grading, argument(w, corner))
    ]
    assert boundary and any(w.length for w in boundary)
    assert assert_matches_reference(grading, kdata, lam, box).entries[corner] == 3
    assert blattner_multiplicity(grading, kdata, lam, corner) == 3


def assert_table_is_enumeration(grading, extent, parts=False):
    roots = [r.root_coords for r in grading.noncompact_positive]
    if parts:
        roots = [beta + (1,) for beta in roots]
    table = _PartitionTable(roots, extent)
    for m in itertools.product(*(range(e + 1) for e in extent)):
        if parts:
            assert table[m] == enumeration_oracle(grading, m[:-1], parts=m[-1]), m
        else:
            assert table[m] == enumeration_oracle(grading, m), m
    return table


def test_table_whose_fastest_axis_has_length_one():
    # the longest axis runs fastest, so every axis has length 1
    _, grading, _ = graded(CARTAN["B3"], (-1, 1, -1))
    assert assert_table_is_enumeration(grading, (0, 0, 0)).values == [1]
    assert_table_is_enumeration(grading, (0, 0, 0, 0), parts=True)


def test_table_with_no_root_on_the_fastest_axis():
    # A1 x A2 with only the A1 root noncompact: the long axes are untouched
    _, grading, _ = graded(EXTRA_CARTAN["A1xA2"], (-1, 1, 1))
    table = assert_table_is_enumeration(grading, (3, 6, 5))
    assert table.origin == 0
    assert table[3, 6, 5] == 0 and table[3, 0, 0] == 1


@pytest.mark.parametrize("extent", [(4, 9), (3, 12), (7, 7)])
def test_root_as_long_as_the_pad_on_the_fastest_axis(extent):
    # G2 with alpha_2 noncompact has the noncompact roots alpha_1 + 3 alpha_2
    # and 2 alpha_1 + 3 alpha_2, so the row axis of alpha_2 gets pad 3 and
    # those roots' slabs span rows
    _, grading, _ = graded(CARTAN["G2"], (1, -1))
    roots = [r.root_coords for r in grading.noncompact_positive]
    assert (1, 3) in roots and (2, 3) in roots
    table = assert_table_is_enumeration(grading, extent)
    assert table.origin == 3
    # every pad cell is back to zero
    assert sum(table.values) == sum(entries(table, extent))


def test_tables_with_a_root_on_the_row_axis_alone():
    # B2 all noncompact: each simple root lies on one axis alone; the row
    # axis of alpha_1 gets pad 2 from 2 alpha_1 + alpha_2, that of alpha_2 pad 1
    _, grading, _ = graded(CARTAN["B2"], (-1, -1))
    assert assert_table_is_enumeration(grading, (8, 5)).origin == 2
    assert assert_table_is_enumeration(grading, (5, 8)).origin == 1


@pytest.mark.parametrize("name,signs,extent", [
    ("A2", (1, -1), (2, 3, 7)),   # the parts axis is the row axis
    ("A2", (-1, -1), (4, 5, 2)),  # the parts axis is the slowest
    ("B2", (-1, -1), (3, 6, 4)),
    ("G2", (1, -1), (6, 2, 3)),
])
def test_parts_axis_of_partition_p(name, signs, extent):
    rs, grading, _ = graded(CARTAN[name], signs)
    assert_table_is_enumeration(grading, extent, parts=True)
    mu = Weight([sum(rs.cartan[i][j] * extent[j] for j in range(rs.rank)) for i in range(rs.rank)])
    assert partition_p(grading, mu, extent[-1]) == enumeration_oracle(
        grading, extent[:-1], parts=extent[-1]
    )
