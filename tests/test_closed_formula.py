"""The closed formula's fast paths against the references in ``tests.helpers``.

``_closed_formula`` prunes W_K against the box, steps the arguments from one
nu to the next and fills a padded partition table over its nonzero cells,
one height at a time.  ``reference_closed_formula`` does none of that: every
w at every nu, a fresh matrix product per nu and the row-at-a-time
``RowPartitionTable`` on an unpadded layout.  The two must agree on every
value, on the table's extent and on every entry of the table.  The boundary
tests pin the cases a one-character change to the prune or to the padding
would get wrong, entry by entry against ``enumeration_oracle``, and check
that every pad cell still holds None after the fill: a step off the extent
that wrapped onto another row, or ran off the end of the list, would show
in one or the other.
"""

import itertools
from operator import gt, le, mul

import pytest
from hypothesis import example, given, settings
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


def pads_of(table, extent):
    """The pad of each axis, once every cell outside 0..extent is found to hold None.

    The flat list is decoded by the table's strides, slowest axis first, so
    that a cell's coordinates give back its index; a cell is a pad cell when
    a coordinate passes the extent.
    """
    strides = table.strides
    sizes = [size // stride for size, stride in zip((len(table.values),) + strides, strides)]
    for cell, m in enumerate(itertools.product(*map(range, sizes))):
        assert sum(map(mul, m, strides)) == cell
        assert (table.values[cell] is None) == any(map(gt, m, extent)), m
    return tuple(size - e - 1 for size, e in zip(sizes, extent))


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
    # each axis is padded by the largest coordinate on it of a root that fits
    fits = [beta for beta in roots if all(map(le, beta, extent))]
    assert pads_of(table, extent) == tuple(
        max((beta[i] for beta in fits), default=0) for i in range(len(extent))
    )
    return table


def test_table_whose_fastest_axis_has_length_one():
    # every axis has length 1, so no root fits and no axis is padded
    _, grading, _ = graded(CARTAN["B3"], (-1, 1, -1))
    assert assert_table_is_enumeration(grading, (0, 0, 0)).values == [1]
    assert_table_is_enumeration(grading, (0, 0, 0, 0), parts=True)


def test_table_with_no_root_on_the_fastest_axis():
    # A1 x A2 with only the A1 root noncompact: the long axes are untouched
    _, grading, _ = graded(EXTRA_CARTAN["A1xA2"], (-1, 1, 1))
    table = assert_table_is_enumeration(grading, (3, 6, 5))
    assert table[3, 6, 5] == 0 and table[3, 0, 0] == 1


# G2 with alpha_2 noncompact has the noncompact roots alpha_2, alpha_1 + alpha_2,
# alpha_1 + 3 alpha_2 and 2 alpha_1 + 3 alpha_2: pads (2, 3), the last root as
# long as the pad on the slower axis and on the fastest one.  B2 all noncompact
# has each simple root on one axis alone.  A3 with alpha_1 noncompact moves
# every root along the slowest axis, so each step from its last layer runs off
# the end of the list into its pad.  An axis of length 1 fits no root that
# moves along it, so its pad is 0.
@pytest.mark.parametrize("name,signs,extent,pads", [
    pytest.param("G2", (1, -1), (4, 9), (2, 3), id="G2-4x9"),
    pytest.param("G2", (1, -1), (3, 12), (2, 3), id="G2-3x12"),
    pytest.param("G2", (1, -1), (7, 7), (2, 3), id="G2-7x7"),
    pytest.param("G2", (1, -1), (1, 9), (1, 3), id="G2-long-root-left-out"),
    pytest.param("B2", (-1, -1), (8, 5), (2, 1), id="B2-8x5"),
    pytest.param("B2", (-1, -1), (5, 8), (2, 1), id="B2-5x8"),
    pytest.param("A3", (-1, 1, 1), (4, 2, 1), (1, 1, 1), id="A3-slowest-overflow"),
    pytest.param("A3", (-1, -1, 1), (3, 0, 2), (1, 0, 0), id="A3-middle-axis-length-1"),
    pytest.param("G2", (1, -1), (0, 9), (0, 1), id="G2-slow-axis-length-1"),
    pytest.param("G2", (-1, 1), (6, 0), (1, 0), id="G2-fast-axis-length-1"),
])
def test_steps_off_the_extent_land_on_pads(name, signs, extent, pads):
    _, grading, _ = graded(CARTAN[name], signs)
    table = assert_table_is_enumeration(grading, extent)
    assert pads_of(table, extent) == pads


@st.composite
def coin_sets(draw):
    """Nonzero vectors with coordinates 0..2, in any order, and an extent up to 5 per axis."""
    rank = draw(st.integers(1, 3))
    coin = st.tuples(*[st.integers(0, 2)] * rank).filter(any)
    return draw(st.lists(coin, min_size=1, max_size=4)), draw(st.tuples(*[st.integers(0, 5)] * rank))


@settings(max_examples=150, deadline=None)
@given(coin_sets())
@example(([(0, 1), (2, 0), (1, 1)], (5, 5)))
def test_table_of_any_coins_matches_the_row_table(case):
    # roots of no grading: the height buckets must keep m before m + beta for
    # every coin order, which the gradings' roots alone do not exercise; the
    # example goes wrong if a new cell joins the bucket one below its height
    roots, extent = case
    table = _PartitionTable(roots, extent)
    assert entries(table, extent) == entries(RowPartitionTable(roots, extent), extent)
    pads_of(table, extent)


@pytest.mark.parametrize("name,signs,extent", [
    # the parts axis is last, so it runs fastest
    ("A2", (1, -1), (2, 3, 7)),   # the parts axis is the longest
    ("A2", (-1, -1), (4, 5, 2)),  # the parts axis is the shortest
    ("B2", (-1, -1), (3, 6, 4)),
    ("G2", (1, -1), (6, 2, 3)),
    ("B2", (-1, -1), (3, 6, 1)),  # the parts axis has pad 1
    ("B2", (-1, -1), (3, 6, 0)),  # p = 0: the parts axis has length 1 and no pad
])
def test_parts_axis_of_partition_p(name, signs, extent):
    rs, grading, _ = graded(CARTAN[name], signs)
    assert_table_is_enumeration(grading, extent, parts=True)
    mu = Weight([sum(rs.cartan[i][j] * extent[j] for j in range(rs.rank)) for i in range(rs.rank)])
    assert partition_p(grading, mu, extent[-1]) == enumeration_oracle(
        grading, extent[:-1], parts=extent[-1]
    )
