import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dischar import (
    BoxTooLarge,
    DimensionMismatch,
    NotCompatible,
    NotStronglyAntidominant,
    ParameterIncompatible,
    PartitionTableTooLarge,
    TruncationTooLarge,
    Weight,
    act,
    blattner,
    blattner_multiplicity,
    build_grading,
    build_root_system,
    bwb_cohomology,
    coroot_pairing,
    filtration_oracle,
    filtration_table,
    generate,
    ktype_table,
    partition,
    partition_p,
    weyl_k,
)
from dischar.blattner import _check_nu, _filtration_level, _PartitionTable
from tests.conftest import CARTAN, EXTRA_CARTAN
from tests.helpers import inverse, lattice_coords, scaled, sign_by_root, simple_reflections


def setup(systems, groups, name, signs):
    rs, W = systems[name], groups[name]
    grading = build_grading(rs, signs)
    return rs, grading, weyl_k(rs, grading, W)


def root_weight(rs, coords):
    return rs.by_root_coords.get(coords).weight()


def enumeration_oracle(grading, target_root_coords, parts=None):
    """Brute-force multiset count, written independently of the DP."""
    roots = [r.root_coords for r in grading.noncompact_positive]
    total = 0
    stack = [(0, tuple(target_root_coords), 0)]
    while stack:
        idx, remaining, used = stack.pop()
        if idx == len(roots):
            if all(c == 0 for c in remaining) and (parts is None or used == parts):
                total += 1
            continue
        beta = roots[idx]
        k = 0
        current = remaining
        while all(c >= 0 for c in current) and (parts is None or used + k <= parts):
            stack.append((idx + 1, current, used + k))
            k += 1
            current = tuple(c - b for c, b in zip(current, beta))
    return total


def test_partition_p_examples(systems, groups):
    rs, grading, kdata = setup(systems, groups, "A2", (1, -1))
    assert partition_p(grading, Weight.zero(2), 0) == 1
    mu = root_weight(rs, (0, 1)) + root_weight(rs, (1, 1))  # alpha_1 + 2 alpha_2
    assert partition_p(grading, mu, 2) == 1
    assert partition_p(grading, mu, 1) == 0

    rs1, grading1, _ = setup(systems, groups, "A1", (-1,))
    alpha = rs1.positive_roots[0].weight()
    for k in range(5):
        mu1 = scaled(alpha, k)
        for p in range(6):
            assert partition_p(grading1, mu1, p) == (1 if p == k else 0)


def test_partition_examples(systems, groups):
    rs, grading, _ = setup(systems, groups, "A2", (1, -1))
    assert partition(grading, Weight.zero(2)) == 1
    assert partition(grading, root_weight(rs, (0, 1))) == 1
    assert partition(grading, root_weight(rs, (1, 0))) == 0

    rs1, grading1, _ = setup(systems, groups, "A1", (-1,))
    assert partition(grading1, scaled(rs1.positive_roots[0].weight(), 3)) == 1


def test_partition_off_lattice_is_zero(systems, groups):
    _, grading, _ = setup(systems, groups, "A2", (1, -1))
    assert partition(grading, Weight((Fraction(1, 2), 0))) == 0
    assert partition_p(grading, Weight((Fraction(1, 2), 0)), 1) == 0


def test_partition_all_compact_is_delta(systems, groups):
    rs, grading, _ = setup(systems, groups, "A2", (1, 1))
    assert partition(grading, Weight.zero(2)) == 1
    assert partition(grading, root_weight(rs, (1, 0))) == 0


def test_partition_dp_matches_enumeration(systems, groups):
    for name in ("A1", "A2", "B2", "G2"):
        rs = systems[name]
        for signs in itertools.product((1, -1), repeat=rs.rank):
            grading = build_grading(rs, signs)

            def lattice_points(radius):
                def rec(prefix):
                    if len(prefix) == rs.rank:
                        yield tuple(prefix)
                        return
                    for c in range(radius + 1 - sum(prefix)):
                        yield from rec(prefix + [c])

                yield from rec([])

            for coords in lattice_points(6):
                mu = Weight(
                    tuple(
                        sum(rs.cartan[i][j] * coords[j] for j in range(rs.rank))
                        for i in range(rs.rank)
                    )
                )
                assert partition(grading, mu) == enumeration_oracle(grading, coords)
                bound = sum(coords)
                assert partition(grading, mu) == sum(
                    partition_p(grading, mu, p) for p in range(bound + 1)
                )


def test_bwb_trivial_wk(systems, groups):
    _, grading, kdata = setup(systems, groups, "A1", (-1,))
    eta = Weight((7,))
    assert bwb_cohomology(grading, kdata, eta) == (0, eta + grading.rho_c)


def test_bwb_singular_vanishes(systems, groups):
    _, grading, kdata = setup(systems, groups, "A2", (1, -1))
    assert bwb_cohomology(grading, kdata, Weight((0, 5))) is None


def test_bwb_reflection_case(systems, groups):
    rs, grading, kdata = setup(systems, groups, "A2", (1, -1))
    eta = Weight((2, -5))
    result = bwb_cohomology(grading, kdata, eta)
    assert result is not None
    degree, nu = result
    assert degree == 1
    # w = s1 is the unique element pulling eta into the antidominant chamber
    from dischar import act

    s1 = simple_reflections(kdata.weyl)[0]
    assert act(inverse(kdata.weyl, s1), eta) + grading.rho_c == nu


def test_bwb_unique_chamber_element(systems, groups):
    rs, grading, kdata = setup(systems, groups, "B2", (1, -1))
    eta = Weight((3, -7))
    if all(coroot_pairing(a, eta) != 0 for a in grading.compact_positive):
        from dischar import act

        hits = [
            w
            for w in kdata.elements
            if all(
                coroot_pairing(a, act(inverse(kdata.weyl, w), eta)) < 0
                for a in grading.compact_positive
            )
        ]
        assert len(hits) == 1


def bwb_by_scan(grading, kdata, eta):
    """The BWB step by trying every w in W_K in turn: the chamber walk's oracle."""
    compact = grading.compact_positive
    if any(coroot_pairing(a, eta) == 0 for a in compact):
        return None
    for w, length_k in zip(kdata.elements, kdata.lengthK):
        candidate = act(inverse(kdata.weyl, w), eta)
        if all(coroot_pairing(a, candidate) < 0 for a in compact):
            return length_k, candidate + grading.rho_c
    raise AssertionError("no W_K chamber representative for a regular weight")


@pytest.mark.parametrize("name", [*CARTAN, *EXTRA_CARTAN])
def test_bwb_chamber_walk_matches_scan(name):
    # every grading; eta in rho_c + the weight lattice, as the oracle walk
    # produces it, regular and (via eta + s_beta eta) singular for a compact beta
    rs = build_root_system({**CARTAN, **EXTRA_CARTAN}[name])
    group = generate(rs)
    rng = random.Random(name)
    for signs in itertools.product((1, -1), repeat=rs.rank):
        grading = build_grading(rs, signs)
        kdata = weyl_k(rs, grading, group)
        regular = 0
        while regular < 8:
            eta = Weight([rng.randint(-9, 9) for _ in range(rs.rank)]) + grading.rho_c
            expected = bwb_by_scan(grading, kdata, eta)
            assert bwb_cohomology(grading, kdata, eta) == expected, (signs, eta)
            regular += expected is not None
        for beta in rng.sample(grading.compact_positive, min(3, len(grading.compact_positive))):
            eta = Weight([rng.randint(-9, 9) for _ in range(rs.rank)])
            singular = eta + eta - scaled(beta.weight(), coroot_pairing(beta, eta))
            assert coroot_pairing(beta, singular) == 0
            assert bwb_cohomology(grading, kdata, singular) is None
            assert bwb_by_scan(grading, kdata, singular) is None


def test_sl2_ktype_table(systems, groups):
    _, grading, kdata = setup(systems, groups, "A1", (-1,))
    lam = Weight((-2,))
    table = ktype_table(grading, kdata, lam, ((-9,), (0,)))
    assert {w.coords[0]: m for w, m in table.entries.items()} == {
        -3: 1,
        -5: 1,
        -7: 1,
        -9: 1,
    }


def test_ktype_far_dominant_nu_is_zero(systems, groups):
    _, grading, kdata = setup(systems, groups, "A1", (-1,))
    # deep in the ladder: argument 98 = 49 * alpha
    assert blattner_multiplicity(grading, kdata, Weight((-2,)), Weight((-101,))) == 1
    assert blattner_multiplicity(grading, kdata, Weight((-2,)), Weight((-100,))) == 0
    # nu on the dominant side: every partition argument falls off the cone
    assert blattner_multiplicity(grading, kdata, Weight((-2,)), Weight((0,))) == 0


def test_ktype_all_compact_is_delta(systems, groups):
    # R_n+ empty makes P a delta function; the single surviving K-type is the
    # module itself, whose lowest weight is lam + rho (sections of O(lam+rho))
    rs, grading, kdata = setup(systems, groups, "A2", (1, 1))
    lam = Weight((-2, -3))
    table = ktype_table(grading, kdata, lam, ((-5, -5), (0, 0)))
    assert table.entries == {lam + rs.rho: 1}
    assert filtration_oracle(grading, kdata, lam, lam + rs.rho) == 1


def test_ktype_empty_box(systems, groups):
    _, grading, kdata = setup(systems, groups, "A1", (-1,))
    table = ktype_table(grading, kdata, Weight((-2,)), ((0,), (-1,)))
    assert table.entries == {}


def test_filtration_oracle_examples(systems, groups):
    _, grading, kdata = setup(systems, groups, "A1", (-1,))
    lam = Weight((-2,))
    assert filtration_oracle(grading, kdata, lam, Weight((-3,))) == 1
    assert filtration_oracle(grading, kdata, lam, Weight((-4,))) == 0


def brute_force_level(rs, grading, kdata, lam, nu):
    """The largest noncompact simple coordinate sum of an in-cone argument for nu."""
    level = 0
    for w in kdata.elements:
        coords = lattice_coords(rs, lam - grading.rho_n - act(w, nu - grading.rho_c))
        if coords is not None and min(coords, default=0) >= 0:
            level = max(level, sum(c for c, s in zip(coords, grading.simple_signs) if s == -1))
    return level


def test_filtration_level_matches_brute_force(systems, groups):
    # the walk's depth, per nu and for a whole set, on every grading, over a
    # box around the lowest K-type; the half-integral nu lie off the lattice
    # and need no level
    positive = 0
    half = Fraction(1, 2)
    for name, rs in systems.items():
        lam = scaled(rs.rho, -2)
        for signs in itertools.product((1, -1), repeat=rs.rank):
            grading = build_grading(rs, signs)
            kdata = weyl_k(rs, grading, groups[name])
            lowest = lam - grading.rho_n + grading.rho_c
            offsets = [*itertools.product(range(-2, 2), repeat=rs.rank),
                       (-half,) * rs.rank, (half,) + (-1,) * (rs.rank - 1)]
            points = [lowest + Weight(d) for d in offsets]
            levels = [brute_force_level(rs, grading, kdata, lam, nu) for nu in points]
            for nu, level in zip(points, levels):
                assert _filtration_level(grading, kdata, lam, [nu]) == level, (name, signs, nu)
            assert _filtration_level(grading, kdata, lam, points) == max(levels)
            assert levels[-2:] == [0, 0]
            positive += sum(level > 0 for level in levels)
    # 474 of the 1,884 points need a walk
    assert positive > 400


def test_level_sweep_stops_at_the_first_point_past_the_bound(monkeypatch, systems, groups):
    # the sweep checks the walk's bound each time the level grows, so it
    # refuses at the first lattice nu that needs a level past the bound and
    # sweeps W_K for no later nu; the swept points are counted, not timed
    rs, grading, kdata = setup(systems, groups, "B3", (1, 1, -1))
    lam = scaled(rs.rho, -2)
    points = blattner._box_points(grading, ((-6,) * 3, (0,) * 3))
    shift = (lam - grading.rho_n + grading.rho_c).twice
    lattice = [nu for nu in points
               if rs.root_coords(tuple(a - b for a, b in zip(shift, nu.twice))) is not None]
    levels = [_filtration_level(grading, kdata, lam, [nu]) for nu in lattice]
    admitted = max(levels) // 2
    first = next(k for k, level in enumerate(levels) if level > admitted)
    assert first + 1 < len(lattice) // 2

    swept = []
    orbit = type(kdata).orbit

    def counted(self, vec):
        swept.append(vec)
        return orbit(self, vec)

    monkeypatch.setattr(type(kdata), "orbit", counted)
    monkeypatch.setattr(blattner, "MAX_ORACLE_MULTISETS",
                        math.comb(grading.q + admitted, admitted))
    with pytest.raises(TruncationTooLarge, match="^walk reaches level ") as refused:
        filtration_table(grading, kdata, lam, ((-6,) * 3, (0,) * 3))
    # one W_K sweep of rho_c, then one per lattice nu up to the refused one
    assert swept[1:] == [nu.twice for nu in lattice[:first + 1]]
    reached = int(str(refused.value).split()[3].rstrip(","))
    assert admitted < reached <= levels[first]


def test_blattner_equals_oracle_a1(systems, groups):
    _, grading, kdata = setup(systems, groups, "A1", (-1,))
    for lam_c in (-2, -3, -4):
        lam = Weight((lam_c,))
        for nu_c in range(-8, 1):
            nu = Weight((nu_c,))
            closed = blattner_multiplicity(grading, kdata, lam, nu)
            assert closed == filtration_oracle(grading, kdata, lam, nu)
            assert closed >= 0


def test_blattner_equals_oracle_a2_mixed(systems, groups):
    _, grading, kdata = setup(systems, groups, "A2", (1, -1))
    lam = Weight((-2, -1))
    for a in range(-6, 1):
        for b in range(-6, 1):
            nu = Weight((a, b))
            if any(coroot_pairing(al, nu) > 0 for al in grading.compact_positive):
                continue
            closed = blattner_multiplicity(grading, kdata, lam, nu)
            assert closed == filtration_oracle(grading, kdata, lam, nu)
            assert closed >= 0


def test_parameter_incompatible(systems, groups):
    rs, grading, kdata = setup(systems, groups, "A2", (1, -1))
    # lam is refused by the Schmid check, nu by the Blattner layer's own
    with pytest.raises(NotCompatible, match=r"^lam \+ rho must be integral$"):
        blattner_multiplicity(grading, kdata, Weight((Fraction(-3, 2), -1)), Weight((-1, -1)))
    with pytest.raises(NotStronglyAntidominant):
        blattner_multiplicity(grading, kdata, Weight((0, -1)), Weight((-1, -1)))
    # a half-integral pairing is refused whatever its sign
    refused = [((Fraction(1, 2), 0), "integrally"), ((Fraction(-1, 2), 0), "integrally"),
               ((1, -4), "antidominant")]
    for coords, message in refused:
        with pytest.raises(ParameterIncompatible, match=message):
            blattner_multiplicity(grading, kdata, Weight((-2, -1)), Weight(coords))
        # the oracle checks a nu it is handed the same way
        with pytest.raises(ParameterIncompatible, match=message):
            filtration_oracle(grading, kdata, Weight((-2, -1)), Weight(coords))


def test_blattner_equals_oracle_rank3(systems, groups):
    rs = systems["B3"]
    W = groups["B3"]
    for signs in [(1, 1, -1), (-1, 1, 1)]:
        grading = build_grading(rs, signs)
        kdata = weyl_k(rs, grading, W)
        lam = -rs.rho
        nonzero = 0
        for point in itertools.product(range(-2, 1), repeat=3):
            nu = Weight(point)
            if any(coroot_pairing(al, nu) > 0 for al in grading.compact_positive):
                continue
            closed = blattner_multiplicity(grading, kdata, lam, nu)
            assert closed == filtration_oracle(grading, kdata, lam, nu)
            nonzero += closed > 0
        if signs == (1, 1, -1):
            assert nonzero == 3


def test_higher_multiplicities_b2(systems, groups):
    # the all-noncompact grading is not multiplicity free; these values were
    # computed by both the closed formula and the filtration oracle
    _, grading, kdata = setup(systems, groups, "B2", (-1, -1))
    lam = Weight((-2, -2))
    for coords, expected in [((-7, -8), 6), ((-7, -7), 5), ((-7, -6), 5), ((-7, -5), 4)]:
        nu = Weight(coords)
        assert blattner_multiplicity(grading, kdata, lam, nu) == expected
        assert filtration_oracle(grading, kdata, lam, nu) == expected


def test_line_bundle_twist_bookkeeping(systems, groups):
    # omega_{Q|X} carries twist 2 rho_n, so the oracle's line-bundle parameter
    # (lam + rho) - 2 rho_n - kappa equals (lam - rho_n - kappa) + rho_c
    for name in ("A1", "A2", "B2", "G2"):
        rs = systems[name]
        for signs in itertools.product((1, -1), repeat=rs.rank):
            grading = build_grading(rs, signs)
            assert rs.rho - grading.rho_n - grading.rho_n == grading.rho_c - grading.rho_n
            lam = -rs.rho
            kappa = rs.rho + rs.rho  # arbitrary lattice vector
            lhs = lam + rs.rho - scaled(grading.rho_n, 2) - kappa
            rhs = (lam - grading.rho_n - kappa) + grading.rho_c
            assert lhs == rhs


def test_partition_table_matches_enumeration_extra_types(extra_systems):
    # every entry of one table, on boxes whose uneven extents exercise the
    # axis layout, against the brute-force count
    for name, rs in extra_systems.items():
        for signs in itertools.product((1, -1), repeat=rs.rank):
            grading = build_grading(rs, signs)
            for extent in ((3, 1, 2, 2)[: rs.rank], (0, 2, 1, 3)[: rs.rank]):
                roots = [r.root_coords for r in grading.noncompact_positive]
                table = _PartitionTable(roots, extent)
                for m in itertools.product(*(range(e + 1) for e in extent)):
                    assert table[m] == enumeration_oracle(grading, m), (name, signs, m)


@pytest.mark.parametrize(
    "name,lam,box",
    [
        ("D4", (-1, -1, -1, -1), ((-2, -2, -2, -7), (0, 0, 0, -6))),
        ("F4", (-1, -1, -1, -1), ((0, 0, -1, -7), (0, 0, 0, -7))),
    ],
)
def test_ktype_table_equals_filtration_table_rank4(extra_systems, name, lam, box):
    rs = extra_systems[name]
    grading = build_grading(rs, (1, 1, 1, -1))
    kdata = weyl_k(rs, grading, generate(rs))
    table = ktype_table(grading, kdata, Weight(lam), box)
    assert table.entries
    assert table == filtration_table(grading, kdata, Weight(lam), box)


def test_grading_holds_no_memo(systems, groups):
    rs, grading, kdata = setup(systems, groups, "B3", (1, 1, -1))
    # the grading has no __dict__, so no memo can be attached to it at all
    assert not hasattr(grading, "__dict__")
    before, signs = tuple(grading), sign_by_root(grading)
    lam = -rs.rho - rs.rho
    box = ((-4, -4, -4), (0, 0, 0))
    first = ktype_table(grading, kdata, lam, box)
    second = ktype_table(grading, kdata, lam, box)
    assert first == second and first.entries
    nu, value = first.sorted_entries()[0]
    assert blattner_multiplicity(grading, kdata, lam, nu) == value
    assert partition(grading, scaled(rs.rho, 4)) == partition(grading, scaled(rs.rho, 4))
    assert tuple(grading) == before and sign_by_root(grading) == signs


def test_filtration_oracle_reads_its_table_entry(systems, groups):
    rs, grading, kdata = setup(systems, groups, "A2", (1, -1))
    lam = Weight((-2, -1))
    box = ((-6, -6), (0, 0))
    table = filtration_table(grading, kdata, lam, box)
    assert table == ktype_table(grading, kdata, lam, box)
    for coords in itertools.product(range(-6, 1), repeat=2):
        nu = Weight(coords)
        if any(coroot_pairing(a, nu) > 0 for a in grading.compact_positive):
            continue
        assert filtration_oracle(grading, kdata, lam, nu) == table.entries.get(nu, 0)


def test_size_limits_admit_their_bound(monkeypatch, systems, groups):
    rs, grading, kdata = setup(systems, groups, "A1", (-1,))
    alpha = rs.positive_roots[0].weight()
    monkeypatch.setattr(blattner, "MAX_TABLE_ENTRIES", 10)
    assert partition(grading, scaled(alpha, 9)) == 1
    with pytest.raises(PartitionTableTooLarge):
        partition(grading, scaled(alpha, 10))

    monkeypatch.setattr(blattner, "MAX_BOX_POINTS", 10)
    lam = Weight((-2,))
    assert len(ktype_table(grading, kdata, lam, ((-9,), (0,))).entries) == 4
    with pytest.raises(BoxTooLarge):
        ktype_table(grading, kdata, lam, ((-10,), (0,)))
    with pytest.raises(BoxTooLarge):
        filtration_table(grading, kdata, lam, ((-10,), (0,)))

    # A1 has one noncompact root, so level p walks p + 1 multisets; at
    # lam = -2 the K-type nu = -3 - 2p needs level p
    monkeypatch.setattr(blattner, "MAX_ORACLE_MULTISETS", 4)
    assert filtration_oracle(grading, kdata, lam, Weight((-9,))) == 1
    with pytest.raises(
        TruncationTooLarge, match="^walk reaches level 4, which needs 5 multisets; the limit is 4$"
    ):
        filtration_oracle(grading, kdata, lam, Weight((-11,)))



def test_closed_formula_refuses_at_the_first_point_past_the_table_bound(
        monkeypatch, systems, groups):
    # A1 all noncompact, lam = -2: nu = -3 - 2k has the one argument k alpha,
    # so the table's extent grows by one entry at each of these points
    rs, grading, kdata = setup(systems, groups, "A1", (-1,))
    lam = Weight((-2,))
    points = [Weight((-3 - 2 * k,)) for k in range(50)]
    stepped = []

    def counted(terms, lattice):
        for found in stepped_arguments(terms, lattice):
            stepped.append(found)
            yield found

    stepped_arguments = blattner._stepped_arguments
    monkeypatch.setattr(blattner, "_stepped_arguments", counted)
    monkeypatch.setattr(blattner, "MAX_TABLE_ENTRIES", 11)
    assert blattner._closed_formula(grading, kdata, lam, points[:11]) == [1] * 11
    # both passes over the 11 points: one for the extent, one to read the table
    assert len(stepped) == 22
    stepped.clear()
    with pytest.raises(PartitionTableTooLarge,
                       match=r"^partition table grows to 0\.\.\[11\] with 12 entries; "
                             r"the limit is 11$"):
        blattner._closed_formula(grading, kdata, lam, points)
    assert len(stepped) == 12


WRONG_RANK = {
    # the box has the right rank, so the lam check is the one that refuses
    "ktype_table": (
        lambda rs, grading, kdata: ktype_table(grading, kdata, Weight((-1,)), ((-1, -1), (0, 0))),
        "^rank 1 weight in rank 2 system$",
    ),
    "filtration_oracle": (
        lambda rs, grading, kdata: filtration_oracle(
            grading, kdata, Weight((-1, 0, 5)), Weight((-1, -1))
        ),
        "^rank 3 weight in rank 2 system$",
    ),
    "bwb_cohomology": (
        lambda rs, grading, kdata: bwb_cohomology(grading, kdata, Weight((-1, 0, 5))),
        "^rank 3 weight in rank 2 system$",
    ),
    "KWeylData.orbit": (
        lambda rs, grading, kdata: kdata.orbit((1, 2, 3)),
        "^rank 2 group applied to rank 3 vector$",
    ),
    "partition": (
        lambda rs, grading, kdata: partition(grading, Weight((1, 0, 5))),
        "^rank 3 weight in rank 2 system$",
    ),
    "partition_p": (
        lambda rs, grading, kdata: partition_p(grading, Weight((1,)), 1),
        "^rank 1 weight in rank 2 system$",
    ),
    "RootSystem.root_coords": (
        lambda rs, grading, kdata: rs.root_coords((2, 0, 0)),
        "^rank 3 weight in rank 2 system$",
    ),
    "_check_nu": (
        lambda rs, grading, kdata: _check_nu(grading, Weight((-1, 0, 5))),
        "^rank 3 weight in rank 2 system$",
    ),
    # with no compact root the rank is still checked
    "_check_nu all noncompact": (
        lambda rs, grading, kdata: _check_nu(build_grading(rs, (-1, -1)), Weight((-1,))),
        "^rank 1 weight in rank 2 system$",
    ),
}


@pytest.mark.parametrize("call,message", WRONG_RANK.values(), ids=WRONG_RANK.keys())
def test_wrong_rank_weight_is_refused(systems, groups, call, message):
    rs, grading, kdata = setup(systems, groups, "A2", (1, -1))
    with pytest.raises(DimensionMismatch, match=message):
        call(rs, grading, kdata)


def test_partition_p_table_is_bounded(monkeypatch, systems, groups):
    rs, grading, kdata = setup(systems, groups, "A1", (-1,))
    alpha = rs.positive_roots[0].weight()
    # the table over (mu, p) = (4 alpha, p) has 5 * (p + 1) entries
    monkeypatch.setattr(blattner, "MAX_TABLE_ENTRIES", 25)
    assert partition_p(grading, scaled(alpha, 4), 4) == 1
    assert partition_p(grading, scaled(alpha, 4), 3) == 0
    with pytest.raises(PartitionTableTooLarge, match=r"0\.\.\[4, 5\] has 30 entries"):
        partition_p(grading, scaled(alpha, 4), 5)


def test_pads_are_bounded_before_the_table_is_built(monkeypatch):
    # A1^16 all noncompact: every simple root is a unit vector that pads its
    # axis by 1, so mu with root coordinates (1^6, 2^10) has 2^6 3^10 = 3.8 M
    # entries, under MAX_TABLE_ENTRIES, and 3^6 4^10 = 764 M cells with pads
    rank = 16
    rs = build_root_system([[2 * (i == j) for j in range(rank)] for i in range(rank)])
    grading = build_grading(rs, (-1,) * rank)

    def weight(root_coords):  # alpha_i is twice the i-th fundamental weight
        return Weight(tuple(2 * c for c in root_coords))

    with pytest.raises(
        PartitionTableTooLarge,
        match=r"has 764411904 cells with its pads; the limit is 10000000$",
    ):
        partition(grading, weight((1,) * 6 + (2,) * 10))
    # four axes of length 2, each padded by 1, and twelve of length 1 that no
    # root fits: 16 entries and 81 cells
    monkeypatch.setattr(blattner, "MAX_TABLE_CELLS", 81)
    assert partition(grading, weight((1,) * 4 + (0,) * 12)) == 1
    monkeypatch.setattr(blattner, "MAX_TABLE_CELLS", 80)
    with pytest.raises(PartitionTableTooLarge, match=r"has 81 cells with its pads"):
        partition(grading, weight((1,) * 4 + (0,) * 12))


def _cartan_of(kind, n):
    rows = [[2 if i == j else -int(abs(i - j) == 1) for j in range(n)] for i in range(n)]
    if kind == "G":
        return [[2, -1], [-3, 2]]
    if kind == "B":
        rows[n - 1][n - 2] = -2
    if kind == "C":
        rows[n - 2][n - 1] = -2
    return rows


def _block_diagonal(blocks):
    size = sum(len(b) for b in blocks)
    out = [[0] * size for _ in range(size)]
    offset = 0
    for block in blocks:
        for i, row in enumerate(block):
            out[offset + i][offset: offset + len(row)] = row
        offset += len(block)
    return out


FACTORS = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3), ("G", 2)]


@st.composite
def graded_systems(draw):
    """A rank <= 3 system (simple or a product), signs and a lambda shift."""
    first = draw(st.sampled_from(FACTORS))
    blocks = [_cartan_of(*first)]
    if first[1] < 3 and draw(st.booleans()):
        blocks.append(_cartan_of(*draw(st.sampled_from([f for f in FACTORS if f[1] <= 3 - first[1]]))))
    cartan = _block_diagonal(blocks)
    rank = len(cartan)
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=rank, max_size=rank))
    shift = draw(st.lists(st.integers(0, 1), min_size=rank, max_size=rank))
    return cartan, tuple(signs), tuple(shift)


@settings(max_examples=40, deadline=None)
@given(graded_systems())
def test_ktype_table_equals_oracle_property(case):
    cartan, signs, shift = case
    rs = build_root_system(cartan)
    grading = build_grading(rs, signs)
    kdata = weyl_k(rs, grading, generate(rs))
    lam = -rs.rho - Weight(shift)
    # a box of side 2 ending at the lowest K-type lam - rho_n + rho_c
    lowest = lam - grading.rho_n + grading.rho_c
    box = (tuple(c - 1 for c in lowest.coords), lowest.coords)
    table = ktype_table(grading, kdata, lam, box)
    assert table.entries.get(lowest) == 1
    assert table == filtration_table(grading, kdata, lam, box)
