import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dischar
from dischar import (
    DimensionMismatch,
    NotFiniteType,
    NotIntegral,
    Weight,
    act,
    build_root_system,
    coroot_pairing,
)
from tests.conftest import CARTAN, EXTRA_CARTAN
from tests.helpers import dominant_representative, lattice_coords, scaled, solve_root_coords
from tests.matrix_oracle import word_matrix


def closure_oracle(cartan):
    """Independent reflection closure: depth-first, reversed generator order."""
    rank = len(cartan)
    seen = {tuple(int(j == i) for j in range(rank)) for i in range(rank)}
    stack = sorted(seen, reverse=True)
    while stack:
        n = stack.pop()
        for i in reversed(range(rank)):
            pairing = sum(cartan[i][j] * n[j] for j in range(rank))
            image = tuple(n[j] - pairing * int(j == i) for j in range(rank))
            if all(c >= 0 for c in image) and any(c > 0 for c in image) and image not in seen:
                seen.add(image)
                stack.append(image)
    return seen


def test_rank_one_root_system():
    rs = build_root_system([[2]])
    assert len(rs.positive_roots) == 1
    assert rs.positive_roots[0].root_coords == (1,)
    assert rs.rho == Weight((1,))


def test_a2_closure():
    rs = build_root_system([[2, -1], [-1, 2]])
    coords = {r.root_coords for r in rs.positive_roots}
    assert coords == {(1, 0), (0, 1), (1, 1)}
    assert rs.rho == Weight((1, 1))


def test_b2_has_four_positive_roots():
    rs = build_root_system([[2, -2], [-1, 2]])
    assert len(rs.positive_roots) == 4


@pytest.mark.parametrize(
    "name,count",
    [("A1", 1), ("A2", 3), ("B2", 4), ("A3", 6), ("B3", 9), ("C3", 9), ("G2", 6)],
)
def test_positive_root_counts_match_oracle(name, count, systems):
    rs = systems[name]
    assert len(rs.positive_roots) == count
    oracle = closure_oracle(CARTAN[name])
    assert {r.root_coords for r in rs.positive_roots} == oracle


def test_reducible_cartan_accepted():
    rs = build_root_system([[2, 0], [0, 2]])
    assert {r.root_coords for r in rs.positive_roots} == {(1, 0), (0, 1)}
    assert rs.rho == Weight((1, 1))


def test_rank_zero_edge():
    rs = build_root_system([])
    assert rs.positive_roots == ()
    assert rs.rho == Weight(())


@pytest.mark.parametrize(
    "cartan",
    [
        [[2, -2], [-2, 2]],        # affine
        [[2, -1], [-4, 2]],        # indefinite
        [[2, 0], [-1, 2]],         # asymmetric zero pattern
        [[2, -1]],                 # not square
        [[1]],                     # bad diagonal
        [[2, 1], [-1, 2]],         # positive off-diagonal
    ],
)
def test_not_finite_type_rejected(cartan):
    with pytest.raises(NotFiniteType):
        build_root_system(cartan)


def _affine_a(n):
    """The cyclic Cartan matrix of affine A_{n-1}: singular, every row sums to 0."""
    return [[2 if i == j else -1 if (i - j) % n in (1, n - 1) else 0 for j in range(n)]
            for i in range(n)]


@pytest.mark.parametrize("cartan", [[[2, -2], [-2, 2]], _affine_a(16)], ids=["A1~", "A15~"])
def test_singular_cartan_refused_before_the_closure(cartan):
    # the root closure of a singular matrix never ends; it used to run to
    # MAX_ROOTS and abort with "more than 10000 positive roots"
    with pytest.raises(NotFiniteType, match="^Cartan matrix is singular$"):
        build_root_system(cartan)


def _cycle_with_one_double_bond(n):
    """Affine A_{n-1} with one -1 made -2: nonsingular, determinant -n."""
    cartan = _affine_a(n)
    cartan[0][1] = -2
    return cartan


@pytest.mark.parametrize(
    "cartan,det",
    [([[2, -3], [-2, 2]], -2), ([[2, -1, 0], [-1, 2, -2], [0, -2, 2]], -2),
     (_cycle_with_one_double_bond(16), -16)],
    ids=["rank2", "rank3", "rank16"],
)
def test_negative_determinant_refused_before_the_closure(cartan, det):
    # a finite-type Cartan matrix has positive determinant; these used to run
    # the closure to MAX_ROOTS and abort with "more than 10000 positive roots"
    with pytest.raises(
        NotFiniteType, match=rf"^Cartan matrix has determinant {det} < 0; not of finite type$"
    ):
        build_root_system(cartan)


def test_fw_coords_are_cartan_columns(systems):
    for rs in systems.values():
        for j, alpha in enumerate(rs.simple_roots):
            assert alpha.fw_coords == tuple(rs.cartan[i][j] for i in range(rs.rank))


def test_coroot_self_pairing_is_two(systems):
    for rs in systems.values():
        for alpha in rs.positive_roots:
            assert coroot_pairing(alpha, alpha.weight()) == 2


def test_simple_reflections_permute_other_positives(systems):
    for rs in systems.values():
        positive = set(rs.positive_roots)
        for alpha in rs.simple_roots:
            images = set()
            for beta in positive - {alpha}:
                shift = coroot_pairing(alpha, beta.weight())
                coords = tuple(
                    b - int(shift) * a
                    for a, b in zip(alpha.root_coords, beta.root_coords)
                )
                image = rs.by_root_coords.get(coords)
                assert image is not None
                images.add(image)
            assert images == positive - {alpha}


def test_rho_is_all_ones(systems):
    for rs in systems.values():
        assert rs.rho.coords == (Fraction(1),) * rs.rank


def test_coroot_pairing_examples(systems):
    a1, a2 = systems["A1"], systems["A2"]
    assert coroot_pairing(a1.positive_roots[0], Weight((-1,))) == -1
    highest = a2.by_root_coords.get((1, 1))
    assert coroot_pairing(highest, a2.rho) == 2
    assert coroot_pairing(highest, Weight.zero(2)) == 0


def test_coroot_pairing_dimension_mismatch(systems):
    with pytest.raises(DimensionMismatch):
        coroot_pairing(systems["A1"].positive_roots[0], Weight((1, 2)))


def test_weight_arithmetic():
    a = Weight((1, Fraction(1, 2)))
    b = Weight((-1, Fraction(3, 2)))
    assert a + b == Weight((0, 2))
    assert a - b == Weight((2, -1))
    assert -a == Weight((-1, Fraction(-1, 2)))
    assert a.serialize() == ["1", "1/2"]
    with pytest.raises(DimensionMismatch):
        a + Weight((1,))


def test_dominant_representative(systems):
    a2 = systems["A2"]
    assert dominant_representative(a2, Weight((-1, -1))) == Weight((1, 1))
    assert dominant_representative(a2, Weight((2, 1))) == Weight((2, 1))
    assert dominant_representative(a2, Weight.zero(2)) == Weight.zero(2)


def test_to_root_coords_roundtrip(systems):
    # the map to root coordinates takes each root's doubled weight back to its coordinates
    for rs in systems.values():
        for alpha in rs.positive_roots:
            assert rs.root_coords(alpha.weight().twice) == alpha.root_coords
            assert solve_root_coords(rs, alpha.weight()) == alpha.root_coords


def test_weight_stores_integral_coordinates_as_int():
    lam = Weight([Fraction(4, 2), "1/2", 3, "-6/3", Fraction(-1, 2)])
    assert [type(c) for c in lam.coords] == [int, Fraction, int, int, Fraction]
    assert lam.coords == (2, Fraction(1, 2), 3, -2, Fraction(-1, 2))
    assert Weight([Fraction(2)]) == Weight([2])
    assert hash(Weight([Fraction(2)])) == hash(Weight([2]))
    assert Weight([Fraction(3), Fraction(-1, 2)]).serialize() == ["3", "-1/2"]
    half = Weight([Fraction(1, 2)])
    assert type((half + half).coords[0]) is int
    assert type(scaled(half, 4).coords[0]) is int
    assert Weight([Fraction(1, 2), 0]).is_integral() is False
    assert Weight([Fraction(6, 3), 0]).is_integral() is True


@pytest.mark.parametrize("name", sorted(CARTAN) + sorted(EXTRA_CARTAN))
def test_to_root_coords_inverts_cartan(name):
    # a weight with simple-root coordinates n has fw coordinates C @ n
    cartan = dict(CARTAN, **EXTRA_CARTAN)[name]
    rs = build_root_system(cartan)
    rank = rs.rank
    probes = [rs.rho, Weight([Fraction(1, 2)] + [-3] * (rank - 1))]
    probes += [Weight([int(j == i) for j in range(rank)]) for i in range(rank)]
    for lam in probes:
        n = solve_root_coords(rs, lam)
        assert tuple(sum(cartan[i][j] * n[j] for j in range(rank)) for i in range(rank)) == lam.coords
        assert rs.root_coords(lam.twice) == lattice_coords(rs, lam)
    assert rs.root_coords(probes[1].twice) is None


@pytest.mark.parametrize(
    "coords,named", [(["1/3"], "1/3"), ([0, Fraction(-5, 6)], "-5/6"), (["1/2", "7/4"], "7/4")]
)
def test_weight_refuses_coordinates_outside_half_integers(coords, named):
    with pytest.raises(NotIntegral, match=f"^weight coordinate {named} is not a multiple of 1/2$"):
        Weight(coords)


def test_weight_stores_only_the_doubled_vector():
    lam = Weight([3, "-1/2", Fraction(4, 2)])
    assert lam.twice == (6, -1, 4) and all(type(t) is int for t in lam.twice)
    assert not hasattr(lam, "__dict__") and Weight.__slots__ == ("twice", "_hash")
    assert Weight.from_twice((6, -1, 4)) == lam
    assert repr(lam) == "Weight(3, -1/2, 2)"


@st.composite
def half_integral_cases(draw):
    """A conftest system, two half-integral vectors as Fraction tuples, a Weyl element index."""
    name = draw(st.sampled_from(sorted(CARTAN)))
    rank = len(CARTAN[name])
    halves = st.lists(st.integers(-30, 30), min_size=rank, max_size=rank)
    a = tuple(Fraction(t, 2) for t in draw(halves))
    b = tuple(Fraction(t, 2) for t in draw(halves))
    return name, a, b, draw(st.integers(0, 10**6))


@settings(max_examples=300, deadline=None)
@given(half_integral_cases())
def test_weight_agrees_with_a_fraction_reference(systems, groups, case):
    name, a, b, index = case
    rs, group = systems[name], groups[name]
    wa, wb = Weight(a), Weight([str(x) for x in b])

    def exact(vec):
        # the reference's coordinates with the types coords must return
        return tuple(int(x) if x.denominator == 1 else x for x in vec)

    for vec, weight in ((a, wa), (b, wb)):
        assert Weight.from_twice(tuple(int(2 * x) for x in vec)) == weight
        assert weight.coords == vec
        assert [type(c) for c in weight.coords] == [type(c) for c in exact(vec)]
    assert (wa + wb).coords == tuple(x + y for x, y in zip(a, b))
    assert (wa - wb).coords == tuple(x - y for x, y in zip(a, b))
    assert (-wa).coords == tuple(-x for x in a)
    assert wa.serialize() == [str(x) for x in a]
    assert (wa == wb) == (a == b)
    assert hash(Weight(exact(a))) == hash(wa) and Weight(exact(a)) == wa
    assert (wa < wb) == (a < b) and (wb < wa) == (b < a)
    w = group.elements[index % group.order]
    matrix = word_matrix(CARTAN[name], w.reduced_word)
    assert act(w, wa).coords == tuple(sum(m * x for m, x in zip(row, a)) for row in matrix)
    for alpha in rs.positive_roots:
        value = coroot_pairing(alpha, wa)
        assert value == sum(c * x for c, x in zip(alpha.coroot_coords, a))
        assert type(value) is (int if value.denominator == 1 else Fraction)


@st.composite
def doubled_cases(draw):
    """A conftest or extra system and a doubled vector, half the time on the root lattice."""
    name = draw(st.sampled_from(sorted(CARTAN) + sorted(EXTRA_CARTAN)))
    cartan = dict(CARTAN, **EXTRA_CARTAN)[name]
    rank = len(cartan)
    entries = draw(st.lists(st.integers(-40, 40), min_size=rank, max_size=rank))
    if draw(st.booleans()):  # 2 C n for root coordinates n
        entries = [2 * sum(c * x for c, x in zip(row, entries)) for row in cartan]
    return name, tuple(entries)


@settings(max_examples=400, deadline=None)
@given(doubled_cases())
def test_root_coords_is_the_rational_solve_in_integers(systems, extra_systems, case):
    name, twice = case
    rs = dict(systems, **extra_systems)[name]
    solved = solve_root_coords(rs, Weight.from_twice(twice))
    coords = rs.root_coords(twice)
    if any(c.denominator != 1 for c in solved):
        assert coords is None
    else:
        assert coords == solved and all(type(c) is int for c in coords)


def test_only_rootdata_and_cli_import_fractions():
    # coordinates are Fractions only where a weight is parsed or read back
    importers = set()
    for path in sorted(Path(dischar.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module]
            else:
                continue
            if "fractions" in modules:
                importers.add(path.name)
    assert importers == {"rootdata.py", "cli.py"}
