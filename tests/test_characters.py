from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dischar import (
    FormalCharacter,
    act,
    HomologyTable,
    NotAntidominant,
    NotCompatible,
    NotIntegral,
    NotStronglyAntidominant,
    Weight,
    build_grading,
    discrete_numerator,
    euler_character,
    freudenthal_character,
    kostant_table,
    times_denominator,
    weyl_denominator,
    weyl_k,
    weyl_numerator,
)
from tests.conftest import CARTAN
from tests.helpers import dominant_representative, product


def test_ring_basics():
    x = FormalCharacter({Weight((1,)).twice: 2, Weight((0,)).twice: -1}.items())
    y = FormalCharacter({Weight((1,)).twice: -2}.items())
    xy = product(x, y)
    assert xy.terms == {Weight((2,)).twice: -4, Weight((1,)).twice: 2}
    assert product(y, x) == xy
    assert product(FormalCharacter.one(1), x) == x
    assert product(FormalCharacter([]), x).terms == {}
    # (weight, coeff) pairs: repeated weights add up, cancelling pairs drop out
    a, b = Weight((1,)), Weight((0,))
    pairs = [(a, 2), (b, 1), (a, -2), (b, 3), (Weight((5,)), 0), (a, 1), (a, -1)]
    assert FormalCharacter(pairs).terms == {b: 4}
    assert FormalCharacter(iter(pairs)) == FormalCharacter({b: 4}.items())
    assert FormalCharacter([(a, 1), (a, -1)]).terms == {}


WEIGHTS = st.tuples(st.integers(-2, 2), st.integers(-2, 2)).map(Weight)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(WEIGHTS, st.integers(-3, 3)), max_size=30), st.integers(0, 30))
def test_formal_character_sums_like_a_counter(pairs, cut):
    reference = Counter()
    for mu, c in pairs:
        reference[mu] += c
    char = FormalCharacter(pairs)
    assert char.terms == {mu: c for mu, c in reference.items() if c}
    head, tail = FormalCharacter(pairs[:cut]), FormalCharacter(pairs[cut:])
    assert FormalCharacter([*head.terms.items(), *tail.terms.items()]) == char
    negated_tail = ((mu, -c) for mu, c in tail.terms.items())
    assert FormalCharacter([*char.terms.items(), *negated_tail]) == head


def test_no_zero_coefficients_stored():
    char = FormalCharacter({Weight((0,)): 0, Weight((1,)): 1}.items())
    assert Weight((0,)) not in char.terms


def test_weyl_denominator_a1(systems, groups):
    den = weyl_denominator(systems["A1"], groups["A1"])
    assert den.terms == {Weight((0,)).twice: 1, Weight((2,)).twice: -1}


def test_weyl_denominator_a2_support(systems, groups):
    # the subsets {a1, a2} and {a1+a2} carry the same exponent with opposite
    # signs, so 8 subset terms merge into 6 surviving weights
    den = weyl_denominator(systems["A2"], groups["A2"])
    assert len(den.terms) == 6
    assert den.terms.get(systems["A2"].by_root_coords.get((1, 1)).weight().twice, 0) == 0


def test_weyl_denominator_rank_zero():
    from dischar import build_root_system, generate

    rs = build_root_system([])
    assert weyl_denominator(rs, generate(rs)) == FormalCharacter.one(0)


@pytest.mark.parametrize("name", ["B3", "D4"])
def test_weyl_denominator_matches_subset_expansion(name, systems):
    from itertools import combinations

    from dischar import build_root_system, generate
    from tests.conftest import EXTRA_CARTAN

    rs = systems[name] if name in systems else build_root_system(EXTRA_CARTAN[name])
    subsets: dict = {}
    for size in range(len(rs.positive_roots) + 1):
        for subset in combinations(rs.positive_roots, size):
            total = Weight.zero(rs.rank)
            for alpha in subset:
                total = total + alpha.weight()
            subsets[total.twice] = subsets.get(total.twice, 0) + (-1 if size % 2 else 1)
    W = generate(rs)
    den = weyl_denominator(rs, W)
    assert den == FormalCharacter(subsets.items())
    # one term e^{rho - w rho} with coefficient (-1)^l(w) per Weyl element
    assert len(den.terms) == W.order
    for w in W.elements:
        assert den.terms.get((rs.rho - act(w, rs.rho)).twice, 0) == (-1) ** w.length


def test_weyl_numerator_a1(systems, groups):
    rs, W = systems["A1"], groups["A1"]
    assert weyl_numerator(rs, W, Weight((-1,))).terms == {
        Weight((-1,)).twice: 1,
        Weight((3,)).twice: -1,
    }
    assert weyl_numerator(rs, W, Weight((0,))).terms == {
        Weight((0,)).twice: 1,
        Weight((2,)).twice: -1,
    }


def test_weyl_numerator_a2_six_distinct_terms(systems, groups):
    num = weyl_numerator(systems["A2"], groups["A2"], Weight((-1, -1)))
    assert len(num.terms) == 6
    assert all(c in (1, -1) for c in num.terms.values())


def test_weyl_numerator_rejects_bad_parameters(systems, groups):
    rs, W = systems["A2"], groups["A2"]
    with pytest.raises(NotAntidominant, match="^parameter must be antidominant$"):
        weyl_numerator(rs, W, rs.rho)
    with pytest.raises(NotIntegral, match="^parameter must be integral$"):
        weyl_numerator(rs, W, Weight((Fraction(-1, 2), 0)))


def test_freudenthal_sl2(systems):
    char = freudenthal_character(systems["A1"], Weight((-1,)))
    assert char.terms == {Weight((-1,)).twice: 1, Weight((1,)).twice: 1}


def test_freudenthal_rejects_bad_parameters(systems):
    rs = systems["A2"]
    with pytest.raises(NotAntidominant, match="^parameter must be antidominant$"):
        freudenthal_character(rs, rs.rho)
    with pytest.raises(NotIntegral, match="^parameter must be integral$"):
        freudenthal_character(rs, Weight((Fraction(-1, 2), 0)))


def test_freudenthal_trivial(systems):
    for rs in systems.values():
        char = freudenthal_character(rs, Weight.zero(rs.rank))
        assert char.terms == {Weight.zero(rs.rank).twice: 1}


def test_freudenthal_a2_adjoint(systems):
    char = freudenthal_character(systems["A2"], Weight((-1, -1)))
    assert sum(char.terms.values()) == 8
    assert char.terms.get(Weight.zero(2).twice, 0) == 2
    assert len(char.terms) == 7


def test_freudenthal_b2_small(systems):
    # with this Cartan convention omega_1 is the 4-dim spinor of so(5)
    # and omega_2 the 5-dim vector representation
    spinor = freudenthal_character(systems["B2"], Weight((-1, 0)))
    assert sum(spinor.terms.values()) == 4
    assert spinor.terms.get(Weight.zero(2).twice, 0) == 0
    vector = freudenthal_character(systems["B2"], Weight((0, -1)))
    assert sum(vector.terms.values()) == 5
    assert vector.terms.get(Weight.zero(2).twice, 0) == 1


def test_freudenthal_dimension_against_weyl_dim_formula(systems, extra_systems):
    # the product systems pin the coroot form's scale on each simple factor
    from dischar import coroot_pairing

    def weyl_dim(rs, lam_lowest):
        high = dominant_representative(rs, lam_lowest)
        num, den = Fraction(1), Fraction(1)
        for alpha in rs.positive_roots:
            num *= coroot_pairing(alpha, high + rs.rho)
            den *= coroot_pairing(alpha, rs.rho)
        return num / den

    every = dict(systems, **extra_systems)
    for name in ("A2", "B2", "G2", "B3", "C3", "A1xA1", "A1xA2", "D4", "F4"):
        rs = every[name]
        probes = [
            (0,) * (rs.rank - 1) + (-1,),
            (-2,) + (0,) * (rs.rank - 1),
            (-1,) * rs.rank if name != "F4" else (0, 0, -1, -1),  # F4's rho module has 2^24 weights
        ]
        if name.startswith("A1x"):
            probes.append((-3,) + (-1,) * (rs.rank - 1))
        for coords in probes:
            char = freudenthal_character(rs, Weight(coords))
            assert sum(char.terms.values()) == weyl_dim(rs, Weight(coords))


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2"])
def test_weyl_identity(name, systems, groups):
    rs, W = systems[name], groups[name]
    den = weyl_denominator(rs, W)
    lams = [Weight.zero(rs.rank), Weight((-1,) * rs.rank)]
    lams += [
        Weight(tuple(-2 if j == i else 0 for j in range(rs.rank)))
        for i in range(rs.rank)
    ]
    for lam in lams:
        assert product(freudenthal_character(rs, lam), den) == weyl_numerator(rs, W, lam)


@pytest.mark.parametrize("name", sorted(CARTAN))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_times_denominator_is_the_product_with_the_denominator(name, systems, groups, data):
    rs, W = systems[name], groups[name]
    weights = st.tuples(*[st.integers(-4, 4)] * rs.rank).map(lambda t: Weight(t).twice)
    char = FormalCharacter(data.draw(st.lists(st.tuples(weights, st.integers(-3, 3)),
                                              max_size=12)))
    assert times_denominator(rs, char) == product(char, weyl_denominator(rs, W))


@pytest.mark.parametrize("name", ["D4", "F4"])
def test_times_denominator_takes_freudenthal_to_the_numerator(name, extra_systems):
    # D4 over verify's whole sweep; F4 at -2 omega_i only: its rho module
    # (15,145 weights, seconds of work) stays out of this suite
    from dischar import generate
    from dischar.verify import _weyl_sweep

    rs = extra_systems[name]
    W = generate(rs)
    lams = _weyl_sweep(rs) if name == "D4" else _weyl_sweep(rs)[2:]
    for lam in lams:
        ch = freudenthal_character(rs, lam)
        assert times_denominator(rs, ch) == weyl_numerator(rs, W, lam), lam


def test_discrete_numerator_a1_noncompact(systems, groups):
    rs, W = systems["A1"], groups["A1"]
    grading = build_grading(rs, (-1,))
    kdata = weyl_k(rs, grading, W)
    num = discrete_numerator(grading, kdata, Weight((-2,)))
    assert num.terms == {Weight((-1,)).twice: -1}


def test_discrete_numerator_compact_degeneration(systems, groups):
    rs, W = systems["A2"], groups["A2"]
    grading = build_grading(rs, (1, 1))
    kdata = weyl_k(rs, grading, W)
    lam = Weight((-2, -2))
    # q = 0 and W_K = W: the elliptic numerator is the Weyl numerator at lam + rho
    assert discrete_numerator(grading, kdata, lam) == weyl_numerator(rs, W, lam + rs.rho)


def test_discrete_numerator_a2_mixed(systems, groups):
    rs, W = systems["A2"], groups["A2"]
    grading = build_grading(rs, (1, -1))
    kdata = weyl_k(rs, grading, W)
    num = discrete_numerator(grading, kdata, Weight((-2, -1)))
    assert len(num.terms) == 2
    assert sorted(num.terms.values()) == [-1, 1]


def test_discrete_numerator_rejects_bad_parameters(systems, groups):
    rs, W = systems["A1"], groups["A1"]
    grading = build_grading(rs, (-1,))
    kdata = weyl_k(rs, grading, W)
    with pytest.raises(NotStronglyAntidominant, match="^parameter must be strongly antidominant$"):
        discrete_numerator(grading, kdata, Weight((0,)))
    with pytest.raises(NotCompatible, match=r"^lam \+ rho must be integral$"):
        discrete_numerator(grading, kdata, Weight((Fraction(-3, 2),)))


def test_euler_character():
    assert euler_character(HomologyTable(rows={})).terms == {}
    single = HomologyTable.from_entries([(0, Weight((5,)))])
    assert euler_character(single).terms == {Weight((5,)): 1}
    # one weight in two degrees: same parity adds up, opposite parity cancels
    mu, nu = Weight((5,)), Weight((-1,))
    assert euler_character(HomologyTable(rows={0: (mu,), 2: (mu,)})).terms == {mu: 2}
    assert euler_character(HomologyTable(rows={1: (mu,), 3: (mu,)})).terms == {mu: -2}
    assert euler_character(HomologyTable(rows={1: (mu,), 2: (mu,)})).terms == {}
    mixed = HomologyTable(rows={0: (mu, nu), 1: (mu,), 2: (nu, nu)})
    assert euler_character(mixed).terms == {nu: 3}


def test_euler_of_kostant_equals_numerator(systems, groups):
    rs, W = systems["A1"], groups["A1"]
    lam = Weight((-1,))
    assert euler_character(kostant_table(rs, W, lam)) == weyl_numerator(rs, W, lam)


def test_sorted_terms_deterministic():
    char = FormalCharacter({Weight((1, 0)): 1, Weight((0, 1)): -1, Weight((-1, 2)): 2}.items())
    coords = [w.coords for w, _ in char.sorted_terms()]
    assert coords == sorted(coords)
