import itertools
from collections import Counter
from fractions import Fraction

import pytest

import dischar.blattner
import dischar.characters
import dischar.homology
import dischar.weyl
from dischar import (
    HomologyTable,
    NotAntidominant,
    NotCompatible,
    NotIntegral,
    NotStronglyAntidominant,
    ParameterIncompatible,
    Weight,
    bgg_terms,
    build_grading,
    build_root_system,
    collapse,
    discrete_numerator,
    enumerate_closed_orbits,
    euler_character,
    generate,
    kostant_table,
    kostant_via_bgg,
    schmid_table,
    schmid_via_trauber,
    trauber_terms,
    weyl_k,
    weyl_numerator,
)
from tests.conftest import EXTRA_CARTAN
from tests.helpers import simple_reflections


def mixed_setup(systems, groups, name, signs):
    rs, W = systems[name], groups[name]
    grading = build_grading(rs, signs)
    kdata = weyl_k(rs, grading, W)
    orbits = enumerate_closed_orbits(rs, grading, W, kdata)
    return rs, W, grading, kdata, orbits


def test_kostant_a1(systems, groups):
    table = kostant_table(systems["A1"], groups["A1"], Weight((-1,)))
    assert table.rows == {0: (Weight((-1,)).twice,), 1: (Weight((3,)).twice,)}


def test_kostant_a2_row_sizes(systems, groups):
    table = kostant_table(systems["A2"], groups["A2"], Weight((-1, -1)))
    assert [len(table.rows[p]) for p in sorted(table.rows)] == [1, 2, 2, 1]


def test_kostant_rank_zero():
    rs = build_root_system([])
    from dischar import generate

    table = kostant_table(rs, generate(rs), Weight(()))
    assert table.rows == {0: (Weight(()).twice,)}


def test_kostant_rejects_dominant(systems, groups):
    with pytest.raises(NotAntidominant, match="^parameter must be antidominant$"):
        kostant_table(systems["A2"], groups["A2"], systems["A2"].rho)


def test_kostant_rejects_non_integral(systems, groups):
    lam = Weight((Fraction(-1, 2), -1))
    with pytest.raises(NotIntegral, match="^parameter must be integral$"):
        kostant_table(systems["A2"], groups["A2"], lam)
    with pytest.raises(NotIntegral, match="^parameter must be integral$"):
        bgg_terms(systems["A2"], groups["A2"], lam)


def test_schmid_a1_orbit_e(systems, groups):
    rs, W, grading, kdata, orbits = mixed_setup(systems, groups, "A1", (-1,))
    table = schmid_table(grading, kdata, orbits[0], Weight((-2,)))
    assert table.rows == {1: (Weight((-1,)).twice,)}


def test_schmid_a1_orbit_s(systems, groups):
    rs, W, grading, kdata, orbits = mixed_setup(systems, groups, "A1", (-1,))
    table = schmid_table(grading, kdata, orbits[1], Weight((-2,)))
    assert table.rows == {0: (Weight((3,)).twice,)}


def test_schmid_compact_degeneration(systems, groups):
    rs, W, grading, kdata, orbits = mixed_setup(systems, groups, "A2", (1, 1))
    lam = Weight((-2, -2))
    assert len(orbits) == 1
    table = schmid_table(grading, kdata, orbits[0], lam)
    assert table == kostant_table(rs, W, lam + rs.rho)


def test_schmid_rejects_bad_parameters(systems, groups):
    rs, W, grading, kdata, orbits = mixed_setup(systems, groups, "A1", (-1,))
    with pytest.raises(NotStronglyAntidominant, match="^parameter must be strongly antidominant$"):
        schmid_table(grading, kdata, orbits[0], Weight((0,)))
    with pytest.raises(NotCompatible, match=r"^lam \+ rho must be integral$"):
        schmid_table(grading, kdata, orbits[0], Weight((Fraction(-5, 2),)))


def test_bgg_terms_a1(systems, groups):
    rs, W = systems["A1"], groups["A1"]
    terms = bgg_terms(rs, W, Weight((-1,)))
    positions = {w.word_str(): p for w, (p, _d, _mu) in zip(W.elements, terms)}
    assert positions == {"s1": 0, "e": 1}


def test_bgg_terms_a2_sizes(systems, groups):
    rs, W = systems["A2"], groups["A2"]
    terms = bgg_terms(rs, W, Weight((-1, -1)))
    positions = [p for p, _d, _mu in terms]
    assert [positions.count(p) for p in range(4)] == [1, 2, 2, 1]
    for w, (p, _d, _mu) in zip(W.elements, terms):
        assert w.length == len(rs.positive_roots) - p


def test_bgg_terms_rank_zero():
    from dischar import generate

    rs = build_root_system([])
    terms = bgg_terms(rs, generate(rs), Weight(()))
    assert [p for p, _d, _mu in terms] == [0]


def test_trauber_terms(systems, groups):
    rs, W, grading, kdata, orbits = mixed_setup(systems, groups, "A1", (-1,))
    terms = trauber_terms(grading, kdata, orbits[0], Weight((-2,)))
    labels = [(w.word_str(), p) for w, (p, _d, _mu) in zip(kdata.elements, terms)]
    assert labels == [("e", 0)]

    rs2, W2, grading2, kdata2, orbits2 = mixed_setup(systems, groups, "A2", (1, -1))
    terms2 = trauber_terms(grading2, kdata2, orbits2[0], Weight((-2, -1)))
    positions2 = [p for p, _d, _mu in terms2]
    assert [positions2.count(p) for p in range(2)] == [1, 1]
    dim_q = len(grading2.compact_positive)
    for length_k, (p, _d, _mu) in zip(kdata2.lengthK, terms2):
        assert length_k == dim_q - p

    # all-compact degeneration has the BGG shape
    rs3, W3, grading3, kdata3, orbits3 = mixed_setup(systems, groups, "A2", (1, 1))
    terms3 = trauber_terms(grading3, kdata3, orbits3[0], Weight((-2, -2)))
    positions3 = [p for p, _d, _mu in terms3]
    assert [positions3.count(p) for p in range(4)] == [1, 2, 2, 1]


def test_bgg_term_degree_is_dim_x(systems, groups):
    rs, W = systems["A2"], groups["A2"]
    lam = Weight((-1, -1))
    terms = bgg_terms(rs, W, lam)
    from dischar import act

    for w, (_p, degree, weight) in zip(W.elements, terms):
        assert degree == 3
        assert weight == (act(w, lam - rs.rho) + rs.rho).twice


def test_trauber_term_degree(systems, groups):
    rs, W, grading, kdata, orbits = mixed_setup(systems, groups, "A1", (-1,))
    [(_p, degree, _mu)] = trauber_terms(grading, kdata, orbits[0], Weight((-2,)))
    assert degree == 1

    rs2, W2, grading2, kdata2, orbits2 = mixed_setup(systems, groups, "A2", (1, -1))
    s1 = simple_reflections(W2)[0]
    terms2 = trauber_terms(grading2, kdata2, orbits2[0], Weight((-2, -1)))
    degree2 = dict(zip(kdata2.elements, terms2))[s1][1]
    # dim X - l(s1 u) + l_K(s1) with u = e
    assert orbits2[0].u == W2.elements[0]
    assert degree2 == 3 - 1 + 1


def test_collapse_single_position():
    # each (position, degree, weight) term lands in degree - position
    mu, nu = Weight((4,)), Weight((-2,))
    table = collapse([(1, 3, mu), (0, 1, nu), (2, 3, nu)])
    assert table == HomologyTable.from_entries([(2, mu), (1, nu), (1, nu)])
    assert collapse([]) == HomologyTable(rows={})


def test_bgg_pipeline_reproduces_kostant(systems, groups):
    for name in ("A1", "A2", "B2"):
        rs, W = systems[name], groups[name]
        lam = Weight((-1,) * rs.rank)
        assert kostant_via_bgg(rs, W, lam) == kostant_table(rs, W, lam)


def test_trauber_pipeline_reproduces_schmid(systems, groups):
    for name, signs_list in (
        ("A1", [(-1,)]),
        ("A2", [(1, -1), (-1, 1), (-1, -1), (1, 1)]),
        ("B2", [(1, -1), (-1, 1), (-1, -1)]),
    ):
        rs, W = systems[name], groups[name]
        lam = -rs.rho - rs.rho
        for signs in signs_list:
            grading = build_grading(rs, signs)
            kdata = weyl_k(rs, grading, W)
            for orbit in enumerate_closed_orbits(rs, grading, W, kdata):
                expected = schmid_table(grading, kdata, orbit, lam)
                assert schmid_via_trauber(grading, kdata, orbit, lam) == expected


def test_schmid_euler_equals_discrete_numerator(systems, groups):
    rs, W, grading, kdata, orbits = mixed_setup(systems, groups, "A2", (1, -1))
    lam = Weight((-2, -1))
    table = schmid_table(grading, kdata, orbits[0], lam)
    assert euler_character(table) == discrete_numerator(grading, kdata, lam)


def test_schmid_table_size_and_degree_bounds(systems, groups):
    for name in ("A2", "B2", "G2"):
        rs, W = systems[name], groups[name]
        for signs in itertools.product((1, -1), repeat=rs.rank):
            grading = build_grading(rs, signs)
            kdata = weyl_k(rs, grading, W)
            lam = -rs.rho
            for orbit in enumerate_closed_orbits(rs, grading, W, kdata):
                table = schmid_table(grading, kdata, orbit, lam)
                assert table.total_multiplicity() == kdata.order
                dim_q = len(grading.compact_positive)
                for p in table.rows:
                    assert 0 <= p <= grading.q + 2 * dim_q


def test_whole_group_sweeps_make_no_dense_products(monkeypatch):
    rs = build_root_system(EXTRA_CARTAN["F4"])
    W = generate(rs)
    grading = build_grading(rs, (1, 1, 1, -1))
    kdata = weyl_k(rs, grading, W)
    orbits = enumerate_closed_orbits(rs, grading, W, kdata)
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    # an element's word applied to a weight, as a Weight or a doubled tuple;
    # characters and blattner bind neither
    for name in ("act", "act_twice"):
        wrapped = counted("act", getattr(dischar.weyl, name))
        for module in (dischar.weyl, dischar.homology, dischar.characters, dischar.blattner):
            monkeypatch.setattr(module, name, wrapped, raising=False)

    lam = -rs.rho
    kostant_table(rs, W, lam)
    bgg_terms(rs, W, lam)
    weyl_numerator(rs, W, lam)
    assert calls["act"] == 0
    schmid_table(grading, kdata, orbits[1], lam)
    trauber_terms(grading, kdata, orbits[1], lam)
    # the wrappers do see calls: each W_K table applies u to lam once, and
    # sweeps W_K for the rest
    assert calls["act"] == 2
    discrete_numerator(grading, kdata, lam)
    assert calls == {"act": 2}


def test_orbit_from_another_w_k_is_refused(systems, groups):
    rs, W = systems["A2"], groups["A2"]
    lam = -rs.rho
    ours = build_grading(rs, (1, -1))
    kdata = weyl_k(rs, ours, W)
    foreign = []
    for signs in ((-1, 1), (1, 1)):  # W_K = {e, s2}, and W_K = W
        grading = build_grading(rs, signs)
        foreign += enumerate_closed_orbits(rs, grading, W, weyl_k(rs, grading, W))[:1]
    for orbit in foreign:
        for sweep in (schmid_table, trauber_terms, schmid_via_trauber):
            with pytest.raises(
                ParameterIncompatible, match="^orbit strata are not indexed by the elements of W_K$"
            ):
                sweep(ours, kdata, orbit, lam)


def test_orbit_from_a_rebuilt_equal_w_k_is_accepted(systems):
    # a new W_K tuple, from a new W, takes the comparison by w(rho) and passes it
    rs = systems["B3"]
    W = generate(rs)
    grading = build_grading(rs, (1, -1, 1))
    kdata = weyl_k(rs, grading, W)
    lam = -rs.rho - rs.rho
    rebuilt = weyl_k(rs, grading, generate(rs))
    for orbit, again in zip(enumerate_closed_orbits(rs, grading, W, kdata),
                            enumerate_closed_orbits(rs, grading, rebuilt.weyl, rebuilt)):
        assert orbit.elements is not rebuilt.elements
        table = schmid_table(grading, kdata, orbit, lam)
        assert schmid_table(grading, rebuilt, orbit, lam) == table
        assert schmid_via_trauber(grading, rebuilt, orbit, lam) == table
        assert schmid_table(grading, kdata, again, lam) == table


def test_orbit_from_a_foreign_w_k_of_the_same_order_is_refused(systems, groups):
    # both W_K have order 4 and start at e, so only their later elements differ
    rs, W = systems["A3"], groups["A3"]
    ours = build_grading(rs, (1, -1, 1))
    kdata = weyl_k(rs, ours, W)
    grading = build_grading(rs, (-1, 1, -1))
    foreign = enumerate_closed_orbits(rs, grading, W, weyl_k(rs, grading, W))
    for orbit in foreign:
        assert len(orbit.elements) == kdata.order == 4
        assert orbit.elements[0] is kdata.elements[0]
        for sweep in (schmid_table, trauber_terms, schmid_via_trauber):
            with pytest.raises(
                ParameterIncompatible, match="^orbit strata are not indexed by the elements of W_K$"
            ):
                sweep(ours, kdata, orbit, -rs.rho)


def test_tables_and_numerators_build_no_weight(monkeypatch):
    # the rows and terms stay doubled integer tuples; a Weight is built only
    # where a table or a character is rendered
    rs = build_root_system(EXTRA_CARTAN["F4"])
    W = generate(rs)
    grading = build_grading(rs, (1, 1, 1, -1))
    kdata = weyl_k(rs, grading, W)
    orbits = enumerate_closed_orbits(rs, grading, W, kdata)
    lams = [-rs.rho, -rs.rho - rs.rho]
    built = Counter()
    init, from_twice = Weight.__init__, Weight.from_twice.__func__

    def counted_init(self, coords):
        built["__init__"] += 1
        init(self, coords)

    def counted_from_twice(cls, twice):
        built["from_twice"] += 1
        return from_twice(cls, twice)

    monkeypatch.setattr(Weight, "__init__", counted_init)
    monkeypatch.setattr(Weight, "from_twice", classmethod(counted_from_twice))
    for lam in lams:
        kostant_table(rs, W, lam)
        kostant_via_bgg(rs, W, lam)
        weyl_numerator(rs, W, lam)
        discrete_numerator(grading, kdata, lam)
        for orbit in orbits:
            schmid_table(grading, kdata, orbit, lam)
            schmid_via_trauber(grading, kdata, orbit, lam)
    assert built == Counter()
    # the counters see a construction of either kind
    -Weight((0, 0, 0, 1))
    assert built == {"__init__": 1, "from_twice": 1}
