"""The empty Cartan matrix must flow through every stage trivially."""

from dischar import (
    Weight,
    blattner_multiplicity,
    build_grading,
    build_root_system,
    enumerate_closed_orbits,
    freudenthal_character,
    generate,
    ktype_table,
    partition,
    schmid_table,
    schmid_via_trauber,
    weyl_k,
    weyl_numerator,
)


def test_rank_zero_pipeline():
    rs = build_root_system([])
    W = generate(rs)
    assert W.order == 1
    grading = build_grading(rs, ())
    assert grading.q == 0
    kdata = weyl_k(rs, grading, W)
    orbits = enumerate_closed_orbits(rs, grading, W, kdata)
    assert len(orbits) == 1

    lam = Weight(())
    assert weyl_numerator(rs, W, lam).terms == {lam.twice: 1}
    assert freudenthal_character(rs, lam).terms == {lam.twice: 1}
    table = schmid_table(grading, kdata, orbits[0], lam)
    assert table.rows == {0: (lam.twice,)}
    assert schmid_via_trauber(grading, kdata, orbits[0], lam) == table
    assert partition(grading, lam) == 1
    assert blattner_multiplicity(grading, kdata, lam, lam) == 1
    assert ktype_table(grading, kdata, lam, ((), ())).entries == {lam: 1}
