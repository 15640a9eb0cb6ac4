"""The records are NamedTuples: read-only, hashed and compared as tuples.

A NamedTuple also brings tuple behaviour to every record (``len``,
iteration, ``+``, ``<``).  No code may rely on it: fields are read by name.
"""

import pytest

from dischar import (
    Root,
    Weight,
    build_grading,
    enumerate_closed_orbits,
    kostant_table,
    ktype_table,
    weyl_k,
)
from dischar.cli import JobConfig
from dischar.verify import CheckResult, VerifyContext
from tests.helpers import sign_by_root


def test_root_hashes_and_compares_by_its_coordinates(systems):
    rs = systems["B3"]
    signs = sign_by_root(build_grading(rs, (1, 1, -1)))
    for alpha in rs.positive_roots:
        copy = Root(alpha.root_coords, alpha.fw_coords, alpha.coroot_coords)
        assert copy is not alpha
        assert copy == alpha and hash(copy) == hash(alpha)
        assert signs[copy] == signs[alpha]
        flipped = tuple(-c for c in alpha.coroot_coords)
        assert Root(alpha.root_coords, alpha.fw_coords, flipped) != alpha
    assert len(set(rs.positive_roots)) == len(rs.positive_roots)


def _records(systems, groups):
    rs, group = systems["A2"], groups["A2"]
    grading = build_grading(rs, (1, -1))
    kdata = weyl_k(rs, grading, group)
    orbits = enumerate_closed_orbits(rs, grading, group, kdata)
    lam = Weight((-2, -1))
    return [
        rs.positive_roots[0],
        rs,
        group,
        grading,
        kdata,
        orbits[0],
        kostant_table(rs, group, Weight((-1, -1))),
        ktype_table(grading, kdata, lam, ((-3, -3), (0, 0))),
        CheckResult("grading", True),
        VerifyContext(grading, kdata, orbits, 0),
        JobConfig(cartan=rs.cartan, compact_simple=(True, False), lam=lam),
    ]


def test_every_record_is_read_only(systems, groups):
    records = _records(systems, groups)
    assert len({type(r) for r in records}) == 11
    for record in records:
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        # no __dict__: nothing can be attached either
        with pytest.raises(AttributeError):
            record.memo = {}


def test_repr_leaves_out_the_lookup_maps(systems, groups):
    rs, group = systems["A2"], groups["A2"]
    text = repr(rs)
    assert text.startswith("RootSystem(rank=2, cartan=((2, -1), (-1, 2)), positive_roots=(")
    assert not any(name in text for name in ("cartan_det", "cartan_adj", "by_root_coords"))
    assert "{" not in text
    text = repr(group)
    assert text.startswith("WeylGroup(rank=2, elements=(WeylElement(e), ")
    assert "order=6" in text
    assert not any(name in text for name in ("by_rho", "inverses", "tree", "{"))
    kdata = weyl_k(rs, build_grading(rs, (1, -1)), group)
    text = repr(kdata)
    assert text.startswith("KWeylData(weyl=WeylGroup(rank=2, ")
    assert "lengthK=(0, 1)" in text
    assert "tree" not in text


def test_trees_are_tuples_of_int_tuples(systems, groups):
    # the records stay read-only all the way down
    rs, group = systems["B3"], groups["B3"]
    kdata = weyl_k(rs, build_grading(rs, (1, 1, -1)), group)
    for tree in (group.tree, kdata.tree):
        assert type(tree) is tuple and len(tree) > 0
        for entry in tree:
            assert type(entry) is tuple and len(entry) == 2
            assert all(type(x) is int for x in entry)
