"""No code path hashes a WeylElement.

W and W_K data are addressed by position in ``elements`` or by the integer
vector w(rho), never by an element.  With ``WeylElement.__hash__`` made to
raise, every command, ``verify`` and the whole-library sweep must still run
and give exactly what they give unpatched.
"""

import pytest

from dischar import (
    WeylElement,
    build_grading,
    build_root_system,
    discrete_numerator,
    enumerate_closed_orbits,
    euler_character,
    generate,
    kostant_table,
    kostant_via_bgg,
    schmid_table,
    schmid_via_trauber,
    weyl_denominator,
    weyl_k,
    weyl_numerator,
)
from dischar.cli import TABLES, parse_config, run
from tests.conftest import CARTAN, EXTRA_CARTAN
from tests.helpers import inverse

# (command, --which, --verify); every table command, each character kind
COMMAND_RUNS = [(command, "weyl", False) for command in TABLES if command != "character"]
COMMAND_RUNS += [("character", which, False) for which in ("denominator", "weyl", "discrete")]
COMMAND_RUNS += [("blattner", "weyl", True), ("verify", "weyl", False)]


def _mixed_signs(rank):
    # the last simple root noncompact, and every other one from the first on
    return sorted({
        tuple(-1 if i == rank - 1 else 1 for i in range(rank)),
        tuple(-1 if i % 2 == 0 else 1 for i in range(rank)),
    })


def _configs():
    for name, cartan in CARTAN.items():
        rank = len(cartan)
        for signs in _mixed_signs(rank):
            yield name, parse_config({
                "cartan": cartan,
                "compact_simple": [s == 1 for s in signs],
                "lambda": ["-2"] * rank,
                "nu_box": [["-3"] * rank, ["0"] * rank],
            })


def _command_outputs():
    return {
        (name, config.compact_simple, command, which): run(
            command, config._replace(which=which, with_oracle=oracle)
        )
        for name, config in _configs()
        for command, which, oracle in COMMAND_RUNS
    }


def _library_sweep():
    """The Weyl-group layers on F4 (+,+,+,-), as a library user calls them."""
    rs = build_root_system(EXTRA_CARTAN["F4"])
    group = generate(rs)
    grading = build_grading(rs, (1, 1, 1, -1))
    kdata = weyl_k(rs, grading, group)
    orbits = enumerate_closed_orbits(rs, grading, group, kdata)
    kostant_lam, schmid_lam = -rs.rho, -rs.rho - rs.rho
    kostant = kostant_table(rs, group, kostant_lam)
    schmid = [schmid_table(grading, kdata, orbit, schmid_lam) for orbit in orbits]
    return {
        "orbits": [(o.u.rho_image, [(w.rho_image, cell.rho_image, dim) for w, cell, dim
                                    in zip(kdata.elements, o.cells, kdata.lengthK)])
                   for o in orbits],
        "lengthK": kdata.lengthK,
        "kostant": kostant,
        "bgg": kostant_via_bgg(rs, group, kostant_lam),
        "numerator": weyl_numerator(rs, group, kostant_lam) == euler_character(kostant),
        "denominator": weyl_denominator(rs, group),
        "schmid": schmid,
        "trauber": [schmid_via_trauber(grading, kdata, o, schmid_lam) for o in orbits],
        "discrete": discrete_numerator(grading, kdata, schmid_lam),
        "euler": euler_character(schmid[0]),
        "inverses": [inverse(group, w).rho_image for w in group.elements],
    }


@pytest.fixture
def unhashable(monkeypatch):
    def refuse(self):
        raise AssertionError(f"{self!r} was hashed")

    def patch():
        monkeypatch.setattr(WeylElement, "__hash__", refuse)
        with pytest.raises(AssertionError, match="was hashed"):
            hash(generate(build_root_system([[2]])).elements[0])

    return patch


def test_commands_never_hash_an_element(unhashable):
    expected = _command_outputs()
    assert all(code == 0 for code, _output in expected.values())
    unhashable()
    assert _command_outputs() == expected


def test_library_sweep_never_hashes_an_element(unhashable):
    expected = _library_sweep()
    unhashable()
    assert _library_sweep() == expected
