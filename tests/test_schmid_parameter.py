"""One discrete-series parameter check for every layer that takes lam.

The Schmid table, the elliptic numerator and the Blattner layer (closed
formula and oracle) all call ``rootdata.check_schmid_parameter``, so they
accept the same lam and refuse the rest with the same error class and
message.  The accepted set is the one written out below from every positive
coroot: lam regular and antidominant, no pairing zero or a positive integer,
with lam + rho integral.  For integral lam that is strong antidominance,
which the check reads off the simple coordinates alone.
"""

from functools import cache
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dischar import (
    ValidationError,
    Weight,
    blattner_multiplicity,
    build_grading,
    build_root_system,
    discrete_numerator,
    enumerate_closed_orbits,
    filtration_oracle,
    filtration_table,
    generate,
    ktype_table,
    schmid_table,
    weyl_k,
)
from tests.conftest import CARTAN, EXTRA_CARTAN

NAMES = sorted(CARTAN) + ["D4"]


@cache
def _setup(name, signs):
    rs = build_root_system({**CARTAN, **EXTRA_CARTAN}[name])
    group = generate(rs)
    grading = build_grading(rs, signs)
    kdata = weyl_k(rs, grading, group)
    return rs, grading, kdata, enumerate_closed_orbits(rs, grading, group, kdata)[0]


def _regular_antidominant_integral(rs, lam):
    twice = [sum(map(mul, alpha.coroot_coords, lam.twice)) for alpha in rs.positive_roots]
    return (0 not in twice and not any(t >= 2 and not t & 1 for t in twice)
            and lam.is_integral())


def _outcome(call):
    try:
        call()
    except ValidationError as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_every_layer_accepts_the_same_lam(name, data):
    rank = len({**CARTAN, **EXTRA_CARTAN}[name])
    signs = data.draw(st.tuples(*[st.sampled_from((1, -1))] * rank))
    rs, grading, kdata, orbit = _setup(name, signs)
    # doubled coordinates: half the draws are a valid coordinate -1, -2 or -3
    coordinate = st.one_of(st.integers(-3, -1).map(lambda c: 2 * c), st.integers(-7, 3))
    lam = Weight.from_twice(data.draw(st.tuples(*[coordinate] * rank)))
    nu = -rs.rho
    box = (nu.coords, nu.coords)
    outcomes = {
        "schmid_table": _outcome(lambda: schmid_table(grading, kdata, orbit, lam)),
        "discrete_numerator": _outcome(lambda: discrete_numerator(grading, kdata, lam)),
        "ktype_table": _outcome(lambda: ktype_table(grading, kdata, lam, box)),
        "blattner_multiplicity": _outcome(
            lambda: blattner_multiplicity(grading, kdata, lam, nu)),
        "filtration_oracle": _outcome(lambda: filtration_oracle(grading, kdata, lam, nu)),
        "filtration_table": _outcome(lambda: filtration_table(grading, kdata, lam, box)),
    }
    assert len(set(outcomes.values())) == 1, outcomes
    assert (outcomes["schmid_table"] is None) == _regular_antidominant_integral(rs, lam)
