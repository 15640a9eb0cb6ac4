"""Acceptance suite: one test per criterion, every check exact.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  All equalities are in rational arithmetic (tolerance zero);
the only numeric bounds are the stated runtime ceilings.
"""

import itertools
import json
import random
import subprocess
import sys
import time

import pytest

from dischar import (
    Weight,
    act,
    blattner_multiplicity,
    build_grading,
    build_root_system,
    coroot_pairing,
    enumerate_closed_orbits,
    euler_character,
    discrete_numerator,
    filtration_oracle,
    freudenthal_character,
    generate,
    kostant_table,
    kostant_via_bgg,
    ktype_table,
    partition,
    partition_p,
    schmid_table,
    schmid_via_trauber,
    validate_grading,
    weyl_denominator,
    weyl_k,
    weyl_numerator,
)
from tests.conftest import CARTAN
from tests.helpers import length_fiber, product, scaled, sign_by_root

SWEEP_LAMBDAS = {
    "A1": [(0,), (-1,), (-2,), (-3,), (-4,)],
    "A2": [(0, 0), (-1, 0), (0, -2), (-1, -1), (-2, -1), (-4, 0)],
    "B2": [(0, 0), (-1, 0), (0, -1), (-1, -2), (-2, -1), (0, -4)],
    "G2": [(0, 0), (-1, 0), (0, -1), (-1, -1), (-2, 0), (0, -2)],
    "A3": [(0, 0, 0), (-1, 0, 0), (0, -1, 0), (0, 0, -1), (-1, 0, -1), (-1, -1, -1)],
    "B3": [(0, 0, 0), (-1, 0, 0), (0, 0, -1), (0, -1, 0), (-1, 0, -1), (-1, -1, -1)],
    "C3": [(0, 0, 0), (-1, 0, 0), (0, 0, -1), (0, -1, 0), (-1, 0, -1), (-1, -1, -1)],
}

RANK_LE_3 = ("A1", "A1xA1", "A2", "B2", "G2", "A3", "B3", "C3")


def report(number: int, name: str) -> None:
    print(f"ACCEPTANCE PASS: criterion {number} ({name})")


@pytest.fixture(scope="module")
def built():
    systems = {name: build_root_system(cartan) for name, cartan in CARTAN.items()}
    groups = {name: generate(rs) for name, rs in systems.items()}
    return systems, groups


def random_strongly_antidominant(rs, rng):
    bump = Weight([-rng.randint(0, 2) for _ in range(rs.rank)])
    return -rs.rho + bump


def test_criterion_1_weyl_character_identity(built):
    systems, groups = built
    start = time.monotonic()
    for name, lams in SWEEP_LAMBDAS.items():
        rs, W = systems[name], groups[name]
        den = weyl_denominator(rs, W)
        assert len(lams) >= 5
        for coords in lams:
            assert all(-4 <= c <= 0 for c in coords)
            lam = Weight(coords)
            assert product(freudenthal_character(rs, lam), den) == weyl_numerator(rs, W, lam)
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"Weyl identity sweep took {elapsed:.1f}s"
    report(1, "Weyl character identity")


def test_criterion_2_kostant_consistency(built):
    systems, groups = built
    for name, lams in SWEEP_LAMBDAS.items():
        rs, W = systems[name], groups[name]
        for coords in lams:
            lam = Weight(coords)
            table = kostant_table(rs, W, lam)
            assert euler_character(table) == weyl_numerator(rs, W, lam)
            assert sum(len(row) for row in table.rows.values()) == W.order
            for p, row in table.rows.items():
                assert len(row) == len(length_fiber(W, p))
            assert kostant_via_bgg(rs, W, lam) == table
    report(2, "Kostant consistency and BGG pipeline")


def test_criterion_3_orbit_combinatorics(built):
    systems, groups = built
    start = time.monotonic()
    for name in RANK_LE_3:
        rs, W = systems[name], groups[name]
        for signs in itertools.product((1, -1), repeat=rs.rank):
            grading = build_grading(rs, signs)
            kdata = weyl_k(rs, grading, W)
            orbits = enumerate_closed_orbits(rs, grading, W, kdata)
            assert len(orbits) * kdata.order == W.order
            cells = [cell for orbit in orbits for cell in orbit.cells]
            assert len(cells) == W.order
            assert set(cells) == set(W.elements)
    elapsed = time.monotonic() - start
    assert elapsed < 30, f"orbit sweep took {elapsed:.1f}s"
    report(3, "closed-orbit count and coset partition")


def test_criterion_4_schmid_via_trauber(built):
    systems, groups = built
    rng = random.Random(2024)
    for name in RANK_LE_3:
        rs, W = systems[name], groups[name]
        for signs in itertools.product((1, -1), repeat=rs.rank):
            grading = build_grading(rs, signs)
            kdata = weyl_k(rs, grading, W)
            orbits = enumerate_closed_orbits(rs, grading, W, kdata)
            for _ in range(3):
                lam = random_strongly_antidominant(rs, rng)
                for orbit in orbits:
                    expected = schmid_table(grading, kdata, orbit, lam)
                    assert schmid_via_trauber(grading, kdata, orbit, lam) == expected
        # degenerate all-compact grading reproduces the Kostant degree pattern
        grading0 = build_grading(rs, (1,) * rs.rank)
        kdata0 = weyl_k(rs, grading0, W)
        orbit0 = enumerate_closed_orbits(rs, grading0, W, kdata0)[0]
        lam = random_strongly_antidominant(rs, rng)
        assert schmid_table(grading0, kdata0, orbit0, lam) == kostant_table(
            rs, W, lam + rs.rho
        )
    report(4, "Schmid table through the Trauber pipeline")


def test_criterion_5_elliptic_character_consistency(built):
    systems, groups = built
    rng = random.Random(515)
    for name in RANK_LE_3:
        rs, W = systems[name], groups[name]
        for signs in itertools.product((1, -1), repeat=rs.rank):
            grading = build_grading(rs, signs)
            kdata = weyl_k(rs, grading, W)
            orbits = enumerate_closed_orbits(rs, grading, W, kdata)
            base = orbits[0]
            assert base.u == W.elements[0]
            for _ in range(3):
                lam = random_strongly_antidominant(rs, rng)
                table = schmid_table(grading, kdata, base, lam)
                assert euler_character(table) == discrete_numerator(grading, kdata, lam)
    report(5, "elliptic numerator equals the homology Euler characteristic")


def test_criterion_6_blattner_equivalence(built):
    systems, groups = built
    start = time.monotonic()

    cases = [
        ("A1", (-1,), [(-2,), (-3,), (-4,)], ((-8,), (0,))),
        ("A2", (1, -1), [(-2, -1), (-1, -2), (-2, -2)], ((-8, -8), (0, 0))),
    ]
    for name, signs, lams, box in cases:
        rs, W = systems[name], groups[name]
        grading = build_grading(rs, signs)
        kdata = weyl_k(rs, grading, W)
        for coords in lams:
            lam = Weight(coords)
            table = ktype_table(grading, kdata, lam, box)
            assert all(m >= 0 for m in table.entries.values())
            lo, hi = box
            ranges = [range(int(a), int(b) + 1) for a, b in zip(lo, hi)]
            for point in itertools.product(*ranges):
                nu = Weight(point)
                if any(coroot_pairing(a, nu) > 0 for a in grading.compact_positive):
                    continue
                closed = blattner_multiplicity(grading, kdata, lam, nu)
                assert closed == filtration_oracle(grading, kdata, lam, nu)
                assert table.entries.get(nu, 0) == closed

    # sl(2,R): the table is exactly {lam - rho_n - k*alpha : k >= 0} -> 1
    rs, W = systems["A1"], groups["A1"]
    grading = build_grading(rs, (-1,))
    kdata = weyl_k(rs, grading, W)
    alpha = rs.positive_roots[0].weight()
    for coords in [(-2,), (-3,), (-4,)]:
        lam = Weight(coords)
        table = ktype_table(grading, kdata, lam, ((-12,), (0,)))
        expected = {}
        k = 0
        while True:
            nu = lam - grading.rho_n - scaled(alpha, k)
            if nu.coords[0] < -12:
                break
            expected[nu] = 1
            k += 1
        assert dict(table.entries) == expected

    elapsed = time.monotonic() - start
    assert elapsed < 60, f"Blattner sweep took {elapsed:.1f}s"
    report(6, "closed Blattner formula equals the filtration oracle")


def test_criterion_7_partition_function_correctness(built):
    systems, _ = built

    def enumeration_oracle(grading, target, parts=None):
        roots = [r.root_coords for r in grading.noncompact_positive]
        total = 0
        stack = [(0, tuple(target), 0)]
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

    for name in ("A1", "A2", "B2", "G2"):
        rs = systems[name]
        for signs in itertools.product((1, -1), repeat=rs.rank):
            grading = build_grading(rs, signs)
            assert partition(grading, Weight.zero(rs.rank)) == 1

            def ball(radius):
                def rec(prefix):
                    if len(prefix) == rs.rank:
                        yield tuple(prefix)
                        return
                    for c in range(radius + 1 - sum(prefix)):
                        yield from rec(prefix + [c])

                yield from rec([])

            for coords in ball(6):
                mu = Weight(
                    tuple(
                        sum(rs.cartan[i][j] * coords[j] for j in range(rs.rank))
                        for i in range(rs.rank)
                    )
                )
                expected = enumeration_oracle(grading, coords)
                assert partition(grading, mu) == expected
                for p in range(sum(coords) + 1):
                    assert partition_p(grading, mu, p) == enumeration_oracle(
                        grading, coords, p
                    )
            # off the cone
            off = -(rs.positive_roots[0].weight())
            assert partition(grading, off) == 0
    report(7, "partition functions match exhaustive enumeration")


def test_criterion_8_grading_validity(built):
    systems, _ = built
    rng = random.Random(88)
    for name in ("A2", "B2"):
        rs = systems[name]
        for signs in itertools.product((1, -1), repeat=rs.rank):
            generated = build_grading(rs, signs)
            assert validate_grading(rs, sign_by_root(generated)) is True
        for _ in range(500):
            assignment = {r: rng.choice((1, -1)) for r in rs.positive_roots}
            derived = build_grading(rs, tuple(assignment[a] for a in rs.simple_roots))
            multiplicative = all(
                assignment[r] == s for r, s in sign_by_root(derived).items()
            )
            assert validate_grading(rs, assignment) is multiplicative
    report(8, "grading validation accepts exactly the multiplicative assignments")


def test_criterion_9_determinism(tmp_path):
    config = {
        "cartan": [[2, -1], [-1, 2]],
        "compact_simple": [True, False],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    outputs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "dischar", "verify", "--config", str(path)],
            capture_output=True,
            check=False,
        )
        assert proc.returncode == 0, proc.stdout
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    report(9, "verify output byte-identical across runs")
