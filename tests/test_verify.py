import re

import pytest

from dischar import (
    TruncationTooLarge,
    Weight,
    build_grading,
    build_root_system,
    cli,
    generate,
    verify,
    weyl_k,
)
from dischar.cli import parse_config, run
from dischar.verify import SECTIONS
from dischar.weyl import reflect
from tests.conftest import EXTRA_CARTAN
from tests.helpers import solve_root_coords


def run_verify(cartan, compact_simple):
    """``verify.run_verify`` on the set-up the CLI builds for a configuration."""
    rs = build_root_system(cartan)
    grading = build_grading(rs, tuple(1 if c else -1 for c in compact_simple))
    return verify.run_verify(grading, weyl_k(rs, grading, generate(rs)))


def test_all_sections_pass_on_reference_configs():
    cases = [
        ([[2]], [False]),
        ([[2, -1], [-1, 2]], [True, False]),
        ([[2, -1], [-1, 2]], [True, True]),
        ([[2, -2], [-1, 2]], [False, True]),
        ([[2, 0], [0, 2]], [False, False]),
        (EXTRA_CARTAN["D4"], [True, True, True, False]),
        (EXTRA_CARTAN["D4"], [False, True, True, True]),
    ]
    for cartan, compact in cases:
        results = run_verify(cartan, compact)
        assert [r.name for r in results] == [name for name, _ in SECTIONS]
        assert all(r.passed for r in results), [r for r in results if not r.passed]


def test_oversized_oracle_walk_is_refused_before_any_section(monkeypatch):
    def not_reached(ctx):
        raise AssertionError("a section ran before the oracle walk was sized")

    monkeypatch.setattr(verify, "SECTIONS", tuple((name, not_reached) for name, _ in SECTIONS))
    f4 = [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]]
    with pytest.raises(TruncationTooLarge):
        run_verify(f4, [True, True, True, False])


def test_blattner_oracle_level_is_computed_once(monkeypatch):
    from dischar import blattner

    calls = []
    level = blattner._filtration_level

    def counted(*args):
        calls.append(args[3])
        return level(*args)

    monkeypatch.setattr(blattner, "_filtration_level", counted)
    results = run_verify([[2, -1], [-1, 2]], [True, False])
    assert all(r.passed for r in results)
    assert len(calls) == 1


def test_partitions_section_compares_every_level(monkeypatch):
    # reversing the levels keeps the graded sum, so only the per-level
    # comparison with the brute-force count can catch it
    exact = verify.partition_p

    def reversed_levels(grading, mu, p):
        return exact(grading, mu, int(sum(solve_root_coords(grading.rs, mu))) - p)

    monkeypatch.setattr(verify, "partition_p", reversed_levels)
    failed = [r for r in run_verify([[2, -1], [-1, 2]], [True, False]) if not r.passed]
    assert [(r.name, r.detail) for r in failed] == [("partitions", "P_p mismatch at (0, 1)")]


def test_weyl_group_section_counts_inversions(monkeypatch):
    def corrupted(rs):
        group = generate(rs)
        group.elements[3].length += 2  # s1*s2 in A2, parity kept
        return group

    monkeypatch.setattr(cli, "generate", corrupted)
    code, out = run("verify", parse_config({"cartan": [[2, -1], [-1, 2]],
                                            "compact_simple": [True, False]}))
    assert code == 2
    assert re.search(
        r"^FAIL weyl-group: word length of s1\*s2 disagrees with its inversion count$", out, re.M
    )


def test_weyl_group_section_compares_act_with_the_stored_image():
    # s1 and s2 of A2 trade w(rho): both still make one positive root
    # negative, the fibers are unchanged and dot_orbit reads only the words;
    # with W_K trivial every other section still passes
    rs = build_root_system([[2, -1], [-1, 2]])
    group = generate(rs)
    s1, s2 = group.elements[1:3]
    s1.rho_image, s2.rho_image = s2.rho_image, s1.rho_image
    grading = build_grading(rs, (-1, -1))
    failed = [r for r in verify.run_verify(grading, weyl_k(rs, grading, group)) if not r.passed]
    assert [(r.name, r.detail) for r in failed] == [
        ("weyl-group", "word of s1 does not take rho to its stored image")
    ]


def test_weyl_group_section_catches_a_word_applied_backwards(monkeypatch):
    # a word applied first letter first is w^-1: right on the involutions only
    def backwards(w, lam):
        vec = lam.twice
        for j in w.reduced_word:
            vec = reflect(w.reflections[j], vec)
        return Weight.from_twice(vec)

    monkeypatch.setattr(verify, "act", backwards)
    failed = [r for r in run_verify([[2, -1], [-1, 2]], [True, False]) if not r.passed]
    assert [(r.name, r.detail) for r in failed] == [
        ("weyl-group", "word of s1*s2 does not take rho to its stored image")
    ]


def test_grading_section_counts_compact_inversions(monkeypatch):
    def corrupted(rs, grading, group):
        kdata = weyl_k(rs, grading, group)
        return kdata._replace(lengthK=(0, 3))  # s1 in A2 with alpha1 compact, parity kept

    monkeypatch.setattr(cli, "weyl_k", corrupted)
    code, out = run("verify", parse_config({"cartan": [[2, -1], [-1, 2]],
                                            "compact_simple": [True, False]}))
    assert code == 2
    assert re.search(
        r"^FAIL grading: l_K of s1 disagrees with its compact inversion count$", out, re.M
    )


def test_weyl_identity_section_catches_one_wrong_multiplicity(monkeypatch):
    # multiplying by the denominator is injective, so one coefficient off by
    # one at lambda = -rho must show; no other section reads Freudenthal
    exact = verify.freudenthal_character

    def corrupted(rs, lam):
        char = exact(rs, lam)
        if lam == -rs.rho:
            char.terms[rs.rho.twice] += 1  # the highest weight of V(rho)
        return char

    monkeypatch.setattr(verify, "freudenthal_character", corrupted)
    code, out = run("verify", parse_config({"cartan": [[2, -1], [-1, 2]],
                                            "compact_simple": [True, False]}))
    assert code == 2
    lines = out.splitlines()
    assert lines[-1] == f"{len(SECTIONS) - 1}/{len(SECTIONS)} properties hold"
    assert [line for line in lines[:-1] if not line.startswith("PASS ")] == [
        "FAIL weyl-identity: character identity fails at ['-1', '-1']"
    ]
