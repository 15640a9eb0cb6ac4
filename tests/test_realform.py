import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dischar import (
    IncompleteAssignment,
    InvariantViolation,
    Weight,
    act,
    build_grading,
    build_root_system,
    coroot_pairing,
    generate,
    validate_grading,
    weyl_k,
)
from dischar.verify import VerifyContext, _check_grading
from tests.conftest import CARTAN, EXTRA_CARTAN
from tests.helpers import compose, sign_by_root, simple_reflections
from tests.matrix_oracle import apply, word_matrices


def test_a1_noncompact():
    from dischar import build_root_system

    rs = build_root_system([[2]])
    grading = build_grading(rs, (-1,))
    assert grading.compact_positive == ()
    assert [r.root_coords for r in grading.noncompact_positive] == [(1,)]
    assert grading.rho_c == Weight((0,))
    assert grading.rho_n == rs.rho
    assert grading.q == 1


def test_a2_mixed(systems):
    rs = systems["A2"]
    grading = build_grading(rs, (1, -1))
    assert {r.root_coords for r in grading.compact_positive} == {(1, 0)}
    assert {r.root_coords for r in grading.noncompact_positive} == {(0, 1), (1, 1)}
    assert grading.q == 2


def test_all_compact(systems):
    for rs in systems.values():
        grading = build_grading(rs, (1,) * rs.rank)
        assert grading.noncompact_positive == ()
        assert grading.q == 0
        assert grading.rho_n == Weight.zero(rs.rank)


def test_sign_multiplicativity(systems):
    for name in ("A2", "B2", "G2", "B3"):
        rs = systems[name]
        for signs in itertools.product((1, -1), repeat=rs.rank):
            grading = build_grading(rs, signs)
            by_coords = {r.root_coords: s for r, s in sign_by_root(grading).items()}
            for a, sa in by_coords.items():
                for b, sb in by_coords.items():
                    total = tuple(x + y for x, y in zip(a, b))
                    if total in by_coords:
                        assert by_coords[total] == sa * sb


def test_rho_split(systems):
    for rs in systems.values():
        for signs in itertools.product((1, -1), repeat=rs.rank):
            grading = build_grading(rs, signs)
            assert grading.rho_c + grading.rho_n == rs.rho
            assert grading.q == len(grading.noncompact_positive)


def test_validate_grading_examples(systems):
    a1, a2 = systems["A1"], systems["A2"]
    r1, r2, r12 = (a2.by_root_coords.get(c) for c in ((1, 0), (0, 1), (1, 1)))

    assert validate_grading(a2, {r1: -1, r2: -1, r12: -1}) is False
    assert validate_grading(a2, {r1: 1, r2: -1, r12: -1}) is True
    assert validate_grading(a1, {a1.positive_roots[0]: -1}) is True
    assert validate_grading(a1, {a1.positive_roots[0]: 1}) is True


def test_validate_grading_incomplete(systems):
    a2 = systems["A2"]
    r1 = a2.by_root_coords.get((1, 0))
    with pytest.raises(IncompleteAssignment):
        validate_grading(a2, {r1: 1})


def test_validate_grading_fuzz(systems):
    rng = random.Random(23)
    for name in ("A2", "B2"):
        rs = systems[name]
        for _ in range(250):
            assignment = {r: rng.choice((1, -1)) for r in rs.positive_roots}
            derived = build_grading(
                rs, tuple(assignment[a] for a in rs.simple_roots)
            )
            expected = all(
                assignment[r] == s for r, s in sign_by_root(derived).items()
            )
            assert validate_grading(rs, assignment) is expected


def test_weyl_k_examples(systems, groups):
    a1, a2 = systems["A1"], systems["A2"]
    W1, W2 = groups["A1"], groups["A2"]

    k1 = weyl_k(a1, build_grading(a1, (-1,)), W1)
    assert k1.order == 1
    assert k1.elements == (W1.elements[0],) and k1.lengthK == (0,)

    grading = build_grading(a2, (1, -1))
    k2 = weyl_k(a2, grading, W2)
    assert k2.order == 2
    assert k2.elements == (W2.elements[0], simple_reflections(W2)[0]) and k2.lengthK == (0, 1)

    # simpleK is (alpha2, alpha1), so W_K = W as a set, in the closure's order:
    # l_K first, then ShortLex in simpleK letters: e, s2, s1, s2*s1, s1*s2, w0
    compact = weyl_k(a2, build_grading(a2, (1, 1)), W2)
    assert [r.root_coords for r in compact.simpleK] == [(0, 1), (1, 0)]
    assert compact.order == W2.order
    assert compact.elements == tuple(W2.elements[k] for k in (0, 2, 1, 4, 3, 5))
    assert [w.word_str() for w in compact.elements] == [
        "e", "s2", "s1", "s2*s1", "s1*s2", "s1*s2*s1"]
    assert compact.lengthK == (0, 1, 1, 2, 2, 3)


def test_weyl_k_refuses_an_image_outside_the_weyl_group(systems, groups):
    # the W_K closure finds each element in W by its w(rho); a group missing
    # one is refused as an invariant violation (exit 2), not a KeyError
    rs, W = systems["A2"], groups["A2"]
    s1 = simple_reflections(W)[0]
    partial = W._replace(by_rho={k: w for k, w in W.by_rho.items() if w is not s1})
    with pytest.raises(InvariantViolation, match="outside the Weyl group"):
        weyl_k(rs, build_grading(rs, (1, -1)), partial)


def test_sign_restriction_agreement(systems, groups):
    import itertools

    for name in ("A2", "B2", "G2", "A3"):
        rs, W = systems[name], groups[name]
        for signs in itertools.product((1, -1), repeat=rs.rank):
            kdata = weyl_k(rs, build_grading(rs, signs), W)
            assert len(kdata.lengthK) == kdata.order
            for w, length_k in zip(kdata.elements, kdata.lengthK):
                assert (-1) ** w.length == (-1) ** length_k
            assert W.order % kdata.order == 0


def test_rho_c_pairs_one_on_simple_k(systems, groups):
    import itertools

    for name in ("A2", "B2", "B3"):
        rs, W = systems[name], groups[name]
        for signs in itertools.product((1, -1), repeat=rs.rank):
            grading = build_grading(rs, signs)
            kdata = weyl_k(rs, grading, W)
            for alpha in kdata.simpleK:
                assert coroot_pairing(alpha, grading.rho_c) == 1


# every conftest system, D4 and F4, each under every simple-sign grading
KERNEL_TYPES = [*CARTAN, "D4", "F4"]


@pytest.fixture(scope="module")
def kernel_cases():
    """name -> (rs, W, {signs: kdata}) with W_K built on demand."""
    cartans = {**CARTAN, **EXTRA_CARTAN}
    cases = {}
    for name in KERNEL_TYPES:
        rs = build_root_system(cartans[name])
        W = generate(rs)
        cases[name] = (rs, W, {
            signs: weyl_k(rs, build_grading(rs, signs), W)
            for signs in itertools.product((1, -1), repeat=rs.rank)
        })
    return cases


@pytest.mark.parametrize("name", KERNEL_TYPES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_w_k_orbit_matches_act_elementwise(name, kernel_cases, data):
    rs, _W, by_signs = kernel_cases[name]
    kdata = by_signs[data.draw(st.sampled_from(sorted(by_signs)))]
    # mu anywhere in (1/2)Z^rank, drawn as its doubled coordinates
    mu = Weight.from_twice(data.draw(st.tuples(*[st.integers(-15, 15)] * rs.rank)))
    images = kdata.orbit(mu.twice)
    assert [Weight.from_twice(v) for v in images] == [act(w, mu) for w in kdata.elements]


@pytest.mark.parametrize("name", KERNEL_TYPES)
def test_w_k_orbit_matches_the_matrix_oracle(name, kernel_cases):
    # KWeylData.orbit and act share the reflection kernel, so the independent
    # check is the matrix of each element's W word
    rs, W, by_signs = kernel_cases[name]
    matrices = word_matrices({**CARTAN, **EXTRA_CARTAN}[name],
                             [w.reduced_word for w in W.elements])
    rng = random.Random(3)
    for kdata in by_signs.values():
        vec = tuple(rng.randint(-15, 15) for _ in range(rs.rank))
        assert kdata.orbit(vec) == [apply(matrices[w.reduced_word], vec) for w in kdata.elements]


@pytest.mark.parametrize("name", KERNEL_TYPES)
def test_length_k_is_the_compact_inversion_count(name, kernel_cases):
    # l_K is the depth in the W_K tree; verify's grading section counts the
    # compact positive roots each element makes negative
    rs, W, by_signs = kernel_cases[name]
    for signs, kdata in by_signs.items():
        grading = build_grading(rs, signs)
        assert kdata.lengthK == tuple(
            sum(w.rho_pairing(beta) < 0 for beta in grading.compact_positive)
            for w in kdata.elements
        )
        ctx = VerifyContext(grading, kdata, orbits=[], blattner_oracle=None)
        assert _check_grading(ctx) is None


def _reflection(rs, W, beta):
    # s_beta is the element with s_beta(rho) = rho - <beta-check, rho> beta
    value = coroot_pairing(beta, rs.rho)
    return W.by_rho[tuple(1 - value * c for c in beta.fw_coords)]


@pytest.mark.parametrize("name", KERNEL_TYPES)
def test_weyl_k_is_the_closure_of_the_compact_reflections(name, kernel_cases):
    rs, W, by_signs = kernel_cases[name]
    for signs, kdata in by_signs.items():
        # the closure under right multiplication by every compact positive reflection
        generators = [_reflection(rs, W, beta)
                      for beta in build_grading(rs, signs).compact_positive]
        members = {W.elements[0]}
        frontier = [W.elements[0]]
        while frontier:
            new_frontier = []
            for w in frontier:
                for g in generators:
                    product = compose(W, w, g)
                    if product not in members:
                        members.add(product)
                        new_frontier.append(product)
            frontier = new_frontier
        assert set(kdata.elements) == members
        # the closure's order: each element's word in simpleK letters, read off
        # the tree, comes by length, then lexicographically, and spells it
        words = [()]
        for parent, j in kdata.tree:
            words.append((j,) + words[parent])
        assert words == sorted(set(words), key=lambda word: (len(word), word))
        assert kdata.lengthK == tuple(map(len, words))
        simple = [_reflection(rs, W, beta) for beta in kdata.simpleK]
        for w, word in zip(kdata.elements, words):
            product = W.elements[0]
            for j in word:
                product = compose(W, product, simple[j])
            assert product is w


@pytest.mark.parametrize("name", KERNEL_TYPES)
def test_k_tree_parents_come_first(name, kernel_cases):
    # the format of W.tree: elements[k] = s_{simpleK[j]} * elements[parent], parent < k
    rs, W, by_signs = kernel_cases[name]
    for kdata in by_signs.values():
        assert len(kdata.tree) == kdata.order - 1
        for k, (w, (parent, j)) in enumerate(zip(kdata.elements[1:], kdata.tree), start=1):
            assert parent < k and kdata.elements[parent].length < w.length
            simple = _reflection(rs, W, kdata.simpleK[j])
            assert compose(W, simple, kdata.elements[parent]) is w
