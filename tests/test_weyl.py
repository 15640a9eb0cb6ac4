import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dischar.weyl
from dischar import (
    DimensionMismatch,
    GroupTooLarge,
    InvariantViolation,
    Weight,
    act,
    build_root_system,
    dot_orbit,
    generate,
    weyl_order,
)
from dischar.rootdata import _det
from tests.conftest import CARTAN, E7, EXTRA_CARTAN
from tests.helpers import compose, inverse, length_fiber, simple_reflections
from tests.matrix_oracle import (
    apply,
    identity,
    matmul,
    matrix_closure,
    matrix_inversion_count,
    simple_reflection_matrices,
    word_matrices,
    word_matrix,
)


@pytest.mark.parametrize(
    "name,order",
    [("A1", 2), ("A2", 6), ("B2", 8), ("G2", 12), ("A3", 24), ("B3", 48), ("C3", 48)],
)
def test_group_orders(name, order, groups):
    assert groups[name].order == order


ORDERS = {"A1": 2, "A1xA1": 4, "A2": 6, "B2": 8, "G2": 12, "A3": 24, "B3": 48, "C3": 48,
          "D4": 192, "F4": 1152, "A1xA2": 12, "B3perm": 48}
E6 = [[2, 0, -1, 0, 0, 0], [0, 2, 0, -1, 0, 0], [-1, 0, 2, -1, 0, 0],
      [0, -1, -1, 2, -1, 0], [0, 0, 0, -1, 2, -1], [0, 0, 0, 0, -1, 2]]


@pytest.mark.parametrize("name", ORDERS)
def test_weyl_order_predicts_the_closure(name):
    rs = build_root_system({**CARTAN, **EXTRA_CARTAN}[name])
    group = generate(rs)
    assert weyl_order(rs) == group.order == len(group.elements) == ORDERS[name]


def test_weyl_order_of_e6_e7_and_rank_zero():
    assert weyl_order(build_root_system(E6)) == 51_840
    assert weyl_order(build_root_system(E7)) == 2_903_040
    assert weyl_order(build_root_system([])) == 1


def test_too_large_group_is_refused_before_any_element(monkeypatch):
    def not_built(*args):
        raise AssertionError("an element was built before the order was checked")

    monkeypatch.setattr(dischar.weyl, "WeylElement", not_built)
    with pytest.raises(GroupTooLarge, match="2903040"):
        generate(build_root_system(E7))


@pytest.mark.parametrize("wrong", [47, 49], ids=["closure-passes-it", "closure-falls-short"])
def test_closure_must_reach_the_predicted_order(monkeypatch, systems, wrong):
    monkeypatch.setattr(dischar.weyl, "weyl_order", lambda rs: wrong)
    with pytest.raises(InvariantViolation):
        generate(systems["B3"])


def test_act_examples(systems, groups):
    a1, a2 = systems["A1"], systems["A2"]
    W1, W2 = groups["A1"], groups["A2"]
    lam = Weight((-2,))
    assert act(W1.elements[0], lam) == lam
    assert act(W1.elements[1], lam) == Weight((2,))
    assert act(simple_reflections(W2)[0], a2.rho) == Weight((-1, 2))


def test_act_dimension_mismatch(groups):
    with pytest.raises(DimensionMismatch):
        act(groups["A2"].elements[0], Weight((1,)))


@pytest.mark.parametrize("ours,theirs", [("A2", "A3"), ("A3", "A2"), ("A1", "A2"), ("A2", "A1")])
def test_act_and_multiply_refuse_another_rank(groups, ours, theirs):
    W, V = groups[ours], groups[theirs]
    lam = Weight((-1,) * V.rank)
    for w in W.elements:
        with pytest.raises(
            DimensionMismatch, match=rf"^rank {W.rank} element applied to rank {V.rank} weight$"
        ):
            act(w, lam)
        # composition applies one element to the other's w(rho)
        for v in V.elements:
            for a, b in ((w, v), (v, w)):
                with pytest.raises(DimensionMismatch, match=(
                    rf"^rank {len(a.rho_image)} element applied to rank {len(b.rho_image)} weight$"
                )):
                    compose(W, a, b)


# every conftest system, D4, F4 and rank 0
DOT_TYPES = [*CARTAN, "D4", "F4", "rank0"]


@pytest.fixture(scope="module")
def dot_cases():
    cartans = {**CARTAN, **EXTRA_CARTAN, "rank0": []}
    rss = {name: build_root_system(cartans[name]) for name in DOT_TYPES}
    return {name: (rs, generate(rs)) for name, rs in rss.items()}


@pytest.mark.parametrize("name", DOT_TYPES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_dot_orbit_matches_act_elementwise(name, dot_cases, data):
    rs, W = dot_cases[name]
    # lam anywhere in (1/2)Z^rank, drawn as its doubled coordinates
    lam = Weight.from_twice(data.draw(st.tuples(*[st.integers(-15, 15)] * rs.rank)))
    images = dot_orbit(W, lam)
    assert len(images) == W.order
    for w, image in zip(W.elements, images):
        assert image == (act(w, lam - rs.rho) + rs.rho).twice


@pytest.mark.parametrize("name", DOT_TYPES)
def test_dot_orbit_matches_the_matrix_oracle(name, dot_cases):
    # dot_orbit and act share the reflection kernel, so the independent
    # check is the matrix of each element's word: w(lam - rho) + rho
    rs, W = dot_cases[name]
    matrices = word_matrices({**CARTAN, **EXTRA_CARTAN, "rank0": []}[name],
                             [w.reduced_word for w in W.elements])
    rng = random.Random(5)
    for _ in range(3):
        twice = tuple(rng.randint(-15, 15) for _ in range(rs.rank))
        shifted = tuple(c - 2 for c in twice)  # 2 (lam - rho)
        images = [apply(matrices[w.reduced_word], shifted) for w in W.elements]
        expected = [tuple(c + 2 for c in v) for v in images]
        assert dot_orbit(W, Weight.from_twice(twice)) == expected


def test_dot_orbit_dimension_mismatch(systems, groups):
    with pytest.raises(DimensionMismatch):
        dot_orbit(groups["A2"], Weight((1,)))


def test_dot_orbit_reuses_the_group_reflections(monkeypatch, systems, groups):
    # the records are built once, by generate; dot_orbit builds none of its own
    rs, W = systems["B3"], groups["B3"]
    lam = Weight((-2, 1, -3))
    expected = dot_orbit(W, lam)

    def refuse(beta):
        raise AssertionError("dot_orbit rebuilt a reflection record")

    monkeypatch.setattr(dischar.weyl, "reflection", refuse)
    assert dot_orbit(W, lam) == expected
    with pytest.raises(AssertionError, match="rebuilt"):
        generate(rs)


def test_tree_parents_are_the_word_suffixes(groups):
    # the left tree: w = s_word[0] * parent, and the parent's word is word[1:]
    for W in groups.values():
        assert len(W.tree) == W.order - 1
        for k, (w, (parent, i)) in enumerate(zip(W.elements[1:], W.tree), start=1):
            assert parent < k and i == w.reduced_word[0]
            assert W.elements[parent].reduced_word == w.reduced_word[1:]
            assert compose(W, simple_reflections(W)[i], W.elements[parent]) is w


def test_e6_closes_with_certified_lengths():
    rs = build_root_system(E6)
    W = generate(rs)
    assert W.order == len(W.elements) == 51_840
    w0 = W.longest
    assert w0.length == 36 == len(rs.positive_roots)
    assert sum(w.length == 36 for w in W.elements) == 1
    assert w0.rho_image == (-1,) * 6
    fiber_sizes = Counter(w.length for w in W.elements)
    fibers = [fiber_sizes[p] for p in range(37)]
    assert sum(fibers) == W.order and fibers == fibers[::-1]
    # the dense-matrix oracle on a seeded sample, the simple reflections and w0;
    # each word's matrix is its prefix's times one generator, shared prefixes once
    gens = simple_reflection_matrices(E6)
    matrices = {(): identity(6)}

    def matrix_of(word):
        if word not in matrices:
            matrices[word] = matmul(matrix_of(word[:-1]), gens[word[-1]])
        return matrices[word]

    sample = {*random.Random(36).sample(W.elements, 2000), *simple_reflections(W), w0}
    for w in sample:
        m = matrix_of(w.reduced_word)
        assert w.rho_image == tuple(sum(row) for row in m)
        assert matrix_inversion_count(rs, m) == w.length


def test_length_fibers_a2(groups):
    W = groups["A2"]
    assert length_fiber(W, 0) == (W.elements[0],)
    assert length_fiber(W, 1) == simple_reflections(W)
    assert length_fiber(W, 4) == ()
    assert length_fiber(W, -1) == ()


def test_sign_examples(groups):
    W = groups["A2"]
    assert (-1) ** W.elements[0].length == 1
    assert all((-1) ** s.length == -1 for s in simple_reflections(W))
    assert W.longest.length == 3
    assert (-1) ** W.longest.length == -1


def test_sign_matches_determinant(groups):
    for name, W in groups.items():
        for w in W.elements:
            assert (-1) ** w.length == _det(word_matrix(CARTAN[name], w.reduced_word))


def test_palindromic_length_fibers(groups):
    for W in groups.values():
        top = W.longest.length
        fibers = [len(length_fiber(W, p)) for p in range(top + 1)]
        assert sum(fibers) == W.order
        assert fibers == fibers[::-1]


def test_inverse_roundtrip(groups):
    rng = random.Random(11)
    for W in groups.values():
        for _ in range(3):
            lam = Weight([rng.randint(-9, 9) for _ in range(W.rank)])
            for w in W.elements:
                assert act(w, act(inverse(W, w), lam)) == lam


def test_reduced_words_compose_to_matrix(groups):
    for name, W in groups.items():
        simple = simple_reflections(W)
        for w in W.elements:
            product = W.elements[0]
            for i in w.reduced_word:
                product = compose(W, product, simple[i])
            assert product is w
            assert w.length == len(w.reduced_word)


def test_equality_is_by_matrix(groups):
    W = groups["A2"]
    s1, s2 = simple_reflections(W)
    # s1 s2 s1 == s2 s1 s2 in A2 even though the words differ
    a = compose(W, compose(W, s1, s2), s1)
    b = compose(W, compose(W, s2, s1), s2)
    assert a.rho_image == b.rho_image
    assert a is b  # canonical element storage


def test_word_rendering(groups):
    W = groups["A2"]
    assert W.elements[0].word_str() == "e"
    assert W.elements[1].word_str() == "s1"
    assert W.longest.word_str().count("*") == 2


# --- the dense-matrix closure of tests/matrix_oracle.py as the oracle ------


ORACLE_TYPES = ["A1", "A2", "B2", "G2", "A3", "B3", "C3", "D4", "F4", "A1xA2", "B3perm"]


@pytest.fixture(scope="module")
def oracle_cases():
    """Each type's group, its matrix closure and the oracle matrix of every element's word."""
    cartans = dict(CARTAN, **EXTRA_CARTAN)
    cases = {}
    for name in ORACLE_TYPES:
        rs = build_root_system(cartans[name])
        W = generate(rs)
        oracle = matrix_closure(cartans[name])
        by_word = {word: m for m, word in oracle.items()}
        matrices = {w: by_word.get(w.reduced_word) for w in W.elements}
        cases[name] = (rs, W, oracle, cartans[name], matrices)
    return cases


@pytest.mark.parametrize("name", ORACLE_TYPES)
def test_generate_matches_matrix_closure(name, oracle_cases):
    rs, W, oracle, cartan, matrices = oracle_cases[name]
    assert W.order == len(oracle)
    # every word is the oracle's word of some matrix, and the matrices are all of W
    assert None not in matrices.values()
    assert set(matrices.values()) == set(oracle)
    gens = simple_reflection_matrices(cartan)
    assert [matrices[s] for s in simple_reflections(W)] == gens
    # a half-integral weight, as its doubled coordinates
    lam = Weight.from_twice(tuple(range(1 - 2 * W.rank, 1, 2)))
    for w in W.elements:
        m = matrices[w]
        assert w.reduced_word == oracle[m]
        assert m == word_matrix(cartan, w.reduced_word)
        assert w.length == matrix_inversion_count(rs, m)
        assert w.rho_image == tuple(sum(row) for row in m)
        assert W.by_rho[w.rho_image] is w
        assert matmul(m, matrices[inverse(W, w)]) == identity(W.rank)
        assert act(w, lam).twice == apply(m, lam.twice)
        assert (-1) ** w.length == _det(m)


@pytest.mark.parametrize("name", ORACLE_TYPES)
def test_multiply_matches_matrix_product(name, oracle_cases):
    _rs, W, _oracle, _cartan, matrices = oracle_cases[name]
    if W.order <= 48:
        pairs = [(a, b) for a in W.elements for b in W.elements]
    else:
        rng = random.Random(2024)
        pairs = [(rng.choice(W.elements), rng.choice(W.elements)) for _ in range(2000)]
    for a, b in pairs:
        assert matrices[compose(W, a, b)] == matmul(matrices[a], matrices[b])


def test_det_matches_leibniz_expansion():
    from itertools import permutations

    def leibniz(m):
        n = len(m)
        total = 0
        for perm in permutations(range(n)):
            inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
            term = -1 if inversions % 2 else 1
            for i in range(n):
                term *= m[i][perm[i]]
            total += term
        return total

    rng = random.Random(5)
    for n in range(5):
        for _ in range(40):
            m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            if n and rng.random() < 0.2:
                m[rng.randrange(n)] = [0] * n
            assert _det(m) == leibniz(m)
