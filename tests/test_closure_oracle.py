"""The descent-test closures against the set-based references of ``tests/helpers``.

``weyl.close`` tells a new element by the ShortLex descent test on its
pairing vector alone; ``reference_close`` keeps a set of every w(rho) it has
seen.  ``build_root_system`` reflects one coordinate of the root and of the
coroot; ``reference_roots`` builds each image whole from a queue.  Each pair
must agree on every element, word and tree, and on every root and coroot.
"""

import itertools
from functools import lru_cache

import pytest

import dischar.realform
import dischar.weyl
from dischar import (
    InvariantViolation,
    NotFiniteType,
    build_grading,
    build_root_system,
    generate,
    weyl_k,
)
from dischar.weyl import reflection
from tests.conftest import CARTAN, E6, EXTRA_CARTAN
from tests.helpers import reference_close, reference_roots
from tests.test_blattner import _block_diagonal


PRODUCTS = {"A1xB2": ("A1", "B2"), "G2xA2": ("G2", "A2"), "B2xA3": ("B2", "A3"),
            "A1xG2xA1": ("A1", "G2", "A1")}
CASES = {**CARTAN, **EXTRA_CARTAN, "E6": E6,
         **{name: _block_diagonal([CARTAN[f] for f in factors])
            for name, factors in PRODUCTS.items()}}


@lru_cache(maxsize=None)
def _closed(name):
    rs = build_root_system(CASES[name])
    return rs, generate(rs)


@pytest.mark.parametrize("name", CASES)
def test_generate_matches_the_set_closure(name):
    rs, W = _closed(name)
    simple = tuple(reflection(alpha) for alpha in rs.simple_roots)
    images, words, tree = reference_close(simple, rs.rank, W.order)
    assert [w.rho_image for w in W.elements] == images
    assert [w.reduced_word for w in W.elements] == words
    assert W.tree == tree


@pytest.mark.parametrize("name", CASES)
def test_weyl_k_matches_the_set_closure_under_every_grading(name):
    rs, W = _closed(name)
    for signs in itertools.product((1, -1), repeat=rs.rank):
        kdata = weyl_k(rs, build_grading(rs, signs), W)
        images, words, tree = reference_close(kdata.reflections, rs.rank, W.order)
        assert [w.rho_image for w in kdata.elements] == images, signs
        assert kdata.tree == tree, signs
        assert kdata.lengthK == tuple(map(len, words)), signs


@pytest.mark.parametrize("name", CASES)
def test_build_root_system_matches_the_queue_closure(name):
    rs = build_root_system(CASES[name])
    assert {r.root_coords: r.coroot_coords for r in rs.positive_roots} == reference_roots(
        rs.cartan)


@pytest.mark.parametrize(
    "cartan,message",
    [
        ([[2, 0], [-1, 2]], "mixed-sign vector"),
        # two hyperbolic blocks: det = 4 > 0, and the real roots never end
        ([[2, -3, 0, 0], [-2, 2, 0, 0], [0, 0, 2, -3], [0, 0, -2, 2]],
         "more than 10000 positive roots"),
    ],
    ids=["asymmetric-zero", "hyperbolic-pair"],
)
def test_root_closure_refuses_as_the_queue_closure_does(cartan, message):
    with pytest.raises(NotFiniteType, match=message) as ours:
        build_root_system(cartan)
    with pytest.raises(NotFiniteType) as reference:
        reference_roots(cartan)
    assert str(ours.value) == str(reference.value)


def test_generate_refuses_a_repeated_image(monkeypatch):
    rs = build_root_system(CARTAN["B3"])
    close = dischar.weyl.close

    def repeating(*args):
        images, words, tree = close(*args)
        return images[:-1] + images[:1], words, tree

    monkeypatch.setattr(dischar.weyl, "close", repeating)
    with pytest.raises(InvariantViolation,
                       match="^closure has 47 distinct elements, predicted 48$"):
        generate(rs)


def test_weyl_k_refuses_a_repeated_element(monkeypatch):
    rs, W = _closed("B3")
    close = dischar.realform.close

    def repeating(*args):
        images, words, tree = close(*args)
        return images + images[-1:], words + words[-1:], tree + tree[-1:]

    monkeypatch.setattr(dischar.realform, "close", repeating)
    with pytest.raises(InvariantViolation, match="^W_K has a repeated element$"):
        weyl_k(rs, build_grading(rs, (1, 1, -1)), W)
