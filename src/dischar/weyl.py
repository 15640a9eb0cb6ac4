"""W and W_K on one reflection kernel: one record, one closure, one tree sweep.

A reflecting root is one record, its coroot and its root as sparse (k, value)
pairs on fundamental-weight coordinates; :func:`move` moves a vector of W or
W_K by a pairing that :func:`reflect` computes and :func:`close` takes from
its ascent test, and :func:`sweep` inlines it.  :func:`close` builds a group
on w(rho), one length at a time along ascents, into ShortLex order and a
(parent, letter) tree whose depth is the length: W from the simple roots
(:func:`generate`), W_K from the simple compact roots (``realform.weyl_k``).
:func:`sweep` walks such a tree, one reflection per element, on integer
tuples: ``KWeylData.orbit`` linearly, :func:`dot_orbit` about rho.

An element is its w(rho), which determines it because rho is regular, so
every lookup is keyed by that integer vector, never by an element.  A group
hands out one instance per element, so elements of one group compare by
identity; elements of two groups compare by ``rho_image``.  Each element also
carries its ShortLex word and the group's simple reflections, so :func:`act`
applies the word one :func:`reflect` per letter.  ``verify`` checks that word
action against the w(rho) the closure stored and against :func:`dot_orbit`;
the inversion counts are its length oracles.
"""

from __future__ import annotations

from operator import mul
from typing import Mapping, NamedTuple, Sequence

from .errors import DimensionMismatch, GroupTooLarge, InvariantViolation
from .rootdata import Root, RootSystem, Weight

IntVec = tuple[int, ...]
Sparse = tuple[tuple[int, int], ...]  # the nonzero (k, v[k]) of an fw-coordinate vector
Reflection = tuple[Sparse, Sparse]  # s_beta as the (coroot, root) of beta
Tree = tuple[tuple[int, int], ...]  # (parent, letter) for each element after the first

# elements one closure may build; |W| >= 2^rank, so the CLI admits rank 16 at most
MAX_WEYL_ORDER = 100_000


def reflection(beta: Root) -> Reflection:
    """The record of s_beta: the nonzero entries of beta's coroot and root."""
    return (tuple((k, c) for k, c in enumerate(beta.coroot_coords) if c),
            tuple((k, a) for k, a in enumerate(beta.fw_coords) if a))


def move(r: Reflection, vec: IntVec, value: int) -> IntVec:
    """vec - value * beta, for the beta of the record ``r``."""
    v = list(vec)
    for k, a in r[1]:
        v[k] -= value * a
    return tuple(v)


def reflect(r: Reflection, vec: IntVec) -> IntVec:
    """s_beta(vec) = vec - <beta-check, vec> beta."""
    value = 0
    for k, c in r[0]:
        value += c * vec[k]
    return move(r, vec, value)


def close(reflections: Sequence[Reflection], rank: int,
          limit: int) -> tuple[list[IntVec], list[IntVec], Tree]:
    """The w(rho), ShortLex words and tree of the group the simple ``reflections`` generate.

    s_j * p is longer than p exactly when <beta_j-check, p(rho)> > 0
    (Humphreys, *Reflection Groups and Coxeter Groups*, 1.6-1.7); only these
    ascents are followed, one length at a time, so depth is length.  Letters
    go outer and the previous length inner, so the words (j,) + word(p) come
    in lexicographic order and each element is found first by its ShortLex
    word (Bjorner-Brenti, *Combinatorics of Coxeter Groups*, ch. 3).  More
    than ``limit`` elements, or two longest, raise :class:`InvariantViolation`.
    """
    images, words, tree = [(1,) * rank], [()], []
    seen = set(images)
    start, end = 0, 1  # images[start:end] have the previous length
    while start < end:
        for j, r in enumerate(reflections):
            coroot = r[0]
            for p in range(start, end):
                image = images[p]
                value = 0
                for k, c in coroot:
                    value += c * image[k]
                if value > 0 and (key := move(r, image, value)) not in seen:
                    seen.add(key)
                    images.append(key)
                    words.append((j,) + words[p])
                    tree.append((p, j))
        if len(images) > limit:
            raise InvariantViolation(f"closure passes {limit} elements")
        if len(images) == end and end - start != 1:
            raise InvariantViolation("longest element is not unique")
        start, end = end, len(images)
    return images, words, tuple(tree)


def sweep(reflections: Sequence[Reflection], tree: Tree, vec: IntVec,
          about_rho: bool = False) -> list[IntVec]:
    """vec moved by each element of a :func:`close` tree, in its order, one reflection each.

    About rho, s_beta takes a doubled Y = 2 mu to Y - (<beta-check, Y> - <beta-check, 2 rho>)
    beta = 2(s_beta(mu - rho) + rho); <beta-check, 2 rho> is twice the coroot's height.
    """
    shifts = [2 * sum(c for _k, c in coroot) if about_rho else 0 for coroot, _ in reflections]
    images = [vec]
    for parent, j in tree:
        # the pairing and the move inline, so one pass per element
        (coroot, root), v = reflections[j], images[parent]
        value = -shifts[j]
        for k, c in coroot:
            value += c * v[k]
        v = list(v)
        for k, a in root:
            v[k] -= value * a
        images.append(tuple(v))
    return images


class WeylElement:
    """Group element: w(rho), one reduced word, length, and the group's simple reflections."""

    __slots__ = ("rho_image", "reduced_word", "length", "reflections")

    def __init__(self, rho_image: IntVec, reduced_word: IntVec,
                 reflections: tuple[Reflection, ...]) -> None:
        self.rho_image = rho_image
        self.reduced_word = reduced_word
        self.length = len(reduced_word)
        # one tuple shared by every element of the group
        self.reflections = reflections

    def rho_pairing(self, alpha: Root) -> int:
        """<alpha-check, w rho>: positive exactly when w^-1 alpha is a positive root."""
        return sum(map(mul, alpha.coroot_coords, self.rho_image))

    def word_str(self) -> str:
        """Render as "s1*s2*s1" with 1-based generator indices, "e" if trivial."""
        if not self.reduced_word:
            return "e"
        return "*".join(f"s{i + 1}" for i in self.reduced_word)

    def __repr__(self) -> str:
        return f"WeylElement({self.word_str()})"


class WeylGroup(NamedTuple):
    """The full Weyl group, closed under composition, canonically ordered.

    ``tree`` holds (parent, i) for each of ``elements[1:]``: the element is
    s_i * elements[parent], one longer.  ``by_rho`` finds an element from its w(rho).
    """

    rank: int
    elements: tuple[WeylElement, ...]
    by_rho: Mapping[IntVec, WeylElement]
    tree: Tree

    def __repr__(self) -> str:
        # the lookup map and the tree stay out of the repr
        return (
            f"WeylGroup(rank={self.rank!r}, elements={self.elements!r}, "
            f"order={self.order!r})"
        )

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def longest(self) -> WeylElement:
        return self.elements[-1]


def act_twice(w: WeylElement, vec: IntVec) -> IntVec:
    """w(vec) for an integer vector, doubled or not: one :func:`reflect` per letter."""
    for j in reversed(w.reduced_word):
        vec = reflect(w.reflections[j], vec)
    return vec


def act(w: WeylElement, lam: Weight) -> Weight:
    """Apply a Weyl element to a weight: :func:`act_twice` on 2 lam."""
    if lam.rank != len(w.rho_image):
        raise DimensionMismatch(
            f"rank {len(w.rho_image)} element applied to rank {lam.rank} weight"
        )
    return Weight.from_twice(act_twice(w, lam.twice))


def dot_orbit(group: WeylGroup, lam: Weight) -> list[IntVec]:
    """2(w(lam - rho) + rho) for every w, in ``group.elements`` order: 2 lam swept about rho.

    The sweep reads the simple reflection records every element of the group shares.
    """
    if lam.rank != group.rank:
        raise DimensionMismatch(f"rank {group.rank} group applied to rank {lam.rank} weight")
    return sweep(group.elements[0].reflections, group.tree, lam.twice, True)


def weyl_order(rs: RootSystem) -> int:
    """|W| = prod (m_i + 1) over the exponents m_i, read off the root heights.

    The exponents form the partition dual to the height distribution of the
    positive roots: as many exponents equal k as #{height k} - #{height k+1}
    (Kostant 1959; Humphreys, *Reflection Groups and Coxeter Groups*, 3.20).
    """
    heights = [alpha.height for alpha in rs.positive_roots]
    counts = [0] * (max(heights, default=0) + 2)
    for height in heights:
        counts[height] += 1
    order = 1
    for k in range(1, len(counts) - 1):
        order *= (k + 1) ** (counts[k] - counts[k + 1])
    return order


def generate(rs: RootSystem) -> WeylGroup:
    """W as the :func:`close` of the simple reflections.

    The order is predicted by :func:`weyl_order` and checked against
    ``MAX_WEYL_ORDER`` before any element is built; the closure must reach
    it exactly.
    """
    order = weyl_order(rs)
    if order > MAX_WEYL_ORDER:
        raise GroupTooLarge(f"Weyl group has {order} elements; the limit is {MAX_WEYL_ORDER}")
    simple = tuple(reflection(alpha) for alpha in rs.simple_roots)
    images, words, tree = close(simple, rs.rank, order)
    if len(images) != order:
        raise InvariantViolation(f"closure has {len(images)} elements, predicted {order}")
    elements = tuple([WeylElement(image, word, simple) for image, word in zip(images, words)])
    return WeylGroup(rank=rs.rank, elements=elements,
                     by_rho=dict(zip(images, elements)), tree=tree)
