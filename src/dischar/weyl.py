"""Weyl group generation by breadth-first closure over simple reflections.

An element is identified by w(rho), which determines w because rho is
regular, and the group's lookups are keyed by that integer vector, never by
an element.  A group hands out one instance per element, so elements of one
group compare by identity; elements of two groups compare by ``rho_image``.
Each element also carries its ShortLex reduced word (the lexicographically
least of its shortest words) and one reference, shared by the whole group,
to the simple roots, so :func:`act` applies the word one simple reflection
at a time.

:func:`generate` closes W on w(rho) by left multiplication, one length at a
time, and finds each element first by its ShortLex word; the element p whose
word is the suffix word[1:] is its left parent, w = s_{word[0]} * p, and these
edges form the group's ``tree``.  Every edge is an ascent, so an element's
depth in the tree is its length; the inversion count is the length oracle of
``verify``.  Whole-group sweeps (:func:`dot_orbit`) walk the tree one simple
reflection per element.
"""

from __future__ import annotations

from operator import mul
from typing import Mapping, NamedTuple

from .errors import DimensionMismatch, GroupTooLarge, InvariantViolation
from .rootdata import Root, RootSystem, Weight

IntVec = tuple[int, ...]
Column = tuple[tuple[int, int], ...]  # the nonzero (k, alpha_i[k]) of a simple root

# elements one closure may build; |W| >= 2^rank, so the CLI admits rank 16 at most
MAX_WEYL_ORDER = 100_000


def _columns(rs: RootSystem) -> tuple[Column, ...]:
    # alpha_i on fw coordinates is column i of the Cartan matrix
    return tuple(
        tuple((k, a) for k, a in enumerate(alpha.fw_coords) if a) for alpha in rs.simple_roots
    )


def _apply_word(columns: tuple[Column, ...], word: tuple[int, ...], vec: IntVec,
                shift: int = 0) -> IntVec:
    """Letters of ``word`` applied to vec, last first, each v -> v - (v_i - shift) alpha_i.

    That is s_i for shift 0, and the dot action on doubled coordinates for 2.
    """
    v = list(vec)
    for i in reversed(word):
        value = v[i] - shift
        for k, a in columns[i]:
            v[k] -= value * a
    return tuple(v)


class WeylElement:
    """Group element: w(rho), one reduced word, length, and the group's simple roots."""

    __slots__ = ("rho_image", "reduced_word", "length", "columns")

    def __init__(self, rho_image: IntVec, reduced_word: tuple[int, ...],
                 columns: tuple[Column, ...]) -> None:
        self.rho_image = rho_image
        self.reduced_word = reduced_word
        self.length = len(reduced_word)
        # the simple roots, one tuple shared by every element of the group
        self.columns = columns

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
    s_i * elements[parent], and the parent comes earlier.  ``by_rho`` finds
    an element from its w(rho).
    """

    rank: int
    elements: tuple[WeylElement, ...]
    order: int
    by_rho: Mapping[IntVec, WeylElement]
    tree: tuple[tuple[int, int], ...]

    def __repr__(self) -> str:
        # the lookup map and the tree stay out of the repr
        return (
            f"WeylGroup(rank={self.rank!r}, elements={self.elements!r}, "
            f"order={self.order!r})"
        )

    @property
    def identity(self) -> WeylElement:
        return self.elements[0]

    @property
    def longest(self) -> WeylElement:
        return self.elements[-1]

    def inverse(self, a: WeylElement) -> WeylElement:
        """The element whose word is a's reversed: w^-1(rho) found in ``by_rho``."""
        w = self.by_rho.get(a.rho_image)
        if w is None:
            raise InvariantViolation("element is not a member of this Weyl group")
        return self.by_rho[_apply_word(w.columns, w.reduced_word[::-1], (1,) * self.rank)]


def act(w: WeylElement, lam: Weight) -> Weight:
    """Apply a Weyl element to a weight, one simple reflection per letter of its word."""
    if lam.rank != len(w.rho_image):
        raise DimensionMismatch(
            f"rank {len(w.rho_image)} element applied to rank {lam.rank} weight"
        )
    return Weight.from_twice(_apply_word(w.columns, w.reduced_word, lam.twice))


def dot_orbit(rs: RootSystem, group: WeylGroup, lam: Weight) -> list[Weight]:
    """w(lam - rho) + rho for every w, in ``group.elements`` order.

    Walks the group's tree: w = s_i*p gives w.lam = s_i.(p.lam), and
    s_i.v = v - (v_i - 2) alpha_i on the doubled coordinates v = 2 lam, so
    each element costs one simple reflection.
    """
    if lam.rank != group.rank:
        raise DimensionMismatch(f"rank {group.rank} group applied to rank {lam.rank} weight")
    columns = _columns(rs)
    images = [lam.twice]
    for parent, i in group.tree:
        images.append(_apply_word(columns, (i,), images[parent], 2))
    return [Weight.from_twice(v) for v in images]


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
    """Breadth-first closure of the simple reflections, one length at a time.

    The order is predicted by :func:`weyl_order` and checked against
    ``MAX_WEYL_ORDER`` before any element is built; the closure must reach
    it exactly.  It runs on w(rho) by left multiplication: s_i * p is longer
    than p exactly when <alpha_i-check, p(rho)> > 0 (Humphreys, *Reflection
    Groups and Coxeter Groups*, 1.6-1.7), so the depth of the search is the
    length.  Each length is built letter by letter, i outer and the previous
    length inner, so its words (i,) + word(p) come in lexicographic order and
    each element is found first by its ShortLex word (Bjorner-Brenti,
    *Combinatorics of Coxeter Groups*, ch. 3); (p, i) is its tree edge.
    """
    order = weyl_order(rs)
    if order > MAX_WEYL_ORDER:
        raise GroupTooLarge(f"Weyl group has {order} elements; the limit is {MAX_WEYL_ORDER}")
    n = rs.rank
    columns = _columns(rs)
    identity = WeylElement((1,) * n, (), columns)
    elements, tree, by_rho = [identity], [], {identity.rho_image: identity}
    start, end = 0, 1  # elements[start:end] have the previous length
    while start < end:
        for i in range(n):
            for p in range(start, end):
                image = elements[p].rho_image
                if image[i] > 0 and (key := _apply_word(columns, (i,), image)) not in by_rho:
                    w = by_rho[key] = WeylElement(key, (i,) + elements[p].reduced_word, columns)
                    elements.append(w)
                    tree.append((p, i))
                    if len(elements) > order:
                        raise InvariantViolation(f"closure passes the predicted order {order}")
        if len(elements) == end and end - start != 1:
            raise InvariantViolation("longest element is not unique")
        start, end = end, len(elements)
    if len(elements) != order:
        raise InvariantViolation(f"closure has {len(elements)} elements, predicted {order}")

    return WeylGroup(
        rank=n,
        elements=tuple(elements),
        order=order,
        by_rho=by_rho,
        tree=tuple(tree),
    )

