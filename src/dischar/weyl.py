"""Weyl group generation by breadth-first closure over simple reflections.

An element is identified by w(rho), which determines w because rho is
regular; equality and hashing go through that integer vector alone, and the
group's lookups are keyed by the vector, never by an element.  Each element
also carries its ShortLex reduced word (the lexicographically least of its
shortest words) and one reference, shared by the whole group, to the simple
roots, so :func:`act` and ``WeylGroup.multiply`` apply the word one simple
reflection at a time.

:func:`generate` closes W on y = w^-1(rho), where w*s_i is y -> s_i(y).  A
suffix of a ShortLex word is ShortLex, so w = s_{word[0]} * (the element
whose word is word[1:]); these left parents form the group's ``tree``.  One
pass down it gives every w(rho) and certifies l(w) = len(word), one ascent
test per edge; the inversion count is the length oracle of ``verify``.
Whole-group sweeps (:func:`dot_orbit`) walk the tree the same way.
"""

from __future__ import annotations

from operator import mul
from typing import Mapping, NamedTuple

from .errors import DimensionMismatch, GroupTooLarge, InvariantViolation
from .rootdata import Root, RootSystem, Weight

IntVec = tuple[int, ...]
Column = tuple[tuple[int, int], ...]  # the nonzero (k, alpha_i[k]) of a simple root


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

    def __eq__(self, other: object) -> bool:
        return isinstance(other, WeylElement) and self.rho_image == other.rho_image

    def __hash__(self) -> int:
        return hash(self.rho_image)

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
    simple: tuple[WeylElement, ...]
    by_rho: Mapping[IntVec, WeylElement]
    tree: tuple[tuple[int, int], ...]

    def __repr__(self) -> str:
        # the lookup map and the tree stay out of the repr
        return (
            f"WeylGroup(rank={self.rank!r}, elements={self.elements!r}, "
            f"order={self.order!r}, simple={self.simple!r})"
        )

    @property
    def identity(self) -> WeylElement:
        return self.elements[0]

    @property
    def longest(self) -> WeylElement:
        return self.elements[-1]

    def multiply(self, a: WeylElement, b: WeylElement) -> WeylElement:
        """The canonical element equal to the composition a after b."""
        for w in (a, b):
            if len(w.rho_image) != self.rank:
                raise DimensionMismatch(
                    f"rank {len(w.rho_image)} element in a rank {self.rank} group"
                )
        try:
            return self.by_rho[_apply_word(a.columns, a.reduced_word, b.rho_image)]
        except KeyError:
            raise InvariantViolation("product is not an element of this Weyl group") from None

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


def _rho_images(columns: tuple[Column, ...], tree: tuple[tuple[int, int], ...]) -> list[IntVec]:
    """w(rho) for every element down the left tree, each edge (p, i) an ascent.

    l(s_i * p) = l(p) + 1 exactly when <alpha_i-check, p(rho)> > 0 (Humphreys,
    *Reflection Groups and Coxeter Groups*, 1.6-1.7), so by induction from e
    every element's length is its depth in the tree.
    """
    images = [(1,) * len(columns)]
    for child, (parent, i) in enumerate(tree, start=1):
        if images[parent][i] <= 0:
            raise InvariantViolation(f"tree edge {parent} -> {child} by s{i + 1} is not an ascent")
        images.append(_apply_word(columns, (i,), images[parent]))
    return images


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


def generate(rs: RootSystem, max_order: int = 100_000) -> WeylGroup:
    """Breadth-first closure of the simple reflections.

    The order is predicted by :func:`weyl_order` and checked against
    ``max_order`` before any element is built; the closure must reach it
    exactly.  It runs on y = w^-1(rho): w*s_i is y -> s_i(y), longer than w
    exactly when y_i > 0.  Walking the elements in the order found, each
    extended by its ascents, finds every element first by its ShortLex word,
    in (length, word) order.  The left tree gives every w(rho) and certifies
    the lengths (:func:`_rho_images`).
    """
    order = weyl_order(rs)
    if order > max_order:
        raise GroupTooLarge(f"Weyl group has {order} elements; the limit is {max_order}")
    n = rs.rank
    columns = _columns(rs)
    rho = (1,) * n
    words: dict[IntVec, tuple[int, ...]] = {rho: ()}  # w^-1(rho) -> word of w
    found = [rho]
    for y in found:  # the list grows while it is walked: breadth first
        for i in range(n):
            if y[i] > 0 and (key := _apply_word(columns, (i,), y)) not in words:
                words[key] = words[y] + (i,)
                found.append(key)
                if len(found) > order:
                    raise InvariantViolation(f"closure passes the predicted order {order}")
    if len(words) != order:
        raise InvariantViolation(f"closure has {len(words)} elements, predicted {order}")

    ordered = list(words.values())
    index = {word: k for k, word in enumerate(ordered)}
    tree = tuple((index[word[1:]], word[0]) for word in ordered[1:])
    images = _rho_images(columns, tree)
    elements = tuple(WeylElement(image, word, columns) for image, word in zip(images, ordered))
    by_rho = {w.rho_image: w for w in elements}
    if by_rho.keys() != words.keys():
        raise InvariantViolation("the images w(rho) and w^-1(rho) are different orbits")

    if sum(w.length == elements[-1].length for w in elements) != 1:
        raise InvariantViolation("longest element is not unique")

    return WeylGroup(
        rank=n,
        elements=elements,
        order=order,
        simple=elements[1:n + 1],
        by_rho=by_rho,
        tree=tree,
    )


def length_fiber(group: WeylGroup, p: int) -> tuple[WeylElement, ...]:
    """The elements of the given length in ``elements`` order; empty outside [0, l(longest)]."""
    return tuple(w for w in group.elements if w.length == p)


def sign(w: WeylElement) -> int:
    """(-1)**length, the determinant of w."""
    return -1 if w.length % 2 else 1
