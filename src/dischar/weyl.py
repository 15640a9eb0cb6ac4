"""Weyl group generation by breadth-first closure over simple reflections.

An element is identified by w(rho), which determines w because rho is
regular; equality and hashing go through that integer vector alone.  Each
element also carries its dense integer matrix on fundamental-weight
coordinates, used to act on single weights, the first shortest word the
BFS found (breadth-first order guarantees it is reduced) and its BFS parent,
the element that word minus its last letter reaches.  Whole-group sweeps
(:func:`dot_orbit`) walk that tree with the dot action, one simple
reflection per element instead of one matrix product.
"""

from __future__ import annotations

from operator import mul
from typing import Mapping, NamedTuple

from .errors import DimensionMismatch, GroupTooLarge, InvariantViolation
from .rootdata import Root, RootSystem, Weight, _det

IntVec = tuple[int, ...]
Matrix = tuple[IntVec, ...]


def _identity(n: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _apply(matrix: Matrix, vec: IntVec) -> IntVec:
    return tuple([sum(map(mul, row, vec)) for row in matrix])


class WeylElement:
    """Group element: w(rho), matrix on fw coordinates, one reduced word, length, BFS parent."""

    __slots__ = ("matrix", "rho_image", "reduced_word", "length", "parent", "_hash")

    def __init__(
        self, matrix: Matrix, reduced_word: tuple[int, ...], parent: WeylElement | None = None
    ) -> None:
        self.matrix = matrix
        # rho = (1,...,1), so w(rho) is the vector of row sums
        self.rho_image: IntVec = tuple(sum(row) for row in matrix)
        self.reduced_word = reduced_word
        self.length = len(reduced_word)
        # the BFS tree: self = parent * s_i with i = reduced_word[-1]
        self.parent = parent
        self._hash = hash(self.rho_image)

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
        return self._hash

    def __repr__(self) -> str:
        return f"WeylElement({self.word_str()})"


def reflection_matrix(rs: RootSystem, alpha: Root) -> Matrix:
    # (s_alpha lam)_k = lam_k - <alpha-check, lam> fw(alpha)_k
    return tuple(
        tuple(int(k == m) - alpha.fw_coords[k] * alpha.coroot_coords[m] for m in range(rs.rank))
        for k in range(rs.rank)
    )


class WeylGroup(NamedTuple):
    """The full Weyl group, closed under composition, canonically ordered."""

    rank: int
    elements: tuple[WeylElement, ...]
    order: int
    simple: tuple[WeylElement, ...]
    by_rho: Mapping[IntVec, WeylElement]
    inverses: Mapping[WeylElement, WeylElement]

    def __repr__(self) -> str:
        # the lookup maps stay out of the repr
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

    def lookup(self, matrix: Matrix) -> WeylElement:
        element = self.by_rho.get(tuple(sum(row) for row in matrix))
        if element is None or element.matrix != matrix:
            raise InvariantViolation("matrix is not an element of this Weyl group")
        return element

    def multiply(self, a: WeylElement, b: WeylElement) -> WeylElement:
        """The canonical element equal to the composition a after b."""
        try:
            return self.by_rho[_apply(a.matrix, b.rho_image)]
        except KeyError:
            raise InvariantViolation("product is not an element of this Weyl group") from None

    def inverse(self, a: WeylElement) -> WeylElement:
        try:
            return self.inverses[a]
        except KeyError:
            raise InvariantViolation("element is not a member of this Weyl group") from None


def act(w: WeylElement, lam: Weight) -> Weight:
    """Apply a Weyl element to a weight (exact matrix-vector product)."""
    if lam.rank != len(w.matrix):
        raise DimensionMismatch(f"rank {len(w.matrix)} element applied to rank {lam.rank} weight")
    return Weight.from_twice(_apply(w.matrix, lam.twice))


def dot_orbit(rs: RootSystem, group: WeylGroup, lam: Weight) -> list[Weight]:
    """w(lam - rho) + rho for every w, in ``group.elements`` order.

    Walks the BFS tree: w = p*s_i gives w^-1.lam = s_i.(p^-1.lam), and
    s_i.v = v - (v_i - 2) alpha_i on the doubled coordinates v = 2 lam
    (alpha_i is column i of the Cartan matrix), so each element costs one
    simple reflection; the inverses put the images back in W order.
    """
    if lam.rank != group.rank:
        raise DimensionMismatch(f"rank {group.rank} group applied to rank {lam.rank} weight")
    alphas = [alpha.fw_coords for alpha in rs.simple_roots]
    images = {group.identity: lam.twice}  # w -> 2 (w^-1.lam)
    for w in group.elements[1:]:
        v, i = images[w.parent], w.reduced_word[-1]
        value = v[i] - 2
        images[w] = tuple([x - value * a for x, a in zip(v, alphas[i])])
    inverses = group.inverses
    return [Weight.from_twice(images[inverses[w]]) for w in group.elements]


def _length_from_rho_image(coroots: Matrix, rho_image: IntVec) -> int:
    """l(w) = #{alpha > 0 : <alpha-check, w rho> < 0}, from w(rho) alone.

    ``coroots`` holds the positive coroots as rows; <alpha-check, w rho> < 0
    exactly when w^-1 alpha < 0, and l(w^-1) = l(w).
    """
    values = _apply(coroots, rho_image)
    if 0 in values:
        raise InvariantViolation("Weyl image of rho is singular")
    return sum(v < 0 for v in values)


def _reflect(rs: RootSystem, i: int, vec: IntVec) -> IntVec:
    # (s_i lam)_k = lam_k - lam_i C[k][i]
    value = vec[i]
    return tuple(x - value * row[i] for x, row in zip(vec, rs.cartan))


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
    exactly.  Each element records the first shortest word reaching it, so
    stored words are reduced.  The element list is sorted by (length, word).
    A candidate w*s_i is recognised by w s_i(rho) = w(rho) - w(alpha_i)
    before its matrix is built; that matrix differs from w's in column i.
    """
    order = weyl_order(rs)
    if order > max_order:
        raise GroupTooLarge(f"Weyl group has {order} elements; the limit is {max_order}")
    n = rs.rank
    alphas = [tuple(row[i] for row in rs.cartan) for i in range(n)]
    identity = WeylElement(_identity(n), ())
    found: dict[IntVec, WeylElement] = {identity.rho_image: identity}
    # w^-1(rho); the inverse of w*s_i is s_i*w^-1, so the reversed word is
    # applied to rho one simple reflection per element
    inverse_rho: dict[IntVec, IntVec] = {identity.rho_image: identity.rho_image}
    frontier = [identity]
    while frontier:
        new_frontier: list[WeylElement] = []
        for w in frontier:
            for i in range(n):
                w_alpha = _apply(w.matrix, alphas[i])
                key = tuple(x - y for x, y in zip(w.rho_image, w_alpha))
                if key in found:
                    continue
                matrix = tuple(
                    row[:i] + (row[i] - y,) + row[i + 1:] for row, y in zip(w.matrix, w_alpha)
                )
                element = WeylElement(matrix, w.reduced_word + (i,), w)
                found[element.rho_image] = element
                inverse_rho[element.rho_image] = _reflect(rs, i, inverse_rho[w.rho_image])
                new_frontier.append(element)
                if len(found) > order:
                    raise InvariantViolation(f"closure passes the predicted order {order}")
        new_frontier.sort(key=lambda w: w.reduced_word)
        frontier = new_frontier
    if len(found) != order:
        raise InvariantViolation(f"closure has {len(found)} elements, predicted {order}")

    elements = sorted(found.values(), key=lambda w: (w.length, w.reduced_word))
    coroots = tuple(alpha.coroot_coords for alpha in rs.positive_roots)
    for w in elements:
        if _length_from_rho_image(coroots, w.rho_image) != w.length:
            raise InvariantViolation(
                f"word length of {w.word_str()} disagrees with its inversion count"
            )
    top = [w for w in elements if w.length == elements[-1].length]
    if len(top) != 1:
        raise InvariantViolation("longest element is not unique")

    inverses = {w: found[inverse_rho[w.rho_image]] for w in elements}

    return WeylGroup(
        rank=n,
        elements=tuple(elements),
        order=order,
        simple=tuple(found[_reflect(rs, i, identity.rho_image)] for i in range(n)),
        by_rho=found,
        inverses=inverses,
    )


def length_fiber(group: WeylGroup, p: int) -> frozenset[WeylElement]:
    """All elements of the given length; empty outside [0, l(longest)]."""
    return frozenset(w for w in group.elements if w.length == p)


def sign(w: WeylElement) -> int:
    """(-1)**length, checked against the matrix determinant."""
    value = -1 if w.length % 2 else 1
    if _det(w.matrix) != value:
        raise InvariantViolation(f"sign of {w.word_str()} disagrees with its determinant")
    return value
