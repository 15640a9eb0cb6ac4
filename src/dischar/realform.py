"""Equal-rank real forms as multiplicative sign gradings of the roots.

A real form enters as a vector of signs on the simple roots (+1 compact,
-1 noncompact); the sign of any root is the product over its simple-root
coordinates, which is automatically multiplicative.  Hand-entered full
assignments can be screened with :func:`validate_grading`.

W_K runs on W's reflection kernel: ``weyl.close`` of the Cartan matrix of the
simple compact roots, and :meth:`KWeylData.orbit` is one ``weyl.sweep`` of
its tree.
``KWeylData.elements`` comes in the closure's order, by l_K and then ShortLex
in ``simpleK`` letters; ``lengthK``, the tree and every sweep are lists in
that order, so no lookup is keyed by an element.
"""

from __future__ import annotations

from operator import add, mul
from typing import Mapping, NamedTuple, Sequence

from .errors import DimensionMismatch, IncompleteAssignment, InvariantViolation
from .rootdata import Root, RootSystem, Weight
from .weyl import (IntVec, Reflection, Tree, WeylElement, WeylGroup, close, reflect, reflection,
                   sweep)


class CompactGrading(NamedTuple):
    """Sign grading of the roots with the derived compact/noncompact data.

    ``q`` is the number of noncompact positive roots, i.e. half the total
    number of noncompact roots.
    """

    rs: RootSystem
    simple_signs: tuple[int, ...]
    compact_positive: tuple[Root, ...]
    noncompact_positive: tuple[Root, ...]
    rho_c: Weight
    rho_n: Weight
    q: int


class KWeylData(NamedTuple):
    """The Weyl group of the compact roots inside the ambient group.

    ``simpleK`` holds the simple roots of the compact positive system and
    ``reflections`` their records.  ``tree`` holds (parent, j) for each of
    ``elements[1:]``: the element is s_{simpleK[j]} * elements[parent], one
    longer in W_K.  ``lengthK[k]`` is the depth of ``elements[k]``: l_K.
    """

    weyl: WeylGroup
    elements: tuple[WeylElement, ...]
    lengthK: tuple[int, ...]
    simpleK: tuple[Root, ...]
    tree: Tree
    reflections: tuple[Reflection, ...]

    def __repr__(self) -> str:  # the tree and the records stay out
        return (f"KWeylData(weyl={self.weyl!r}, elements={self.elements!r}, "
                f"lengthK={self.lengthK!r}, simpleK={self.simpleK!r})")

    @property
    def order(self) -> int:
        return len(self.elements)

    def orbit(self, vec: IntVec) -> list[IntVec]:
        """w(vec) for every w in ``elements``, in that order, one reflection each.

        The action is linear, so ``vec`` may be a doubled vector.
        """
        if len(vec) != self.weyl.rank:
            raise DimensionMismatch(
                f"rank {self.weyl.rank} group applied to rank {len(vec)} vector"
            )
        return sweep(self.reflections, self.tree, vec)


def build_grading(rs: RootSystem, simple_signs: Sequence[int]) -> CompactGrading:
    """Extend signs on the simple roots multiplicatively to all roots."""
    signs = tuple(int(s) for s in simple_signs)
    if len(signs) != rs.rank:
        raise DimensionMismatch(f"{len(signs)} signs for rank {rs.rank}")
    if any(s not in (1, -1) for s in signs):
        raise IncompleteAssignment("simple signs must be +1 or -1")

    compact, noncompact = [], []
    for root in rs.positive_roots:
        odd = sum(n for n, s in zip(root.root_coords, signs) if s == -1)
        (noncompact if odd % 2 else compact).append(root)
    # 2 rho_c is the sum of the compact positive roots
    rho_c = Weight.from_twice(tuple(sum(r.fw_coords[i] for r in compact) for i in range(rs.rank)))
    return CompactGrading(
        rs=rs,
        simple_signs=signs,
        compact_positive=tuple(compact),
        noncompact_positive=tuple(noncompact),
        rho_c=rho_c,
        rho_n=rs.rho - rho_c,
        q=len(noncompact),
    )


def validate_grading(rs: RootSystem, assignment: Mapping[Root, int]) -> bool:
    """Whether a full sign assignment is multiplicative on all root sums.

    The assignment is given on positive roots (signs extend evenly to the
    negatives).  Checking positive triples alpha + beta = gamma suffices:
    every mixed-sign root sum rearranges into such a triple.
    """
    for root in rs.positive_roots:
        if root not in assignment:
            raise IncompleteAssignment(f"no sign assigned to {root!r}")
        if assignment[root] not in (1, -1):
            raise IncompleteAssignment(f"sign of {root!r} is not +1 or -1")
    n = len(rs.positive_roots)
    for i in range(n):
        for j in range(i, n):
            a = rs.positive_roots[i]
            b = rs.positive_roots[j]
            total = tuple(x + y for x, y in zip(a.root_coords, b.root_coords))
            c = rs.by_root_coords.get(total)
            if c is not None and assignment[c] != assignment[a] * assignment[b]:
                return False
    return True


def weyl_k(rs: RootSystem, grading: CompactGrading, group: WeylGroup) -> KWeylData:
    """W_K as the ``weyl.close`` of the Cartan matrix of ``simpleK``, found in W by w(rho).

    The closure runs on the m x m matrix <beta_i-check, beta_j> of the simple
    compact roots; one ``weyl.sweep`` of its tree from rho gives each w(rho).
    Each generator s_beta is checked once to permute the compact roots.
    """
    compact = grading.compact_positive
    sums = {tuple(map(add, a.root_coords, b.root_coords)) for a in compact for b in compact}
    simple_k = tuple(r for r in compact if r.root_coords not in sums)
    records = tuple(reflection(beta) for beta in simple_k)
    roots = {r.fw_coords for r in compact} | {tuple(-c for c in r.fw_coords) for r in compact}
    if any(reflect(r, a.fw_coords) not in roots for r in records for a in compact):
        raise InvariantViolation("W_K does not preserve the compact roots")

    cartan = [[sum(map(mul, b.coroot_coords, g.fw_coords)) for g in simple_k] for b in simple_k]
    # <beta-check, rho> is the height of beta's coroot
    _, words, tree = close(cartan, [sum(b.coroot_coords) for b in simple_k], group.order)
    images = sweep(records, tree, (1,) * rs.rank)
    elements = tuple([group.by_rho.get(image) for image in images])
    if None in elements:
        raise InvariantViolation("W_K has an element outside the Weyl group")
    if len(set(images)) != len(images):
        raise InvariantViolation("W_K has a repeated element")
    return KWeylData(weyl=group, elements=elements, lengthK=tuple(map(len, words)),
                     simpleK=simple_k, tree=tree, reflections=records)
