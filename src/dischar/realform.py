"""Equal-rank real forms as multiplicative sign gradings of the roots.

A real form enters as a vector of signs on the simple roots (+1 compact,
-1 noncompact); the sign of any root is the product over its simple-root
coordinates, which is automatically multiplicative.  Hand-entered full
assignments can be screened with :func:`validate_grading`.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Sequence

from .errors import DimensionMismatch, IncompleteAssignment, InvariantViolation
from .rootdata import Root, RootSystem, Weight
from .weyl import WeylElement, WeylGroup, _apply, reflection_matrix


class CompactGrading(NamedTuple):
    """Sign grading of the roots with the derived compact/noncompact data.

    ``q`` is the number of noncompact positive roots, i.e. half the total
    number of noncompact roots.
    """

    rs: RootSystem
    simple_signs: tuple[int, ...]
    sign_by_root: Mapping[Root, int]
    compact_positive: tuple[Root, ...]
    noncompact_positive: tuple[Root, ...]
    rho_c: Weight
    rho_n: Weight
    q: int

    def sign_of(self, root: Root) -> int:
        return self.sign_by_root[root]


class KWeylData(NamedTuple):
    """The Weyl group of the compact roots inside the ambient group.

    ``lengthK`` counts compact positive roots made negative; ``simpleK``
    holds the simple roots of the compact positive system.
    """

    weyl: WeylGroup
    elements: tuple[WeylElement, ...]
    lengthK: Mapping[WeylElement, int]
    simpleK: tuple[Root, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def identity(self) -> WeylElement:
        return self.weyl.identity


def build_grading(rs: RootSystem, simple_signs: Sequence[int]) -> CompactGrading:
    """Extend signs on the simple roots multiplicatively to all roots."""
    signs = tuple(int(s) for s in simple_signs)
    if len(signs) != rs.rank:
        raise DimensionMismatch(f"{len(signs)} signs for rank {rs.rank}")
    if any(s not in (1, -1) for s in signs):
        raise IncompleteAssignment("simple signs must be +1 or -1")

    sign_by_root = {}
    for root in rs.positive_roots:
        odd = sum(n for n, s in zip(root.root_coords, signs) if s == -1)
        sign_by_root[root] = -1 if odd % 2 else 1

    compact = tuple(r for r in rs.positive_roots if sign_by_root[r] == 1)
    noncompact = tuple(r for r in rs.positive_roots if sign_by_root[r] == -1)
    # 2 rho_c is the sum of the compact positive roots
    rho_c = Weight.from_twice(tuple(sum(r.fw_coords[i] for r in compact) for i in range(rs.rank)))
    return CompactGrading(
        rs=rs,
        simple_signs=signs,
        sign_by_root=sign_by_root,
        compact_positive=compact,
        noncompact_positive=noncompact,
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
    index = {r.root_coords: r for r in rs.positive_roots}
    n = len(rs.positive_roots)
    for i in range(n):
        for j in range(i, n):
            a = rs.positive_roots[i]
            b = rs.positive_roots[j]
            total = tuple(x + y for x, y in zip(a.root_coords, b.root_coords))
            c = index.get(total)
            if c is not None and assignment[c] != assignment[a] * assignment[b]:
                return False
    return True


def weyl_k(rs: RootSystem, grading: CompactGrading, group: WeylGroup) -> KWeylData:
    """Close the compact-root reflections into W_K and compute its lengths.

    l_K(w) counts the compact positive roots beta with <beta-check, w rho> < 0,
    which are exactly those that w^-1 makes negative.
    """
    generators = [group.lookup(reflection_matrix(rs, a)) for a in grading.compact_positive]
    members = {group.identity}
    frontier = [group.identity]
    while frontier:
        new_frontier = []
        for w in frontier:
            for g in generators:
                prod = group.multiply(w, g)
                if prod not in members:
                    members.add(prod)
                    new_frontier.append(prod)
        frontier = new_frontier

    compact_fw = {r.fw_coords for r in grading.compact_positive}
    compact_fw |= {tuple(-c for c in fw) for fw in compact_fw}
    lengthK = {}
    for w in members:
        if any(_apply(w.matrix, a.fw_coords) not in compact_fw for a in grading.compact_positive):
            raise InvariantViolation("W_K does not preserve the compact roots")
        lengthK[w] = sum(1 for beta in grading.compact_positive if w.rho_pairing(beta) < 0)

    decomposable = set()
    compact_coords = {r.root_coords for r in grading.compact_positive}
    for a in grading.compact_positive:
        for b in grading.compact_positive:
            total = tuple(x + y for x, y in zip(a.root_coords, b.root_coords))
            if total in compact_coords:
                decomposable.add(total)
    simple_k = tuple(
        r for r in grading.compact_positive if r.root_coords not in decomposable
    )

    elements = tuple(sorted(members, key=lambda w: (w.length, w.reduced_word)))
    return KWeylData(weyl=group, elements=elements, lengthK=lengthK, simpleK=simple_k)
