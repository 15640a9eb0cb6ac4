"""Formal characters over the weight lattice and the classical numerators.

A formal character is a finitely supported integer combination of lattice
exponentials e^mu, stored as a sparse map keyed by the integer tuple 2 mu on
fundamental-weight coordinates.  One constructor merges coefficients, and every
numerator builds its result there in one pass, its weights swept about rho.
No two characters are multiplied: the one product is by the Weyl denominator,
a factor (1 - e^alpha) at a time (:func:`times_denominator`).  The module
provides the Weyl denominator (computed two ways and compared), the
alternating Weyl numerator, a Freudenthal-recursion character that serves as
an independent oracle, the elliptic numerator of a discrete series, and Euler
characteristics of homology tables.  Freudenthal's recursion runs in integers,
with ``RootSystem.root_coords`` and the coroot form of :func:`_gram`.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import chain
from operator import add, mul, sub
from typing import TYPE_CHECKING

from .errors import InvariantViolation
from .realform import CompactGrading, KWeylData
from .rootdata import (
    RootSystem,
    Weight,
    check_kostant_parameter,
    check_schmid_parameter,
    dominant_twice,
)
from .weyl import IntVec, WeylGroup, dot_orbit, sweep

if TYPE_CHECKING:
    from .homology import HomologyTable

Matrix = tuple[IntVec, ...]


def _apply(matrix: Matrix, vec: IntVec) -> IntVec:
    return tuple([sum(map(mul, row, vec)) for row in matrix])


def _doubled_roots(roots: Iterable) -> list[IntVec]:
    return [tuple(2 * a for a in alpha.fw_coords) for alpha in roots]


class FormalCharacter:
    """Finitely supported integer function on the weight lattice, keyed by 2 mu."""

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[tuple[IntVec, int]]) -> None:
        """Sum ``terms``, (2 weight, coeff) pairs, dropping zero sums."""
        out: dict[IntVec, int] = {}
        for w, c in terms:
            value = out.get(w, 0) + c
            if value:
                out[w] = value
            else:
                out.pop(w, None)
        self.terms = out

    @classmethod
    def one(cls, rank: int) -> "FormalCharacter":
        return cls([((0,) * rank, 1)])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FormalCharacter) and self.terms == other.terms

    def sorted_terms(self) -> list[tuple[IntVec, int]]:
        """Terms in lexicographic coordinate order (deterministic output)."""
        return sorted(self.terms.items())

    def __repr__(self) -> str:
        inner = " + ".join(f"{c}*e^{Weight.from_twice(t).coords}" for t, c in self.sorted_terms())
        return f"FormalCharacter({inner or '0'})"

    __hash__ = None  # mutable mapping inside


def times_denominator(rs: RootSystem, char: FormalCharacter) -> FormalCharacter:
    """``char`` times the product of (1 - e^alpha) over the positive roots.

    Each factor subtracts ``char`` shifted by alpha: one pass over the
    support per positive root.  ``weyl_denominator`` and ``verify``'s
    character identity share this loop on purpose; the Weyl-group sum in
    ``weyl_denominator`` is its oracle on every call.
    """
    for alpha in _doubled_roots(rs.positive_roots):
        terms = char.terms.items()
        char = FormalCharacter(chain(terms, ((tuple(map(add, mu, alpha)), -c) for mu, c in terms)))
    return char


def weyl_denominator(rs: RootSystem, group: WeylGroup) -> FormalCharacter:
    """The product of (1 - e^alpha) over the positive roots.

    Computed both by :func:`times_denominator` from 1 and by the Weyl
    denominator formula, the sum over W of (-1)^l(w) e^{rho - w rho}, with
    ``group`` the Weyl group of ``rs``; the two expansions must agree exactly.
    """
    product = times_denominator(rs, FormalCharacter.one(rs.rank))
    alternating = FormalCharacter((tuple([2 - 2 * c for c in w.rho_image]), (-1) ** w.length)
                                  for w in group.elements)
    if alternating != product:
        raise InvariantViolation("denominator product and Weyl-group sum disagree")
    return product


def weyl_numerator(rs: RootSystem, group: WeylGroup, lam: Weight) -> FormalCharacter:
    """Alternating sum of e^{w(lam - rho) + rho} over the full Weyl group: 2 lam swept about rho."""
    check_kostant_parameter(rs, lam)
    return FormalCharacter(zip(dot_orbit(group, lam),
                               [-1 if w.length % 2 else 1 for w in group.elements]))


def _gram(rs: RootSystem) -> Matrix:
    """G = sum over beta > 0 of beta-check beta-check^T, on simple-coroot coordinates.

    a^T G b = sum_beta <beta-check, a> <beta-check, b> for weights a, b: W permutes
    the coroots up to sign, so the form is W-invariant, hence on each simple
    factor a positive multiple of the Killing form's.  Freudenthal's recursion
    (Humphreys, *Introduction to Lie Algebras and Representation Theory*, §22)
    needs no more: it is exact and its denominators positive for such a form.
    """
    coroots = [alpha.coroot_coords for alpha in rs.positive_roots]
    return tuple(
        tuple(sum(c[i] * c[j] for c in coroots) for j in range(rs.rank)) for i in range(rs.rank)
    )


def _weight_support(rs: RootSystem, high: IntVec) -> set[IntVec]:
    # all weights of the irreducible module: mu with dom(mu) <= high in the
    # root-lattice partial order; closed under single simple-root descents
    def member(candidate: IntVec) -> bool:
        diff = rs.root_coords(tuple(map(sub, high, dominant_twice(rs, candidate))))
        return diff is not None and min(diff, default=0) >= 0

    support = {high}
    frontier = [high]
    simple = _doubled_roots(rs.simple_roots)
    while frontier:
        new_frontier = []
        for mu in frontier:
            for alpha in simple:
                nu = tuple(map(sub, mu, alpha))
                if nu not in support and member(nu):
                    support.add(nu)
                    new_frontier.append(nu)
        frontier = new_frontier
    return support


def freudenthal_character(rs: RootSystem, lam_lowest: Weight) -> FormalCharacter:
    """Full weight-multiplicity character via the Freudenthal recursion.

    The lowest-weight parameter is converted internally to the highest
    weight of the same module.  This code path shares nothing with the
    Weyl numerator or the partition functions, so it can act as an
    independent oracle against both.
    """
    check_kostant_parameter(rs, lam_lowest)

    high = dominant_twice(rs, lam_lowest.twice)
    support = _weight_support(rs, high)
    gram = _gram(rs)

    def norm(mu: IntVec) -> int:  # 4 (mu + rho, mu + rho)
        shifted = tuple(map(add, mu, rs.rho.twice))
        return sum(map(mul, shifted, _apply(gram, shifted)))

    dominants = sorted(
        (mu for mu in support if all(t >= 0 for t in mu)),
        key=lambda mu: sum(rs.root_coords(tuple(map(sub, high, mu)))),
    )
    roots = [(alpha, _apply(gram, alpha)) for alpha in _doubled_roots(rs.positive_roots)]
    norm_high = norm(high)
    mult: dict[IntVec, int] = {}
    for mu in dominants:
        if mu == high:
            mult[mu] = 1
            continue
        acc = 0
        for alpha, gram_alpha in roots:
            step = tuple(map(add, mu, alpha))
            while step in support:
                m = mult.get(dominant_twice(rs, step))
                if m:
                    acc += m * sum(map(mul, step, gram_alpha))
                step = tuple(map(add, step, alpha))
        denom = norm_high - norm(mu)
        if denom <= 0:
            raise InvariantViolation("Freudenthal denominator is not positive")
        value, remainder = divmod(2 * acc, denom)
        if remainder:
            raise InvariantViolation("Freudenthal multiplicity is not an integer")
        mult[mu] = value

    return FormalCharacter((mu, mult[dominant_twice(rs, mu)]) for mu in support)


def discrete_numerator(grading: CompactGrading, kdata: KWeylData, lam: Weight) -> FormalCharacter:
    """Elliptic numerator (-1)^q sum over W_K of (-1)^{l_K(w)} e^{w lam + rho}.

    The weights are one W_K sweep of lam + rho about rho.
    """
    check_schmid_parameter(grading.rs, lam)
    overall = -1 if grading.q % 2 else 1
    start = tuple(map(add, lam.twice, grading.rs.rho.twice))
    images = sweep(kdata.reflections, kdata.tree, start, True)
    return FormalCharacter(zip(images, [-overall if k % 2 else overall for k in kdata.lengthK]))


def euler_character(table: HomologyTable) -> FormalCharacter:
    """Alternating sum over degrees of the table's weight rows."""
    return FormalCharacter((mu, -1 if degree % 2 else 1)
                           for degree, weights in table.rows.items() for mu in weights)
