"""Nilradical-homology tables and resolution-term bookkeeping.

``HomologyTable`` holds a table as rows of doubled weights 2 mu (integer
tuples) by degree.  Two direct table
builders (the length-graded table for a finite-dimensional
module, and its discrete-series analogue over W_K with degree
q - l(wu) + 2 l_K(w)), plus the resolution indexers and the degree-collapse
rule that recovers each table from its resolution one term at a time.

The whole-group sweeps (Kostant table, BGG terms) take their weights from
``weyl.dot_orbit``, one simple reflection per element.  The W_K sweeps
(Schmid table, Trauber terms) read the cells w*u off the orbit, which
stores them in ``kdata.elements`` order, and l_K(w) off ``kdata.lengthK``
(``_cells`` zips the two by position), rather than multiplying them out
again, so the orbit must come from the same W_K; the weights w(u(lam)) + rho
come from one W_K sweep of u(lam) + rho about rho (``weyl.sweep``).

``collapse`` reads the (position, degree, weight) triples exactly as the
two indexers return them.  Each term carries a single weight, so the rule
is literally one term at a time: a term of internal degree d sitting at
resolution position p lands in homological degree d - p.  This is pinned
by requiring the BGG pipeline to land dual-Verma terms in degree l(w); the
same rule then drives the Trauber pipeline unchanged.
"""

from __future__ import annotations

from operator import add
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple

from .errors import InvariantViolation, ParameterIncompatible
from .realform import CompactGrading, KWeylData
from .rootdata import RootSystem, Weight, check_kostant_parameter, check_schmid_parameter
from .weyl import IntVec, WeylGroup, act_twice, dot_orbit, sweep

if TYPE_CHECKING:
    from .orbits import ClosedOrbit


class HomologyTable(NamedTuple):
    """Degrees mapped to sorted multisets of doubled weights 2 mu; zero rows are never stored."""

    rows: Mapping[int, tuple[IntVec, ...]]

    @classmethod
    def from_entries(cls, entries: Iterable[tuple[int, IntVec]]) -> "HomologyTable":
        rows: dict[int, list[IntVec]] = {}
        for degree, weight in entries:
            if degree < 0:
                raise InvariantViolation(f"negative homology degree {degree}")
            rows.setdefault(degree, []).append(weight)
        return cls(rows={p: tuple(sorted(ws)) for p, ws in sorted(rows.items())})

    def total_multiplicity(self) -> int:
        return sum(len(ws) for ws in self.rows.values())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, HomologyTable) and dict(self.rows) == dict(other.rows)

    __hash__ = None


def kostant_table(rs: RootSystem, group: WeylGroup, lam: Weight) -> HomologyTable:
    """Homology of the finite-dimensional module with lowest weight ``lam``:
    degree l(w) carries 2(w(lam - rho) + rho)."""
    check_kostant_parameter(rs, lam)
    return HomologyTable.from_entries(zip([w.length for w in group.elements],
                                          dot_orbit(group, lam)))


def _cells(grading: CompactGrading, kdata: KWeylData, orbit: ClosedOrbit,
           lam: Weight) -> list[tuple[int, int, IntVec]]:
    """(l(w*u), l_K(w), 2(w*u(lam) + rho)) for every w in W_K, in W_K order.

    The orbit's k-th cell must belong to ``kdata.elements[k]``: at once when
    enumerated under this very tuple, else compared by w(rho).  The weights are
    one W_K sweep of u(lam) + rho about rho.
    """
    if orbit.elements is not kdata.elements and (
            [w.rho_image for w in orbit.elements] != [w.rho_image for w in kdata.elements]):
        raise ParameterIncompatible("orbit strata are not indexed by the elements of W_K")
    start = tuple(map(add, act_twice(orbit.u, lam.twice), grading.rs.rho.twice))
    images = sweep(kdata.reflections, kdata.tree, start, True)
    return [(cell.length, dim, v) for cell, dim, v in zip(orbit.cells, kdata.lengthK, images)]


def schmid_table(grading: CompactGrading, kdata: KWeylData, orbit: ClosedOrbit,
                 lam: Weight) -> HomologyTable:
    """Discrete-series homology for one closed orbit.

    Only cells w*u, w in W_K, contribute; the weight w*u(lam) + rho sits,
    doubled, in degree q - l(wu) + 2 l_K(w).
    """
    check_schmid_parameter(grading.rs, lam)
    q = grading.q
    return HomologyTable.from_entries((q - cell + 2 * dim, weight)
                                      for cell, dim, weight in _cells(grading, kdata, orbit, lam))


def bgg_terms(rs: RootSystem, group: WeylGroup, lam: Weight) -> list[tuple[int, int, IntVec]]:
    """Dual-Verma resolution terms as (position, degree, 2 weight), one per w in W.

    W(dim X - p) sits at position p; each term is concentrated in degree
    dim X with weight w(lam - rho) + rho.
    """
    check_kostant_parameter(rs, lam)
    dim_x = len(rs.positive_roots)
    return [(dim_x - w.length, dim_x, weight)
            for w, weight in zip(group.elements, dot_orbit(group, lam))]


def trauber_terms(
    grading: CompactGrading, kdata: KWeylData, orbit: ClosedOrbit, lam: Weight
) -> list[tuple[int, int, IntVec]]:
    """Standard-module resolution terms as (position, degree, 2 weight), one per w in W_K.

    W_K(dim Q - p) sits at position p; the term of w lies in degree
    dim X - l(wu) + l_K(w) with weight wu(lam) + rho.
    """
    check_schmid_parameter(grading.rs, lam)
    dim_x = len(grading.rs.positive_roots)
    dim_q = len(grading.compact_positive)
    return [(dim_q - length_k, dim_x - length + length_k, weight)
            for length, length_k, weight in _cells(grading, kdata, orbit, lam)]


def collapse(terms: Iterable[tuple[int, int, IntVec]]) -> HomologyTable:
    """Collapse resolution terms to final degrees, one term at a time.

    Each (position, degree, weight) term lands in final degree
    ``degree - position``.
    """
    return HomologyTable.from_entries((d - p, weight) for p, d, weight in terms)


def kostant_via_bgg(rs: RootSystem, group: WeylGroup, lam: Weight) -> HomologyTable:
    """Recover the length-graded table through the BGG resolution pipeline."""
    return collapse(bgg_terms(rs, group, lam))


def schmid_via_trauber(
    grading: CompactGrading, kdata: KWeylData, orbit: ClosedOrbit, lam: Weight
) -> HomologyTable:
    """Recover the discrete-series table through the Trauber pipeline."""
    return collapse(trauber_terms(grading, kdata, orbit, lam))
