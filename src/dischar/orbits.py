"""Closed K-orbits as positive systems containing the compact positives.

Each closed orbit corresponds to exactly one positive system of the full
root system that contains R_c+; the element ``u`` with ``u(Sigma+) = that
system`` labels the orbit, and the orbit decomposes into |W_K| Bruhat
strata with cells w*u of dimension l_K(w).  A positive root beta lies in
that system exactly when ``u.rho_pairing(beta) > 0``, so the orbit stores
``u`` and not the system.  It stores only the cells, in ``kdata.elements``
order; the dimension of ``cells[k]`` is ``kdata.lengthK[k]``.
"""

from __future__ import annotations

from typing import NamedTuple

from .realform import CompactGrading, KWeylData
from .rootdata import RootSystem
from .weyl import WeylElement, WeylGroup


class ClosedOrbit(NamedTuple):
    """One closed K-orbit: its chamber element and its cells.

    ``cells[k]`` is ``elements[k] * u``, and ``elements`` is the very
    ``kdata.elements`` tuple of the W_K it was enumerated under.
    """

    u: WeylElement
    cells: tuple[WeylElement, ...]
    elements: tuple[WeylElement, ...]


def enumerate_closed_orbits(
    rs: RootSystem, grading: CompactGrading, group: WeylGroup, kdata: KWeylData
) -> list[ClosedOrbit]:
    """All closed orbits, ordered by ``u``'s reduced word; cells from one W_K sweep of u(rho)."""
    by_rho = kdata.weyl.by_rho
    orbits = [
        ClosedOrbit(u=w, cells=tuple([by_rho[image] for image in kdata.orbit(w.rho_image)]),
                    elements=kdata.elements)
        for w in group.elements
        if all(w.rho_pairing(alpha) > 0 for alpha in grading.compact_positive)
    ]
    orbits.sort(key=lambda orbit: orbit.u.reduced_word)
    return orbits
