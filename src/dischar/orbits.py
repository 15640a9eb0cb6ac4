"""Closed K-orbits as positive systems containing the compact positives.

Each closed orbit corresponds to exactly one positive system of the full
root system that contains R_c+; the element ``u`` with ``u(Sigma+) = that
system`` labels the orbit, and the orbit decomposes into |W_K| Bruhat
strata with cells w*u of dimension l_K(w).  A positive root beta lies in
that system exactly when ``u.rho_pairing(beta) > 0``, so the orbit stores
``u`` and not the system.
"""

from __future__ import annotations

from typing import NamedTuple

from .realform import CompactGrading, KWeylData
from .rootdata import RootSystem
from .weyl import WeylElement, WeylGroup


class Stratum(NamedTuple):
    w: WeylElement
    cell: WeylElement
    dim: int


class ClosedOrbit(NamedTuple):
    """One closed K-orbit: its chamber element and strata.

    ``strata[k]`` is the stratum of ``elements[k]``, and ``elements`` is the
    very ``kdata.elements`` tuple of the W_K it was enumerated under.
    """

    u: WeylElement
    strata: tuple[Stratum, ...]
    elements: tuple[WeylElement, ...]


def _strata_for(u: WeylElement, kdata: KWeylData) -> tuple[Stratum, ...]:
    """The strata (w, w*u, l_K(w)) in ``kdata.elements`` order, from one W_K sweep of u(rho)."""
    by_rho = kdata.weyl.by_rho
    return tuple(
        Stratum(w=w, cell=by_rho[image], dim=dim)
        for w, image, dim in zip(kdata.elements, kdata.orbit(u.rho_image), kdata.lengthK)
    )


def orbit_strata(orbit: ClosedOrbit) -> tuple[Stratum, ...]:
    """The Bruhat strata (w, w*u, l_K(w)) sorted by dimension then cell word."""
    return tuple(sorted(orbit.strata, key=lambda s: (s.dim, s.cell.reduced_word)))


def enumerate_closed_orbits(
    rs: RootSystem, grading: CompactGrading, group: WeylGroup, kdata: KWeylData
) -> list[ClosedOrbit]:
    """All closed orbits, canonically ordered by the reduced word of ``u``."""
    orbits = [
        ClosedOrbit(u=w, strata=_strata_for(w, kdata), elements=kdata.elements)
        for w in group.elements
        if all(w.rho_pairing(alpha) > 0 for alpha in grading.compact_positive)
    ]
    orbits.sort(key=lambda orbit: orbit.u.reduced_word)
    return orbits
