"""Self-check suite for one (Cartan matrix, grading) configuration.

Each section re-derives a family of identities and returns the text of its
first failure, or None; ``run_verify`` makes one pass/fail result of each,
named from ``SECTIONS``, in that fixed order.  The grading and W_K come from
the caller's set-up, the one the CLI builds for every command; the closed
orbits and the blattner section's oracle table are built once, before any
section runs, and shared.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import product
from operator import mul
from typing import Callable, NamedTuple

from .blattner import KTypeTable, filtration_table, ktype_table, partition, partition_p
from .characters import (
    discrete_numerator,
    euler_character,
    freudenthal_character,
    times_denominator,
    weyl_denominator,
    weyl_numerator,
)
from .homology import kostant_table, kostant_via_bgg, schmid_table, schmid_via_trauber
from .orbits import ClosedOrbit, enumerate_closed_orbits
from .realform import CompactGrading, KWeylData, validate_grading
from .rootdata import RootSystem, Weight, coroot_pairing
from .weyl import act, dot_orbit


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


class VerifyContext(NamedTuple):
    grading: CompactGrading
    kdata: KWeylData
    orbits: list[ClosedOrbit]
    # the blattner section's oracle table, walked before any section runs
    blattner_oracle: KTypeTable


def _check_root_system(ctx: VerifyContext) -> str | None:
    rs = ctx.grading.rs
    positive = set(rs.positive_roots)
    for alpha in rs.positive_roots:
        if coroot_pairing(alpha, alpha.weight()) != 2:
            return "coroot self-pairing is not 2"
    for alpha in rs.simple_roots:
        images = set()
        for beta in rs.positive_roots:
            if beta == alpha:
                continue
            shift = sum(map(mul, alpha.coroot_coords, beta.fw_coords))
            coords = tuple(b - shift * a for a, b in zip(alpha.root_coords, beta.root_coords))
            image = rs.by_root_coords.get(coords)
            if image is None:
                return "simple reflection does not permute the positives"
            images.add(image)
        if images != positive - {alpha}:
            return "reflection image set mismatch"
    if rs.rho.coords != (1,) * rs.rank:
        return "rho is not the all-ones vector"
    for j, alpha in enumerate(rs.simple_roots):
        if alpha.fw_coords != tuple(rs.cartan[i][j] for i in range(rs.rank)):
            return "fw coordinates mismatch column"
    return None


def _check_weyl_group(ctx: VerifyContext) -> str | None:
    rs, group = ctx.grading.rs, ctx.kdata.weyl
    for w in group.elements:  # l(w) = #{alpha > 0 : <alpha-check, w rho> < 0}
        if sum(w.rho_pairing(alpha) < 0 for alpha in rs.positive_roots) != w.length:
            return f"word length of {w.word_str()} disagrees with its inversion count"
    fiber_sizes = Counter(w.length for w in group.elements)
    fibers = [fiber_sizes[p] for p in range(group.longest.length + 1)]
    if sum(fibers) != group.order:
        return "length fibers do not cover the group"
    if fibers != fibers[::-1]:
        return "length generating function not palindromic"
    rho = rs.rho
    for w in group.elements:  # the word's action against the closure's w(rho)
        if act(w, rho) != Weight(w.rho_image):
            return f"word of {w.word_str()} does not take rho to its stored image"
    rng = random.Random(7)
    for _ in range(5):
        lam = Weight([rng.randint(-6, 6) for _ in range(group.rank)])
        expected = [(act(w, lam - rho) + rho).twice for w in group.elements]
        if dot_orbit(group, lam) != expected:
            return "dot orbit disagrees with the word action"
    return None


def _check_grading(ctx: VerifyContext) -> str | None:
    grading, kdata = ctx.grading, ctx.kdata
    signs = {**dict.fromkeys(grading.compact_positive, 1),
             **dict.fromkeys(grading.noncompact_positive, -1)}
    if not validate_grading(grading.rs, signs):
        return "derived grading is not multiplicative"
    if grading.rho_c + grading.rho_n != grading.rs.rho:
        return "rho_c + rho_n differs from rho"
    if grading.q != len(grading.noncompact_positive):
        return "q mismatch"
    if kdata.weyl.order % kdata.order != 0:
        return "|W| not divisible by |W_K|"
    for alpha in kdata.simpleK:
        if coroot_pairing(alpha, grading.rho_c) != 1:
            return "rho_c does not pair to 1 on simpleK"
    for w, length_k in zip(kdata.elements, kdata.lengthK):
        # l_K(w) = #{beta in R_c+ : <beta-check, w rho> < 0}
        if sum(w.rho_pairing(beta) < 0 for beta in grading.compact_positive) != length_k:
            return f"l_K of {w.word_str()} disagrees with its compact inversion count"
        if (-1) ** w.length != (-1) ** length_k:
            return "sign restriction to W_K disagrees"
    return None


def _check_orbits(ctx: VerifyContext) -> str | None:
    grading, kdata, orbits = ctx.grading, ctx.kdata, ctx.orbits
    if len(orbits) * kdata.order != kdata.weyl.order:
        return "orbit count differs from |W|/|W_K|"
    cells = [cell.rho_image for orbit in orbits for cell in orbit.cells]
    if len(cells) != kdata.weyl.order or set(cells) != kdata.weyl.by_rho.keys():
        return "strata cells do not partition W"
    for orbit in orbits:
        if not all(orbit.u.rho_pairing(a) > 0 for a in grading.compact_positive):
            return "positive system misses R_c+"
    return None


def _weyl_sweep(rs: RootSystem) -> list[Weight]:
    lams = [Weight((0,) * rs.rank), Weight((-1,) * rs.rank)]
    for i in range(rs.rank):
        lams.append(Weight(tuple(-2 if j == i else 0 for j in range(rs.rank))))
    return lams


def _check_weyl_identity(ctx: VerifyContext) -> str | None:
    rs, group = ctx.grading.rs, ctx.kdata.weyl
    weyl_denominator(rs, group)  # raises unless the product and the W-sum agree
    for lam in _weyl_sweep(rs):
        num = weyl_numerator(rs, group, lam)
        if times_denominator(rs, freudenthal_character(rs, lam)) != num:
            return f"character identity fails at {lam.serialize()}"
    return None


def _check_kostant(ctx: VerifyContext) -> str | None:
    rs, group = ctx.grading.rs, ctx.kdata.weyl
    fiber_sizes = Counter(w.length for w in group.elements)
    for lam in _weyl_sweep(rs):
        table = kostant_table(rs, group, lam)
        for p, row in table.rows.items():
            if len(row) != fiber_sizes[p]:
                return "row size differs from |W(p)|"
        if euler_character(table) != weyl_numerator(rs, group, lam):
            return "Euler characteristic mismatch"
        if kostant_via_bgg(rs, group, lam) != table:
            return "BGG pipeline mismatch"
    return None


def _schmid_sweep(rs: RootSystem) -> list[Weight]:
    rho = rs.rho
    lams = [-rho, -rho - rho]
    for i in range(rs.rank):
        lams.append(-rho - Weight(tuple(int(j == i) for j in range(rs.rank))))
    return lams


def _check_schmid(ctx: VerifyContext) -> str | None:
    grading, kdata, orbits = ctx.grading, ctx.kdata, ctx.orbits
    for lam in _schmid_sweep(grading.rs):
        for orbit in orbits:
            table = schmid_table(grading, kdata, orbit, lam)
            if table.total_multiplicity() != kdata.order:
                return "table size differs from |W_K|"
            if schmid_via_trauber(grading, kdata, orbit, lam) != table:
                return "Trauber pipeline mismatch"
        base = schmid_table(grading, kdata, orbits[0], lam)
        if euler_character(base) != discrete_numerator(grading, kdata, lam):
            return "elliptic numerator mismatch"
    return None


def _check_partitions(ctx: VerifyContext) -> str | None:
    grading, rs = ctx.grading, ctx.grading.rs
    noncompact = [r.root_coords for r in grading.noncompact_positive]

    def enumerate_count(target: tuple[int, ...], parts: int | None) -> int:
        found = 0
        stack = [(0, target, 0)]
        while stack:
            idx, remaining, used = stack.pop()
            if idx == len(noncompact):
                if all(c == 0 for c in remaining) and (parts is None or used == parts):
                    found += 1
                continue
            beta = noncompact[idx]
            k = 0
            current = remaining
            while all(c >= 0 for c in current) and (parts is None or used + k <= parts):
                stack.append((idx + 1, current, used + k))
                k += 1
                current = tuple(c - b for c, b in zip(current, beta))
        return found

    if partition(grading, Weight.zero(rs.rank)) != 1:
        return "P(0) is not 1"

    for coords in filter(lambda c: sum(c) <= 4, product(range(5), repeat=rs.rank)):
        mu = Weight(tuple(sum(map(mul, row, coords)) for row in rs.cartan))
        if partition(grading, mu) != enumerate_count(coords, None):
            return f"P mismatch at {coords}"
        graded = [partition_p(grading, mu, p) for p in range(sum(coords) + 1)]
        if graded != [enumerate_count(coords, p) for p in range(len(graded))]:
            return f"P_p mismatch at {coords}"
        if partition(grading, mu) != sum(graded):
            return f"graded sum mismatch at {coords}"
    return None


def _blattner_case(rs: RootSystem) -> tuple[Weight, tuple[tuple[int, ...], tuple[int, ...]]]:
    """The blattner section's lam and nu box."""
    return -rs.rho - rs.rho, ((-5,) * rs.rank, (0,) * rs.rank)


def _check_blattner(ctx: VerifyContext) -> str | None:
    closed = ktype_table(ctx.grading, ctx.kdata, *_blattner_case(ctx.grading.rs)).entries
    oracle = ctx.blattner_oracle.entries
    for nu in sorted(closed.keys() | oracle.keys()):
        value = closed.get(nu, 0)
        if value < 0:
            return f"negative multiplicity at {nu.coords}"
        if value != oracle.get(nu, 0):
            return f"oracle mismatch at {nu.coords}"
    return None


SECTIONS: tuple[tuple[str, Callable[[VerifyContext], str | None]], ...] = (
    ("root-system", _check_root_system),
    ("weyl-group", _check_weyl_group),
    ("grading", _check_grading),
    ("orbits", _check_orbits),
    ("weyl-identity", _check_weyl_identity),
    ("kostant", _check_kostant),
    ("schmid-trauber", _check_schmid),
    ("partitions", _check_partitions),
    ("blattner", _check_blattner),
)


def run_verify(grading: CompactGrading, kdata: KWeylData) -> list[CheckResult]:
    """Run every section on one set-up; order of results is fixed.

    The blattner section's oracle table is walked first, so a configuration
    whose walk is refused (``TruncationTooLarge``) fails before any section
    runs; the section then compares the closed formula with that table.
    """
    oracle = filtration_table(grading, kdata, *_blattner_case(grading.rs))
    orbits = enumerate_closed_orbits(grading.rs, grading, kdata.weyl, kdata)
    ctx = VerifyContext(grading=grading, kdata=kdata, orbits=orbits, blattner_oracle=oracle)
    details = [(name, check(ctx)) for name, check in SECTIONS]
    return [CheckResult(name, detail is None, detail or "") for name, detail in details]
