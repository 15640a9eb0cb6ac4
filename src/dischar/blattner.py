"""K-type multiplicities of discrete series via partition functions.

``partition``/``partition_p`` count representations of a weight as sums of
noncompact positive roots (a root may repeat; order is irrelevant).  The
closed multiplicity formula (Hecht-Schmid) alternates these counts over
W_K: m(nu) = sum_w (-1)^{l_K(w)} P(lam - rho_n - w(nu - rho_c)).

The closed formula works on a whole box of nu at once.  In simple-root
coordinates every argument is an integer vector

    base(nu) + N_w nu + c_w,

with base(nu) the root coordinates of lam - rho_n + rho_c - nu,
N_w = C^-1 (I - M_w) an integer matrix and c_w the root coordinates of
w rho_c - rho_c.  An argument lies in the root lattice exactly when base(nu)
does (for integral nu the other two terms are integral; a non-integral nu
leaves both off the lattice), so ``RootSystem.root_coords`` tests it once
per nu.  Once per call, in integers with the adjugate of C, each w is
pruned: every coordinate of its argument is affine in nu, so its maximum
over the box the lattice nu span is a sum of one end per axis, and a w with
a negative maximum never reaches the cone and is dropped.  The N_w nu + c_w
of the kept w are one stacked list, stepped from one nu to the next by one
add per changed axis.  A first pass over the arguments that lie in the cone
finds their maximum; one flat table of P over 0 <= m <= max(arguments) is
filled coin-change style (P[m + beta] += P[m] for each noncompact root beta
in turn), and a second pass reads every term from it.  The noncompact cone
is thin, so most cells stay zero: the fill visits only the nonzero ones,
kept in one bucket per height, and a step off the extent lands on a pad
cell that holds None.  The table belongs to the call: the grading keeps no
memo.

The ``filtration_oracle``/``filtration_table`` pair re-derives the same
numbers on an independent code path: S(p) filtered by noncompact degree.  A
twist depends only on the sum kappa of its noncompact roots, so a dict
convolution (no partition table, W_K alternation or pruning) counts the
multisets by sum, and the Borel-Weil-Bott step for K resolves each distinct
kappa once.  One walk, up to the largest degree any nu of the box needs,
serves the whole box: it keeps the results whose lowest K-weight is a point
of the box, summed by that weight.

Sizes the caller controls are bounded before the work they size: the number
of box points (``MAX_BOX_POINTS``), the entries of the partition table
(``MAX_TABLE_ENTRIES``) and its cells with the pads (``MAX_TABLE_CELLS``),
and the multisets of at most the oracle's level roots, which bound its sums
and BWB calls (``MAX_ORACLE_MULTISETS``, checked each time the level sweep
finds a higher level).  Each raises a ``ValidationError``.
"""

from __future__ import annotations

import itertools
import math
from operator import add, le, mul, sub
from typing import TYPE_CHECKING, Iterator, Mapping, NamedTuple, Sequence

from .errors import (
    BoxTooLarge,
    InvariantViolation,
    ParameterIncompatible,
    PartitionTableTooLarge,
    TruncationTooLarge,
)
from .realform import CompactGrading, KWeylData
from .rootdata import Weight, check_rank, check_schmid_parameter

if TYPE_CHECKING:
    from numbers import Rational

    Box = tuple[Sequence[Rational], Sequence[Rational]]

IntVec = tuple[int, ...]

# nu points one box may span (before the R_c+ antidominance filter)
MAX_BOX_POINTS = 100_000
# entries of one partition table, pads left out; F4 (+,+,+,-) at lam = -2 rho,
# nu = (-6)^4 needs 4.86 M (about 0.3 s and 86 MB peak RSS)
MAX_TABLE_ENTRIES = 5_000_000
# cells of one partition table, pads included: every axis carries a pad, so
# on many short axes the pads outgrow the entries (that F4 table has 5.86 M)
MAX_TABLE_CELLS = 10_000_000
# multisets of at most level noncompact roots: a bound on the oracle's sums and BWB calls
MAX_ORACLE_MULTISETS = 2_000_000


class KTypeTable(NamedTuple):
    """Multiplicities keyed by the lowest K-weight; zero entries omitted."""

    entries: Mapping[Weight, int]

    def sorted_entries(self) -> list[tuple[Weight, int]]:
        return sorted(self.entries.items(), key=lambda item: item[0].twice)


def _noncompact_root_coords(grading: CompactGrading) -> tuple[IntVec, ...]:
    return tuple(r.root_coords for r in grading.noncompact_positive)


class _PartitionTable:
    """Multisets of ``roots`` summing to m, for every 0 <= m <= extent, as one flat list.

    Every axis is followed by a pad as long as the largest coordinate a root
    that fits has on it.  Pad cells hold None and the cells of the extent
    start at 0, so a step m + beta off the extent lands on a pad cell, never
    on another row, and m = 0 is cell 0.  The fill is coin-change style,
    P[m + beta] += P[m], one root at a time, over the nonzero cells only:
    they are kept in one list per height (the sum of the root coordinates).
    A root has height at least 1, so its pass takes the buckets in
    increasing height, m before m + beta, and a cell it makes nonzero joins
    a later bucket of the same pass.  The work is the nonzero cells times
    the roots.  Before the list is built, ``MAX_TABLE_ENTRIES`` bounds the
    extent's entries and ``MAX_TABLE_CELLS`` the whole list, pads included.
    """

    def __init__(self, roots: Sequence[IntVec], extent: IntVec) -> None:
        dims = [e + 1 for e in extent]
        volume = math.prod(dims)
        if volume > MAX_TABLE_ENTRIES:
            raise PartitionTableTooLarge(
                f"partition table over 0..{list(extent)} has {volume} entries; "
                f"the limit is {MAX_TABLE_ENTRIES}"
            )
        roots = [beta for beta in roots if all(map(le, beta, extent))]
        pads = [max(axis) for axis in zip(*roots)] or [0] * len(dims)
        cells = math.prod(map(add, dims, pads))
        if cells > MAX_TABLE_CELLS:
            raise PartitionTableTooLarge(
                f"partition table over 0..{list(extent)} has {cells} cells with its pads; "
                f"the limit is {MAX_TABLE_CELLS}"
            )
        strides: list[int] = []
        values: list[int | None] = [0]
        # the axes from fastest to slowest, each block its extent then its pad
        for dim, pad in zip(reversed(dims), reversed(pads)):
            strides.append(len(values))
            values *= dim
            values += itertools.repeat(None, pad * strides[-1])
        self.strides: IntVec = tuple(reversed(strides))
        values[0] = 1
        buckets: list[list[int]] = [[] for _ in range(sum(extent) + 1)]
        buckets[0].append(0)
        for beta in roots:
            offset, height = sum(map(mul, beta, self.strides)), sum(beta)
            for low, high in zip(buckets, buckets[height:]):
                for cell in low:
                    up = cell + offset
                    count = values[up]
                    if count:
                        values[up] = count + values[cell]
                    elif count == 0:  # None is a pad cell: the step left the extent
                        values[up] = values[cell]
                        high.append(up)
        self.values = values

    def __getitem__(self, m: IntVec) -> int:
        return self.values[sum(map(mul, m, self.strides))]


def partition_p(grading: CompactGrading, mu: Weight, p: int) -> int:
    """Number of ways to write mu as a sum of exactly p noncompact positive roots.

    The entry (mu, p) of the partition table of the roots (beta, 1), whose
    last coordinate counts the parts.
    """
    if p < 0:
        return 0
    target = grading.rs.root_coords(mu.twice)
    if target is None or any(c < 0 for c in target):
        return 0
    counted = [beta + (1,) for beta in _noncompact_root_coords(grading)]
    return _PartitionTable(counted, target + (p,))[target + (p,)]


def partition(grading: CompactGrading, mu: Weight) -> int:
    """Number of ways to write mu as a sum of noncompact positive roots.

    Finite because the noncompact positives lie in an open half space;
    zero off the cone, and 1 for mu = 0 (the empty sum).
    """
    target = grading.rs.root_coords(mu.twice)
    if target is None or any(c < 0 for c in target):
        return 0
    return _PartitionTable(_noncompact_root_coords(grading), target)[target]


def bwb_cohomology(
    grading: CompactGrading, kdata: KWeylData, eta: Weight
) -> tuple[int, Weight] | None:
    """Borel-Weil-Bott step for K applied to the shifted parameter ``eta``.

    Returns None when eta is singular for a compact root.  Otherwise the
    unique w in W_K with w^{-1} eta strictly antidominant for R_c+ gives the
    cohomological degree l_K(w) and the lowest K-weight w^{-1} eta + rho_c.

    w^{-1} eta is reached by walking the chambers: while eta pairs positively
    with a simple compact coroot, reflect it by that root.  Each step makes
    one more compact positive root pair negatively, so the walk takes
    l_K(w) steps and ends in the closed antidominant chamber, where eta is
    singular exactly when it pairs to zero with a simple compact coroot.
    """
    check_rank(grading.rs, eta)
    simple = [(alpha.coroot_coords, alpha.fw_coords) for alpha in kdata.simpleK]
    # the walk runs on 2 eta, which pairs with the same signs and reflects
    # the same way
    coords = list(eta.twice)
    steps = i = 0
    while i < len(simple):
        coroot, root = simple[i]
        value = sum(map(mul, coroot, coords))
        if value > 0:
            coords = [c - value * r for c, r in zip(coords, root)]
            steps += 1
            if steps > len(grading.compact_positive):
                raise InvariantViolation("chamber walk is longer than |R_c+| steps")
            i = 0
        else:
            i += 1
    if any(sum(map(mul, coroot, coords)) == 0 for coroot, _root in simple):
        return None
    return steps, Weight.from_twice(tuple(map(add, coords, grading.rho_c.twice)))


def _check_nu(grading: CompactGrading, nu: Weight) -> None:
    check_rank(grading.rs, nu)
    for alpha in grading.compact_positive:
        twice = sum(map(mul, alpha.coroot_coords, nu.twice))  # 2 <alpha-check, nu>
        if twice & 1:
            raise ParameterIncompatible("nu must pair integrally with compact coroots")
        if twice > 0:
            raise ParameterIncompatible("nu must be antidominant for R_c+")


def _box_points(grading: CompactGrading, box: Box) -> list[Weight]:
    """The integral nu of a box that are antidominant for R_c+, in box order."""
    rs = grading.rs
    lo, hi = box
    if len(lo) != rs.rank or len(hi) != rs.rank:
        raise ParameterIncompatible("box endpoints must have one entry per rank")
    spans = [(math.ceil(a), math.floor(b)) for a, b in zip(lo, hi)]
    count = math.prod(max(0, b - a + 1) for a, b in spans)
    if count > MAX_BOX_POINTS:
        raise BoxTooLarge(f"nu box spans {count} points; the limit is {MAX_BOX_POINTS}")
    if not count:  # product() would still build every other axis in full
        return []
    axes = [range(a, b + 1) for a, b in spans]
    coroots = [a.coroot_coords for a in grading.compact_positive]
    # the integer box coordinates are paired directly; only the points kept become weights
    return [
        Weight(coords) for coords in itertools.product(*axes)
        if not any(sum(map(mul, coroot, coords)) > 0 for coroot in coroots)
    ]


Terms = tuple[list[int], list[list[int]], list[int]]


def _alternating_terms(
    grading: CompactGrading, kdata: KWeylData, lam: Weight, lo: IntVec, hi: IntVec
) -> Terms:
    """(-1)^{l_K(w)}, the columns of N_w = C^-1 (I - M_w) and c_w, for the w that reach the cone.

    A w is kept when :func:`_reaches_cone` holds for it over the box
    lo <= nu <= hi.  The columns and the c_w of the kept w are stacked in
    W_K order, so one add per axis moves every argument.  All of it is
    integer arithmetic with the adjugate adj = det(C) C^-1.
    """
    rs = grading.rs
    rank, adj, det = rs.rank, rs.cartan_adj, rs.cartan_det

    def times_adj(vec: IntVec) -> list[int]:
        return [sum(map(mul, row, vec)) for row in adj]

    # w(e_j) and w(2 rho_c) for every w: one W_K sweep per vector
    moved = [kdata.orbit(tuple(int(i == j) for i in range(rank))) for j in range(rank)]
    anchor = times_adj((lam - grading.rho_n).twice)
    adj_rho_c = times_adj(grading.rho_c.twice)
    signs: list[int] = []
    columns: list[list[int]] = [[] for _ in range(rank)]
    offsets: list[int] = []
    for k, (length_k, image) in enumerate(zip(kdata.lengthK, kdata.orbit(grading.rho_c.twice))):
        turned = [times_adj(orbit[k]) for orbit in moved]  # adj w(e_j)
        lifted = times_adj(image)  # adj w(2 rho_c)
        if not _reaches_cone(list(map(add, anchor, lifted)), turned, lo, hi):
            continue
        signs.append(-1 if length_k % 2 else 1)
        for j, column in enumerate(turned):
            columns[j].extend(row[j] - c for row, c in zip(adj, column))
        offsets.extend(map(sub, lifted, adj_rho_c))
    if any(c % det for column in columns for c in column) or any(c % (2 * det) for c in offsets):
        raise InvariantViolation("a W_K difference left the root lattice")
    return signs, [[c // det for c in column] for column in columns], [c // (2 * det) for c in offsets]


def _reaches_cone(
    anchor: Sequence[int], turned: Sequence[Sequence[int]], lo: IntVec, hi: IntVec
) -> bool:
    """Whether no coordinate of anchor - 2 sum_j nu_j turned[j] is negative all over lo <= nu <= hi.

    That vector is 2 det(C) times the root coordinates of the argument
    lam - rho_n - w(nu - rho_c).  Each coordinate is affine in nu, so its
    maximum over the box takes, on each axis, the end where its term is
    largest; if that maximum is negative, the argument is off the cone at
    every nu of the box.
    """
    return all(
        a - 2 * sum(min(t * low, t * high) for t, low, high in zip(row, lo, hi)) >= 0
        for a, row in zip(anchor, zip(*turned))
    )


def _stepped_arguments(
    terms: Terms, lattice: Sequence[tuple[IntVec, IntVec]]
) -> Iterator[list[tuple[int, IntVec]]]:
    """The in-cone arguments, as (sign, root coordinates), of each (nu, base(nu)) in turn.

    N_w nu + c_w of every kept w is one stacked list, moved from one nu to
    the next by one add of a column per axis that changes.
    """
    signs, columns, offsets = terms
    rank = len(columns)
    cuts = [(i * rank, (i + 1) * rank) for i in range(len(signs))]
    moved, at = offsets, (0,) * rank
    for coords, base in lattice:
        for column, old, new in zip(columns, at, coords):
            if new != old:
                moved = [m + (new - old) * c for m, c in zip(moved, column)]
        at = coords
        flat = list(map(add, moved, base * len(signs)))
        found = []
        for sign, (a, b) in zip(signs, cuts):
            target = tuple(flat[a:b])
            if min(target, default=0) >= 0:
                found.append((sign, target))
        yield found


def _closed_formula(
    grading: CompactGrading, kdata: KWeylData, lam: Weight, points: Sequence[Weight]
) -> list[int]:
    """Blattner multiplicities of every nu in ``points``, from one partition table.

    The caller checks lam and the points (box points are antidominant for
    R_c+ by construction).  Only a nu with base(nu) in the root lattice has
    arguments there, and W_K is pruned once against the box those nu span.
    The arguments are generated twice, once for the table's extent and once
    to read it, so memory stays that of the table for any number of points.
    The extent is a running maximum, checked against ``MAX_TABLE_ENTRIES``
    each time a nu makes it grow, so a box whose table is refused is refused
    at the first nu whose arguments pass the bound.
    """
    rs = grading.rs
    shift = (lam - grading.rho_n + grading.rho_c).twice
    index, lattice = [], []
    for k, nu in enumerate(points):
        base = rs.root_coords(tuple(map(sub, shift, nu.twice)))
        if base is not None:
            index.append(k)
            lattice.append((nu.coords, base))
    values = [0] * len(points)
    if not lattice:
        return values
    axes = list(zip(*(coords for coords, _base in lattice)))
    terms = _alternating_terms(grading, kdata, lam, tuple(map(min, axes)), tuple(map(max, axes)))
    extent = (0,) * rs.rank
    for found in filter(None, _stepped_arguments(terms, lattice)):
        grown = tuple(map(max, extent, *(target for _sign, target in found)))
        if grown != extent and (entries := math.prod(e + 1 for e in grown)) > MAX_TABLE_ENTRIES:
            raise PartitionTableTooLarge(f"partition table grows to 0..{list(grown)} with "
                                         f"{entries} entries; the limit is {MAX_TABLE_ENTRIES}")
        extent = grown
    table = _PartitionTable(_noncompact_root_coords(grading), extent)
    for k, found in zip(index, _stepped_arguments(terms, lattice)):
        values[k] = sum(sign * table[t] for sign, t in found)
    return values


def blattner_multiplicity(
    grading: CompactGrading, kdata: KWeylData, lam: Weight, nu: Weight
) -> int:
    """Multiplicity of the K-type with lowest weight nu, by the closed formula."""
    check_schmid_parameter(grading.rs, lam)
    _check_nu(grading, nu)
    return _closed_formula(grading, kdata, lam, [nu])[0]


def ktype_table(
    grading: CompactGrading, kdata: KWeylData, lam: Weight, box: Box
) -> KTypeTable:
    """Blattner multiplicities for every antidominant integral nu in a box."""
    points = _box_points(grading, box)
    check_schmid_parameter(grading.rs, lam)
    values = _closed_formula(grading, kdata, lam, points)
    return KTypeTable(entries={nu: v for nu, v in zip(points, values) if v})


def _filtration_level(
    grading: CompactGrading, kdata: KWeylData, lam: Weight, points: Sequence[Weight]
) -> int:
    """The highest noncompact degree of a kappa that reaches any nu in ``points``.

    Each nu is reached by kappa = lam - rho_n - w(nu - rho_c), w in W_K.  These
    differ from lam - rho_n + rho_c - nu by root-lattice vectors (nu pairs
    integrally with the compact coroots), so one lattice test per nu serves
    every w; (lam - rho_n) + w rho_c is computed once per w.  The walk needs
    the kappa in the cone, up to the largest degree among them: the sum of
    kappa's root coordinates on the noncompact simple roots.  Each time that
    degree grows it is checked against the walk's bound, so a box whose walk
    is refused is refused at the first kappa past the bound, before the rest
    of the sweep.
    """
    root_coords = grading.rs.root_coords
    shifted = (lam - grading.rho_n).twice
    # doubled (lam - rho_n) + w rho_c; the first, at w = 1, is lam - rho_n + rho_c
    anchors = [tuple(map(add, shifted, v)) for v in kdata.orbit(grading.rho_c.twice)]
    noncompact = [i for i, s in enumerate(grading.simple_signs) if s == -1]
    needed = 0
    for nu in points:
        if root_coords(tuple(map(sub, anchors[0], nu.twice))) is None:
            continue
        for anchor, image in zip(anchors, kdata.orbit(nu.twice)):
            coords = root_coords(tuple(map(sub, anchor, image)))
            if coords is None:
                raise InvariantViolation("a W_K difference left the root lattice")
            if min(coords, default=0) >= 0:
                level = sum(coords[i] for i in noncompact)
                if level > needed:
                    _check_walk_size(grading, level)
                    needed = level
    return needed


def _check_walk_size(grading: CompactGrading, level: int) -> None:
    walked = math.comb(grading.q + level, level)
    if walked > MAX_ORACLE_MULTISETS:
        raise TruncationTooLarge(
            f"walk reaches level {level}, which needs {walked} multisets; "
            f"the limit is {MAX_ORACLE_MULTISETS}"
        )


def _filtration_walk(
    grading: CompactGrading, kdata: KWeylData, lam: Weight, level: int, points: Sequence[Weight]
) -> dict[Weight, int]:
    """Signed BWB contributions of S(p) up to noncompact degree ``level``, at the nu in ``points``.

    A twist depends on its multiset of noncompact roots only through the sum
    kappa, so each distinct kappa is resolved once, by ``bwb_cohomology`` of
    lam - rho_n - kappa, and counted c(kappa) times, the multisets summing to
    kappa, with sign (-1)^(cohomological degree).  c is filled coin-change
    style on doubled vectors, c(kappa + beta) += c(kappa) one root beta at a
    time, in one dict per noncompact degree; a noncompact root has odd, hence
    positive, degree.  A kappa of degree at most ``level`` is a sum of at most
    ``level`` roots, so the multisets ``_check_walk_size`` counts bound the
    sums and the BWB calls.  Each dict is cleared once its sums are resolved,
    and a result is kept only when its lowest K-weight is one of ``points``.
    """
    _check_walk_size(grading, level)
    noncompact = [i for i, s in enumerate(grading.simple_signs) if s == -1]
    counts: list[dict[IntVec, int]] = [{(0,) * grading.rs.rank: 1}] + [{} for _ in range(level)]
    for root in grading.noncompact_positive:
        beta = tuple(2 * c for c in root.fw_coords)
        for low, high in zip(counts, counts[sum(root.root_coords[i] for i in noncompact):]):
            for kappa, count in low.items():
                up = tuple(map(add, kappa, beta))
                high[up] = high.get(up, 0) + count
    shifted = (lam - grading.rho_n).twice
    wanted = set(points)
    buckets: dict[Weight, int] = {}
    for sums in counts:
        for kappa, count in sums.items():
            eta = Weight.from_twice(tuple(map(sub, shifted, kappa)))
            result = bwb_cohomology(grading, kdata, eta)
            if result is not None and result[1] in wanted:
                degree, lowest = result
                buckets[lowest] = buckets.get(lowest, 0) + (-count if degree % 2 else count)
        sums.clear()
    return buckets


def filtration_oracle(
    grading: CompactGrading, kdata: KWeylData, lam: Weight, nu: Weight
) -> int:
    """Re-derive the multiplicity by walking the normal-degree filtration.

    Independent of the closed formula: no partition function is consulted.
    The walk goes up to the level nu needs.
    """
    check_schmid_parameter(grading.rs, lam)
    _check_nu(grading, nu)
    level = _filtration_level(grading, kdata, lam, [nu])
    return _filtration_walk(grading, kdata, lam, level, [nu]).get(nu, 0)


def filtration_table(
    grading: CompactGrading, kdata: KWeylData, lam: Weight, box: Box
) -> KTypeTable:
    """The oracle's multiplicities for every nu that ``ktype_table`` evaluates.

    One walk up to the largest level any nu of the box needs serves them all.
    """
    points = _box_points(grading, box)
    check_schmid_parameter(grading.rs, lam)
    level = _filtration_level(grading, kdata, lam, points)
    buckets = _filtration_walk(grading, kdata, lam, level, points)
    return KTypeTable(entries={nu: buckets[nu] for nu in points if buckets.get(nu)})
