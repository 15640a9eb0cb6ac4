"""Test-side stand-ins for conveniences the library does not carry.

The library keeps what its commands, ``verify`` and the benchmark call.
These rebuild the rest from its public names, the way ``matrix_oracle``
rebuilds the dense closure.  ``reference_closed_formula`` and
``RowPartitionTable`` keep the plain Blattner closed formula, with no
pruning, stepping or padding, as the reference for the fast one.
``solve_root_coords`` is the rational reference for ``RootSystem.root_coords``.
``inverse`` finds w^-1 by its reversed word.
``multiset_walk`` resolves one Borel-Weil-Bott twist per multiset of
noncompact roots, the reference for the oracle's fill by distinct sums.
``product`` is the general character product, the reference for
``times_denominator``.  ``dominant_representative`` lifts
``rootdata.dominant_twice`` to weights.  ``sign_by_root`` is a grading's
compact/noncompact split as a +1/-1 map on the positive roots.
"""

import itertools
import math
from fractions import Fraction
from operator import add, mul

from dischar import FormalCharacter, Weight, act, bwb_cohomology
from dischar.rootdata import dominant_twice
from dischar.weyl import reflect


def compose(group, a, b):
    """The element of ``group`` equal to a after b: a(b(rho)) looked up in ``by_rho``."""
    return group.by_rho[act(a, Weight(b.rho_image)).coords]


def inverse(group, w):
    """The element of ``group`` whose word is w's reversed: w^-1(rho) looked up in ``by_rho``."""
    vec = (1,) * group.rank
    for j in w.reduced_word:  # the reversed word, applied last letter first
        vec = reflect(w.reflections[j], vec)
    return group.by_rho[vec]


def sign_by_root(grading):
    """+1 on each compact positive root and -1 on each noncompact one."""
    signs = dict.fromkeys(grading.compact_positive, 1)
    signs.update(dict.fromkeys(grading.noncompact_positive, -1))
    return signs


def simple_reflections(group):
    """s_1, ..., s_n: the elements of length one, in generator order."""
    return group.elements[1:group.rank + 1]


def length_fiber(group, p):
    """The elements of length p in ``elements`` order."""
    return tuple(w for w in group.elements if w.length == p)


def solve_root_coords(rs, lam):
    """The n with C n = lam, by Fraction elimination: lam's simple-root coordinates.

    A root sum(n_j alpha_j) has fw coordinates C n, so this inverts that
    map with no adjugate and no integer shortcut.
    """
    rank = rs.rank
    rows = [[Fraction(x) for x in row] + [Fraction(c)] for row, c in zip(rs.cartan, lam.coords)]
    for col in range(rank):
        pivot = next(r for r in range(col, rank) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(rank):
            if r != col and rows[r][col]:
                factor = rows[r][col] / rows[col][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return tuple(rows[i][rank] / rows[i][i] for i in range(rank))


def lattice_coords(rs, lam):
    """``solve_root_coords`` as ints, or None when a coordinate is not an integer."""
    n = solve_root_coords(rs, lam)
    if any(c.denominator != 1 for c in n):
        return None
    return tuple(int(c) for c in n)


def product(x, y):
    """The product of two formal characters: |support x| * |support y| weight sums."""
    small, large = (x, y) if len(x.terms) <= len(y.terms) else (y, x)
    return FormalCharacter((tuple(map(add, w1, w2)), c1 * c2) for w1, c1 in small.terms.items()
                           for w2, c2 in large.terms.items())


def dominant_representative(rs, lam):
    """The dominant weight in the Weyl orbit of ``lam``: ``dominant_twice`` on 2 lam."""
    return Weight.from_twice(dominant_twice(rs, lam.twice))


def scaled(weight, factor):
    """factor * weight, for an int or Fraction factor."""
    return Weight([c * factor for c in weight.coords])


class RowPartitionTable:
    """The partition table filled one row of the fastest axis at a time.

    The reference for ``dischar.blattner._PartitionTable``: the same
    entries, from the plain coin-change sweep on an unpadded layout.
    """

    def __init__(self, roots, extent):
        dims = [e + 1 for e in extent]
        # axes from slowest to fastest
        order = sorted(range(len(dims)), key=lambda i: dims[i])
        strides = [0] * len(dims)
        step = 1
        for i in reversed(order):
            strides[i] = step
            step *= dims[i]
        self.strides = tuple(strides)
        table = [0] * math.prod(dims)
        table[0] = 1
        for beta in roots:
            if any(b > e for b, e in zip(beta, extent)):
                continue
            self._add_root(table, dims, order, beta)
        self.values = table

    def _add_root(self, table, dims, order, beta):
        """P[m] += P[m - beta] for every m >= beta, in increasing order of m.

        With k the fastest axis where beta is nonzero, the m >= beta that
        share their coordinates on the axes slower than k form one
        contiguous run.  If beta is also nonzero on a slower axis, its flat
        offset exceeds the run and the run reads only earlier, finished
        runs; otherwise the run is swept in chunks of the offset, each
        reading the chunk before it.
        """
        strides = self.strides
        pos = max(p for p, i in enumerate(order) if beta[i])
        k = order[pos]
        offset = sum(map(mul, beta, strides))
        run = (dims[k] - beta[k]) * strides[k]
        slower = order[:pos]
        outer_ranges = [range(beta[i], dims[i]) for i in slower]
        outer_strides = [strides[i] for i in slower]
        for outer in itertools.product(*outer_ranges):
            start = sum(map(mul, outer, outer_strides)) + beta[k] * strides[k]
            end = start + run
            step = run if offset >= run else offset
            for lo in range(start, end, step):
                hi = min(lo + step, end)
                table[lo:hi] = map(add, table[lo:hi], table[lo - offset:hi - offset])

    def __getitem__(self, m):
        return self.values[sum(map(mul, m, self.strides))]


def _reference_terms(grading, kdata):
    """(-1)^{l_K(w)}, the rows of N_w = C^-1 (I - M_w) and c_w, over all of W_K."""
    rs = grading.rs
    units = [Weight(tuple(int(i == j) for i in range(rs.rank))) for j in range(rs.rank)]
    moved = [kdata.orbit(e.twice) for e in units]
    signs, rows, offsets = [], [], []
    for k, (length_k, image) in enumerate(zip(kdata.lengthK, kdata.orbit(grading.rho_c.twice))):
        signs.append(-1 if length_k % 2 else 1)
        columns = [e - Weight.from_twice(orbit[k]) for e, orbit in zip(units, moved)]
        rows.extend(zip(*(lattice_coords(rs, c) for c in columns)))
        offsets.extend(lattice_coords(rs, Weight.from_twice(image) - grading.rho_c))
    return signs, rows, offsets


def reference_closed_formula(grading, kdata, lam, points):
    """Blattner multiplicities of ``points`` with every w in W_K and the row-at-a-time table.

    The reference for ``dischar.blattner._closed_formula``: each argument
    is a fresh matrix product per nu, nothing is pruned, and the table is a
    ``RowPartitionTable``.  Returns the values and the table's extent.
    """
    signs, rows, offsets = _reference_terms(grading, kdata)
    rank = grading.rs.rank
    shift = lam - grading.rho_n + grading.rho_c

    def arguments(nu):
        base = lattice_coords(grading.rs, shift - nu)
        if base is None:
            return
        coords = nu.coords
        moved = [sum(map(mul, row, coords)) for row in rows]
        flat = list(map(add, map(add, moved, offsets), base * len(signs)))
        for i, sign in enumerate(signs):
            target = tuple(flat[i * rank:(i + 1) * rank])
            if min(target, default=0) >= 0:
                yield sign, target

    extent = (0,) * rank
    for nu in points:
        for _sign, target in arguments(nu):
            extent = tuple(map(max, extent, target))
    roots = [r.root_coords for r in grading.noncompact_positive]
    table = RowPartitionTable(roots, extent)
    return [sum(sign * table[t] for sign, t in arguments(nu)) for nu in points], extent


def multiset_sums(grading, level):
    """The sum of every multiset of at most ``level`` noncompact positive roots, once per multiset."""
    roots = [r.weight() for r in grading.noncompact_positive]
    for size in range(level + 1):
        for chosen in itertools.combinations_with_replacement(roots, size):
            yield sum(chosen, Weight.zero(grading.rs.rank))


def multiset_walk(grading, kdata, lam, level):
    """Signed BWB contributions of every multiset of at most ``level`` roots, by lowest weight.

    The reference for ``dischar.blattner._filtration_walk``: one
    ``bwb_cohomology`` per multiset, on lam - rho_n - (its sum), counted at
    its lowest K-weight with sign (-1)^degree.  It truncates by the number
    of roots, not by noncompact degree, and never groups equal sums.
    """
    shifted = lam - grading.rho_n
    buckets = {}
    for kappa in multiset_sums(grading, level):
        result = bwb_cohomology(grading, kdata, shifted - kappa)
        if result is not None:
            degree, lowest = result
            buckets[lowest] = buckets.get(lowest, 0) + (-1 if degree % 2 else 1)
    return buckets
