"""Root systems from Cartan matrices, with exact weight arithmetic.

Every root is tracked in three integer coordinate systems at once: the
simple-root basis, the fundamental-weight basis and the simple-coroot
basis.  Reflections and coroot pairings then never leave integer
arithmetic; there is no floating point anywhere.  In fundamental-weight
coordinates rho is (1,...,1), and rho_c and rho_n are half sums of roots,
so every weight lies in (1/2)Z^rank: a ``Weight`` stores 2 lambda as a tuple
of ``int``.  ``fractions`` is imported only where a coordinate that is not
an integer is parsed (text ``int`` refuses, or a ``Fraction`` passed in) or
read back (an odd doubled coordinate).
The one root-lattice test is ``RootSystem.root_coords``, in integers on 2 lambda.

Conventions, fixed once:

* the Cartan matrix entry ``C[i][j]`` is the pairing of the i-th simple
  coroot against the j-th simple root, so a root ``a = sum n_j alpha_j``
  has fundamental-weight coordinates ``C @ n`` (column j of ``C`` for the
  simple root ``alpha_j``);
* coroot coordinates ride through the reflection closure via the
  transposed Cartan matrix, which keeps them integral.
"""

from __future__ import annotations

from operator import add, mul, neg, sub
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Sequence

from .errors import (
    DimensionMismatch,
    InvariantViolation,
    NotAntidominant,
    NotCompatible,
    NotFiniteType,
    NotIntegral,
    NotStronglyAntidominant,
)

if TYPE_CHECKING:
    from fractions import Fraction

    Coords = tuple[int | Fraction, ...]

IntVec = tuple[int, ...]

# positive roots one closure may reach before it is aborted
MAX_ROOTS = 10_000


def _half(t: int) -> int | Fraction:
    """t / 2 as an ``int`` when t is even, else as a ``Fraction``."""
    if t & 1:
        from fractions import Fraction

        return Fraction(t, 2)
    return t >> 1


def _doubled(c: Fraction | str) -> int:
    if type(c) is str:
        try:
            return 2 * int(c)
        except ValueError:
            pass
    from fractions import Fraction

    twice = 2 * Fraction(c)
    if twice.denominator != 1:
        raise NotIntegral(f"weight coordinate {c} is not a multiple of 1/2")
    return twice.numerator


class Weight:
    """Exact vector in fundamental-weight coordinates, stored as ``twice`` = 2 lambda.

    ``twice`` is a tuple of ``int``, so equality, hashing and order are those
    of integer tuples, and it sorts like the coordinates.  ``coords`` reads
    them back: ``int`` where integral, ``Fraction`` where not.
    """

    __slots__ = ("twice", "_hash")

    def __init__(self, coords: Iterable[Fraction | int | str]) -> None:
        self.twice: IntVec = tuple(2 * c if type(c) is int else _doubled(c) for c in coords)
        self._hash = hash(self.twice)

    @classmethod
    def from_twice(cls, twice: IntVec) -> "Weight":
        """The weight with 2 lambda = ``twice``, a tuple of ``int`` taken as is."""
        weight = object.__new__(cls)
        weight.twice = twice
        weight._hash = hash(twice)
        return weight

    @classmethod
    def zero(cls, rank: int) -> "Weight":
        return cls.from_twice((0,) * rank)

    @property
    def coords(self) -> Coords:
        return tuple(map(_half, self.twice))

    @property
    def rank(self) -> int:
        return len(self.twice)

    def is_integral(self) -> bool:
        return not any(t & 1 for t in self.twice)

    def __add__(self, other: "Weight") -> "Weight":
        self._check_rank(other)
        return Weight.from_twice(tuple(map(add, self.twice, other.twice)))

    def __sub__(self, other: "Weight") -> "Weight":
        self._check_rank(other)
        return Weight.from_twice(tuple(map(sub, self.twice, other.twice)))

    def __neg__(self) -> "Weight":
        return Weight.from_twice(tuple(map(neg, self.twice)))

    def _check_rank(self, other: "Weight") -> None:
        if len(self.twice) != len(other.twice):
            raise DimensionMismatch(
                f"weight ranks differ: {len(self.twice)} vs {len(other.twice)}"
            )

    def serialize(self) -> list[str]:
        """Coordinates as exact strings, "p/2" or "n"."""
        return [f"{t}/2" if t & 1 else str(t >> 1) for t in self.twice]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Weight) and self.twice == other.twice

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Weight") -> bool:
        return self.twice < other.twice

    def __repr__(self) -> str:
        return "Weight(%s)" % ", ".join(self.serialize())


class Root(NamedTuple):
    """A root in simple-root, fundamental-weight and simple-coroot coordinates."""

    root_coords: IntVec
    fw_coords: IntVec
    coroot_coords: IntVec

    @property
    def height(self) -> int:
        return sum(self.root_coords)

    def weight(self) -> Weight:
        return Weight.from_twice(tuple(2 * c for c in self.fw_coords))

    def __repr__(self) -> str:
        return "Root(%s)" % "+".join(
            f"{n}a{i + 1}" for i, n in enumerate(self.root_coords) if n
        )


class RootSystem(NamedTuple):
    """A finite root system: Cartan matrix, ordered positive roots, rho.

    ``positive_roots`` is ordered by (height, simple-root coordinates),
    which downstream modules rely on for deterministic output.
    """

    rank: int
    cartan: tuple[IntVec, ...]
    positive_roots: tuple[Root, ...]
    rho: Weight
    # det(C) and the integer adjugate det(C) * C^-1, for root_coords
    cartan_det: int
    cartan_adj: tuple[IntVec, ...]
    by_root_coords: Mapping[IntVec, Root]

    def __repr__(self) -> str:
        # the lookup data stays out of the repr
        return (
            f"RootSystem(rank={self.rank!r}, cartan={self.cartan!r}, "
            f"positive_roots={self.positive_roots!r}, rho={self.rho!r})"
        )

    @property
    def simple_roots(self) -> tuple[Root, ...]:
        """The simple roots in Cartan-matrix index order."""
        return tuple(
            self.by_root_coords[tuple(int(j == i) for j in range(self.rank))]
            for i in range(self.rank)
        )

    def root_coords(self, twice: IntVec) -> IntVec | None:
        """Root coordinates adj(C) twice / (2 det C) of ``twice`` = 2 lambda; None off lattice."""
        if len(twice) != self.rank:
            raise DimensionMismatch(f"rank {len(twice)} weight in rank {self.rank} system")
        denom = 2 * self.cartan_det
        out = []
        for row in self.cartan_adj:
            value, remainder = divmod(sum(map(mul, row, twice)), denom)
            if remainder:
                return None
            out.append(value)
        return tuple(out)


def _validate_cartan(cartan: Sequence[Sequence[int]]) -> tuple[IntVec, ...]:
    rows = tuple(tuple(entry for entry in row) for row in cartan)
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise NotFiniteType("Cartan matrix is not square")
    for i in range(n):
        for j in range(n):
            entry = rows[i][j]
            if not isinstance(entry, int) or isinstance(entry, bool):
                raise NotFiniteType(f"Cartan entry ({i},{j}) is not an integer")
            if i == j and entry != 2:
                raise NotFiniteType(f"Cartan diagonal entry ({i},{i}) is {entry}, expected 2")
            if i != j and entry > 0:
                raise NotFiniteType(f"Cartan entry ({i},{j}) is positive")
    return rows


def _det(m: Sequence[Sequence[int]]) -> int:
    """Determinant of an integer matrix by fraction-free (Bareiss) elimination."""
    a = [list(row) for row in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # exact: Bareiss guarantees prev divides the numerator
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


def _adjugate(m: tuple[IntVec, ...]) -> tuple[IntVec, ...]:
    """The integer matrix det(m) * m^-1, from cofactors."""
    n = len(m)

    def minor(r: int, c: int) -> list[list[int]]:
        return [[x for j, x in enumerate(row) if j != c] for i, row in enumerate(m) if i != r]

    return tuple(
        tuple((-1) ** (i + j) * _det(minor(j, i)) for j in range(n)) for i in range(n)
    )


def build_root_system(cartan: Sequence[Sequence[int]]) -> RootSystem:
    """Enumerate the positive roots of a Cartan matrix by reflection closure.

    Starts from the simple roots and repeatedly applies simple reflections,
    keeping every positive image.  Raises ``NotFiniteType`` before the closure
    when det(C) <= 0, and when the closure exceeds ``MAX_ROOTS`` or a
    reflection produces a vector with mixed signs (never plus or minus a root).
    """
    rows = _validate_cartan(cartan)
    rank = len(rows)
    det = _det(rows)
    if det == 0:
        raise NotFiniteType("Cartan matrix is singular")
    if det < 0:  # a finite-type Cartan matrix has positive determinant
        raise NotFiniteType(f"Cartan matrix has determinant {det} < 0; not of finite type")

    # root_coords -> coroot_coords; ``found`` is the queue, read as it grows
    seen: dict[IntVec, IntVec] = {}
    for i in range(rank):
        unit = (0,) * i + (1,) + (0,) * (rank - i - 1)
        seen[unit] = unit
    found = list(seen)
    columns = tuple(zip(*rows))
    for n in found:
        m = seen[n]
        for i, row in enumerate(rows):
            # s_i changes coordinate i only, on the root and on its coroot
            c = n[i] - sum(map(mul, row, n))
            if c < 0:
                if sum(n) != n[i]:  # only alpha_i goes to a nonpositive vector, -alpha_i
                    raise NotFiniteType(
                        "reflection closure produced a mixed-sign vector; "
                        "matrix is not of finite type"
                    )
                continue
            image = n[:i] + (c,) + n[i + 1:]
            if image in seen:
                continue
            seen[image] = m[:i] + (m[i] - sum(map(mul, columns[i], m)),) + m[i + 1:]
            found.append(image)
            if len(seen) > MAX_ROOTS:
                raise NotFiniteType(f"more than {MAX_ROOTS} positive roots; closure aborted")

    ordered = sorted(seen, key=lambda n: (sum(n), n))
    roots = []
    for n in ordered:
        fw = tuple(sum(map(mul, row, n)) for row in rows)
        co = seen[n]
        if sum(map(mul, co, fw)) != 2:
            raise InvariantViolation(f"coroot of {n} does not pair to 2 against its root")
        roots.append(Root(root_coords=n, fw_coords=fw, coroot_coords=co))

    if any(sum(r.fw_coords[i] for r in roots) != 2 for i in range(rank)):
        raise InvariantViolation("half sum of positive roots is not (1,...,1)")

    return RootSystem(
        rank=rank,
        cartan=rows,
        positive_roots=tuple(roots),
        rho=Weight((1,) * rank),
        cartan_det=det,
        cartan_adj=_adjugate(rows),
        by_root_coords={r.root_coords: r for r in roots},
    )


def coroot_pairing(alpha: Root, lam: Weight) -> int | Fraction:
    """Pairing of the coroot of ``alpha`` against a weight in fw coordinates."""
    if len(alpha.coroot_coords) != lam.rank:
        raise DimensionMismatch(
            f"root of rank {len(alpha.coroot_coords)} paired with rank {lam.rank} weight"
        )
    return _half(sum(map(mul, alpha.coroot_coords, lam.twice)))


def check_rank(rs: RootSystem, lam: Weight) -> None:
    if lam.rank != rs.rank:
        raise DimensionMismatch(f"rank {lam.rank} weight in rank {rs.rank} system")


def check_kostant_parameter(rs: RootSystem, lam: Weight) -> None:
    """Require ``lam`` integral and antidominant.

    The coordinates decide it: each positive coroot is a nonnegative sum of simple coroots.
    """
    check_rank(rs, lam)
    if not lam.is_integral():
        raise NotIntegral("parameter must be integral")
    if max(lam.twice, default=0) > 0:
        raise NotAntidominant("parameter must be antidominant")


def check_schmid_parameter(rs: RootSystem, lam: Weight) -> None:
    """Require ``lam`` strongly antidominant with lam + rho integral.

    The one discrete-series parameter check: the Schmid tables, the elliptic
    numerator and the Blattner layer all take it.  For an integral ``lam``,
    strongly antidominant is regular antidominant.
    """
    check_rank(rs, lam)
    if max(lam.twice, default=-1) >= 0:
        raise NotStronglyAntidominant("parameter must be strongly antidominant")
    if not lam.is_integral():  # rho = (1,...,1) is integral
        raise NotCompatible("lam + rho must be integral")


def dominant_twice(rs: RootSystem, twice: IntVec) -> IntVec:
    """The dominant vector in the Weyl orbit of an integer vector, doubled or not.

    Reflects at a negative coordinate until none is left; each step moves up in dominance order.
    """
    coords = list(twice)
    while True:
        i = next((j for j, c in enumerate(coords) if c < 0), None)
        if i is None:
            return tuple(coords)
        # s_i: subtract <alpha_i-check, lam> alpha_i, with alpha_i = column i of C
        value = coords[i]
        for k in range(rs.rank):
            coords[k] -= value * rs.cartan[k][i]

