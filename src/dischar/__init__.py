"""Exact combinatorics of discrete series on the compact Cartan.

Builds root systems from Cartan matrices, grades roots into compact and
noncompact parts, enumerates closed K-orbits, produces the two standard
nilradical-homology tables with their resolution pipelines, expands Weyl
and elliptic character numerators, and evaluates Blattner K-type
multiplicities against an independent filtration oracle.  All arithmetic
is exact.
"""

from .blattner import (
    KTypeTable,
    blattner_multiplicity,
    bwb_cohomology,
    filtration_oracle,
    filtration_table,
    ktype_table,
    partition,
    partition_p,
)
from .characters import (
    FormalCharacter,
    HomologyTable,
    discrete_numerator,
    euler_character,
    freudenthal_character,
    weyl_denominator,
    weyl_numerator,
)
from .errors import (
    BoxTooLarge,
    CollapseAmbiguous,
    DimensionMismatch,
    DischarError,
    GroupTooLarge,
    IncompleteAssignment,
    InvariantViolation,
    NotAntidominant,
    NotCompatible,
    NotFiniteType,
    NotIntegral,
    NotStronglyAntidominant,
    ParameterIncompatible,
    PartitionTableTooLarge,
    TruncationTooLarge,
    TruncationTooSmall,
    ValidationError,
)
from .homology import (
    bgg_terms,
    collapse,
    kostant_table,
    kostant_via_bgg,
    schmid_table,
    schmid_via_trauber,
    trauber_terms,
)
from .orbits import ClosedOrbit, Stratum, enumerate_closed_orbits, orbit_strata
from .realform import CompactGrading, KWeylData, build_grading, validate_grading, weyl_k
from .rootdata import (
    Root,
    RootSystem,
    Weight,
    WeightFlags,
    build_root_system,
    classify_weight,
    coroot_pairing,
    dominant_representative,
)
from .weyl import WeylElement, WeylGroup, act, generate, length_fiber, sign

__version__ = "0.1.0"
