"""Exact combinatorics of discrete series on the compact Cartan.

Builds root systems from Cartan matrices, grades roots into compact and
noncompact parts, enumerates closed K-orbits, produces the two standard
nilradical-homology tables with their resolution pipelines, expands Weyl
and elliptic character numerators, and evaluates Blattner K-type
multiplicities against an independent filtration oracle.  All arithmetic
is exact.

The public names below are imported from their submodule on first access
(PEP 562), so ``import dischar`` loads no layer a caller does not use.
"""

import importlib

_EXPORTS = {
    "blattner": (
        "KTypeTable",
        "blattner_multiplicity",
        "bwb_cohomology",
        "filtration_oracle",
        "filtration_table",
        "ktype_table",
        "partition",
        "partition_p",
    ),
    "characters": (
        "FormalCharacter",
        "discrete_numerator",
        "euler_character",
        "freudenthal_character",
        "times_denominator",
        "weyl_denominator",
        "weyl_numerator",
    ),
    "errors": (
        "BoxTooLarge",
        "DimensionMismatch",
        "DischarError",
        "GroupTooLarge",
        "IncompleteAssignment",
        "InvariantViolation",
        "NotAntidominant",
        "NotCompatible",
        "NotFiniteType",
        "NotIntegral",
        "NotStronglyAntidominant",
        "ParameterIncompatible",
        "PartitionTableTooLarge",
        "TruncationTooLarge",
        "ValidationError",
    ),
    "homology": (
        "HomologyTable",
        "bgg_terms",
        "collapse",
        "kostant_table",
        "kostant_via_bgg",
        "schmid_table",
        "schmid_via_trauber",
        "trauber_terms",
    ),
    "orbits": ("ClosedOrbit", "enumerate_closed_orbits"),
    "realform": ("CompactGrading", "KWeylData", "build_grading", "validate_grading", "weyl_k"),
    "rootdata": (
        "Root",
        "RootSystem",
        "Weight",
        "build_root_system",
        "coroot_pairing",
    ),
    "weyl": (
        "WeylElement",
        "WeylGroup",
        "act",
        "dot_orbit",
        "generate",
        "weyl_order",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str) -> object:
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _MODULE_OF.keys())
