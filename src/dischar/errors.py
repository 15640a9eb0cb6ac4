"""Exception types shared across the package.

Two families: ``ValidationError`` covers bad user input and violated
preconditions, ``InvariantViolation`` covers internal consistency failures
that indicate a bug rather than a bad argument.  The CLI maps the first
family to exit code 1 and the second to exit code 2.
"""


class DischarError(Exception):
    """Base class for every error raised by this package."""

    @property
    def code(self) -> str:
        return type(self).__name__


class ValidationError(DischarError):
    """Rejected input or an unmet operation precondition."""


class NotFiniteType(ValidationError):
    """Cartan matrix is malformed or reflection closure does not terminate."""


class DimensionMismatch(ValidationError):
    """Vectors or matrices of incompatible rank were combined."""


class GroupTooLarge(ValidationError):
    """Weyl group closure exceeded the configured order bound."""


class IncompleteAssignment(ValidationError):
    """A hand-entered root grading does not cover every root."""


class NotAntidominant(ValidationError):
    """Weight pairs to a positive integer against some positive coroot."""


class NotIntegral(ValidationError):
    """Weight coordinate outside Z where an integral weight is needed, or outside (1/2)Z."""


class NotStronglyAntidominant(ValidationError):
    """Weight fails to pair strictly negatively against every positive coroot."""


class NotCompatible(ValidationError):
    """Parameter does not shift into the weight lattice (lambda + rho not integral)."""


class ParameterIncompatible(ValidationError):
    """Multiplicity parameters lie outside the required lattices or chambers."""


class TruncationTooLarge(ValidationError):
    """The oracle's level admits more multisets, which bound its walk, than the configured limit."""


class BoxTooLarge(ValidationError):
    """K-type box spans more points than the configured bound."""


class PartitionTableTooLarge(ValidationError):
    """Partition-function table would exceed the configured entry bound."""


class InvariantViolation(DischarError):
    """Internal consistency check failed; signals a bug, not bad input."""
