"""Exception hierarchy and the process exit codes they map to.

The CLI contract is: 0 success, 2 malformed or invalid input, 3 request
that is mathematically out of range (semistable bundle, flag rank not in
the filtration profile, non-nef divisor), 4 broken internal invariant
(duality matrix not the identity, oracle disagreement).
"""

from __future__ import annotations

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_INTERNAL = 4


class FlagconesError(Exception):
    """Base class of every error raised by this package."""

    exit_code = EXIT_INPUT


class InputError(FlagconesError):
    """Malformed or invalid user input."""

    exit_code = EXIT_INPUT


class ParseError(InputError):
    """A document could not be parsed; carries a location when one is known."""

    def __init__(self, message: str, location: str | None = None):
        self.message = message
        self.location = location
        super().__init__(f"{location}: {message}" if location else message)


class ValidationError(InputError):
    """Well-formed input that violates a stated invariant."""


class NonIncreasingRank(ValidationError):
    """Cumulative ranks of filtration steps must strictly increase."""

    def __init__(self, step_index: int, message: str):
        self.step_index = step_index
        super().__init__(message)


class NonDecreasingSlope(ValidationError):
    """Quotient slopes of filtration steps must strictly decrease."""

    def __init__(self, step_index: int, message: str):
        self.step_index = step_index
        super().__init__(message)


class NotStrictlyDecreasing(ValidationError):
    """Requested flag ranks must be strictly decreasing."""


class CapExceeded(ValidationError):
    """Bundle rank exceeds the subset-enumeration cap of the oracle."""


class ZeroMultiplicity(ValidationError):
    """Seshadri ratios need a positive integer multiplicity."""


class BasisMismatch(ValidationError):
    """Operation expects divisor coordinates in a different basis."""


class PreconditionError(FlagconesError):
    """The request is valid but mathematically out of range."""

    exit_code = EXIT_PRECONDITION


class SemistableBundle(PreconditionError):
    """Flag construction requires a non-semistable bundle."""


class RankNotInHNProfile(PreconditionError):
    """A requested quotient rank does not occur in the filtration profile."""


class NotNef(PreconditionError):
    """Seshadri constants are evaluated only on nef divisor classes."""


class DivisibilityNotSatisfied(PreconditionError):
    """Operation is only defined when the divisibility condition holds."""


class InternalCheckFailure(FlagconesError):
    """A self-check that must always pass has failed."""

    exit_code = EXIT_INTERNAL


def exit_code_for(error_type_name: str) -> int:
    """Exit code for an error recorded by its class name in a report."""
    cls = globals().get(error_type_name)
    if isinstance(cls, type) and issubclass(cls, FlagconesError):
        return cls.exit_code
    return EXIT_INPUT
