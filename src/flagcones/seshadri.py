"""Seshadri constants of nef divisor classes on the flag bundle.

For a nef class with nef-basis coordinates ``(a_1, ..., a_gamma, b)`` the
Seshadri constant at any point lies between ``min(a_1..a_gamma, b)`` and
``min(a_1..a_gamma)``.  The lower bound is the exact global value and is
attained at every point of the distinguished section.  The upper bound is
the exact value at very general points provided the *divisibility
condition* holds: every flagged quotient rank occurs as the rank of some
filtration step whose degree is an integer multiple of that rank.  When
the condition fails and ``b < min(a_1..a_gamma)``, whether the upper
bound is still attained is an open question and the value is reported as
unknown.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .errors import (
    DivisibilityNotSatisfied,
    NotNef,
    ValidationError,
    ZeroMultiplicity,
)
from .flags import CurveClass, DivisorClass, FlagModel, pairing, to_nef

NO_RANK_MATCH = "no_rank_match"
NOT_DIVISIBLE = "not_divisible"

NOTE_LOWER = (
    "lower bound min(a_1..a_g, b): fiber curves give at least min(a), "
    "curves dominating the base give at least b"
)
NOTE_UPPER = (
    "upper bound min(a_1..a_g): a line moved through the point has ratio a_i"
)
NOTE_GLOBAL = (
    "global value equals the lower bound; it is attained at points of the "
    "distinguished section"
)
NOTE_AT_SECTION = (
    "at a section point the section curve itself realizes the ratio b, and "
    "moved lines realize the a_i"
)
NOTE_GENERAL_CONSTANT = (
    "b >= min(a_1..a_g), so the value is min(a_1..a_g) at every point"
)
NOTE_GENERAL_DIVISIBILITY = (
    "divisibility condition holds, so the value at very general points is "
    "min(a_1..a_g)"
)
NOTE_GENERAL_OPEN = (
    "unknown: the divisibility condition fails and b < min(a_1..a_g); "
    "whether the very-general value still equals min(a_1..a_g) is open, "
    "only the two-sided bounds are known"
)

RULE_CONSTANT = "constant_case"
RULE_DIVISIBILITY = "divisibility_condition"
RULE_OPEN = "open"


@dataclass(frozen=True)
class Witness:
    """Outcome of the divisibility condition at one flag position.

    ``index`` is the 1-based position in the flag, ``hn_index`` the
    1-based filtration step whose rank equals ``flag_rank``,
    ``subbundle_degree`` that step's degree and ``divisible`` whether
    ``flag_rank`` divides it; all three are ``None`` when no step has
    that rank.
    """

    index: int
    flag_rank: int
    hn_index: Optional[int]
    subbundle_degree: Optional[int]
    divisible: Optional[bool]


@dataclass(frozen=True)
class Failure:
    """Why the divisibility condition fails at one flag position."""

    index: int
    reason: str


@dataclass(frozen=True)
class DivisibilityStatus:
    """Outcome of the divisibility condition check, one witness per flag
    position; it is the ``assumption`` section of a machine document."""

    holds: bool
    witnesses: tuple[Witness, ...]
    failures: tuple[Failure, ...]

    def __post_init__(self):
        if self.holds != (not self.failures):
            raise ValidationError(f"holds is {self.holds} with {len(self.failures)} failures")


def check_divisibility(model: FlagModel) -> DivisibilityStatus:
    """Check the divisibility condition for every flagged quotient rank.

    For each flag position i the filtration is searched for a step of
    rank exactly ``r_i`` (unique when present, since ranks strictly
    increase); the condition at i holds when such a step exists and its
    degree is a multiple of ``r_i``.

    >>> from .bundles import SplitBundle, hn_filtration
    >>> from .flags import build_model
    >>> hn = hn_filtration(SplitBundle((1, 2, 0, 0, 0)))
    >>> status = check_divisibility(build_model(hn, (4, 3)))
    >>> status.witnesses[0]
    Witness(index=1, flag_rank=4, hn_index=None, subbundle_degree=None, divisible=None)
    >>> status.holds, [failure.reason for failure in status.failures]
    (False, ['no_rank_match', 'no_rank_match'])
    """
    witnesses: list[Witness] = []
    failures: list[Failure] = []
    for i, r in enumerate(model.spec.quotient_ranks, start=1):
        witness = Witness(i, r, None, None, None)
        for c, step in enumerate(model.hn.steps, start=1):
            if step.rank == r:
                witness = Witness(i, r, c, step.degree, step.degree % r == 0)
                break
        witnesses.append(witness)
        if witness.hn_index is None:
            failures.append(Failure(i, NO_RANK_MATCH))
        elif not witness.divisible:
            failures.append(Failure(i, NOT_DIVISIBLE))
    return DivisibilityStatus(not failures, tuple(witnesses), tuple(failures))


def _least(values) -> Fraction:
    """``min(values)`` compared in integers, ``n/d < p/q`` as ``n*q < p*d`` with
    positive denominators; like ``min`` it returns the first least object."""
    least = values[0]
    p, q = least.as_integer_ratio()
    for value in values[1:]:
        n, d = value.as_integer_ratio()
        if n * q < p * d:
            least, p, q = value, n, d
    return least


def seshadri_bounds(
    divisor: DivisorClass, model: FlagModel
) -> tuple[Fraction, Fraction]:
    """Two-sided bounds ``(min(a_1..a_g, b), min(a_1..a_g))`` for a nef class.

    The class is nef exactly when the lower bound is nonnegative.  Each bound
    is one of the coordinate objects itself.
    """
    coords = to_nef(divisor, model).coords
    upper = _least(coords[:-1])
    lower = _least((upper, coords[-1]))
    if lower.numerator < 0:
        raise NotNef(
            "Seshadri constants are defined here only for nef classes; "
            f"nef-basis coordinates {[str(c) for c in coords]} "
            "have a negative entry"
        )
    return lower, upper


def _general_rule(
    lower: Fraction, upper: Fraction, holds: bool
) -> tuple[Optional[Fraction], str, str]:
    """Very-general value (``None`` when open), the rule deciding it, its note.

    The constant case ``b >= min(a)`` collapses the bounds and needs no
    condition; otherwise the divisibility condition decides.
    """
    if lower == upper:
        return upper, RULE_CONSTANT, NOTE_GENERAL_CONSTANT
    if holds:
        return upper, RULE_DIVISIBILITY, NOTE_GENERAL_DIVISIBILITY
    return None, RULE_OPEN, NOTE_GENERAL_OPEN


def seshadri_ratio(
    curve: CurveClass, divisor: DivisorClass, multiplicity: int
) -> Fraction:
    """One candidate ratio: intersection number over point multiplicity.

    The divisor must already be in nef-basis coordinates, since no model
    is available here to convert it.
    """
    if isinstance(multiplicity, bool) or not isinstance(multiplicity, int):
        raise ValidationError(
            f"multiplicity must be an integer, got {multiplicity!r}"
        )
    if multiplicity < 1:
        raise ZeroMultiplicity(
            f"multiplicity must be >= 1, got {multiplicity}"
        )
    return pairing(curve, divisor) / multiplicity


def degree_gaps(model: FlagModel, status: DivisibilityStatus) -> tuple[int, ...]:
    """Matched subbundle degree minus quotient degree, per flag position.

    Both bundles compared at position i have the same rank; each gap is
    at least 1 for valid non-semistable input (a property the test suite
    checks), which is what makes the very-general value exact.
    """
    if not status.holds:
        raise DivisibilityNotSatisfied(
            "degree gaps are only defined when the divisibility condition holds"
        )
    if len(status.witnesses) != model.gamma:
        raise ValidationError(
            "status does not match the model: "
            f"{len(status.witnesses)} witnesses for gamma {model.gamma}"
        )
    return tuple(
        w.subbundle_degree - t
        for w, t in zip(status.witnesses, model.quotient_degrees)
    )


@dataclass(frozen=True)
class SeshadriReport:
    """All Seshadri data for one nef divisor class; it is the ``seshadri``
    record of a machine document, which does not write ``divisor``.

    ``epsilon_general`` is ``None`` exactly when ``general_rule`` is
    ``"open"``; the bounds then say everything that is known.
    """

    lower: Fraction
    upper: Fraction
    epsilon_global: Fraction = field(metadata={"json": "global"})
    epsilon_at_section: Fraction = field(metadata={"json": "at_section"})
    epsilon_general: Optional[Fraction] = field(metadata={"json": "general"})
    general_rule: str
    notes: dict[str, str]
    divisor: Optional[DivisorClass] = field(default=None, compare=False, metadata={"json": None})

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValidationError(f"lower bound {self.lower} exceeds upper bound {self.upper}")


def full_report(
    divisor: DivisorClass, model: FlagModel, status: Optional[DivisibilityStatus] = None
) -> SeshadriReport:
    """Assemble bounds and exact values for one class.

    ``status`` is ``check_divisibility(model)``, scanned here when not
    given; a caller reporting many classes of one model scans it once.
    """
    converted = to_nef(divisor, model)
    lower, upper = seshadri_bounds(converted, model)
    if status is None:
        status = check_divisibility(model)
    general, rule, general_note = _general_rule(lower, upper, status.holds)
    notes = {
        "lower": NOTE_LOWER,
        "upper": NOTE_UPPER,
        "global": NOTE_GLOBAL,
        "at_section": NOTE_AT_SECTION,
        "general": general_note,
    }
    return SeshadriReport(
        lower=lower,
        upper=upper,
        epsilon_global=lower,
        epsilon_at_section=lower,
        epsilon_general=general,
        general_rule=rule,
        notes=notes,
        divisor=converted,
    )
