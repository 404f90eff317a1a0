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

from collections.abc import Mapping
from fractions import Fraction
from types import MappingProxyType
from typing import Optional

from .errors import (
    DivisibilityNotSatisfied,
    NotNef,
    ValidationError,
    ZeroMultiplicity,
)
from .flags import NO_FLAG, CurveClass, DivisorClass, FlagModel, Positivity, pairing, to_nef
from .flags import _least, _positivity
from .records import field, record

NO_RANK_MATCH = "no_rank_match"
NOT_DIVISIBLE = "not_divisible"

RULE_CONSTANT = "constant_case"
RULE_DIVISIBILITY = "divisibility_condition"
RULE_OPEN = "open"

# the notes of each rule, in the order written, with ``general`` last: one
# read-only mapping per rule, shared by every report of that rule
_NOTES = {
    "lower": (
        "lower bound min(a_1..a_g, b): fiber curves give at least min(a), "
        "curves dominating the base give at least b"
    ),
    "upper": "upper bound min(a_1..a_g): a line moved through the point has ratio a_i",
    "global": (
        "global value equals the lower bound; it is attained at points of the "
        "distinguished section"
    ),
    "at_section": (
        "at a section point the section curve itself realizes the ratio b, and "
        "moved lines realize the a_i"
    ),
}
_GENERAL_NOTES = {
    RULE_CONSTANT: "b >= min(a_1..a_g), so the value is min(a_1..a_g) at every point",
    RULE_DIVISIBILITY: (
        "divisibility condition holds, so the value at very general points is min(a_1..a_g)"
    ),
    RULE_OPEN: (
        "unknown: the divisibility condition fails and b < min(a_1..a_g); "
        "whether the very-general value still equals min(a_1..a_g) is open, "
        "only the two-sided bounds are known"
    ),
}
_RULE_NOTES = {
    rule: MappingProxyType({**_NOTES, "general": general}) for rule, general in _GENERAL_NOTES.items()
}


@record
class Witness:
    """Outcome of the divisibility condition at one flag position.

    ``index`` is the 1-based position in the flag, ``hn_index`` the
    1-based filtration step whose rank equals ``flag_rank`` and
    ``subbundle_degree`` that step's degree, both ``None`` when no step
    has that rank.  ``divisible``, whether ``flag_rank`` divides the
    degree, is derived; it is ``None`` without a step.
    """

    index: int
    flag_rank: int
    hn_index: Optional[int]
    subbundle_degree: Optional[int]
    divisible: Optional[bool] = field(init=False)

    def __post_init__(self):
        if self.flag_rank < 1:
            raise ValidationError(f"flag rank must be >= 1, got {self.flag_rank}")
        if (self.hn_index is None) != (self.subbundle_degree is None):
            raise ValidationError("hn_index and subbundle_degree must be both set or both null")
        degree, rank = self.subbundle_degree, self.flag_rank
        object.__setattr__(self, "divisible", None if degree is None else degree % rank == 0)


@record
class Failure:
    """Why the divisibility condition fails at one flag position."""

    index: int
    reason: str


@record
class DivisibilityStatus:
    """Outcome of the divisibility condition check, one witness per flag
    position; it is the ``assumption`` section of a machine document.
    ``failures`` and ``holds`` are derived from the witnesses."""

    holds: bool = field(init=False)
    witnesses: tuple[Witness, ...]
    failures: tuple[Failure, ...] = field(init=False)

    def __post_init__(self):
        failures = tuple(
            Failure(w.index, NO_RANK_MATCH if w.divisible is None else NOT_DIVISIBLE)
            for w in self.witnesses if not w.divisible
        )
        object.__setattr__(self, "holds", not failures)
        object.__setattr__(self, "failures", failures)


def check_divisibility(model: FlagModel) -> DivisibilityStatus:
    """Check the divisibility condition for every flagged quotient rank.

    For each flag position i the filtration is searched for a step of
    rank exactly ``r_i`` (unique when present, since ranks strictly
    increase); the condition at i holds when such a step exists and its
    degree is a multiple of ``r_i``.

    >>> from .bundles import SplitBundle, hn_filtration
    >>> from .flags import build_model
    >>> steps = hn_filtration(SplitBundle((1, 2, 0, 0, 0)))
    >>> status = check_divisibility(build_model(steps, (4, 3)))
    >>> status.witnesses[0]
    Witness(index=1, flag_rank=4, hn_index=None, subbundle_degree=None, divisible=None)
    >>> status.holds, [failure.reason for failure in status.failures]
    (False, ['no_rank_match', 'no_rank_match'])
    """
    if model.flag_ranks is None:
        raise ValidationError(NO_FLAG)
    witnesses = divisibility_witnesses(model.hn_steps, model.flag_ranks)
    return DivisibilityStatus(witnesses)


def divisibility_witnesses(steps, flag_ranks) -> tuple[Witness, ...]:
    """One witness per flag rank, from the filtration's ``(rank, degree)``
    steps: the 1-based step of that rank and its degree, if there is one."""
    found = {rank: (c, degree) for c, (rank, degree) in enumerate(steps, start=1)}
    ranks = enumerate(flag_ranks, start=1)
    return tuple(Witness(i, r, *found.get(r, (None, None))) for i, r in ranks)


def seshadri_bounds(
    divisor: DivisorClass, model: FlagModel
) -> tuple[Fraction, Fraction]:
    """Two-sided bounds ``(min(a_1..a_g, b), min(a_1..a_g))`` for a nef class.

    The lower bound is the least nef-basis coordinate, so the class is nef,
    by the rule :func:`~flagcones.flags.classify_divisor` applies, exactly
    when it is nonnegative; :class:`NotNef` is raised otherwise.  Each bound
    is one of the coordinate objects itself.
    """
    coords = to_nef(divisor, model).coords
    upper = _least(coords[:-1])
    lower = _least((upper, coords[-1]))
    if _positivity(lower) is Positivity.NOT_NEF:
        raise NotNef(
            "Seshadri constants are defined here only for nef classes; "
            f"nef-basis coordinates {[str(c) for c in coords]} "
            "have a negative entry"
        )
    return lower, upper


def _general_rule(lower: Fraction, upper: Fraction, holds: bool) -> str:
    """The rule deciding the very-general value.

    The constant case ``b >= min(a)`` collapses the bounds and needs no
    condition; otherwise the divisibility condition decides.
    """
    if lower == upper:
        return RULE_CONSTANT
    return RULE_DIVISIBILITY if holds else RULE_OPEN


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


@record
class SeshadriReport:
    """All Seshadri data for one nef divisor class; it is the ``seshadri``
    record of a machine document, which does not write ``divisor``.

    The bounds and the rule fix the rest: the global value and the value
    at a section point are ``lower`` itself, the very-general value is
    ``upper`` unless the rule is ``"open"`` (then ``None``; the bounds say
    everything that is known), and the notes are the read-only mapping of
    the rule, one object shared by every report of that rule.
    """

    lower: Fraction
    upper: Fraction
    epsilon_global: Fraction = field(init=False, metadata={"json": "global"})
    epsilon_at_section: Fraction = field(init=False, metadata={"json": "at_section"})
    epsilon_general: Optional[Fraction] = field(init=False, metadata={"json": "general"})
    general_rule: str
    notes: Mapping[str, str] = field(init=False)
    divisor: Optional[DivisorClass] = field(default=None, compare=False, metadata={"json": None})

    def __post_init__(self):
        lower, upper, rule = self.lower, self.upper, self.general_rule
        if lower > upper:
            raise ValidationError(f"lower bound {lower} exceeds upper bound {upper}")
        if rule not in _RULE_NOTES or (rule == RULE_CONSTANT) != (lower == upper):
            raise ValidationError(f"general rule {rule!r} does not fit bounds {lower} and {upper}")
        object.__setattr__(self, "epsilon_global", lower)
        object.__setattr__(self, "epsilon_at_section", lower)
        object.__setattr__(self, "epsilon_general", None if rule == RULE_OPEN else upper)
        object.__setattr__(self, "notes", _RULE_NOTES[rule])

    def __reduce__(self):
        # a copy or an unpickled report derives its fields again, so it shares
        # the rule's notes, which cannot be pickled themselves
        return SeshadriReport, (self.lower, self.upper, self.general_rule, self.divisor)


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
    return SeshadriReport(lower, upper, _general_rule(lower, upper, status.holds), converted)
