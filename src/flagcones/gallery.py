"""Built-in example problems with frozen result digests.

Each fixture pairs a ready-made :class:`~flagcones.config.ProblemConfig`
with the digest of its expected output: filtration steps, bundle slope,
Picard rank, and the divisibility verdict.  The ``rank7-a`` bundle is
run against its whole family of admissible flags; only the smallest one
satisfies the divisibility condition.  Every fixture also carries the
all-ones ample class so that reports show Seshadri data.
"""

from __future__ import annotations

from fractions import Fraction

from .bundles import CurveInfo
from .config import ProblemConfig, SummandSpec
from .errors import ValidationError
from .flags import Basis, DivisorClass
from .records import field, record
from .report import ReportDocument, run


@record
class Digest:
    """Exact fingerprint of one fixture's expected output."""

    hn_steps: tuple[tuple[int, int], ...]
    slope: Fraction
    picard_rank: int
    assumption_holds: bool


@record
class Fixture:
    name: str
    config: ProblemConfig
    digest: Digest


@record
class FixtureOutcome:
    """One entry of ``examples --machine``."""

    name: str
    passed: bool = field(metadata={"json": "pass"})
    expected: Digest
    actual: Digest


def digest_of(doc: ReportDocument) -> Digest:
    """Digest of an actual report document, for comparison with a fixture."""
    if doc.assumption is None or doc.model.picard_rank is None:
        raise ValidationError("digest needs a full report document")
    return Digest(
        hn_steps=doc.model.hn_steps,
        slope=doc.model.slope,
        picard_rank=doc.model.picard_rank,
        assumption_holds=doc.assumption.holds,
    )


def _fixture(name, degrees, flag_ranks, hn_steps, slope, holds) -> Fixture:
    summands = tuple(SummandSpec(d, m) for d, m in degrees)
    gamma = len(flag_ranks)
    unit = DivisorClass(Basis.NEF, (1,) * (gamma + 1), name="ample-unit")
    config = ProblemConfig(
        curve=CurveInfo(0, "X"),
        summands=summands,
        hn_steps=None,
        flag_ranks=tuple(flag_ranks),
        divisors=(unit,),
    )
    digest = Digest(
        hn_steps=tuple(hn_steps),
        slope=Fraction(*slope),
        picard_rank=gamma + 1,
        assumption_holds=holds,
    )
    return Fixture(name, config, digest)


_RANK5_A = ((1, 1), (2, 1), (0, 3))
_RANK5_B = ((1, 1), (-1, 1), (0, 3))
_RANK5_C = ((4, 1), (-1, 1), (0, 3))
_RANK7_A = ((3, 1), (1, 1), (-1, 1), (-2, 1), (0, 3))
_RANK7_B = ((8, 1), (2, 1), (-4, 1), (-5, 1), (0, 3))

_HN5_A = ((1, 2), (2, 3), (5, 3))
_HN5_BC_B = ((1, 1), (4, 1), (5, 0))
_HN5_BC_C = ((1, 4), (4, 4), (5, 3))
_HN7_A = ((1, 3), (2, 4), (5, 4), (6, 3), (7, 1))
_HN7_B = ((1, 8), (2, 10), (5, 10), (6, 6), (7, 1))


def builtin_examples() -> tuple[Fixture, ...]:
    """All built-in fixtures, in a fixed order."""
    fixtures = [
        _fixture("rank5-a/fl43", _RANK5_A, (4, 3), _HN5_A, (3, 5), False),
        _fixture("rank5-b/fl41", _RANK5_B, (4, 1), _HN5_BC_B, (0, 1), False),
        _fixture("rank5-c/fl41", _RANK5_C, (4, 1), _HN5_BC_C, (3, 5), True),
    ]
    rank7a_flags = {
        (2, 1): True,
        (5, 1): False,
        (5, 2): False,
        (6, 5): False,
        (6, 2): False,
        (6, 1): False,
        (5, 2, 1): False,
        (6, 2, 1): False,
        (6, 5, 2, 1): False,
    }
    for flag, holds in rank7a_flags.items():
        suffix = "".join(str(r) for r in flag)
        fixtures.append(
            _fixture(f"rank7-a/fl{suffix}", _RANK7_A, flag, _HN7_A, (1, 7), holds)
        )
    fixtures.append(
        _fixture("rank7-b/fl6521", _RANK7_B, (6, 5, 2, 1), _HN7_B, (1, 7), True)
    )
    return tuple(fixtures)


def find_fixture(name: str) -> Fixture:
    """Look a fixture up by exact name."""
    for fixture in builtin_examples():
        if fixture.name == name:
            return fixture
    known = ", ".join(f.name for f in builtin_examples())
    raise ValidationError(f"unknown example {name!r}; known examples: {known}")


def check_fixture(fixture: Fixture) -> tuple[ReportDocument, Digest, bool]:
    """Run one fixture and compare its digest against the frozen one."""
    doc = run(fixture.config)
    actual = digest_of(doc)
    return doc, actual, actual == fixture.digest
