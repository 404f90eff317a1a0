"""Bundles on a curve given by split or raw Harder-Narasimhan data.

The concrete input class is a direct sum of line bundles, each summand
recorded by its integer degree.  For such a bundle the Harder-Narasimhan
filtration is split again, so it can be computed by grouping summands by
degree; arbitrary bundles enter through :func:`validate_hn` as
user-asserted cumulative ``(rank, degree)`` steps.  All arithmetic is
exact: slopes are :class:`fractions.Fraction` values and no float is ever
produced.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (
    CapExceeded,
    NonDecreasingSlope,
    NonIncreasingRank,
    ValidationError,
)

#: Default rank cap for the brute-force oracle (2^rank subsets per level).
DEFAULT_ORACLE_CAP = 12


def _check_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return value


@dataclass(frozen=True)
class CurveInfo:
    """Base curve metadata.

    The genus is carried for bookkeeping only; no computation in this
    package depends on it.
    """

    genus: int = 0
    label: str = "X"

    def __post_init__(self):
        _check_int(self.genus, "genus")
        if self.genus < 0:
            raise ValidationError(f"genus must be >= 0, got {self.genus}")


@dataclass(frozen=True)
class SplitBundle:
    """A direct sum of line bundles, one integer degree per summand.

    >>> SplitBundle((1, 2, 0, 0, 0)).slope
    Fraction(3, 5)
    """

    summand_degrees: tuple[int, ...]

    def __post_init__(self):
        degrees = tuple(self.summand_degrees)
        if not degrees:
            raise ValidationError("a split bundle needs at least one summand")
        for value in degrees:
            _check_int(value, "summand degree")
        object.__setattr__(self, "summand_degrees", degrees)

    @property
    def rank(self) -> int:
        return len(self.summand_degrees)

    @property
    def degree(self) -> int:
        return sum(self.summand_degrees)

    @property
    def slope(self) -> Fraction:
        return Fraction(self.degree, self.rank)


@dataclass(frozen=True)
class HNStep:
    """Cumulative (rank, degree) of one subbundle in the filtration."""

    rank: int
    degree: int


@dataclass(frozen=True)
class HNFiltration:
    """Harder-Narasimhan filtration as cumulative ``(rank, degree)`` steps.

    Construction validates the two defining conditions: ranks strictly
    increase, and the slopes of the successive quotients strictly
    decrease.  Length 1 means the bundle is semistable; that is legal
    here and rejected only where a non-semistable bundle is required.

    >>> HNFiltration((HNStep(1, 2), HNStep(2, 3), HNStep(5, 3))).quotient_slopes()
    (Fraction(2, 1), Fraction(1, 1), Fraction(0, 1))
    """

    steps: tuple[HNStep, ...]

    def __post_init__(self):
        steps = tuple(self.steps)
        if not steps:
            raise ValidationError("a filtration needs at least one step")
        object.__setattr__(self, "steps", steps)
        previous_rank = 0
        previous_degree = 0
        previous_slope: Fraction | None = None
        for j, step in enumerate(steps, start=1):
            _check_int(step.rank, "step rank")
            _check_int(step.degree, "step degree")
            if step.rank <= previous_rank:
                raise NonIncreasingRank(
                    j,
                    f"step {j}: rank {step.rank} does not exceed "
                    f"previous rank {previous_rank}",
                )
            current = Fraction(step.degree - previous_degree, step.rank - previous_rank)
            if previous_slope is not None and current >= previous_slope:
                raise NonDecreasingSlope(
                    j,
                    f"step {j}: quotient slope {current} is not below "
                    f"previous quotient slope {previous_slope}",
                )
            previous_rank, previous_degree, previous_slope = step.rank, step.degree, current

    @property
    def n(self) -> int:
        """Rank of the full bundle."""
        return self.steps[-1].rank

    @property
    def d(self) -> int:
        """Number of filtration steps."""
        return len(self.steps)

    @property
    def degree(self) -> int:
        """Degree of the full bundle."""
        return self.steps[-1].degree

    @property
    def slope(self) -> Fraction:
        """Slope of the full bundle."""
        return Fraction(self.degree, self.n)

    @property
    def is_semistable(self) -> bool:
        return self.d == 1

    def quotient_slopes(self) -> tuple[Fraction, ...]:
        """Strictly decreasing slopes of the graded pieces."""
        return tuple(
            Fraction(step.degree - previous.degree, step.rank - previous.rank)
            for previous, step in zip((HNStep(0, 0), *self.steps), self.steps)
        )

    def step_pairs(self) -> tuple[tuple[int, int], ...]:
        """Steps as plain ``(rank, degree)`` pairs."""
        return tuple((step.rank, step.degree) for step in self.steps)


def split_steps(summands: Iterable[tuple[int, int]]) -> tuple[HNStep, ...]:
    """Harder-Narasimhan steps of the split bundle with these
    ``(degree, multiplicity)`` summands: one step per distinct degree,
    largest first, so the quotient slopes are the distinct degrees.
    Multiplicities are added up, never expanded."""
    counts: Counter = Counter()
    for degree, multiplicity in summands:
        counts[degree] += multiplicity
    order = sorted(counts, reverse=True)
    ranks = itertools.accumulate(counts[d] for d in order)
    degrees = itertools.accumulate(d * counts[d] for d in order)
    return tuple(map(HNStep, ranks, degrees))


def hn_filtration(bundle: SplitBundle) -> HNFiltration:
    """Harder-Narasimhan filtration of a split bundle; see :func:`split_steps`.

    >>> hn_filtration(SplitBundle((1, 2, 0, 0, 0))).step_pairs()
    ((1, 2), (2, 3), (5, 3))
    """
    return HNFiltration(split_steps((degree, 1) for degree in bundle.summand_degrees))


def hn_brute_force_oracle(bundle: SplitBundle, cap: int = DEFAULT_ORACLE_CAP) -> HNFiltration:
    """Independent recomputation of the filtration by subset enumeration.

    At each level, the maximal destabilizing split subbundle is found by
    enumerating every nonempty subset of the remaining summands and
    picking maximal slope, then maximal rank among those; the complement
    is processed recursively.  Agrees with :func:`hn_filtration` on every
    split bundle; this is the property the test suite checks.
    """
    if bundle.rank > cap:
        raise CapExceeded(
            f"rank {bundle.rank} exceeds the enumeration cap {cap}"
        )
    remaining = list(bundle.summand_degrees)
    steps = []
    total_rank = total_degree = 0
    while remaining:
        best_key = None
        best_subset: tuple[int, ...] = ()
        for size in range(1, len(remaining) + 1):
            for subset in itertools.combinations(range(len(remaining)), size):
                degree = sum(remaining[i] for i in subset)
                key = (Fraction(degree, size), size)
                if best_key is None or key > best_key:
                    best_key = key
                    best_subset = subset
        total_rank += len(best_subset)
        total_degree += sum(remaining[i] for i in best_subset)
        steps.append(HNStep(total_rank, total_degree))
        chosen = set(best_subset)
        remaining = [v for i, v in enumerate(remaining) if i not in chosen]
    return HNFiltration(tuple(steps))


def validate_hn(steps: Iterable[Sequence[int]] | Iterable[HNStep]) -> HNFiltration:
    """Accept user-asserted filtration data as cumulative (rank, degree) pairs.

    This is the entry point for bundles that are not given as direct sums
    of line bundles: the caller asserts the filtration, this function reads
    each pair, and :class:`HNFiltration` checks it, naming the first bad step.
    """
    normalized = []
    for entry in steps:
        if not isinstance(entry, HNStep):
            try:
                entry = HNStep(*entry)
            except TypeError:
                raise ValidationError(
                    f"filtration step must be a (rank, degree) pair, got {entry!r}"
                ) from None
        normalized.append(entry)
    return HNFiltration(tuple(normalized))
