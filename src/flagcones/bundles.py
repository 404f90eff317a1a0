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
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (
    CapExceeded,
    InternalCheckFailure,
    NonDecreasingSlope,
    NonIncreasingRank,
    ValidationError,
)
from .records import record

#: Default rank cap for the brute-force oracle (2^rank subsets per level).
DEFAULT_ORACLE_CAP = 12


def _check_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return value


@record
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


@record
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


def split_steps(summands: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
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
    return tuple(zip(ranks, degrees))


def hn_filtration(bundle: SplitBundle) -> tuple[tuple[int, int], ...]:
    """Checked Harder-Narasimhan steps of a split bundle; see :func:`split_steps`.

    >>> hn_filtration(SplitBundle((1, 2, 0, 0, 0)))
    ((1, 2), (2, 3), (5, 3))
    """
    return validate_hn(split_steps((degree, 1) for degree in bundle.summand_degrees))


def hn_brute_force_oracle(
    bundle: SplitBundle, cap: int = DEFAULT_ORACLE_CAP
) -> tuple[tuple[int, int], ...]:
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
        if not best_subset:  # the remaining summands would never shrink
            raise InternalCheckFailure(f"no summand picked from {remaining}")
        total_rank += len(best_subset)
        total_degree += sum(remaining[i] for i in best_subset)
        steps.append((total_rank, total_degree))
        chosen = set(best_subset)
        remaining = [v for i, v in enumerate(remaining) if i not in chosen]
    return validate_hn(steps)


def validate_hn(steps: Iterable[Sequence[int]]) -> tuple[tuple[int, int], ...]:
    """The one check of Harder-Narasimhan steps, computed or user-asserted:
    cumulative ``(rank, degree)`` pairs, returned as a tuple of int pairs.

    Ranks strictly increase and quotient slopes strictly decrease, compared
    in integers (``p/q < r/s`` as ``p*s < r*q``, ranks being positive); the
    first bad step is named.  One step (semistable) is legal here.

    >>> validate_hn([[1, 2], [2, 3], [5, 3]])
    ((1, 2), (2, 3), (5, 3))
    """
    pairs = []
    previous_rank = previous_degree = 0
    previous = None  # the previous quotient's (degree, rank)
    for j, entry in enumerate(steps, start=1):
        try:
            rank, degree = entry
        except (TypeError, ValueError):
            raise ValidationError(
                f"filtration step must be a (rank, degree) pair, got {entry!r}"
            ) from None
        _check_int(rank, "step rank")
        _check_int(degree, "step degree")
        if rank <= previous_rank:
            raise NonIncreasingRank(
                j,
                f"step {j}: rank {rank} does not exceed "
                f"previous rank {previous_rank}",
            )
        current = (degree - previous_degree, rank - previous_rank)
        if previous is not None and current[0] * previous[1] >= previous[0] * current[1]:
            raise NonDecreasingSlope(
                j,
                f"step {j}: quotient slope {Fraction(*current)} is not below "
                f"previous quotient slope {Fraction(*previous)}",
            )
        pairs.append((rank, degree))
        previous_rank, previous_degree, previous = rank, degree, current
    if not pairs:
        raise ValidationError("a filtration needs at least one step")
    return tuple(pairs)
