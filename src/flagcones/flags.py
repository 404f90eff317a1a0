"""Numerical model of the flag bundle attached to the filtration.

A flag is chosen by listing quotient ranks that occur in the filtration
profile of a non-semistable bundle.  The divisor-class group of the
resulting flag bundle has rank ``gamma + 1`` and carries two natural
bases:

* the *nef basis* ``(w_1, ..., w_gamma, f)``, where ``w_i`` is the i-th
  nef-cone generator and ``f`` is the class of a fiber over the base
  curve; the nef cone is exactly the nonnegative orthant in this basis;
* the *pluecker basis* ``(H_1, ..., H_gamma, f)``, where ``H_i`` is the
  pullback of the hyperplane class under the i-th Grassmannian
  projection.  The two are related by ``w_i = H_i - t_i * f`` with
  ``t_i`` the degree of the i-th quotient bundle.

Dually, the cone of curves is the nonnegative orthant in the basis
``(line_1, ..., line_gamma, section)``: ``line_i`` is a line in a fiber
that projects to a point in every Grassmannian factor but the i-th, and
``section`` is the image of the base curve under the canonical quotient
flag.  Generators of the two cones pair as the identity matrix.
"""

import enum
import math
from fractions import Fraction
from typing import Optional

from .bundles import CurveInfo, _check_int, validate_hn
from .errors import (
    BasisMismatch,
    NotStrictlyDecreasing,
    RankNotInHNProfile,
    SemistableBundle,
    ValidationError,
)
from .records import field, record


class Basis(str, enum.Enum):
    """Coordinate basis tag for divisor classes."""

    NEF = "nef"
    PLUECKER = "pluecker"


class Positivity(str, enum.Enum):
    """Position of a divisor class relative to the nef cone."""

    AMPLE = "ample"
    NEF_NOT_AMPLE = "nef_not_ample"
    NOT_NEF = "not_nef"


def _exact(value) -> Fraction:
    if isinstance(value, float):
        raise ValidationError(
            f"coordinates must be exact rationals, got float {value!r}"
        )
    return Fraction(value)


def _as_coords(values) -> tuple[Fraction, ...]:
    coords = tuple([value if type(value) is Fraction else _exact(value) for value in values])
    if not coords:
        raise ValidationError("a class needs at least one coordinate")
    return coords


@record
class DivisorClass:
    """Divisor class as exact coordinates against a tagged generator basis.

    ``name`` and ``label`` are display metadata and do not take part in
    equality.
    """

    basis: Basis
    coords: tuple[Fraction, ...]
    name: str = field(default="", compare=False)
    label: str = field(default="", compare=False)

    def __post_init__(self):
        if type(self.basis) is not Basis:
            object.__setattr__(self, "basis", Basis(self.basis))
        object.__setattr__(self, "coords", _as_coords(self.coords))


@record
class CurveClass:
    """Curve class as exact coordinates against (line_1..line_gamma, section)."""

    coords: tuple[Fraction, ...]
    name: str = field(default="", compare=False)
    label: str = field(default="", compare=False)

    def __post_init__(self):
        object.__setattr__(self, "coords", _as_coords(self.coords))


def quotient_ranks(steps) -> tuple[int, ...]:
    """Ranks of the successive quotient bundles, one per proper step of the
    filtration's ``(rank, degree)`` steps.

    >>> quotient_ranks(((1, 2), (2, 3), (5, 3)))
    (4, 3)
    """
    n = steps[-1][0]
    return tuple([n - rank for rank, _ in steps[:-1]])


def quotient_slopes(steps) -> tuple[Fraction, ...]:
    """Slopes of the graded pieces of the filtration's ``(rank, degree)``
    steps, strictly decreasing for a filtration.

    >>> quotient_slopes(((1, 2), (2, 3), (5, 3)))
    (Fraction(2, 1), Fraction(1, 1), Fraction(0, 1))
    """
    return tuple([
        Fraction(degree - previous_degree, rank - previous_rank)
        for (previous_rank, previous_degree), (rank, degree) in zip(((0, 0), *steps), steps)
    ])


def _flag_bookkeeping(steps, profile, requested):
    """What the filtration's ``(rank, degree)`` steps, their ``profile``
    (:func:`quotient_ranks`) and the requested quotient ranks fix: per rank ``r`` its 1-based filtration index ``k``
    (``r = n - rank_k``), its subspace dimension ``n - r`` and its quotient
    degree (total degree minus the degree of step ``k``), and the fiber
    dimension.  The fiber is a flag variety of the increasing subspace
    pattern ``s_1 < ... < s_gamma < n``, of dimension the sum of
    ``s_j * (s_{j+1} - s_j)``."""
    if len(steps) == 1:
        raise SemistableBundle(
            "the bundle is semistable; flag construction needs at least two "
            "filtration steps"
        )
    ranks = [_check_int(r, "flag rank") for r in requested]
    if not ranks:
        raise ValidationError("at least one quotient rank is required")
    if any(a <= b for a, b in zip(ranks, ranks[1:])):
        raise NotStrictlyDecreasing(
            f"quotient ranks must be strictly decreasing, got {ranks}"
        )
    indices = []
    for r in ranks:
        if r not in profile:
            raise RankNotInHNProfile(
                f"quotient rank {r} is not in the filtration profile "
                f"{list(profile)}"
            )
        indices.append(profile.index(r) + 1)
    n, degree = steps[-1]
    dims = tuple([n - r for r in ranks])
    degrees = tuple([degree - steps[k - 1][1] for k in indices])
    fiber = sum(s * (t - s) for s, t in zip(dims, (*dims[1:], n)))
    return tuple(indices), dims, degrees, fiber


NO_FLAG = "the model has no flag ranks; its cones and divisibility need a flag"

DIMENSION_NOTE = (
    "fiber and total dimension are derived from the subspace dimension "
    "pattern (standard flag combinatorics); they are bookkeeping, not part "
    "of the cone data"
)


@record
class FlagModel:
    """The flag bundle over the curve; it is the ``model`` section of a
    machine document, its fields in the document's key order.

    The free facts are the curve, the filtration's ``(rank, degree)`` steps
    and the flag ranks, which are None when only the filtration was
    requested; both are kept as tuples.  The rest is derived:
    :func:`~flagcones.bundles.validate_hn` checks the steps, rank and degree
    are those of the last step, one step means semistable, and the quotient
    slopes and ranks are those of the graded pieces (:func:`quotient_slopes`,
    :func:`quotient_ranks`).  Flag ranks must be strictly decreasing and lie
    in the profile; they fix the filtration indices, subspace dimensions,
    quotient degrees and fiber dimension (:func:`_flag_bookkeeping`), the
    Picard rank ``gamma + 1``, the total dimension (fiber plus one) and the
    dimensions note.  Without a flag these are None and there are no notes.
    """

    curve: CurveInfo
    hn_steps: tuple[tuple[int, int], ...]
    rank: int = field(init=False)
    degree: int = field(init=False)
    slope: Fraction = field(init=False)
    semistable: bool = field(init=False)
    quotient_slopes: tuple[Fraction, ...] = field(init=False)
    quotient_ranks: tuple[int, ...] = field(init=False)
    flag_ranks: Optional[tuple[int, ...]] = None
    hn_indices: Optional[tuple[int, ...]] = field(init=False)
    subspace_dims: Optional[tuple[int, ...]] = field(init=False)
    quotient_degrees: Optional[tuple[int, ...]] = field(init=False)
    picard_rank: Optional[int] = field(init=False)
    fiber_dimension: Optional[int] = field(init=False)
    total_dimension: Optional[int] = field(init=False)
    notes: dict[str, str] = field(init=False, hash=False)  # a dict cannot be hashed

    def __post_init__(self):
        steps, ranks = validate_hn(self.hn_steps), self.flag_ranks
        flagged = ranks is not None
        profile = quotient_ranks(steps)
        indices = dims = degrees = fiber = None
        if flagged:
            ranks = tuple(ranks)
            indices, dims, degrees, fiber = _flag_bookkeeping(steps, profile, ranks)
        n, degree = steps[-1]
        values = {
            "hn_steps": steps,
            "flag_ranks": ranks,
            "rank": n,
            "degree": degree,
            "slope": Fraction(degree, n),
            "semistable": len(steps) == 1,
            "quotient_slopes": quotient_slopes(steps),
            "quotient_ranks": profile,
            "hn_indices": indices,
            "subspace_dims": dims,
            "quotient_degrees": degrees,
            "picard_rank": len(ranks) + 1 if flagged else None,
            "fiber_dimension": fiber,
            "total_dimension": fiber + 1 if flagged else None,
            "notes": {"dimensions": DIMENSION_NOTE} if flagged else {},
        }
        for name, value in values.items():
            object.__setattr__(self, name, value)

    @property
    def gamma(self) -> int:
        if self.flag_ranks is None:
            raise ValidationError(NO_FLAG)
        return len(self.flag_ranks)


def build_model(steps, requested, curve: CurveInfo = CurveInfo()) -> FlagModel:
    """The flag model of ``steps`` over ``curve`` with the ``requested`` quotient ranks."""
    return FlagModel(curve, steps, requested)


# every unit vector holds these two objects, so none is built per generator
_ZERO, _ONE = Fraction(0), Fraction(1)


def _basis_unit(gamma: int, position: int) -> tuple[Fraction, ...]:
    unit = [_ZERO] * (gamma + 1)
    unit[position] = _ONE
    return tuple(unit)


def _nef_labels(model: FlagModel) -> list[tuple[str, str]]:
    """The ``(name, label)`` of each nef generator, ``w_i = H_i - t_i*f`` for
    ``t`` the quotient degrees and then ``f``; with :func:`_curve_labels`,
    the one place the generators' text is written."""
    labels = []
    for i, t in enumerate(model.quotient_degrees, start=1):
        twist = f" {'-' if t > 0 else '+'} {abs(t)}*f" if t else ""
        labels.append((f"w{i}", f"w{i} = H{i}{twist}"))
    return [*labels, ("f", "f = class of a fiber of the projection to the base curve")]


def _curve_labels(model: FlagModel) -> list[tuple[str, str]]:
    """The ``(name, label)`` of each curve generator, ``line_i`` and then ``section``."""
    line = "line in a fiber: degree 1 under projection {0}, a point under every other projection"
    labels = [(f"line{i}", f"line{i} = " + line.format(i)) for i in range(1, model.gamma + 1)]
    ranks, degrees = (", ".join(map(str, v)) for v in (model.flag_ranks, model.quotient_degrees))
    section = f"successive quotients of ranks ({ranks}) and degrees ({degrees})"
    return [*labels, ("section", f"section = image of the base curve under the {section}")]


def nef_generators(model: FlagModel) -> tuple[DivisorClass, ...]:
    """The gamma+1 generators of the nef cone, as nef-basis unit vectors.

    Each ``w_i`` is labeled with its pluecker-basis expression
    ``H_i - t_i * f``; the last generator is the fiber class ``f``.
    """
    gamma = model.gamma
    return tuple(
        DivisorClass(Basis.NEF, _basis_unit(gamma, i), name=name, label=label)
        for i, (name, label) in enumerate(_nef_labels(model))
    )


def curve_generators(model: FlagModel) -> tuple[CurveClass, ...]:
    """The gamma+1 generators of the cone of curves, as unit vectors.

    ``line_i`` lies in a fiber and has degree one under the i-th
    Grassmannian projection; ``section`` is labeled by the quotient
    sequence that defines it.
    """
    gamma = model.gamma
    return tuple(
        CurveClass(_basis_unit(gamma, i), name=name, label=label)
        for i, (name, label) in enumerate(_curve_labels(model))
    )


def pairing(curve: CurveClass, divisor: DivisorClass) -> Fraction:
    """Intersection number of a curve class with a nef-basis divisor class.

    The generator bases are dual, so the pairing is the plain dot
    product of coordinates.

    >>> pairing(CurveClass((2, 1, 3)), DivisorClass(Basis.NEF, (4, 5, 6)))
    Fraction(31, 1)
    """
    if divisor.basis is not Basis.NEF:
        raise BasisMismatch(
            "pairing expects nef-basis coordinates; convert the divisor first"
        )
    if len(curve.coords) != len(divisor.coords):
        raise ValidationError(
            f"coordinate length mismatch: curve has {len(curve.coords)}, "
            f"divisor has {len(divisor.coords)}"
        )
    return sum(
        (p * a for p, a in zip(curve.coords, divisor.coords)), start=Fraction(0)
    )


def _twist(coords, degrees) -> Fraction:
    """``sum(c_i * t_i)`` over rationals ``c`` and integers ``t``: one integer
    sum over the common denominator, then one ``Fraction``."""
    ratios = [c.as_integer_ratio() for c in coords]
    common = math.lcm(*[d for _, d in ratios])
    return Fraction(sum(n * (common // d) * t for (n, d), t in zip(ratios, degrees)), common)


def _checked_coords(divisor: DivisorClass, model: FlagModel) -> tuple[Fraction, ...]:
    """The coordinates of ``divisor``, which must be ``gamma + 1`` many."""
    if len(divisor.coords) != model.gamma + 1:
        raise ValidationError(
            f"expected {model.gamma + 1} coordinates, got {len(divisor.coords)}"
        )
    return divisor.coords


def convert_basis(divisor: DivisorClass, model: FlagModel) -> DivisorClass:
    """Toggle a divisor class between the nef and pluecker bases.

    With ``t`` the quotient degrees: nef ``(a, b)`` maps to pluecker
    ``(a, b - sum(a_i t_i))`` and pluecker ``(c, e)`` maps back to nef
    ``(c, e + sum(c_i t_i))``; the round trip is the identity.
    """
    *front, last = _checked_coords(divisor, model)
    twist = _twist(front, model.quotient_degrees)
    if divisor.basis is Basis.NEF:
        basis, last = Basis.PLUECKER, last - twist
    else:
        basis, last = Basis.NEF, last + twist
    return DivisorClass(basis, (*front, last), name=divisor.name, label=divisor.label)


def to_nef(divisor: DivisorClass, model: FlagModel) -> DivisorClass:
    """The same class in nef-basis coordinates."""
    if divisor.basis is Basis.NEF:
        _checked_coords(divisor, model)
        return divisor
    return convert_basis(divisor, model)


def pairing_matrix(
    model: FlagModel,
) -> tuple[tuple[tuple[Fraction, ...], ...], tuple[tuple[DivisorClass, DivisorClass], ...]]:
    """Pairings of curve generators against nef generators; must be identity.

    Each nef generator is converted to the pluecker basis once and paired
    there through the intersection numbers of that basis, which owe
    nothing to the conversion: ``H_i . line_j = delta_ij``,
    ``f . line_j = 0``, ``H_i . section = t_i`` and ``f . section = 1``.
    A broken conversion therefore shows up as a non-identity matrix.

    Returns the matrix and each nef generator paired with the
    pluecker-basis class the matrix was computed from.
    """
    generators = nef_generators(model)
    converted = [convert_basis(g, model) for g in generators]
    pluecker = [c.coords for c in converted]
    lines = [tuple(p[i] for p in pluecker) for i in range(model.gamma)]
    section = tuple(
        sum((c * t for c, t in zip(p, model.quotient_degrees) if c), start=p[-1])
        for p in pluecker
    )
    return (*lines, section), tuple(zip(generators, converted))


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


def _positivity(least: Fraction) -> Positivity:
    """Where a class lies, from its least nef-basis coordinate: the nef cone
    is the nonnegative orthant of that basis and the ample cone its interior."""
    if least.numerator > 0:
        return Positivity.AMPLE
    if least.numerator == 0:
        return Positivity.NEF_NOT_AMPLE
    return Positivity.NOT_NEF


def classify_divisor(divisor: DivisorClass, model: FlagModel) -> Positivity:
    """Ample, nef-but-not-ample, or not nef, read off the least nef-basis
    coordinate: > 0 is ample, 0 is nef but not ample, < 0 is not nef."""
    return _positivity(_least(to_nef(divisor, model).coords))
