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

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .bundles import HNFiltration, _check_int
from .errors import (
    BasisMismatch,
    NotStrictlyDecreasing,
    RankNotInHNProfile,
    SemistableBundle,
    ValidationError,
)


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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class CurveClass:
    """Curve class as exact coordinates against (line_1..line_gamma, section)."""

    coords: tuple[Fraction, ...]
    name: str = field(default="", compare=False)
    label: str = field(default="", compare=False)

    def __post_init__(self):
        object.__setattr__(self, "coords", _as_coords(self.coords))


@dataclass(frozen=True)
class FlagSpec:
    """Chosen quotient ranks with their filtration indices.

    ``quotient_ranks`` is strictly decreasing, each entry equal to
    ``n - rank_k`` for its filtration index ``k`` (1-based, strictly
    increasing).  ``subspace_dims`` lists the complementary subspace
    dimensions ``n - r`` in increasing order; they drive the dimension
    bookkeeping of the flag fiber.
    """

    quotient_ranks: tuple[int, ...]
    hn_indices: tuple[int, ...]
    subspace_dims: tuple[int, ...]

    @property
    def gamma(self) -> int:
        return len(self.quotient_ranks)


@dataclass(frozen=True)
class FlagModel:
    """Flag bundle model: filtration, flag choice, and quotient degrees.

    ``quotient_degrees[i]`` is the degree of the i-th quotient bundle,
    i.e. total degree minus the degree of the filtration step the flag
    rank points at.
    """

    hn: HNFiltration
    spec: FlagSpec
    quotient_degrees: tuple[int, ...]

    @property
    def gamma(self) -> int:
        return self.spec.gamma

    @property
    def picard_rank(self) -> int:
        return self.gamma + 1

    @property
    def fiber_dimension(self) -> int:
        """Dimension of the flag variety fiber.

        Standard flag combinatorics over the increasing subspace pattern
        ``s_1 < ... < s_gamma < n``: sum of ``s_j * (s_{j+1} - s_j)``.
        """
        dims = self.spec.subspace_dims + (self.hn.n,)
        return sum(dims[j] * (dims[j + 1] - dims[j]) for j in range(self.gamma))

    @property
    def total_dimension(self) -> int:
        """Fiber dimension plus one for the base curve."""
        return self.fiber_dimension + 1


def quotient_ranks(hn: HNFiltration) -> tuple[int, ...]:
    """Ranks of the successive quotient bundles, one per proper step.

    >>> from .bundles import validate_hn
    >>> quotient_ranks(validate_hn([(1, 2), (2, 3), (5, 3)]))
    (4, 3)
    """
    return tuple(hn.n - step.rank for step in hn.steps[:-1])


def build_model(hn: HNFiltration, requested) -> FlagModel:
    """Resolve the requested quotient ranks against the filtration profile
    and attach the quotient degrees."""
    if hn.d == 1:
        raise SemistableBundle(
            "the bundle is semistable; flag construction needs at least two "
            "filtration steps"
        )
    ranks = tuple(_check_int(r, "flag rank") for r in requested)
    if not ranks:
        raise ValidationError("at least one quotient rank is required")
    if any(ranks[i] <= ranks[i + 1] for i in range(len(ranks) - 1)):
        raise NotStrictlyDecreasing(
            f"quotient ranks must be strictly decreasing, got {list(ranks)}"
        )
    profile = quotient_ranks(hn)
    indices = []
    for r in ranks:
        if r not in profile:
            raise RankNotInHNProfile(
                f"quotient rank {r} is not in the filtration profile "
                f"{list(profile)}"
            )
        indices.append(profile.index(r) + 1)
    spec = FlagSpec(ranks, tuple(indices), tuple(hn.n - r for r in ranks))
    degrees = tuple(hn.degree - hn.steps[k - 1].degree for k in indices)
    return FlagModel(hn, spec, degrees)


# every unit vector holds these two objects, so a document writes each once
_ZERO, _ONE = Fraction(0), Fraction(1)


def _basis_unit(gamma: int, position: int) -> tuple[Fraction, ...]:
    unit = [_ZERO] * (gamma + 1)
    unit[position] = _ONE
    return tuple(unit)


def _twist_label(i: int, quotient_degree: int) -> str:
    if quotient_degree == 0:
        return f"w{i} = H{i}"
    sign = "-" if quotient_degree > 0 else "+"
    return f"w{i} = H{i} {sign} {abs(quotient_degree)}*f"


FIBER_LABEL = "f = class of a fiber of the projection to the base curve"


def nef_generators(model: FlagModel) -> tuple[DivisorClass, ...]:
    """The gamma+1 generators of the nef cone, as nef-basis unit vectors.

    Each ``w_i`` is labeled with its pluecker-basis expression
    ``H_i - t_i * f``; the last generator is the fiber class ``f``.
    """
    gamma = model.gamma
    generators = [
        DivisorClass(
            Basis.NEF,
            _basis_unit(gamma, i),
            name=f"w{i + 1}",
            label=_twist_label(i + 1, model.quotient_degrees[i]),
        )
        for i in range(gamma)
    ]
    generators.append(
        DivisorClass(Basis.NEF, _basis_unit(gamma, gamma), name="f", label=FIBER_LABEL)
    )
    return tuple(generators)


def curve_generators(model: FlagModel) -> tuple[CurveClass, ...]:
    """The gamma+1 generators of the cone of curves, as unit vectors.

    ``line_i`` lies in a fiber and has degree one under the i-th
    Grassmannian projection; ``section`` is labeled by the quotient
    sequence that defines it.
    """
    gamma = model.gamma
    generators = [
        CurveClass(
            _basis_unit(gamma, i),
            name=f"line{i + 1}",
            label=(
                f"line{i + 1} = line in a fiber: degree 1 under projection "
                f"{i + 1}, a point under every other projection"
            ),
        )
        for i in range(gamma)
    ]
    ranks = ", ".join(str(r) for r in model.spec.quotient_ranks)
    degrees = ", ".join(str(t) for t in model.quotient_degrees)
    generators.append(
        CurveClass(
            _basis_unit(gamma, gamma),
            name="section",
            label=(
                "section = image of the base curve under the successive "
                f"quotients of ranks ({ranks}) and degrees ({degrees})"
            ),
        )
    )
    return tuple(generators)


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
