"""Miyaoka's nef cone of a projective bundle, on a curve of any genus.

For a vector bundle E on a smooth projective curve over C, let P(E) be the
bundle of its rank-1 quotients, xi = O(1) and f a fiber.  Then Nef(P(E)) is
spanned by f and xi - mu_min(E) * f, where mu_min(E) is the least slope of
a graded piece of the Harder-Narasimhan filtration (Y. Miyaoka, "The Chern
classes and Kodaira dimension of a minimal variety", Adv. Stud. Pure Math.
10, 1987).  The ample cone is its interior.  The genus of the curve does
not enter.

P(E) is the flag bundle of the single quotient rank 1, which is in the
profile when the last graded piece has rank 1; mu_min is then that piece's
degree, d_n - d_(n-1) of the raw steps.  In the pluecker basis xi is H_1 =
(1, 0) and f is (0, 1), so the tool must map the nef generators w1 and f to
(1, -mu_min) and (0, 1), and call xi + c * f not nef below c = -mu_min, nef
but not ample at it and ample above it.  Everything expected is computed
here from the raw steps.
"""

import math
import random
from fractions import Fraction

import pytest

from flagcones import (
    Basis,
    CurveInfo,
    DivisorClass,
    Positivity,
    ProblemConfig,
    classify_divisor,
    convert_basis,
)
from flagcones.report import model_from_config

SEEDS = range(6)
CASES_PER_SEED = 30


def random_steps(rng):
    """Cumulative ``(rank, degree)`` steps with strictly decreasing piece
    slopes, the last piece of rank 1, and that piece's degree."""
    pieces = [rng.randint(1, 4) for _ in range(rng.randint(1, 4))] + [1]
    steps, rank, degree, slope = [], 0, 0, None
    for r in pieces:
        if slope is None:
            e = rng.randint(-20, 20)
        else:  # ceil(x) - 1 < x, so the slope e / r falls
            e = math.ceil(slope * r) - rng.randint(1, 6)
        rank, degree, slope = rank + r, degree + e, Fraction(e, r)
        steps.append((rank, degree))
    return tuple(steps), steps[-1][1] - steps[-2][1]


@pytest.mark.parametrize("seed", SEEDS)
def test_nef_cone_of_projective_bundle(seed):
    rng = random.Random(seed)
    for _ in range(CASES_PER_SEED):
        steps, mu_min = random_steps(rng)
        genus = rng.randint(0, 5)
        config = ProblemConfig(CurveInfo(genus, "C"), None, steps, (1,))
        model = model_from_config(config)
        case = (genus, steps)

        w1 = convert_basis(DivisorClass(Basis.NEF, (1, 0)), model)
        f = convert_basis(DivisorClass(Basis.NEF, (0, 1)), model)
        assert (w1.basis, w1.coords) == (Basis.PLUECKER, (1, -mu_min)), case
        assert (f.basis, f.coords) == (Basis.PLUECKER, (0, 1)), case

        t = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        for offset, expected in (
            (-Fraction(1, rng.randint(1, 9)), Positivity.NOT_NEF),
            (-rng.randint(1, 30), Positivity.NOT_NEF),
            (0, Positivity.NEF_NOT_AMPLE),
            (Fraction(1, rng.randint(1, 9)), Positivity.AMPLE),
            (rng.randint(1, 30), Positivity.AMPLE),
        ):
            c = -mu_min + offset
            divisor = DivisorClass(Basis.PLUECKER, (t, t * c))
            assert classify_divisor(divisor, model) is expected, (case, c)
