"""Twist invariance: E and E (x) L with deg L = k have the same flag bundle.

The i-th quotient of E (x) L is Q_i (x) L, so its degree grows by k * r_i and
H_i by k * r_i * f, while the nef generators w_i = H_i - t_i * f stay where
they are.  A class with the same nef-basis coordinates therefore has the same
bounds, epsilon values, rule and classification.  The divisibility verdict
stays too, since deg + k * rank is a multiple of rank exactly when deg is.  A
class written (c, e) in the pluecker basis of E is
(c, e - k * sum(c_i * r_i)) in that of E (x) L.

Every expected value is computed here from the ranks and k alone; nothing is
taken from the basis conversion.
"""

import random
from fractions import Fraction

import pytest

from flagcones import (
    Basis,
    DivisorClass,
    NotNef,
    SplitBundle,
    build_model,
    check_divisibility,
    classify_divisor,
    full_report,
    hn_filtration,
    validate_hn,
)
from flagcones.selftest import random_filtration

SEEDS = range(6)
CASES_PER_SEED = 25
COORDS = [-1, 0, 1, 1, 2, 3, Fraction(1, 2), Fraction(-2, 3), Fraction(7, 4)]


def filtrations(rng):
    """A filtration and its twist by a random k, as two independent inputs."""
    k = rng.choice([-3, -2, -1, 1, 2, 5])
    if rng.random() < 0.5:
        while True:
            degrees = [rng.randint(-5, 6) for _ in range(rng.randint(2, 7))]
            if len(set(degrees)) > 1:
                break
        twisted = tuple(d + k for d in degrees)
        return hn_filtration(SplitBundle(tuple(degrees))), hn_filtration(SplitBundle(twisted)), k
    hn = random_filtration(rng)
    twisted = validate_hn([(rank, degree + k * rank) for rank, degree in hn])
    return hn, twisted, k


def evaluate(divisor, model):
    """Classification and report of one class, with ``None`` for a class that
    is not nef."""
    try:
        report = full_report(divisor, model)
    except NotNef:
        report = None
    return classify_divisor(divisor, model), report


@pytest.mark.parametrize("seed", SEEDS)
def test_twist_invariance(seed):
    rng = random.Random(seed)
    for _ in range(CASES_PER_SEED):
        hn, twisted_hn, k = filtrations(rng)
        profile = [hn[-1][0] - rank for rank, _ in hn[:-1]]
        flag = sorted(rng.sample(profile, rng.randint(1, len(profile))), reverse=True)
        model, twisted = build_model(hn, flag), build_model(twisted_hn, flag)
        assert twisted.quotient_degrees == tuple(
            t + k * r for t, r in zip(model.quotient_degrees, flag)
        )

        status, twisted_status = check_divisibility(model), check_divisibility(twisted)
        assert status.holds == twisted_status.holds
        assert status.failures == twisted_status.failures

        for _ in range(4):
            coords = [rng.choice(COORDS) for _ in range(len(flag) + 1)]
            nef = DivisorClass(Basis.NEF, coords)
            assert evaluate(nef, model) == evaluate(nef, twisted), (hn, flag, k, coords)

            shift = k * sum(c * r for c, r in zip(coords, flag))
            before = DivisorClass(Basis.PLUECKER, coords)
            after = DivisorClass(Basis.PLUECKER, (*coords[:-1], coords[-1] - shift))
            assert evaluate(before, model) == evaluate(after, twisted), (hn, flag, k, coords)
