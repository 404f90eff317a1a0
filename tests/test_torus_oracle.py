"""Torus-fixed-point oracle for split bundles on P^1.

For E = O(d_1) + ... + O(d_n) on P^1 the torus (C*)^n x C* acts on the flag
bundle Fl(E).  Its fixed points are the coordinate flags over 0 and over
infinity, and it has finitely many invariant curves: the moment graph of
Goresky, Kottwitz and MacPherson (Invent. Math. 131, 1998).  A coordinate
flag is a chain S_1 < ... < S_gamma of index sets with |S_i| = n - r_i, the
summands kept in the i-th subbundle.  The intersection numbers of the
invariant curves follow from the degrees alone:

* the horizontal curve sigma_S has H_i . sigma_S = sum of d_j over j not in
  S_i, and f . sigma_S = 1;
* the fiber curve through S that swaps j and k has H_i . C = 1 when exactly
  one of j, k lies in S_i and 0 otherwise, and f . C = 0.

The cone of curves is spanned by invariant curves.  So a class is nef exactly
when it is >= 0 on each of them, and ample exactly when it is > 0 on each.
Everything expected here is computed from the degrees; the package's
answers are read only through ``build_model``, ``full_report``,
``classify_divisor`` and ``NotNef``.
"""

import itertools
import random
from fractions import Fraction

import pytest

from flagcones import (
    Basis,
    DivisorClass,
    NotNef,
    Positivity,
    SplitBundle,
    build_model,
    classify_divisor,
    full_report,
    hn_filtration,
)

SEEDS = range(8)
MODELS_PER_SEED = 20
CLASSES_PER_MODEL = 8


def random_problem(rng):
    """Degrees (n <= 6) and a flag of quotient ranks from their profile.

    The subbundles of the filtration are the summands of the largest
    degrees, so a rank n - m is in the profile exactly when the m-th and the
    (m+1)-th largest degrees differ.
    """
    while True:
        degrees = [rng.randint(-4, 6) for _ in range(rng.randint(2, 6))]
        ordered = sorted(degrees, reverse=True)
        n = len(degrees)
        profile = [n - m for m in range(1, n) if ordered[m - 1] > ordered[m]]
        if profile:
            break
    flag = sorted(rng.sample(profile, rng.randint(1, len(profile))), reverse=True)
    return degrees, flag


def flags_of(n, sizes):
    """Every coordinate flag: chains of index sets of the given sizes."""
    chains = [()]
    for size in sizes:
        grown = []
        for chain in chains:
            base = chain[-1] if chain else frozenset()
            rest = sorted(set(range(n)) - base)
            for extra in itertools.combinations(rest, size - len(base)):
                grown.append(chain + (base | set(extra),))
        chains = grown
    return chains


def section_curve(degrees, flag_sets):
    """(H_1 . C, ..., H_gamma . C, f . C) for the horizontal curve sigma_S."""
    quotient = [sum(d for j, d in enumerate(degrees) if j not in s) for s in flag_sets]
    return (*quotient, 1)


def fiber_curves(n, flag_sets):
    """The same numbers for each fiber curve through the fixed point S."""
    curves = []
    for j, k in itertools.combinations(range(n), 2):
        moved = tuple(int((j in s) != (k in s)) for s in flag_sets)
        if any(moved):
            curves.append((*moved, 0))
    return curves


def degree(curve, coords):
    """L . C for L with pluecker-basis coordinates ``coords``."""
    return sum(c * x for c, x in zip(coords, curve))


def random_pluecker(rng, degrees, flag):
    """Small coordinates (c_1..c_gamma, e), with e put near the nef boundary."""
    front = [rng.choice([-1, 0, 0, 1, 1, 2, 3, Fraction(1, 2), Fraction(5, 3)]) for _ in flag]
    smallest = sorted(degrees)
    shift = sum(c * sum(smallest[:r]) for c, r in zip(front, flag))
    return (*front, rng.choice([-2, -1, 0, 0, 0, 1, Fraction(1, 2), 3]) - shift)


@pytest.mark.parametrize("seed", SEEDS)
def test_torus_oracle(seed):
    rng = random.Random(seed)
    verdicts = {position: 0 for position in Positivity}
    for _ in range(MODELS_PER_SEED):
        degrees, flag = random_problem(rng)
        n = len(degrees)
        model = build_model(hn_filtration(SplitBundle(tuple(degrees))), flag)
        sizes = [n - r for r in flag]

        # (a) t_i is the sum of the r_i smallest degrees
        assert list(model.quotient_degrees) == [sum(sorted(degrees)[:r]) for r in flag]

        curves = set()
        for flag_sets in flags_of(n, sizes):
            curves.add(section_curve(degrees, flag_sets))
            curves.update(fiber_curves(n, flag_sets))
        by_degree = sorted(range(n), key=lambda j: -degrees[j])
        distinguished = [frozenset(by_degree[:size]) for size in sizes]
        lines = fiber_curves(n, distinguished)
        through_point = [section_curve(degrees, distinguished), *lines]

        for _ in range(CLASSES_PER_MODEL):
            coords = random_pluecker(rng, degrees, flag)
            divisor = DivisorClass(Basis.PLUECKER, coords)
            least = min(degree(curve, coords) for curve in curves)
            expected = (
                Positivity.AMPLE
                if least > 0
                else Positivity.NEF_NOT_AMPLE if least == 0 else Positivity.NOT_NEF
            )
            verdicts[expected] += 1

            # (b) nef exactly when >= 0 on every invariant curve
            assert classify_divisor(divisor, model) is expected, (degrees, flag, coords)
            if expected is Positivity.NOT_NEF:
                with pytest.raises(NotNef):
                    full_report(divisor, model)
                continue

            # (c) the least L . C over the invariant curves through the fixed
            # point on the distinguished section is the value there
            report = full_report(divisor, model)
            at_point = min(degree(curve, coords) for curve in through_point)
            assert report.lower == report.epsilon_at_section == at_point, (degrees, flag, coords)
            assert report.upper == min(degree(curve, coords) for curve in lines)
    assert all(verdicts.values()), verdicts
