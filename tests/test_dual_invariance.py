"""Duality invariance: Fl_R(E) and Fl_{R*}(E*) are the same flag bundle.

A flag of quotients of E_x is the flag of their kernels, and the annihilators
of those kernels are quotients of E*_x.  So with n = rank E and d = deg E the
flag bundle of E with quotient ranks R = (r_1 > ... > r_g) is the flag bundle
of E* with quotient ranks R* = (n - r_g, ..., n - r_1), and the distinguished
section is kept.  The dual filtration's cumulative steps are
(n - rank E_k, deg E_k - d) over the proper steps E_k from last to first, then
(n, -d) for E_0 = 0.  On line bundles det K_i* = det Q_i - det E gives

* H'_{g+1-i} = H_i - d*f and t'_{g+1-i} = t_i - d, while w' and f stay, so
* nef coordinates (a_1..a_g, b) map to (a_g..a_1, b), and
* pluecker coordinates (c, e) map to (c reversed, e + d * sum(c)).

A class and its image therefore have the same bounds, the same value at a
section point and the same nef verdict.  The very-general value is left out:
the divisibility condition is stated for E and is not symmetric under duality.

The dual steps, the dual flag and every expected value are computed here from
the raw (rank, degree) pairs; nothing is taken from the package but the two
models and what they report.
"""

import random
from fractions import Fraction

import pytest

from flagcones import (
    Basis,
    DivisorClass,
    NotNef,
    build_model,
    classify_divisor,
    convert_basis,
    curve_generators,
    full_report,
    nef_generators,
    pairing_matrix,
    to_nef,
    validate_hn,
)

SEEDS = range(6)
CASES_PER_SEED = 25
CLASSES_PER_CASE = 4
COORDS = [-2, -1, 0, 0, 1, 1, 2, 3, Fraction(1, 2), Fraction(-2, 3), Fraction(7, 4)]


def raw_steps(rng):
    """Cumulative (rank, degree) pairs of a random bundle with 2 to 6 graded
    pieces of distinct slopes, taken in decreasing slope order."""
    while True:
        pieces = [(rng.randint(1, 4), rng.randint(-9, 9)) for _ in range(rng.randint(2, 6))]
        slopes = [Fraction(degree, rank) for rank, degree in pieces]
        if len(set(slopes)) == len(slopes):
            break
    pieces.sort(key=lambda piece: Fraction(piece[1], piece[0]), reverse=True)
    steps, rank, degree = [], 0, 0
    for piece_rank, piece_degree in pieces:
        rank, degree = rank + piece_rank, degree + piece_degree
        steps.append((rank, degree))
    return steps


def dual_steps(steps):
    """The steps of E*: (n - r, e - d) over the proper steps from last to
    first, then (n, -d)."""
    n, d = steps[-1]
    return [(n - r, e - d) for r, e in reversed(steps[:-1])] + [(n, -d)]


def dual_nef(coords):
    *a, b = coords
    return (*reversed(a), b)


def dual_pluecker(coords, d):
    *c, e = coords
    return (*reversed(c), e + d * sum(c))


def evaluate(divisor, model):
    """What duality keeps of one class: its nef verdict, and for a nef class
    its bounds and its value at a section point."""
    try:
        report = full_report(divisor, model)
    except NotNef:
        return classify_divisor(divisor, model), None
    values = (report.lower, report.upper, report.epsilon_at_section)
    return classify_divisor(divisor, model), values


def cases(seed):
    """``(steps, flag, model, dual model)`` for random raw steps and flags."""
    rng = random.Random(seed)
    for _ in range(CASES_PER_SEED):
        steps = raw_steps(rng)
        n = steps[-1][0]
        profile = [n - r for r, _ in steps[:-1]]
        flag = sorted(rng.sample(profile, rng.randint(1, len(profile))), reverse=True)
        dual_flag = [n - r for r in reversed(flag)]
        model = build_model(validate_hn(steps), flag)
        dual = build_model(validate_hn(dual_steps(steps)), dual_flag)
        yield rng, steps, flag, model, dual


def test_dual_of_dual_is_the_bundle():
    rng = random.Random(0)
    for _ in range(50):
        steps = raw_steps(rng)
        assert dual_steps(dual_steps(steps)) == steps


@pytest.mark.parametrize("seed", SEEDS)
def test_quotient_degrees(seed):
    for _, steps, flag, model, dual in cases(seed):
        d = steps[-1][1]
        expected = tuple(t - d for t in reversed(model.quotient_degrees))
        assert dual.quotient_degrees == expected, (steps, flag)


@pytest.mark.parametrize("seed", SEEDS)
def test_pluecker_map(seed):
    for rng, steps, flag, model, dual in cases(seed):
        d = steps[-1][1]
        for _ in range(CLASSES_PER_CASE):
            coords = tuple(rng.choice(COORDS) for _ in range(len(flag) + 1))
            # pluecker (c, e) of E is pluecker (c reversed, e + d * sum(c)) of E*
            nef = to_nef(DivisorClass(Basis.PLUECKER, coords), model).coords
            dual_class = DivisorClass(Basis.PLUECKER, dual_pluecker(coords, d))
            assert to_nef(dual_class, dual).coords == dual_nef(nef), (steps, flag, coords)
            # and the other way: nef (a, b) of E goes to the image of its pluecker form
            pluecker = convert_basis(DivisorClass(Basis.NEF, coords), model).coords
            dual_class = DivisorClass(Basis.NEF, dual_nef(coords))
            assert convert_basis(dual_class, dual).coords == dual_pluecker(pluecker, d), (
                steps,
                flag,
                coords,
            )


@pytest.mark.parametrize("seed", SEEDS)
def test_seshadri_data_and_nef_verdict(seed):
    for rng, steps, flag, model, dual in cases(seed):
        d = steps[-1][1]
        for _ in range(CLASSES_PER_CASE):
            coords = tuple(rng.choice(COORDS) for _ in range(len(flag) + 1))
            nef, dual_nef_class = (
                DivisorClass(Basis.NEF, coords),
                DivisorClass(Basis.NEF, dual_nef(coords)),
            )
            assert evaluate(nef, model) == evaluate(dual_nef_class, dual), (steps, flag, coords)
            pluecker, dual_pluecker_class = (
                DivisorClass(Basis.PLUECKER, coords),
                DivisorClass(Basis.PLUECKER, dual_pluecker(coords, d)),
            )
            assert evaluate(pluecker, model) == evaluate(dual_pluecker_class, dual), (
                steps,
                flag,
                coords,
            )


@pytest.mark.parametrize("seed", SEEDS)
def test_cone_generators_reversed(seed):
    for _, steps, flag, model, dual in cases(seed):
        d = steps[-1][1]
        gamma = len(flag)
        generators, dual_generators = nef_generators(model), nef_generators(dual)
        # w_i of E is w'_{g+1-i} of E*, and f stays f
        order = [*reversed(range(gamma)), gamma]
        assert [dual_nef(g.coords) for g in generators] == [dual_generators[j].coords for j in order]
        pairs, dual_pairs = pairing_matrix(model)[1], pairing_matrix(dual)[1]
        assert [dual_pluecker(p.coords, d) for _, p in pairs] == [
            dual_pairs[j][1].coords for j in order
        ], (steps, flag)
        lines, dual_lines = curve_generators(model), curve_generators(dual)
        assert [dual_nef(c.coords) for c in lines] == [dual_lines[j].coords for j in order]
