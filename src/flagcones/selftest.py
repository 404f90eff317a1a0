"""Randomized self-checks: oracle equivalence and the invariant suite.

Everything here is deterministic given a seed.  The generators are also
used by the test suite; the CLI ``selftest`` subcommand runs the whole
list and reports one line per check.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from . import seshadri as sesh
from .bundles import (
    CurveInfo,
    HNFiltration,
    SplitBundle,
    hn_brute_force_oracle,
    hn_filtration,
    validate_hn,
)
from .config import ProblemConfig, SummandSpec
from .errors import InternalCheckFailure, ValidationError
from .flags import (
    Basis,
    DivisorClass,
    FlagModel,
    build_model,
    convert_basis,
    curve_generators,
    quotient_ranks,
)
from .gallery import builtin_examples, check_fixture
from .report import assert_duality, parse_machine, render_machine, run


# ---------------------------------------------------------------------------
# random generators


def random_split_bundle(
    rng: random.Random, max_rank: int = 8, degree_bound: int = 5
) -> SplitBundle:
    rank = rng.randint(1, max_rank)
    degrees = tuple(rng.randint(-degree_bound, degree_bound) for _ in range(rank))
    return SplitBundle(degrees)


def random_nonsemistable_bundle(rng: random.Random, max_rank: int = 10) -> SplitBundle:
    while True:
        rank = rng.randint(2, max_rank)
        degrees = tuple(rng.randint(-6, 6) for _ in range(rank))
        if len(set(degrees)) > 1:
            return SplitBundle(degrees)


def random_filtration(rng: random.Random) -> HNFiltration:
    """Random valid filtration of rank at most 14 with 2 to 7 steps, entered
    directly as cumulative steps."""
    d = rng.randint(2, 7)
    ranks = sorted(rng.sample(range(1, 15), d))
    steps = []
    degree = 0
    previous_slope = None
    for j in range(d):
        piece_rank = ranks[j] - (ranks[j - 1] if j else 0)
        if previous_slope is None:
            piece_degree = rng.randint(-3, 8) * piece_rank + rng.randint(0, piece_rank - 1)
        else:
            # strictly below the previous slope
            ceiling = math.floor(previous_slope * piece_rank)
            if Fraction(ceiling, piece_rank) >= previous_slope:
                ceiling -= 1
            piece_degree = ceiling - rng.randint(0, 5)
        degree += piece_degree
        steps.append((ranks[j], degree))
        previous_slope = Fraction(piece_degree, piece_rank)
    return validate_hn(steps)


def random_model(rng: random.Random, max_gamma: int = 5) -> FlagModel:
    """Random flag model, mixing split bundles and raw filtration input."""
    while True:
        if rng.random() < 0.5:
            hn = hn_filtration(random_nonsemistable_bundle(rng))
        else:
            hn = random_filtration(rng)
        profile = quotient_ranks(hn)
        if profile:
            break
    gamma = rng.randint(1, min(max_gamma, len(profile)))
    chosen = tuple(sorted(rng.sample(profile, gamma), reverse=True))
    return build_model(hn, chosen)


def random_nef_divisor(rng: random.Random, gamma: int) -> DivisorClass:
    coords = tuple(
        Fraction(rng.randint(0, 12), rng.randint(1, 4)) for _ in range(gamma + 1)
    )
    return DivisorClass(Basis.NEF, coords)


def random_divisor(rng: random.Random, gamma: int) -> DivisorClass:
    basis = Basis.NEF if rng.random() < 0.5 else Basis.PLUECKER
    coords = tuple(
        Fraction(rng.randint(-12, 12), rng.randint(1, 4))
        for _ in range(gamma + 1)
    )
    return DivisorClass(basis, coords)


def random_divisibility_model(
    rng: random.Random, max_gamma: int = 5
) -> tuple[FlagModel, sesh.DivisibilityStatus]:
    """Random model for which the divisibility condition holds.

    Tries small split bundles first (keeping only flag positions whose
    quotient rank is matched by a step with divisible degree); falls back
    to a constructed filtration whose rank pattern is closed under
    complement and whose degrees are all multiples of their ranks, so
    that every flag choice satisfies the condition.
    """
    for _ in range(40):
        hn = hn_filtration(random_nonsemistable_bundle(rng, max_rank=9))
        profile = quotient_ranks(hn)
        ranks_present = {step.rank: step.degree for step in hn.steps}
        good = [
            r
            for r in profile
            if r in ranks_present and ranks_present[r] % r == 0
        ]
        if not good:
            continue
        gamma = rng.randint(1, min(max_gamma, len(good)))
        chosen = tuple(sorted(rng.sample(good, gamma), reverse=True))
        model = build_model(hn, chosen)
        status = sesh.check_divisibility(model)
        if status.holds:
            return model, status
    while True:
        n = rng.randint(4, 12)
        pairs = rng.sample(range(1, n // 2 + 1), rng.randint(1, n // 2))
        ranks = sorted({a for p in pairs for a in (p, n - p)} - {0, n})
        if not ranks:
            continue
        ranks.append(n)
        scale = rng.randint(1, 3)
        degrees = [scale * r * (2 * n - r) + r * rng.randint(-2, 2) for r in ranks]
        try:
            hn = validate_hn(list(zip(ranks, degrees)))
        except ValidationError:
            continue
        profile = quotient_ranks(hn)
        gamma = rng.randint(1, min(max_gamma, len(profile)))
        chosen = tuple(sorted(rng.sample(profile, gamma), reverse=True))
        model = build_model(hn, chosen)
        status = sesh.check_divisibility(model)
        if status.holds:
            return model, status


def random_config(rng: random.Random) -> ProblemConfig:
    """Random full problem config, for end-to-end round-trip checks."""
    if rng.random() < 0.5:
        bundle = random_nonsemistable_bundle(rng)
        summands = tuple(SummandSpec(d, m) for d, m in Counter(bundle.summand_degrees).items())
        hn = hn_filtration(bundle)
        kwargs = dict(summands=summands, hn_steps=None)
    else:
        hn = random_filtration(rng)
        kwargs = dict(summands=None, hn_steps=hn.step_pairs())
    profile = quotient_ranks(hn)
    gamma = rng.randint(1, min(4, len(profile)))
    flag = tuple(sorted(rng.sample(profile, gamma), reverse=True))
    divisors = []
    for j in range(rng.randint(0, 3)):
        d = random_divisor(rng, gamma)
        divisors.append(DivisorClass(d.basis, d.coords, name=f"D{j + 1}"))
    return ProblemConfig(
        curve=CurveInfo(rng.randint(0, 3), "X"),
        flag_ranks=flag,
        divisors=tuple(divisors),
        **kwargs,
    )


# ---------------------------------------------------------------------------
# checks


@dataclass(frozen=True)
class CheckResult:
    name: str
    trials: int
    failures: int
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.failures == 0


def _run_check(name: str, trial, inputs) -> CheckResult:
    """Run ``trial`` on each input in order; it returns ``""`` or what went
    wrong.  Counts the failures and keeps the first description."""
    problems = list(map(trial, inputs))
    failed = [problem for problem in problems if problem]
    return CheckResult(name, len(problems), len(failed), failed[0] if failed else "")


def _oracle_trial(rng) -> str:
    bundle = random_split_bundle(rng)
    same = hn_filtration(bundle) == hn_brute_force_oracle(bundle)
    return "" if same else f"mismatch for degrees {bundle.summand_degrees}"


def _pairing_trial(rng) -> str:
    model = random_model(rng)
    try:
        assert_duality(model)
    except InternalCheckFailure as exc:
        return f"{exc} for steps {model.hn.step_pairs()}"
    return ""


def _basis_roundtrip_trial(rng) -> str:
    model = random_model(rng)
    divisor = random_divisor(rng, model.gamma)
    same = convert_basis(convert_basis(divisor, model), model) == divisor
    return "" if same else f"round trip moved {divisor.coords}"


def _seshadri_trial(rng) -> str:
    model = random_model(rng)
    divisor = random_nef_divisor(rng, model.gamma)
    report = sesh.full_report(divisor, model)
    coords = report.divisor.coords
    if report.lower > report.upper:
        return "lower exceeds upper"
    if report.epsilon_global != report.lower or report.epsilon_at_section != report.lower:
        return "global/section value differs from the lower bound"
    ratios = [
        sesh.seshadri_ratio(curve, report.divisor, 1)
        for curve in curve_generators(model)
    ]
    if min(ratios) != report.epsilon_global:
        return "generator ratios do not attain the global value"
    if coords[-1] >= min(coords[:-1]) and report.lower != report.upper:
        return "constant case did not collapse the bounds"
    if report.epsilon_general is not None and report.epsilon_general != report.upper:
        return "known general value differs from the upper bound"
    # positive scaling
    t = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    scaled = sesh.full_report(
        DivisorClass(Basis.NEF, tuple(t * a for a in coords)), model
    )
    if (scaled.lower, scaled.upper) != (t * report.lower, t * report.upper):
        return "bounds are not homogeneous under scaling"
    if (scaled.epsilon_general is None) != (report.epsilon_general is None):
        return "scaling changed the known/unknown status"
    # coordinatewise monotonicity
    j = rng.randrange(len(coords))
    bumped_coords = tuple(
        a + (Fraction(rng.randint(1, 5)) if i == j else 0)
        for i, a in enumerate(coords)
    )
    bumped = sesh.full_report(DivisorClass(Basis.NEF, bumped_coords), model)
    if bumped.lower < report.lower or bumped.upper < report.upper:
        return "bounds decreased after increasing a coordinate"
    return ""


def _gap_trial(rng) -> str:
    model, status = random_divisibility_model(rng)
    if all(g >= 1 for g in sesh.degree_gaps(model, status)):
        return ""
    return f"gap below 1 for steps {model.hn.step_pairs()} flag {model.spec.quotient_ranks}"


def _machine_roundtrip_trial(rng) -> str:
    doc = run(random_config(rng))
    text = render_machine(doc)
    same = parse_machine(text) == doc and render_machine(parse_machine(text)) == text
    return "" if same else "document changed through render/parse"


def _fixture_trial(fixture) -> str:
    _, actual, ok = check_fixture(fixture)
    return "" if ok else f"{fixture.name}: got {actual}"


def run_selftest(seed: int = 0, trials: int = 200) -> list[CheckResult]:
    """Run every check with its own seeded generator; deterministic.

    The randomized checks draw from ``Random(seed + k)``, k their position.
    """
    randomized = [
        ("hn-oracle-equivalence", _oracle_trial, trials),
        ("pairing-identity", _pairing_trial, trials),
        ("basis-roundtrip", _basis_roundtrip_trial, trials),
        ("seshadri-invariants", _seshadri_trial, trials),
        ("divisibility-gap", _gap_trial, max(1, trials // 2)),
        ("machine-roundtrip", _machine_roundtrip_trial, max(1, trials // 4)),
    ]
    results = [
        _run_check(name, trial, itertools.repeat(random.Random(seed + k), count))
        for k, (name, trial, count) in enumerate(randomized)
    ]
    return results + [_run_check("fixture-digests", _fixture_trial, builtin_examples())]
