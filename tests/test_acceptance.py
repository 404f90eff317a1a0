"""Acceptance criteria, one test per criterion.

Everything is exact rational arithmetic, so every comparison is exact
equality; the only tolerances are the stated runtime budgets.  Each test
prints one PASS line on success (visible with ``pytest -s`` or in the
captured-output section).
"""

import itertools
import json
import random
import subprocess
import sys
import time
from fractions import Fraction

from flagcones import (
    Basis,
    DivisorClass,
    SplitBundle,
    builtin_examples,
    check_fixture,
    convert_basis,
    curve_generators,
    degree_gaps,
    full_report,
    hn_brute_force_oracle,
    hn_filtration,
    pairing_matrix,
    parse_machine,
    render_machine,
    run,
    seshadri_ratio,
)
from flagcones.gallery import find_fixture
from flagcones.report import model_from_config
from flagcones.selftest import (
    random_config,
    random_divisibility_model,
    random_model,
    random_nef_divisor,
    random_split_bundle,
)


def _report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def test_criterion_1_example_fixtures():
    """Golden fixtures: filtrations, slopes, Picard ranks, condition verdicts."""
    start = time.perf_counter()

    expected_core = {
        "rank5-a/fl43": (((1, 2), (2, 3), (5, 3)), Fraction(3, 5), 3, False),
        "rank5-b/fl41": (((1, 1), (4, 1), (5, 0)), Fraction(0), 3, False),
        "rank5-c/fl41": (((1, 4), (4, 4), (5, 3)), Fraction(3, 5), 3, True),
    }
    hn7a = ((1, 3), (2, 4), (5, 4), (6, 3), (7, 1))
    hn7b = ((1, 8), (2, 10), (5, 10), (6, 6), (7, 1))
    expected_verdicts = {"rank7-a/fl21": True, "rank7-b/fl6521": True}
    for suffix in ("51", "52", "65", "62", "61", "521", "621", "6521"):
        expected_verdicts[f"rank7-a/fl{suffix}"] = False

    fixtures = {f.name: f for f in builtin_examples()}
    assert set(fixtures) == set(expected_core) | set(expected_verdicts)

    for name, (steps, slope, picard, holds) in expected_core.items():
        doc, actual, ok = check_fixture(fixtures[name])
        assert ok
        assert doc.model.hn_steps == steps
        assert doc.model.slope == slope
        assert doc.model.picard_rank == picard
        assert doc.assumption.holds == holds

    for name, holds in expected_verdicts.items():
        doc, _, ok = check_fixture(fixtures[name])
        assert ok
        assert doc.model.slope == Fraction(1, 7)
        assert doc.model.hn_steps == (hn7b if name.startswith("rank7-b") else hn7a)
        assert doc.assumption.holds == holds

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"fixture replay took {elapsed:.2f}s"
    _report(1, f"13 fixtures exact in {elapsed:.2f}s")


def test_criterion_2_oracle_equivalence():
    """Grouped filtration equals brute-force subset search, at scale."""
    start = time.perf_counter()
    rng = random.Random(20260810)
    randomized = 5000
    for _ in range(randomized):
        bundle = random_split_bundle(rng, max_rank=8, degree_bound=5)
        assert hn_filtration(bundle) == hn_brute_force_oracle(bundle)

    exhaustive = 0
    for rank in range(1, 5):
        for degrees in itertools.product(range(-2, 3), repeat=rank):
            bundle = SplitBundle(degrees)
            assert hn_filtration(bundle) == hn_brute_force_oracle(bundle)
            exhaustive += 1

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"oracle equivalence took {elapsed:.2f}s"
    _report(2, f"{randomized} randomized + {exhaustive} exhaustive in {elapsed:.1f}s")


def test_criterion_3_duality():
    """Pairing matrix is exactly the identity for 1000 randomized models."""
    start = time.perf_counter()
    rng = random.Random(3)
    top_gamma = 0
    for _ in range(1000):
        model = random_model(rng, max_gamma=5)
        top_gamma = max(top_gamma, model.gamma)
        size = model.gamma + 1
        matrix, _ = pairing_matrix(model)
        for i in range(size):
            for j in range(size):
                assert matrix[i][j] == (Fraction(1) if i == j else Fraction(0))
    assert top_gamma == 5
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"duality suite took {elapsed:.2f}s"
    _report(3, f"1000 models, gamma up to {top_gamma}, in {elapsed:.1f}s")


def test_criterion_4_seshadri_formula_suite():
    """Bounds, ratio minimum, section value, constant case, scaling, monotonicity."""
    start = time.perf_counter()
    rng = random.Random(4)
    models = [
        model_from_config(find_fixture(name).config)
        for name in (
            "rank5-a/fl43",
            "rank5-b/fl41",
            "rank5-c/fl41",
            "rank7-a/fl21",
            "rank7-b/fl6521",
        )
    ]
    models.extend(random_model(rng, max_gamma=5) for _ in range(5))

    checked = 0
    for model in models:
        curves = curve_generators(model)
        for _ in range(1000):
            divisor = random_nef_divisor(rng, model.gamma)
            report = full_report(divisor, model)
            coords = report.divisor.coords
            assert report.lower <= report.upper
            assert report.epsilon_global == report.lower
            assert report.epsilon_at_section == report.lower
            assert (
                min(seshadri_ratio(c, report.divisor, 1) for c in curves)
                == report.epsilon_global
            )
            if coords[-1] >= min(coords[:-1]):
                assert report.lower == report.upper
            if report.epsilon_general is not None:
                assert report.epsilon_general == report.upper

            t = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            scaled = full_report(
                DivisorClass(Basis.NEF, tuple(t * a for a in coords)), model
            )
            assert scaled.lower == t * report.lower
            assert scaled.upper == t * report.upper
            assert scaled.epsilon_at_section == t * report.epsilon_at_section
            assert (scaled.epsilon_general is None) == (report.epsilon_general is None)

            j = rng.randrange(model.gamma + 1)
            bump = Fraction(rng.randint(1, 8), rng.randint(1, 3))
            bumped = full_report(
                DivisorClass(
                    Basis.NEF,
                    tuple(a + (bump if i == j else 0) for i, a in enumerate(coords)),
                ),
                model,
            )
            assert bumped.lower >= report.lower
            assert bumped.upper >= report.upper
            assert bumped.epsilon_global >= report.epsilon_global
            checked += 1

    elapsed = time.perf_counter() - start
    _report(4, f"{checked} divisors over {len(models)} models in {elapsed:.1f}s")


def test_criterion_5_degree_gap():
    """Every matched-step degree gap is >= 1 when the condition holds."""
    start = time.perf_counter()
    rng = random.Random(5)
    for _ in range(500):
        model, status = random_divisibility_model(rng, max_gamma=5)
        gaps = degree_gaps(model, status)
        assert all(g >= 1 for g in gaps), (
            f"gap below 1: steps {model.hn_steps} "
            f"flag {model.flag_ranks} gaps {gaps}"
        )
    elapsed = time.perf_counter() - start
    _report(5, f"500 condition-satisfying models in {elapsed:.1f}s")


def test_criterion_6_round_trips():
    """Basis conversion and machine output round-trip exactly, 1000x each."""
    start = time.perf_counter()
    rng = random.Random(6)
    from flagcones.selftest import random_divisor

    for _ in range(1000):
        model = random_model(rng)
        divisor = random_divisor(rng, model.gamma)
        twice = convert_basis(convert_basis(divisor, model), model)
        assert twice == divisor
        assert twice.basis is divisor.basis

    for _ in range(1000):
        doc = run(random_config(rng))
        text = render_machine(doc)
        again = parse_machine(text)
        assert again == doc
        assert render_machine(again) == text

    elapsed = time.perf_counter() - start
    _report(6, f"1000 basis + 1000 machine round trips in {elapsed:.1f}s")


def test_criterion_7_cli_error_paths(tmp_path):
    """Semistable input, bad flag rank, non-nef divisor: exit 3 + diagnostic."""
    start = time.perf_counter()
    cases = {
        "semistable.json": (
            {
                "bundle": {"summands": [{"degree": 0, "multiplicity": 3}]},
                "flag": {"quotient_ranks": [1]},
            },
            "SemistableBundle",
        ),
        "badflag.json": (
            {
                "bundle": {
                    "summands": [
                        {"degree": 1, "multiplicity": 1},
                        {"degree": -1, "multiplicity": 1},
                        {"degree": 0, "multiplicity": 3},
                    ]
                },
                "flag": {"quotient_ranks": [3]},
            },
            "RankNotInHNProfile",
        ),
        "notnef.json": (
            {
                "bundle": {
                    "summands": [
                        {"degree": 4, "multiplicity": 1},
                        {"degree": -1, "multiplicity": 1},
                        {"degree": 0, "multiplicity": 3},
                    ]
                },
                "flag": {"quotient_ranks": [4, 1]},
                "divisors": [
                    {"name": "M", "basis": "nef", "coords": [-1, 0, 0]}
                ],
            },
            "NotNef",
        ),
    }
    for filename, (payload, marker) in cases.items():
        path = tmp_path / filename
        path.write_text(json.dumps(payload), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "flagcones", "seshadri", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 3, f"{filename}: exit {proc.returncode}"
        assert marker in proc.stderr + proc.stdout, f"{filename}: no diagnostic"

    elapsed = time.perf_counter() - start
    _report(7, f"3 scripted invocations, all exit 3, in {elapsed:.1f}s")
