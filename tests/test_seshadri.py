import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagcones import (
    Basis,
    BasisMismatch,
    CurveClass,
    DivisibilityNotSatisfied,
    DivisorClass,
    NotNef,
    SplitBundle,
    ValidationError,
    ZeroMultiplicity,
    build_model,
    check_divisibility,
    curve_generators,
    degree_gaps,
    full_report,
    hn_filtration,
    seshadri_bounds,
    seshadri_ratio,
    validate_hn,
)
from flagcones.selftest import random_divisibility_model, random_model, random_nef_divisor
from flagcones.flags import _least
from flagcones.seshadri import DivisibilityStatus, SeshadriReport, Witness


def model_from(degrees, flag):
    hn = hn_filtration(SplitBundle(tuple(degrees)))
    return build_model(hn, flag)


MODEL_A = model_from((1, 2, 0, 0, 0), (4, 3))          # condition fails
MODEL_B = model_from((1, -1, 0, 0, 0), (4, 1))         # fails: 4 does not divide 1
MODEL_C = model_from((4, -1, 0, 0, 0), (4, 1))         # condition holds
MODEL_7A = model_from((3, 1, 0, 0, 0, -1, -2), (2, 1))  # holds
MODEL_7B = model_from((8, 2, 0, 0, 0, -4, -5), (6, 5, 2, 1))  # holds


class TestDivisibilityCheck:
    def test_holds_with_witnesses(self):
        status = check_divisibility(MODEL_C)
        assert status.holds
        assert [w.subbundle_degree for w in status.witnesses] == [4, 4]
        assert [w.hn_index for w in status.witnesses] == [2, 1]

    def test_no_rank_match(self):
        status = check_divisibility(MODEL_A)
        assert not status.holds
        assert all(w.hn_index is None for w in status.witnesses)
        assert [(f.index, f.reason) for f in status.failures] == [
            (1, "no_rank_match"),
            (2, "no_rank_match"),
        ]

    def test_not_divisible(self):
        status = check_divisibility(MODEL_B)
        assert not status.holds
        # the rank-4 step exists with degree 1, which 4 does not divide
        witness = status.witnesses[0]
        assert witness is not None
        assert (witness.hn_index, witness.subbundle_degree) == (2, 1)
        assert status.failures == (status.failures[0],)
        assert (status.failures[0].index, status.failures[0].reason) == (
            1,
            "not_divisible",
        )

    def test_full_flag_witnesses(self):
        status = check_divisibility(MODEL_7B)
        assert status.holds
        assert [w.subbundle_degree for w in status.witnesses] == [6, 10, 10, 8]


# Negatives, zeros, ties (equal values built as distinct objects) and
# numerators near 10**40, whose differences a float would lose.
NEAR = 10**40
RATIONALS = st.one_of(
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)),
    st.builds(Fraction, st.integers(NEAR - 3, NEAR + 3), st.integers(1, 3)),
    st.builds(Fraction, st.integers(-NEAR - 3, -NEAR + 3), st.integers(1, 3)),
)


class TestBounds:
    @given(st.lists(RATIONALS, min_size=1, max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_integer_minimum_is_fraction_min(self, values):
        assert _least(values) is min(values)

    @given(st.lists(RATIONALS.map(abs), min_size=5, max_size=5))
    @settings(max_examples=300, deadline=None)
    def test_bounds_are_input_coordinates(self, coords):
        upper = min(coords[:-1])
        lower = min(upper, coords[-1])
        bounds = seshadri_bounds(DivisorClass(Basis.NEF, coords), MODEL_7B)
        assert bounds[0] is lower and bounds[1] is upper

    def test_plain(self):
        divisor = DivisorClass(Basis.NEF, (3, 4, 1))
        assert seshadri_bounds(divisor, MODEL_A) == (1, 3)

    def test_collapsed(self):
        divisor = DivisorClass(Basis.NEF, (2, 3, 5))
        assert seshadri_bounds(divisor, MODEL_A) == (2, 2)

    def test_boundary_class(self):
        divisor = DivisorClass(Basis.NEF, (0, 1, 1))
        assert seshadri_bounds(divisor, MODEL_A) == (0, 0)

    def test_not_nef_rejected(self):
        with pytest.raises(NotNef):
            seshadri_bounds(DivisorClass(Basis.NEF, (-1, 1, 1)), MODEL_A)

    def test_pluecker_input_converted(self):
        # w1 + f in pluecker coordinates: (1, 0, 1 - 1) for MODEL_C
        divisor = DivisorClass(Basis.PLUECKER, (1, 0, 0))
        with pytest.raises(NotNef):
            seshadri_bounds(divisor, MODEL_C)


class TestPointValues:
    def test_at_section_and_global(self):
        report = full_report(DivisorClass(Basis.NEF, (3, 4, 1)), MODEL_A)
        assert report.epsilon_at_section == 1
        assert report.epsilon_global == 1
        assert full_report(DivisorClass(Basis.NEF, (2, 3, 5)), MODEL_A).epsilon_at_section == 2
        assert full_report(DivisorClass(Basis.NEF, (1, 1, 1)), MODEL_A).epsilon_at_section == 1

    def test_fiber_class_has_zero_constant(self):
        assert seshadri_bounds(DivisorClass(Basis.NEF, (0, 0, 1)), MODEL_A)[0] == 0

    def test_constant_coordinates(self):
        assert seshadri_bounds(DivisorClass(Basis.NEF, (5, 5, 5)), MODEL_A)[0] == 5

    def test_rational_values(self):
        divisor = DivisorClass(Basis.NEF, (Fraction(3, 2), Fraction(1, 3), 4))
        assert seshadri_bounds(divisor, MODEL_A)[0] == Fraction(1, 3)


class TestConstantCase:
    def test_applicable(self):
        report = full_report(DivisorClass(Basis.NEF, (2, 3, 5)), MODEL_A)
        assert (report.general_rule, report.epsilon_general) == ("constant_case", 2)

    def test_not_applicable(self):
        report = full_report(DivisorClass(Basis.NEF, (3, 4, 1)), MODEL_A)
        assert report.general_rule != "constant_case"

    def test_zero_edge(self):
        report = full_report(DivisorClass(Basis.NEF, (0, 4, 0)), MODEL_A)
        assert (report.general_rule, report.epsilon_general) == ("constant_case", 0)


class TestGeneralPoint:
    def test_known_under_condition(self):
        report = full_report(DivisorClass(Basis.NEF, (3, 4, 1)), MODEL_C)
        assert (report.epsilon_general, report.general_rule) == (3, "divisibility_condition")

    def test_unknown_when_condition_fails(self):
        report = full_report(DivisorClass(Basis.NEF, (3, 4, 1)), MODEL_A)
        assert (report.epsilon_general, report.general_rule) == (None, "open")
        assert (report.lower, report.upper) == (1, 3)

    def test_constant_case_needs_no_condition(self):
        report = full_report(DivisorClass(Basis.NEF, (2, 3, 5)), MODEL_A)
        assert (report.epsilon_general, report.general_rule) == (2, "constant_case")

    def test_unknown_for_divisibility_failure(self):
        report = full_report(DivisorClass(Basis.NEF, (3, 4, 1)), MODEL_B)
        assert (report.epsilon_general, report.general_rule) == (None, "open")


class TestDerivedFields:
    def test_report_from_bounds_and_rule(self):
        lower, upper = Fraction(1, 2), Fraction(3)
        for rule, general in (("divisibility_condition", upper), ("open", None)):
            report = SeshadriReport(lower, upper, rule)
            assert report.epsilon_global is lower and report.epsilon_at_section is lower
            assert report.epsilon_general is general
            assert list(report.notes) == ["lower", "upper", "global", "at_section", "general"]
        assert SeshadriReport(upper, upper, "constant_case").epsilon_general is upper

    def test_notes_shared_per_rule(self):
        first = full_report(DivisorClass(Basis.NEF, (3, 4, 1)), MODEL_B)
        second = SeshadriReport(Fraction(1, 2), Fraction(3), "open")
        assert first.general_rule == second.general_rule == "open"
        assert first.notes is second.notes
        assert SeshadriReport(1, 2, "divisibility_condition").notes is not first.notes
        with pytest.raises(TypeError):
            first.notes["general"] = "x"
        for copied in (copy.deepcopy(first), pickle.loads(pickle.dumps(first))):
            assert copied == first and copied.notes is first.notes
            assert copied.divisor == first.divisor

    @pytest.mark.parametrize(
        "lower, upper, rule",
        [(1, 1, "open"), (1, 1, "divisibility_condition"), (1, 2, "constant_case"), (1, 2, "none")],
    )
    def test_rule_must_fit_bounds(self, lower, upper, rule):
        with pytest.raises(ValidationError, match="does not fit bounds"):
            SeshadriReport(lower, upper, rule)

    def test_lower_must_not_exceed_upper(self):
        with pytest.raises(ValidationError, match="^lower bound 3 exceeds upper bound 1$"):
            SeshadriReport(3, 1, "open")

    def test_witness_divisibility(self):
        assert Witness(1, 4, 2, 8).divisible is True
        assert Witness(1, 4, 2, 1).divisible is False
        assert Witness(1, 4, None, None).divisible is None

    @pytest.mark.parametrize("hn_index, degree", [(2, None), (None, 8)])
    def test_witness_step_needs_both_fields(self, hn_index, degree):
        with pytest.raises(ValidationError, match="both set or both null"):
            Witness(1, 4, hn_index, degree)

    def test_witness_flag_rank_positive(self):
        with pytest.raises(ValidationError, match="flag rank must be >= 1, got 0"):
            Witness(1, 0, 2, 8)

    def test_status_from_witnesses(self):
        witnesses = (Witness(1, 4, None, None), Witness(2, 2, 1, 6), Witness(3, 1, 3, 5), Witness(4, 3, 2, 7))
        status = DivisibilityStatus(witnesses)
        assert not status.holds
        assert [(f.index, f.reason) for f in status.failures] == [(1, "no_rank_match"), (4, "not_divisible")]
        assert DivisibilityStatus(witnesses[1:3]).holds


class TestRatio:
    def test_generator_ratios(self):
        lines = curve_generators(MODEL_A)
        divisor = DivisorClass(Basis.NEF, (3, 4, 1))
        assert seshadri_ratio(lines[0], divisor, 1) == 3
        assert seshadri_ratio(lines[2], divisor, 1) == 1

    def test_division(self):
        curve = CurveClass((1, 1, 2))
        divisor = DivisorClass(Basis.NEF, (2, 3, 4))
        assert seshadri_ratio(curve, divisor, 2) == Fraction(13, 2)

    def test_zero_multiplicity(self):
        with pytest.raises(ZeroMultiplicity):
            seshadri_ratio(CurveClass((1, 0, 0)), DivisorClass(Basis.NEF, (1, 1, 1)), 0)

    @pytest.mark.parametrize("multiplicity", [True, 1.5, Fraction(1)])
    def test_multiplicity_must_be_an_int(self, multiplicity):
        with pytest.raises(ValidationError, match="^multiplicity must be an integer, got "):
            seshadri_ratio(CurveClass((1, 0, 0)), DivisorClass(Basis.NEF, (1, 1, 1)), multiplicity)

    def test_basis_guard(self):
        with pytest.raises(BasisMismatch):
            seshadri_ratio(
                CurveClass((1, 0, 0)), DivisorClass(Basis.PLUECKER, (1, 1, 1)), 1
            )


class TestDegreeGaps:
    def test_rank_five(self):
        status = check_divisibility(MODEL_C)
        assert degree_gaps(MODEL_C, status) == (5, 5)

    def test_rank_seven_full_flag(self):
        # derived by composing the quotient degrees (-7, -9, -9, -5) with
        # the matched subbundle degrees (6, 10, 10, 8)
        status = check_divisibility(MODEL_7B)
        assert degree_gaps(MODEL_7B, status) == (13, 19, 19, 13)

    def test_requires_condition(self):
        status = check_divisibility(MODEL_A)
        with pytest.raises(DivisibilityNotSatisfied):
            degree_gaps(MODEL_A, status)

    def test_mismatched_status(self):
        status = check_divisibility(MODEL_C)
        with pytest.raises(ValidationError):
            degree_gaps(MODEL_7B, status)

    def test_zero_degree_subbundle(self):
        # a degree-0 matched step is legal
        hn = validate_hn([(1, 1), (2, 0), (3, -2)])
        model = build_model(hn, [2])
        status = check_divisibility(model)
        assert status.holds and [w.subbundle_degree for w in status.witnesses] == [0]
        assert degree_gaps(model, status) == (3,)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_gaps_at_least_one(self, seed):
        rng = random.Random(seed)
        model, status = random_divisibility_model(rng)
        assert all(g >= 1 for g in degree_gaps(model, status))


class TestFullReport:
    def test_condition_holds(self):
        report = full_report(DivisorClass(Basis.NEF, (3, 4, 1)), MODEL_C)
        assert (report.lower, report.upper) == (1, 3)
        assert report.epsilon_global == 1
        assert report.epsilon_at_section == 1
        assert report.epsilon_general == 3
        assert report.general_rule == "divisibility_condition"
        assert check_divisibility(MODEL_C).holds

    def test_condition_fails(self):
        report = full_report(DivisorClass(Basis.NEF, (3, 4, 1)), MODEL_A)
        assert (report.lower, report.upper) == (1, 3)
        assert report.epsilon_general is None
        assert report.general_rule == "open"
        assert "open" in report.notes["general"]

    def test_constant_case(self):
        report = full_report(DivisorClass(Basis.NEF, (2, 3, 5)), MODEL_A)
        assert report.lower == report.upper == 2
        assert report.epsilon_general == 2
        assert report.general_rule == "constant_case"

    def test_not_nef(self):
        with pytest.raises(NotNef):
            full_report(DivisorClass(Basis.NEF, (1, -1, 1)), MODEL_A)


class TestInvariants:
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_report_consistency(self, seed):
        rng = random.Random(seed)
        model = random_model(rng)
        divisor = random_nef_divisor(rng, model.gamma)
        report = full_report(divisor, model)
        assert report.lower <= report.upper
        assert report.epsilon_global == report.lower
        assert report.epsilon_at_section == report.lower
        ratios = [
            seshadri_ratio(curve, report.divisor, 1)
            for curve in curve_generators(model)
        ]
        assert min(ratios) == report.epsilon_global
        if report.epsilon_general is not None:
            assert report.epsilon_general == report.upper

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=9),
        st.integers(min_value=1, max_value=9),
    )
    @settings(max_examples=100, deadline=None)
    def test_scaling(self, seed, num, den):
        rng = random.Random(seed)
        model = random_model(rng)
        divisor = random_nef_divisor(rng, model.gamma)
        t = Fraction(num, den)
        base = full_report(divisor, model)
        scaled = full_report(
            DivisorClass(Basis.NEF, tuple(t * a for a in divisor.coords)), model
        )
        assert scaled.lower == t * base.lower
        assert scaled.upper == t * base.upper
        assert (scaled.epsilon_general is None) == (base.epsilon_general is None)
        if base.epsilon_general is not None:
            assert scaled.epsilon_general == t * base.epsilon_general

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=6))
    @settings(max_examples=100, deadline=None)
    def test_monotonicity(self, seed, bump):
        rng = random.Random(seed)
        model = random_model(rng)
        divisor = random_nef_divisor(rng, model.gamma)
        base = full_report(divisor, model)
        position = rng.randrange(model.gamma + 1)
        bumped_coords = tuple(
            a + (bump if i == position else 0) for i, a in enumerate(divisor.coords)
        )
        bumped = full_report(DivisorClass(Basis.NEF, bumped_coords), model)
        assert bumped.lower >= base.lower
        assert bumped.upper >= base.upper
