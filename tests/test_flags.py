import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagcones import (
    Basis,
    BasisMismatch,
    CurveClass,
    CurveInfo,
    DivisorClass,
    FlagModel,
    NotStrictlyDecreasing,
    Positivity,
    ProblemConfig,
    RankNotInHNProfile,
    SemistableBundle,
    SplitBundle,
    ValidationError,
    build_model,
    classify_divisor,
    convert_basis,
    curve_generators,
    hn_filtration,
    nef_generators,
    pairing,
    pairing_matrix,
    quotient_ranks,
    run_cones,
    to_nef,
    validate_hn,
)
from flagcones.selftest import random_divisor, random_model

HN5_A = hn_filtration(SplitBundle((1, 2, 0, 0, 0)))       # steps (1,2)(2,3)(5,3)
HN5_C = validate_hn([(1, 4), (4, 4), (5, 3)])             # asserted directly
HN7_B = hn_filtration(SplitBundle((8, 2, 0, 0, 0, -4, -5)))


def model_section(hn, flag):
    """The model section of a cones document for these steps and flag ranks."""
    config = ProblemConfig(CurveInfo(), hn_steps=hn, flag_ranks=tuple(flag))
    return run_cones(config).model


class TestQuotientRanks:
    def test_rank_five(self):
        assert quotient_ranks(HN5_A) == (4, 3)

    def test_two_steps(self):
        assert quotient_ranks(validate_hn([(1, 0), (2, -1)])) == (1,)

    def test_rank_seven(self):
        hn = hn_filtration(SplitBundle((3, 1, 0, 0, 0, -1, -2)))
        assert quotient_ranks(hn) == (6, 5, 2, 1)

    def test_semistable_profile_is_empty(self):
        assert quotient_ranks(validate_hn([(3, 0)])) == ()


class TestMakeFlagSpec:
    """How ``build_model`` resolves the requested quotient ranks."""

    def test_resolves_indices(self):
        model = build_model(HN5_C, [4, 1])
        assert model.hn_indices == (1, 2)
        assert model.gamma == 2

    def test_subspace_dims(self):
        model = build_model(HN5_A, [4, 3])
        assert model.hn_indices == (1, 2)
        assert model.subspace_dims == (1, 2)
        assert all(
            model.subspace_dims[i] < model.subspace_dims[i + 1]
            for i in range(model.gamma - 1)
        )

    def test_rank_not_in_profile(self):
        with pytest.raises(RankNotInHNProfile):
            build_model(HN5_A, [2])

    def test_semistable_rejected(self):
        with pytest.raises(SemistableBundle):
            build_model(validate_hn([(2, 0)]), [1])

    def test_not_strictly_decreasing(self):
        with pytest.raises(NotStrictlyDecreasing):
            build_model(HN5_A, [3, 4])
        with pytest.raises(NotStrictlyDecreasing):
            build_model(HN5_A, [4, 4])

    def test_empty_request(self):
        with pytest.raises(ValidationError):
            build_model(HN5_A, [])


class TestBuildModel:
    def test_quotient_degrees(self):
        model = build_model(HN5_C, [4, 1])
        assert model.quotient_degrees == (-1, -1)

    def test_zero_degrees(self):
        hn = validate_hn([(1, 1), (2, 0)])
        model = build_model(hn, [1])
        assert model.quotient_degrees == (-1,)

    def test_all_zero_theta(self):
        hn = validate_hn([(1, 0), (2, -1)])
        assert build_model(hn, [1]).quotient_degrees == (-1,)

    def test_rank_seven_full_flag(self):
        model = build_model(HN7_B, [6, 5, 2, 1])
        assert model.quotient_degrees == (-7, -9, -9, -5)

    def test_picard_rank(self):
        assert model_section(HN5_A, [4, 3]).picard_rank == 3
        assert model_section(HN7_B, [6, 5, 2, 1]).picard_rank == 5

    def test_dimensions(self):
        model = build_model(HN5_A, [4, 3])
        # flags of subspace dims (1, 2) in a 5-space: 1*1 + 2*3 = 7
        assert model.fiber_dimension == 7
        assert model_section(HN5_A, [4, 3]).total_dimension == 8

    def test_grassmannian_dimension(self):
        model = build_model(HN5_A, [3])
        assert model.fiber_dimension == 2 * 3


class TestGenerators:
    def test_nef_generators_are_units(self):
        model = build_model(HN5_A, [4, 3])
        gens = nef_generators(model)
        assert len(gens) == 3
        assert gens[0].coords == (1, 0, 0)
        assert gens[2].coords == (0, 0, 1)
        assert gens[0].name == "w1" and gens[2].name == "f"

    def test_twist_label_shows_quotient_degree(self):
        model = build_model(HN5_C, [4, 1])
        gens = nef_generators(model)
        assert gens[0].label == "w1 = H1 + 1*f"

    def test_zero_twist_label(self):
        model = build_model(HN5_A, [4, 3])
        assert nef_generators(model)[1].label == "w2 = H2"

    def test_curve_generators(self):
        model = build_model(HN5_A, [4, 3])
        gens = curve_generators(model)
        assert len(gens) == model.gamma + 1
        assert gens[1].coords == (0, 1, 0)
        assert gens[2].coords == (0, 0, 1)
        assert gens[2].name == "section"


class TestPairing:
    def test_duality_on_generators(self):
        model = build_model(HN5_A, [4, 3])
        lines = curve_generators(model)
        divisors = nef_generators(model)
        assert pairing(lines[0], divisors[0]) == 1
        assert pairing(lines[0], divisors[2]) == 0
        assert pairing(lines[2], divisors[2]) == 1

    def test_bilinear(self):
        value = pairing(
            CurveClass((2, 1, 3)), DivisorClass(Basis.NEF, (4, 5, 6))
        )
        assert value == 31

    def test_basis_mismatch(self):
        with pytest.raises(BasisMismatch):
            pairing(CurveClass((1, 0)), DivisorClass(Basis.PLUECKER, (1, 0)))

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            pairing(CurveClass((1, 0)), DivisorClass(Basis.NEF, (1, 0, 0)))

    def test_matrix_is_identity(self):
        for flag in ([4, 3], [4], [3]):
            model = build_model(HN5_A, flag)
            matrix, _ = pairing_matrix(model)
            size = model.gamma + 1
            assert matrix == tuple(
                tuple(Fraction(1 if i == j else 0) for j in range(size))
                for i in range(size)
            )

    def test_matrix_rank_seven(self):
        model = build_model(HN7_B, [6, 5, 2, 1])
        matrix, _ = pairing_matrix(model)
        assert len(matrix) == 5
        assert all(matrix[i][j] == (1 if i == j else 0) for i in range(5) for j in range(5))


class TestConvertBasis:
    def test_pluecker_to_nef(self):
        model = build_model(HN5_C, [4, 1])
        converted = convert_basis(DivisorClass(Basis.PLUECKER, (1, 0, 0)), model)
        assert converted.basis is Basis.NEF
        assert converted.coords == (1, 0, -1)

    def test_fiber_class_is_shared(self):
        model = build_model(HN7_B, [6, 5, 2, 1])
        fiber = DivisorClass(Basis.NEF, (0, 0, 0, 0, 1))
        assert convert_basis(fiber, model).coords == fiber.coords

    def test_identity_when_quotient_degree_vanishes(self):
        hn = validate_hn([(1, 2), (3, 2)])
        model = build_model(hn, [2])
        assert model.quotient_degrees == (0,)
        divisor = DivisorClass(Basis.NEF, (Fraction(5, 2), 7))
        assert convert_basis(divisor, model).coords == divisor.coords

    def test_nonzero_twist(self):
        hn = validate_hn([(1, 0), (3, -2)])
        model = build_model(hn, [2])
        assert model.quotient_degrees == (-2,)
        divisor = DivisorClass(Basis.NEF, (Fraction(5, 2), 7))
        assert convert_basis(divisor, model).coords == (Fraction(5, 2), 12)

    def test_wrong_length(self):
        model = build_model(HN5_A, [4, 3])
        with pytest.raises(ValidationError):
            convert_basis(DivisorClass(Basis.NEF, (1, 0)), model)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, seed):
        rng = random.Random(seed)
        model = random_model(rng)
        divisor = random_divisor(rng, model.gamma)
        assert convert_basis(convert_basis(divisor, model), model) == divisor


class TestClassification:
    def setup_method(self):
        self.model = build_model(HN5_A, [4, 3])

    def test_ample_interior(self):
        assert (
            classify_divisor(DivisorClass(Basis.NEF, (1, 1, 1)), self.model)
            is Positivity.AMPLE
        )

    def test_boundary(self):
        assert (
            classify_divisor(DivisorClass(Basis.NEF, (0, 2, 3)), self.model)
            is Positivity.NEF_NOT_AMPLE
        )

    def test_not_nef(self):
        assert (
            classify_divisor(DivisorClass(Basis.NEF, (-1, 0, 0)), self.model)
            is Positivity.NOT_NEF
        )

    def test_pluecker_input_converted(self):
        model = build_model(HN5_C, [4, 1])
        # H1 = w1 - f here, which leaves the nef cone
        assert (
            classify_divisor(DivisorClass(Basis.PLUECKER, (1, 0, 0)), model)
            is Positivity.NOT_NEF
        )

    def test_rational_coordinates_accepted(self):
        divisor = DivisorClass(Basis.NEF, (Fraction(1, 3), Fraction(2, 7), 0))
        assert classify_divisor(divisor, self.model) is Positivity.NEF_NOT_AMPLE


class TestModelInput:
    def test_lists_are_kept_as_tuples(self):
        listed = FlagModel(CurveInfo(), [[1, 2], [3, 3]], [2])
        given = FlagModel(CurveInfo(), ((1, 2), (3, 3)), (2,))
        assert listed.hn_steps == ((1, 2), (3, 3)) and listed.flag_ranks == (2,)
        assert type(listed.flag_ranks) is tuple
        assert all(type(step) is tuple for step in listed.hn_steps)
        assert listed == given
        assert hash(listed) == hash(given)

    def test_bad_step_is_a_validation_error(self):
        with pytest.raises(ValidationError, match=r"must be a \(rank, degree\) pair, got \(1, 2, 3\)"):
            FlagModel(CurveInfo(), [(1, 2, 3)])


class TestModelProperties:
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_profile_shape(self, seed):
        rng = random.Random(seed)
        model = random_model(rng)
        profile = quotient_ranks(model.hn_steps)
        assert len(profile) == len(model.hn_steps) - 1
        assert all(profile[i] > profile[i + 1] for i in range(len(profile) - 1))
        # building the model changed nothing upstream
        assert quotient_ranks(model.hn_steps) == profile
        assert len(model.quotient_degrees) == model.gamma
        assert model_section(validate_hn(model.hn_steps), model.flag_ranks).picard_rank == model.gamma + 1


class TestDivisorClassGuards:
    def test_float_rejected(self):
        with pytest.raises(ValidationError):
            DivisorClass(Basis.NEF, (1.5, 0))

    def test_label_not_compared(self):
        a = DivisorClass(Basis.NEF, (1, 0), name="x", label="one")
        b = DivisorClass(Basis.NEF, (1, 0), name="y", label="two")
        assert a == b

    def test_basis_text_read_as_the_tag(self):
        # the conversions test the tag by identity, so the text must become it
        model = build_model(HN5_A, [4, 3])
        for text, basis in (("nef", Basis.NEF), ("pluecker", Basis.PLUECKER)):
            divisor = DivisorClass(text, (1, 1, 1))
            assert divisor.basis is basis
            assert to_nef(divisor, model) == to_nef(DivisorClass(basis, (1, 1, 1)), model)
