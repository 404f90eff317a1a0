import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagcones import (
    CapExceeded,
    CurveInfo,
    NonDecreasingSlope,
    NonIncreasingRank,
    SplitBundle,
    ValidationError,
    hn_brute_force_oracle,
    hn_filtration,
    split_steps,
    validate_hn,
)

degree_lists = st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=8)


def steps_of(degrees):
    return hn_filtration(SplitBundle(tuple(degrees))).steps


class TestHNFiltration:
    def test_two_jump_bundle(self):
        assert steps_of([1, 2, 0, 0, 0]) == ((1, 2), (2, 3), (5, 3))

    def test_single_summand(self):
        assert steps_of([7]) == ((1, 7),)

    def test_rank_seven_spread(self):
        # confirmed against the brute-force oracle below
        assert steps_of([8, 2, 0, 0, 0, -4, -5]) == (
            (1, 8),
            (2, 10),
            (5, 10),
            (6, 6),
            (7, 1),
        )

    def test_totals_match_bundle(self):
        bundle = SplitBundle((3, 1, 0, 0, 0, -1, -2))
        hn = hn_filtration(bundle)
        assert hn.n == bundle.rank
        assert hn.degree == bundle.degree

    def test_quotient_slopes_are_distinct_degrees(self):
        hn = hn_filtration(SplitBundle((1, 2, 0, 0, 0)))
        assert hn.quotient_slopes() == (Fraction(2), Fraction(1), Fraction(0))


class TestOracle:
    def test_balanced_bundle(self):
        bundle = SplitBundle((1, -1, 0, 0, 0))
        assert hn_brute_force_oracle(bundle).steps == ((1, 1), (4, 1), (5, 0))

    def test_semistable_pair(self):
        assert hn_brute_force_oracle(SplitBundle((0, 0))).steps == ((2, 0),)

    def test_rank_seven_ladder(self):
        bundle = SplitBundle((3, 1, 0, 0, 0, -1, -2))
        assert hn_brute_force_oracle(bundle).steps == (
            (1, 3),
            (2, 4),
            (5, 4),
            (6, 3),
            (7, 1),
        )

    def test_cap(self):
        with pytest.raises(CapExceeded):
            hn_brute_force_oracle(SplitBundle((0,) * 13))
        # a custom cap is honored
        hn_brute_force_oracle(SplitBundle((1, 0) + (0,) * 11), cap=13)

    @given(degree_lists)
    @settings(max_examples=150, deadline=None)
    def test_matches_grouping(self, degrees):
        bundle = SplitBundle(tuple(degrees))
        assert hn_brute_force_oracle(bundle) == hn_filtration(bundle)


class TestSlope:
    def test_values(self):
        # graded pieces (rank, degree): (5, 3), (7, 1), (4, 0)
        slopes = validate_hn([(5, 3), (12, 4), (16, 4)]).quotient_slopes()
        assert slopes[0] == Fraction(3, 5)
        assert slopes[2] == 0
        assert slopes[1] == Fraction(1, 7)

    def test_exactness(self):
        assert validate_hn([(3, 1)]).quotient_slopes()[0] * 3 == 1


class TestSemistability:
    def test_examples(self):
        assert hn_filtration(SplitBundle((0, 0, 0))).is_semistable
        assert not hn_filtration(SplitBundle((1, 2, 0, 0, 0))).is_semistable
        assert hn_filtration(SplitBundle((5, 5, 5, 5))).is_semistable

    @given(degree_lists)
    @settings(max_examples=100, deadline=None)
    def test_iff_single_step(self, degrees):
        bundle = SplitBundle(tuple(degrees))
        assert hn_filtration(bundle).is_semistable == (len(set(degrees)) == 1)


class TestValidateHN:
    def test_accepts_asserted_filtration(self):
        hn = validate_hn([(1, 4), (4, 4), (5, 3)])
        assert hn.steps == ((1, 4), (4, 4), (5, 3))
        assert hn.d == 3 and hn.n == 5

    def test_accepts_step_objects(self):
        # a filtration's own steps, and any two-item sequences, read as pairs
        assert validate_hn(validate_hn([(1, 2), (3, 3)]).steps).d == 2
        assert validate_hn([[1, 2], [3, 3]]).steps == ((1, 2), (3, 3))

    def test_rejects_repeated_rank(self):
        with pytest.raises(NonIncreasingRank) as info:
            validate_hn([(2, 1), (2, 3)])
        assert info.value.step_index == 2

    def test_rejects_increasing_slope(self):
        with pytest.raises(NonDecreasingSlope) as info:
            validate_hn([(1, 0), (2, 5)])
        assert info.value.step_index == 2

    def test_rejects_equal_slope(self):
        with pytest.raises(NonDecreasingSlope):
            validate_hn([(1, 1), (2, 2)])

    def test_rejects_empty(self):
        with pytest.raises(ValidationError, match="a filtration needs at least one step"):
            validate_hn([])

    def test_rejects_garbage(self):
        for entry in [(1, 2, 3), (1,), 5]:
            with pytest.raises(ValidationError, match="must be a \\(rank, degree\\) pair"):
                validate_hn([entry])
        with pytest.raises(ValidationError, match="step degree must be an integer, got 'x'"):
            validate_hn([(1, "x")])
        with pytest.raises(ValidationError, match="step rank must be an integer, got True"):
            validate_hn([(True, 1)])


class TestSplitSteps:
    def test_counts_repeated_degrees(self):
        steps = split_steps([(0, 2), (2, 1), (1, 1), (0, 1)])
        assert steps == ((1, 2), (2, 3), (5, 3))
        huge = 10**30
        assert split_steps([(0, 3), (2, 1), (0, huge)]) == ((1, 2), (huge + 4, 2))


class TestProperties:
    @given(degree_lists, st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_permutation_invariance(self, degrees, seed):
        shuffled = list(degrees)
        random.Random(seed).shuffle(shuffled)
        assert hn_filtration(SplitBundle(tuple(shuffled))) == hn_filtration(
            SplitBundle(tuple(degrees))
        )

    @given(degree_lists)
    @settings(max_examples=100, deadline=None)
    def test_slopes_strictly_decrease(self, degrees):
        slopes = hn_filtration(SplitBundle(tuple(degrees))).quotient_slopes()
        assert all(slopes[i] > slopes[i + 1] for i in range(len(slopes) - 1))

    @given(degree_lists)
    @settings(max_examples=100, deadline=None)
    def test_totals(self, degrees):
        hn = hn_filtration(SplitBundle(tuple(degrees)))
        assert hn.degree == sum(degrees)
        assert hn.n == len(degrees)


class TestInputGuards:
    def test_empty_bundle(self):
        with pytest.raises(ValidationError):
            SplitBundle(())

    def test_float_degree(self):
        with pytest.raises(ValidationError):
            SplitBundle((1.5, 2))

    def test_negative_genus(self):
        with pytest.raises(ValidationError):
            CurveInfo(genus=-1)
