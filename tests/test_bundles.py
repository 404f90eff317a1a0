import json
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagcones import (
    CapExceeded,
    CurveInfo,
    FlagModel,
    InternalCheckFailure,
    NonDecreasingSlope,
    NonIncreasingRank,
    ParseError,
    ProblemConfig,
    SplitBundle,
    ValidationError,
    bundles,
    hn_brute_force_oracle,
    hn_filtration,
    parse_machine,
    quotient_slopes,
    render_machine,
    run,
    split_steps,
    validate_hn,
)

degree_lists = st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=8)

# One bad filtration per case, with the error validate_hn raises for it: its
# class, message and step index (None where the error carries none).
BAD_STEPS = {
    "repeated-rank": (
        [(2, 1), (2, 3)], NonIncreasingRank, "step 2: rank 2 does not exceed previous rank 2", 2
    ),
    "falling-rank": (
        [(1, 2), (3, 3), (2, 3)], NonIncreasingRank, "step 3: rank 2 does not exceed previous rank 3", 3
    ),
    "increasing-slope": (
        [(1, 0), (2, 5)],
        NonDecreasingSlope,
        "step 2: quotient slope 5 is not below previous quotient slope 0",
        2,
    ),
    "equal-slope": (
        [(1, 1), (2, 2)],
        NonDecreasingSlope,
        "step 2: quotient slope 1 is not below previous quotient slope 1",
        2,
    ),
    "late-slope": (
        [(1, 8), (2, 10), (5, 30)],
        NonDecreasingSlope,
        "step 3: quotient slope 20/3 is not below previous quotient slope 2",
        3,
    ),
    "empty": ([], ValidationError, "a filtration needs at least one step", None),
    "triple": (
        [(1, 2, 3)], ValidationError, "filtration step must be a (rank, degree) pair, got (1, 2, 3)", None
    ),
    "single": ([(1,)], ValidationError, "filtration step must be a (rank, degree) pair, got (1,)", None),
    "scalar": ([5], ValidationError, "filtration step must be a (rank, degree) pair, got 5", None),
    "text-degree": ([(1, "x")], ValidationError, "step degree must be an integer, got 'x'", None),
    "bool-rank": ([(True, 1)], ValidationError, "step rank must be an integer, got True", None),
}

# Where parse_machine refuses each case written into a document's
# model.hn_steps, and what it says: the codec reads each step as two ints
# first, so the shape and type cases stop at the step; the rest reach the
# model record and carry validate_hn's message.
CODEC_REFUSALS = {
    "triple": ("model.hn_steps[0]", "expected 2 items, got 3"),
    "single": ("model.hn_steps[0]", "expected 2 items, got 1"),
    "scalar": ("model.hn_steps[0]", "expected list, got int"),
    "text-degree": ("model.hn_steps[0][1]", "expected int, got str"),
    "bool-rank": ("model.hn_steps[0][0]", "expected int, got bool"),
}

RANK7 = ProblemConfig(
    CurveInfo(), summands=None, hn_steps=((1, 8), (2, 10), (5, 10), (6, 6), (7, 1)), flag_ranks=(6, 5, 2, 1)
)


def steps_of(degrees):
    return hn_filtration(SplitBundle(tuple(degrees)))


def model_of(degrees):
    """The filtration-only model of the split bundle with these degrees."""
    return FlagModel(CurveInfo(), steps_of(degrees))


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
        model = model_of(bundle.summand_degrees)
        assert model.hn_steps[-1] == (bundle.rank, bundle.degree)
        assert model.rank == bundle.rank
        assert model.degree == bundle.degree
        assert model.slope == bundle.slope

    def test_quotient_slopes_are_distinct_degrees(self):
        steps = steps_of([1, 2, 0, 0, 0])
        assert quotient_slopes(steps) == (Fraction(2), Fraction(1), Fraction(0))
        assert model_of([1, 2, 0, 0, 0]).quotient_slopes == quotient_slopes(steps)


class TestOracle:
    def test_balanced_bundle(self):
        bundle = SplitBundle((1, -1, 0, 0, 0))
        assert hn_brute_force_oracle(bundle) == ((1, 1), (4, 1), (5, 0))

    def test_semistable_pair(self):
        assert hn_brute_force_oracle(SplitBundle((0, 0))) == ((2, 0),)

    def test_rank_seven_ladder(self):
        bundle = SplitBundle((3, 1, 0, 0, 0, -1, -2))
        assert hn_brute_force_oracle(bundle) == (
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

    def test_level_without_a_summand(self, monkeypatch):
        # no subset to pick from would leave the remaining summands as they
        # are, level after level; the oracle must stop instead
        monkeypatch.setattr(bundles, "itertools", SimpleNamespace(combinations=lambda *args: iter(())))
        with pytest.raises(InternalCheckFailure, match=r"no summand picked from \[1, 0\]"):
            hn_brute_force_oracle(SplitBundle((1, 0)))

    @given(degree_lists)
    @settings(max_examples=150, deadline=None)
    def test_matches_grouping(self, degrees):
        bundle = SplitBundle(tuple(degrees))
        assert hn_brute_force_oracle(bundle) == hn_filtration(bundle)


class TestSlope:
    def test_values(self):
        # graded pieces (rank, degree): (5, 3), (7, 1), (4, 0)
        slopes = quotient_slopes(validate_hn([(5, 3), (12, 4), (16, 4)]))
        assert slopes[0] == Fraction(3, 5)
        assert slopes[2] == 0
        assert slopes[1] == Fraction(1, 7)

    def test_exactness(self):
        assert quotient_slopes(validate_hn([(3, 1)]))[0] * 3 == 1
        assert FlagModel(CurveInfo(), [(3, 1)]).slope * 3 == 1


class TestSemistability:
    def test_examples(self):
        assert model_of((0, 0, 0)).semistable
        assert not model_of((1, 2, 0, 0, 0)).semistable
        assert model_of((5, 5, 5, 5)).semistable

    @given(degree_lists)
    @settings(max_examples=100, deadline=None)
    def test_iff_single_step(self, degrees):
        assert model_of(degrees).semistable == (len(set(degrees)) == 1)
        assert (len(steps_of(degrees)) == 1) == (len(set(degrees)) == 1)


class TestValidateHN:
    def test_accepts_asserted_filtration(self):
        steps = validate_hn([(1, 4), (4, 4), (5, 3)])
        assert steps == ((1, 4), (4, 4), (5, 3))
        assert len(steps) == 3 and steps[-1][0] == 5

    def test_accepts_step_objects(self):
        # a filtration's own steps, and any two-item sequences, read as pairs
        assert len(validate_hn(validate_hn([(1, 2), (3, 3)]))) == 2
        steps = validate_hn(iter([[1, 2], [3, 3]]))
        assert steps == ((1, 2), (3, 3))
        assert type(steps) is tuple and all(type(step) is tuple for step in steps)

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

    @pytest.mark.parametrize("steps, kind, message, index", BAD_STEPS.values(), ids=list(BAD_STEPS))
    def test_model_raises_the_same_error(self, steps, kind, message, index):
        for make in (
            validate_hn,
            lambda steps: FlagModel(CurveInfo(), steps),
            lambda steps: FlagModel(CurveInfo(), steps, (1,)),
        ):
            with pytest.raises(ValidationError) as info:
                make(steps)
            assert type(info.value) is kind
            assert str(info.value) == message
            assert getattr(info.value, "step_index", None) == index

    @pytest.mark.parametrize("name", list(BAD_STEPS))
    def test_document_refuses_the_step(self, name):
        steps, _, message, index = BAD_STEPS[name]
        data = json.loads(render_machine(run(RANK7)))
        data["model"]["hn_steps"] = steps
        with pytest.raises(ParseError) as info:
            parse_machine(json.dumps(data))
        assert (info.value.location, info.value.message) == CODEC_REFUSALS.get(name, ("model", message))
        if index is not None:
            assert info.value.message.startswith(f"step {index}: ")


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
        slopes = quotient_slopes(steps_of(degrees))
        assert all(slopes[i] > slopes[i + 1] for i in range(len(slopes) - 1))

    @given(degree_lists)
    @settings(max_examples=100, deadline=None)
    def test_totals(self, degrees):
        model = model_of(degrees)
        assert model.hn_steps[-1] == (len(degrees), sum(degrees))
        assert model.degree == sum(degrees)
        assert model.rank == len(degrees)


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
