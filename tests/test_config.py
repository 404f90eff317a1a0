import json
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagcones import (
    Basis,
    CurveInfo,
    ParseError,
    ProblemConfig,
    SplitBundle,
    SummandSpec,
    ValidationError,
    hn_filtration,
    parse_config,
    parse_machine,
    parse_rational,
    render_machine,
    run,
)
import flagcones.config as config_module
from flagcones.config import load_json
from flagcones.report import filtration_from_config

GOOD = {
    "curve": {"genus": 0, "label": "X"},
    "bundle": {
        "summands": [
            {"degree": 1, "multiplicity": 1},
            {"degree": 2, "multiplicity": 1},
            {"degree": 0, "multiplicity": 3},
        ]
    },
    "flag": {"quotient_ranks": [4, 3]},
    "divisors": [{"name": "L", "basis": "nef", "coords": [3, "4", "1/2"]}],
}


def as_text(data):
    return json.dumps(data)


class TestParseRational:
    def test_int(self):
        assert parse_rational(7) == 7

    def test_fraction_string(self):
        assert parse_rational("3/5") == Fraction(3, 5)
        assert parse_rational("-3/5") == Fraction(-3, 5)
        assert parse_rational("12") == 12

    def test_zero_denominator(self):
        with pytest.raises(ParseError):
            parse_rational("1/0")

    def test_float_rejected(self):
        with pytest.raises(ParseError):
            parse_rational(0.5)

    def test_garbage(self):
        with pytest.raises(ParseError):
            parse_rational("three")
        with pytest.raises(ParseError):
            parse_rational("1/2/3")
        with pytest.raises(ParseError):
            parse_rational(True)


class TestParseConfig:
    def test_good_document(self):
        config = parse_config(as_text(GOOD))
        assert config.curve.genus == 0
        assert filtration_from_config(config) == ((1, 2), (2, 3), (5, 3))
        assert config.flag_ranks == (4, 3)
        divisor = config.divisors[0]
        assert divisor.name == "L"
        assert divisor.basis is Basis.NEF
        assert divisor.coords == (3, 4, Fraction(1, 2))

    def test_multiplicity_expansion(self):
        data = dict(GOOD)
        data["bundle"] = {"summands": [{"degree": 2, "multiplicity": 3}]}
        assert filtration_from_config(parse_config(as_text(data))) == ((3, 6),)

    def test_hn_steps_variant(self):
        data = dict(GOOD)
        data["bundle"] = {"hn_steps": [[1, 4], [4, 4], [5, 3]]}
        config = parse_config(as_text(data))
        assert config.summands is None
        assert config.hn_steps == ((1, 4), (4, 4), (5, 3))

    def test_divisors_optional(self):
        data = {k: v for k, v in GOOD.items() if k != "divisors"}
        assert parse_config(as_text(data)).divisors == ()

    def test_curve_defaults(self):
        data = {k: v for k, v in GOOD.items() if k != "curve"}
        config = parse_config(as_text(data))
        assert (config.curve.genus, config.curve.label) == (0, "X")

    def test_syntax_error_reports_location(self):
        with pytest.raises(ParseError) as info:
            parse_config("{not json")
        assert "line 1" in str(info.value)

    def test_empty_summands(self):
        data = dict(GOOD)
        data["bundle"] = {"summands": []}
        with pytest.raises(ValidationError):
            parse_config(as_text(data))

    def test_both_bundle_forms(self):
        data = dict(GOOD)
        data["bundle"] = {"summands": [{"degree": 1}], "hn_steps": [[1, 1]]}
        with pytest.raises(ValidationError) as info:
            parse_config(as_text(data))
        assert str(info.value) == "bundle must have exactly one of 'summands' or 'hn_steps'"

    def test_neither_bundle_form(self):
        data = dict(GOOD)
        data["bundle"] = {}
        with pytest.raises(ValidationError) as info:
            parse_config(as_text(data))
        assert str(info.value) == "bundle must have exactly one of 'summands' or 'hn_steps'"

    def test_missing_flag(self):
        data = {k: v for k, v in GOOD.items() if k != "flag"}
        with pytest.raises(ValidationError):
            parse_config(as_text(data))

    def test_zero_denominator_in_coords(self):
        data = dict(GOOD)
        data["divisors"] = [{"name": "L", "basis": "nef", "coords": ["1/0"]}]
        with pytest.raises(ParseError):
            parse_config(as_text(data))

    def test_float_coordinate_rejected(self):
        data = dict(GOOD)
        data["divisors"] = [{"name": "L", "basis": "nef", "coords": [0.5]}]
        with pytest.raises(ParseError):
            parse_config(as_text(data))

    def test_bad_basis(self):
        data = dict(GOOD)
        data["divisors"] = [{"name": "L", "basis": "weird", "coords": [1]}]
        with pytest.raises(ValidationError):
            parse_config(as_text(data))

    def test_bad_multiplicity(self):
        data = dict(GOOD)
        data["bundle"] = {"summands": [{"degree": 1, "multiplicity": 0}]}
        with pytest.raises(ValidationError) as info:
            parse_config(as_text(data))
        assert str(info.value) == "bundle.summands[0]: multiplicity must be >= 1, got 0"

    def test_multiplicity_below_one_rejected_by_hand(self):
        with pytest.raises(ValidationError, match="multiplicity must be >= 1, got 0"):
            SummandSpec(3, 0)
        with pytest.raises(ValidationError, match="multiplicity must be an integer, got True"):
            SummandSpec(3, True)

    def test_negative_genus(self):
        data = dict(GOOD)
        data["curve"] = {"genus": -1}
        with pytest.raises(ValidationError) as info:
            parse_config(as_text(data))
        assert str(info.value) == "curve: genus must be >= 0, got -1"

    def test_empty_coords(self):
        data = dict(GOOD)
        data["divisors"] = [{"name": "L", "basis": "nef", "coords": []}]
        with pytest.raises(ValidationError) as info:
            parse_config(as_text(data))
        assert str(info.value) == "divisors[0]: a class needs at least one coordinate"

    def test_unknown_key(self):
        data = dict(GOOD)
        data["extra"] = 1
        with pytest.raises(ValidationError):
            parse_config(as_text(data))

    def test_boolean_degree_rejected(self):
        data = dict(GOOD)
        data["bundle"] = {"summands": [{"degree": True}]}
        with pytest.raises(ParseError):
            parse_config(as_text(data))

    def test_nonpositive_flag_rank(self):
        data = dict(GOOD)
        data["flag"] = {"quotient_ranks": [0]}
        with pytest.raises(ValidationError):
            parse_config(as_text(data))


class TestProblemConfig:
    @pytest.mark.parametrize(
        "summands, hn_steps",
        [(None, None), ((SummandSpec(1, 1), SummandSpec(0, 1)), ((1, 1), (2, 1)))],
        ids=["neither", "both"],
    )
    def test_exactly_one_bundle_form(self, summands, hn_steps):
        with pytest.raises(ValidationError) as info:
            ProblemConfig(CurveInfo(), summands, hn_steps, (1,))
        assert str(info.value) == "bundle must have exactly one of 'summands' or 'hn_steps'"


# The messages parse_rational gives for bad coordinate tokens.
FLOAT_MESSAGE = 'floating point numbers are not accepted; write "p/q"'
BOOLEAN_MESSAGE = "expected a rational, got a boolean"


class TestCoordinateTokens:
    @pytest.mark.parametrize(
        "token, message",
        [(1.5, FLOAT_MESSAGE), ("x", "not a rational: 'x'"), (True, BOOLEAN_MESSAGE)],
    )
    def test_bad_token_located_in_large_config(self, token, message):
        data = dict(GOOD)
        data["divisors"] = [
            {"name": f"D{k}", "basis": "nef", "coords": [1, "1/2", "3/4", 5] * 10}
            for k in range(2000)
        ]
        data["divisors"][1500]["coords"][37] = token
        with pytest.raises(ParseError) as info:
            parse_config(as_text(data))
        assert (info.value.location, info.value.message) == ("divisors[1500].coords[37]", message)

    # Equal to the earlier 1 as dict keys, but neither is a rational.
    @pytest.mark.parametrize("token, message", [(1.0, FLOAT_MESSAGE), (True, BOOLEAN_MESSAGE)])
    def test_token_equal_to_an_earlier_one_rejected(self, token, message):
        data = dict(GOOD)
        data["divisors"] = [
            {"name": "A", "basis": "nef", "coords": [1, 1, 1]},
            {"name": "B", "basis": "nef", "coords": [1, token, 1]},
        ]
        with pytest.raises(ParseError) as info:
            parse_config(as_text(data))
        assert (info.value.location, info.value.message) == ("divisors[1].coords[1]", message)


class TestTokenTable:
    def test_equal_tokens_give_one_object(self):
        data = dict(GOOD)
        data["divisors"] = [
            {"name": "A", "basis": "nef", "coords": ["1/2", 3, "1/2"]},
            {"name": "B", "basis": "pluecker", "coords": [3, "1/2", 5]},
        ]
        a, b = parse_config(as_text(data)).divisors
        assert a.coords[0] is a.coords[2] is b.coords[1]
        assert a.coords[1] is b.coords[0]

    def test_spellings_of_one(self):
        data = dict(GOOD)
        data["divisors"] = [{"name": "A", "basis": "nef", "coords": [1, "1", "2/2", " 1 "]}]
        (divisor,) = parse_config(as_text(data)).divisors
        assert [(type(c), c) for c in divisor.coords] == [(Fraction, 1)] * 4

    def test_each_distinct_token_decoded_once(self, monkeypatch):
        # A fixed count, not a time budget: 6000 tokens drawn from a pool of 9.
        pool = [1, "1", " 1 ", "2/2", 0, "0/5", "1/2", "-3/4", "22/7"]
        rng = random.Random(13)
        data = dict(GOOD)
        data["divisors"] = [
            {"name": f"D{k}", "basis": "nef", "coords": [rng.choice(pool) for _ in range(3)]}
            for k in range(2000)
        ]
        decoded = Counter()

        def counting(token, location="value"):
            decoded[type(token), token] += 1
            return parse_rational(token, location)

        monkeypatch.setattr(config_module, "parse_rational", counting)
        parse_config(as_text(data))
        used = {(type(t), t) for divisor in data["divisors"] for t in divisor["coords"]}
        assert decoded == Counter(used)


class TestSharedTokens:
    def test_equal_tokens_are_one_object_and_keep_their_type(self):
        data = load_json('{"a": [1, true, 1.0, "1", 1], "b": "x", "c": "x", "d": "C 1", "e": "C 1"}')
        assert [type(item) for item in data["a"]] == [int, bool, float, str, int]
        assert data["a"] == [1, True, 1.0, "1", 1]
        assert data["a"][0] is data["a"][4]
        assert data["b"] is data["c"] and data["d"] is data["e"]

    def test_arrays_of_ints_and_strings_share_items(self):
        big = 10**30
        data = load_json(f'{{"a": [{big}, "1/2"], "b": [{{"c": ["1/2", {big}]}}]}}')
        inner = data["b"][0]["c"]
        assert data["a"][0] is inner[1] and data["a"][1] is inner[0]

    def test_no_token_shared_across_documents(self):
        text = '{"a": ["1/2", 1000000], "b": "C 1"}'
        first, second = load_json(text), load_json(text)
        assert first == second
        assert first["a"][0] is not second["a"][0]
        assert first["a"][1] is not second["a"][1]
        assert first["b"] is not second["b"]

    def test_duplicate_key_still_rejected(self):
        with pytest.raises(ParseError) as info:
            load_json('{"a": "x", "b": ["x"], "a": "x"}')
        assert (info.value.location, info.value.message) == (None, "duplicate key 'a'")


def pooled_config(divisors: int = 2000) -> str:
    """A gamma = 39 config whose coordinates come from a pool of 8 tokens."""
    pool = ["1/2", "3/4", "5/3", "7/2", 2, 3, "9/4", "11/6"]
    rng = random.Random(15)
    data = {
        "bundle": {"summands": [{"degree": d} for d in range(40)]},
        "flag": {"quotient_ranks": list(range(39, 0, -1))},
        "divisors": [
            {
                "name": f"D{k}",
                "basis": ("nef", "pluecker")[k % 2],
                "coords": [rng.choice(pool) for _ in range(40)],
            }
            for k in range(divisors)
        ],
    }
    return json.dumps(data, indent=1)


def peak_multiple(read, text: str) -> float:
    """The peak memory ``read(text)`` allocates, as a multiple of the text's size."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = read(text)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert result is not None
    return peak / len(text.encode())


class TestReadPeakMemory:
    # A fixed bound on allocations instead of a time budget.  Each token of a
    # JSON document is a new object, so without one object per distinct token
    # these read 5.7x and 3.3x (Python 3.11).
    def test_parse_config_and_parse_machine_peaks(self):
        text = pooled_config()
        machine = render_machine(run(parse_config(text)))
        assert peak_multiple(parse_config, text) < 3.5
        assert peak_multiple(parse_machine, machine) < 2


# (degree, multiplicity) lists; the last pair repeats the first degree
summand_pairs = st.lists(
    st.tuples(st.integers(-4, 4), st.integers(1, 6)), min_size=1, max_size=8
).flatmap(lambda pairs: st.integers(1, 6).map(lambda m: pairs + [(pairs[0][0], m)]))


class TestGrouping:
    @given(summand_pairs)
    @settings(max_examples=100, deadline=None)
    def test_counting_equals_expanding(self, pairs):
        summands = tuple(SummandSpec(d, m) for d, m in pairs)
        config = ProblemConfig(CurveInfo(), summands, None, (1,))
        expanded = tuple(d for d, m in pairs for _ in range(m))
        assert filtration_from_config(config) == hn_filtration(SplitBundle(expanded))
