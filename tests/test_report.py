import copy
import itertools
import json
import pickle
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagcones import (
    Basis,
    CurveInfo,
    DivisorClass,
    InternalCheckFailure,
    ParseError,
    ProblemConfig,
    RankNotInHNProfile,
    SemistableBundle,
    SummandSpec,
    ValidationError,
    builtin_examples,
    parse_machine,
    render_human,
    render_machine,
    run,
    run_cones,
    run_hn,
)
from flagcones.cli import main
from flagcones.gallery import Digest
from flagcones.records import fields
from flagcones.report import emit, from_json, model_from_config, worst_exit_code
from flagcones.seshadri import SeshadriReport, check_divisibility, full_report
from flagcones.selftest import random_config


def config_for(degrees, flag, divisors=(), hn_steps=None):
    return ProblemConfig(
        curve=CurveInfo(0, "X"),
        summands=None if hn_steps else tuple(SummandSpec(d, 1) for d in degrees),
        hn_steps=hn_steps,
        flag_ranks=tuple(flag),
        divisors=tuple(divisors),
    )


def with_divisors(config, divisors):
    return ProblemConfig(config.curve, config.summands, config.hn_steps, config.flag_ranks, divisors)


RANK7_B = config_for(
    (8, 2, 0, 0, 0, -4, -5),
    (6, 5, 2, 1),
    divisors=(DivisorClass(Basis.NEF, (1, 1, 1, 1, 1), name="L"),),
)

# One mutation of a rendered RANK7_B document per case, keyed by the path
# that parse_machine must name.
ILL_TYPED = {
    "model.rank": lambda d: d["model"].__setitem__("rank", "x"),
    "model.semistable": lambda d: d["model"].__setitem__("semistable", 5),
    "assumption.holds": lambda d: d["assumption"].__setitem__("holds", "yes"),
    "divisors[0].seshadri.bogus": lambda d: d["divisors"][0]["seshadri"].__setitem__("bogus", 1),
    "model.degree": lambda d: d["model"].pop("degree"),
    "model.hn_steps[1]": lambda d: d["model"]["hn_steps"][1].append(0),
    "divisors[0].coords": lambda d: d["divisors"][0].__setitem__("coords", "12"),
    "model.picard_rank": lambda d: d["model"].__setitem__("picard_rank", True),
    "cones.pairing_matrix[2][1]": lambda d: d["cones"]["pairing_matrix"][2].__setitem__(1, "1/0"),
    "model.curve": lambda d: d["model"]["curve"].__setitem__("genus", -1),
    "divisors[0].seshadri": lambda d: d["divisors"][0]["seshadri"].__setitem__("lower", 5),
    "assumption": lambda d: d["assumption"].__setitem__("holds", not d["assumption"]["holds"]),
    "cones": lambda d: d["cones"]["pairing_matrix"][0].__setitem__(1, 7),
}

# Rationals parse_machine must refuse at model.slope: each reads as a
# rational, but none is the form render_machine writes.
NON_CANONICAL = [" 2/14 ", "4/2", "+3/5", "3", "3/1", "0/5", "1\u0660/7"]

REJECTED = [pytest.param(location, mutate, id=location) for location, mutate in ILL_TYPED.items()]
REJECTED += [pytest.param("cones", lambda d: d["cones"]["pairing_matrix"].pop(), id="cones-not-square")]
# RANK7_B has five cone generators of each kind, so these identities are
# square but of the wrong size.
REJECTED += [
    pytest.param(
        "cones",
        lambda d, n=n: d["cones"].__setitem__(
            "pairing_matrix", [[int(i == j) for j in range(n)] for i in range(n)]
        ),
        id=f"cones-identity-{n}x{n}",
    )
    for n in (4, 6)
]
REJECTED += [
    pytest.param("model.slope", lambda d, v=v: d["model"].__setitem__("slope", v), id=f"model.slope={v!r}")
    for v in NON_CANONICAL
]


def seshadri_of(d):
    return d["divisors"][0]["seshadri"]


def first_witness(d):
    return d["assumption"]["witnesses"][0]


def unmatched_not_divisible(d):
    # a consistent witness with no step, but its failure says not_divisible
    first_witness(d).update(hn_index=None, subbundle_degree=None, divisible=None)
    d["assumption"].update(holds=False, failures=[{"index": 1, "reason": "not_divisible"}])


# Well-typed documents that contradict what their records derive or require.
# RANK7_B's divisor L has equal bounds 1, and its witnesses all have a step.
CONTRADICTIONS = {
    "global-beside-lower": ("divisors[0].seshadri", lambda d: seshadri_of(d).update({"global": "7/3"})),
    "open-with-equal-bounds": ("divisors[0].seshadri", lambda d: seshadri_of(d).update(general_rule="open")),
    "edited-general-note": ("divisors[0].seshadri", lambda d: seshadri_of(d)["notes"].update(general="x")),
    "reordered-notes": (
        "divisors[0].seshadri",
        lambda d: seshadri_of(d).update(notes=dict(reversed(seshadri_of(d)["notes"].items()))),
    ),
    "divisible-without-step": (
        "assumption.witnesses[0]",
        lambda d: first_witness(d).update(hn_index=None, subbundle_degree=None),
    ),
    "not-divisible-without-step": ("assumption", unmatched_not_divisible),
    "step-without-degree": ("assumption.witnesses[0]", lambda d: first_witness(d).update(subbundle_degree=None)),
    "nef-generator-removed": ("cones", lambda d: d["cones"]["nef_generators"].pop()),
    "nef-coordinates-cut": ("cones", lambda d: d["cones"]["nef_generators"][0].update(nef=[1])),
}
REJECTED += [pytest.param(*case, id=name) for name, case in CONTRADICTIONS.items()]


def without_flag_but_fiber(d):
    # every flag field null as in a filtration-only model, but fiber_dimension
    d["model"].update(
        flag_ranks=None,
        hn_indices=None,
        subspace_dims=None,
        quotient_degrees=None,
        picard_rank=None,
        total_dimension=None,
        notes={},
    )


def cones_one_size_smaller(d):
    # a 4 x 4 cones section, consistent in itself, beside picard rank 5
    cones = d["cones"]
    for key in ("nef_generators", "curve_generators"):
        cones[key].pop()
    for generator in cones["nef_generators"]:
        generator.update(nef=generator["nef"][:-1], pluecker=generator["pluecker"][:-1])
    for generator in cones["curve_generators"]:
        generator.update(coords=generator["coords"][:-1])
    cones["pairing_matrix"] = [row[:-1] for row in cones["pairing_matrix"][:-1]]


def below_zero(d):
    # a consistent seshadri record whose lower bound is not nef
    record = json.loads(emit(SeshadriReport(Fraction(-1), Fraction(1), "divisibility_condition")))
    d["divisors"][0]["seshadri"] = record


def dimensions_plus_one(d):
    # both dimensions one higher, so only the fiber's contradicts the flag
    d["model"]["fiber_dimension"] += 1
    d["model"]["total_dimension"] += 1


def flag_rank_off_the_profile(d):
    # flag rank 7 with the subspace dimension 7 - 7 it gives, and no assumption
    # section to hold its witness; no filtration step leaves a quotient of rank 7
    d["model"]["flag_ranks"][0] = 7
    d["model"]["subspace_dims"][0] = 0
    d["assumption"] = None


def flag_on_one_step(d):
    # the steps, slopes and empty profile of a semistable bundle beside the flag
    d["model"].update(hn_steps=[[7, 1]], semistable=True, quotient_slopes=["1/7"], quotient_ranks=[])
    d["assumption"] = None


def step_slope_not_below(d):
    # step 3 (5, 10) becomes (5, 30), with the quotient degree and the witness
    # degree it gives; its quotient slope 20/3 rises above the 2 before it
    d["model"]["hn_steps"][2] = [5, 30]
    d["model"]["quotient_degrees"][2] = -29
    d["assumption"]["witnesses"][1]["subbundle_degree"] = 30


# Well-typed documents that contradict what the model section and the divisor
# entries derive, or the sections each other.  RANK7_B's only divisor is the
# ample nef-basis class L, and its flag ranks are (6, 5, 2, 1).
DERIVED = {
    "model-rank": ("model", lambda d: d["model"].update(rank=9)),
    "model-degree": ("model", lambda d: d["model"].update(degree=2)),
    "model-semistable": ("model", lambda d: d["model"].update(semistable=True)),
    "model-subspace-dims": ("model", lambda d: d["model"]["subspace_dims"].__setitem__(0, 2)),
    "model-picard-rank": ("model", lambda d: d["model"].update(picard_rank=4)),
    "model-total-dimension": ("model", lambda d: d["model"].update(total_dimension=1)),
    "model-note-edited": ("model", lambda d: d["model"]["notes"].update(dimensions="x")),
    "model-note-added": ("model", lambda d: d["model"]["notes"].update(extra="x")),
    "model-note-emptied": ("model", lambda d: d["model"].update(notes={})),
    "fiber-without-flag": ("model", without_flag_but_fiber),
    "model-without-steps": ("model", lambda d: d["model"].update(hn_steps=[])),
    "classification-flipped": ("divisors[0]", lambda d: d["divisors"][0].update(classification="not_nef")),
    "nef-coordinate-edited": ("divisors[0]", lambda d: d["divisors"][0]["nef_coords"].__setitem__(0, 7)),
    "last-nef-coordinate-edited": ("divisors[0]", lambda d: d["divisors"][0]["nef_coords"].__setitem__(-1, 7)),
    "seshadri-and-error-null": ("divisors[0]", lambda d: d["divisors"][0].update(seshadri=None)),
    "seshadri-below-zero": ("divisors[0]", below_zero),
    "witness-off-the-flag": ("document", lambda d: first_witness(d).update(index=7, flag_rank=3)),
    "cones-off-the-picard-rank": ("document", cones_one_size_smaller),
    "model-hn-index": ("model", lambda d: d["model"]["hn_indices"].__setitem__(0, 2)),
    "model-quotient-rank": ("model", lambda d: d["model"]["quotient_ranks"].__setitem__(0, 5)),
    "model-quotient-degree": ("model", lambda d: d["model"]["quotient_degrees"].__setitem__(0, -6)),
    "model-fiber-and-total-dimension": ("model", dimensions_plus_one),
    "flag-rank-off-the-profile": ("model", flag_rank_off_the_profile),
    "flag-on-one-step": ("model", flag_on_one_step),
    "model-slope": ("model", lambda d: d["model"].update(slope="2/7")),
    "model-quotient-slope": ("model", lambda d: d["model"]["quotient_slopes"].__setitem__(0, 5)),
    "model-step-slope-not-below": ("model", step_slope_not_below),
}
REJECTED += [pytest.param(*case, id=name) for name, case in DERIVED.items()]

# Strings UTF-8 cannot encode, which render_human would pass on to its output.
LONE_SURROGATES = {
    "divisors[0].name": lambda d: d["divisors"][0].update(name="\ud800"),
    "model.curve.label": lambda d: d["model"]["curve"].update(label="X\udfff"),
    "divisors[0].seshadri.notes.general": lambda d: seshadri_of(d)["notes"].update(general="\ud800"),
    "divisors[0].seshadri.notes": lambda d: seshadri_of(d).update(notes={"\ud800": "x"}),
    "divisors[0]": lambda d: d["divisors"][0].update({"\ud800": 1}),
}
REJECTED += [
    pytest.param(location, mutate, id=f"surrogate-{location}") for location, mutate in LONE_SURROGATES.items()
]


# One class of each kind of entry: a pluecker class, one that is not nef,
# and one with a coordinate too few.
MIXED = config_for(
    (1, 2, 0, 0, 0),
    (4, 3),
    divisors=(
        DivisorClass(Basis.PLUECKER, (3, 4, 1), name="p"),
        DivisorClass(Basis.NEF, (-1, 0, 0), name="bad"),
        DivisorClass(Basis.NEF, (1, 1), name="short"),
    ),
)

ENTRY_CONTRADICTIONS = {
    "pluecker-nef-coordinate-edited": (0, lambda e: e["nef_coords"].__setitem__(0, 7)),
    "pluecker-nef-coordinate-added": (0, lambda e: e["nef_coords"].append(7)),
    "not-nef-without-not-nef-error": (1, lambda e: e["error"].update(type="ValidationError")),
    "not-nef-error-without-nef-coords": (2, lambda e: e["error"].update(type="NotNef")),
    "nef-coords-beside-a-count-error": (2, lambda e: e.update(nef_coords=e["coords"])),
}


class TestRun:
    def test_full_composition(self):
        doc = run(RANK7_B)
        assert doc.model.hn_steps == ((1, 8), (2, 10), (5, 10), (6, 6), (7, 1))
        assert doc.model.slope == Fraction(1, 7)
        assert doc.model.picard_rank == 5
        assert doc.assumption.holds
        entry = doc.divisors[0]
        assert entry.error is None
        s = entry.seshadri
        assert (
            s.lower,
            s.upper,
            s.epsilon_global,
            s.epsilon_at_section,
            s.epsilon_general,
        ) == (1, 1, 1, 1, 1)

    def test_divisibility_failure_detail(self):
        doc = run(config_for((1, -1, 0, 0, 0), (4, 1)))
        assert not doc.assumption.holds
        witness = doc.assumption.witnesses[0]
        assert (witness.flag_rank, witness.subbundle_degree, witness.divisible) == (
            4,
            1,
            False,
        )
        assert doc.assumption.failures[0].reason == "not_divisible"

    def test_bad_flag_rank(self):
        with pytest.raises(RankNotInHNProfile):
            run(config_for((1, -1, 0, 0, 0), (3,)))

    def test_semistable_rejected(self):
        with pytest.raises(SemistableBundle):
            run(config_for((0, 0, 0), (1,)))

    @pytest.mark.parametrize("basis", [Basis.NEF, Basis.PLUECKER])
    @pytest.mark.parametrize("count", [4, 6])
    def test_coordinate_count_message(self, basis, count):
        # RANK7_B has gamma = 4, so a class needs gamma + 1 = 5 coordinates
        divisor = DivisorClass(basis, (1,) * count, name="L")
        entry = run(with_divisors(RANK7_B, (divisor,))).divisors[0]
        error = ("ValidationError", f"expected 5 coordinates, got {count}")
        assert (entry.error.type, entry.error.message) == error

    def test_per_divisor_errors_do_not_abort(self):
        config = config_for(
            (1, 2, 0, 0, 0),
            (4, 3),
            divisors=(
                DivisorClass(Basis.NEF, (3, 4, 1), name="good"),
                DivisorClass(Basis.NEF, (-1, 0, 0), name="bad"),
                DivisorClass(Basis.NEF, (1, 1), name="short"),
            ),
        )
        doc = run(config)
        assert doc.cones is not None
        good, bad, short = doc.divisors
        assert good.error is None and good.seshadri.lower == 1
        assert bad.error.type == "NotNef"
        assert bad.classification == "not_nef"
        assert short.error.type == "ValidationError"
        assert short.nef_coords is None
        assert worst_exit_code(doc) == 3

    def test_divisibility_scanned_once_per_model(self, monkeypatch):
        import flagcones.seshadri as seshadri_module

        scans = []

        def counted(model):
            scans.append(model)
            return check_divisibility(model)

        monkeypatch.setattr(seshadri_module, "check_divisibility", counted)
        nef = [DivisorClass(Basis.NEF, (k, 1, 2, 3, 4), name=f"L{k}") for k in range(1, 4)]
        config = config_for((8, 2, 0, 0, 0, -4, -5), (6, 5, 2, 1), divisors=nef)
        run(config)
        assert len(scans) == 1
        # without a status, full_report scans for itself
        model = model_from_config(config)
        full_report(nef[0], model)
        assert len(scans) == 2

    def test_filtration_checked_once(self, monkeypatch):
        import flagcones.bundles as bundles_module

        check = bundles_module.validate_hn
        calls = []

        def counted(steps):
            calls.append(steps)
            return check(steps)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "flagcones" and getattr(module, "validate_hn", None) is check:
                monkeypatch.setattr(module, "validate_hn", counted)
        asserted = config_for((), (4, 1), hn_steps=((1, 4), (4, 4), (5, 3)))
        for config in (RANK7_B, asserted):
            calls.clear()
            text = render_machine(run(config))
            assert len(calls) == 1
            calls.clear()
            parse_machine(text)
            assert len(calls) == 1

    def test_flag_bookkeeping_once_per_run(self, monkeypatch):
        import flagcones.flags as flags_module

        bookkeeping = flags_module._flag_bookkeeping
        calls = []

        def counted(steps, profile, ranks):
            calls.append(ranks)
            return bookkeeping(steps, profile, ranks)

        monkeypatch.setattr(flags_module, "_flag_bookkeeping", counted)
        doc = run(RANK7_B)
        assert calls == [(6, 5, 2, 1)]
        # the document's model section is the model the run computed with
        assert doc.model == model_from_config(RANK7_B)

    def test_classification_without_classify_divisor(self, monkeypatch):
        import flagcones.flags as flags_module

        classify = flags_module.classify_divisor
        calls = []

        def counted(divisor, model):
            calls.append(divisor)
            return classify(divisor, model)

        for name, module in list(sys.modules.items()):
            if name.startswith("flagcones") and getattr(module, "classify_divisor", None) is classify:
                monkeypatch.setattr(module, "classify_divisor", counted)
        edge = DivisorClass(Basis.NEF, (0, 1, 1), name="edge")
        config = with_divisors(MIXED, (*MIXED.divisors, edge))
        doc = run(config)
        assert calls == []
        model = model_from_config(config)
        expected = [classify(d, model).value if len(d.coords) == 3 else None for d in config.divisors]
        assert [e.classification for e in doc.divisors] == expected
        assert set(expected) == {"ample", "nef_not_ample", "not_nef", None}

    @pytest.mark.parametrize("copy_document", [copy.deepcopy, lambda doc: pickle.loads(pickle.dumps(doc))])
    def test_document_copies_are_equal(self, copy_document):
        for doc in (run(RANK7_B), run(MIXED), run_cones(MIXED), run_hn(MIXED)):
            copied = copy_document(doc)
            assert copied == doc
            assert render_machine(copied) == render_machine(doc)

    def test_assumption_is_the_scan(self):
        for config in (
            RANK7_B,
            config_for((1, -1, 0, 0, 0), (4, 1)),
            config_for((1, 2, 0, 0, 0), (4, 3)),
        ):
            assert run(config).assumption == check_divisibility(model_from_config(config))

    def test_exit_code_clean(self):
        assert worst_exit_code(run(RANK7_B)) == 0

    def test_hn_steps_input(self):
        config = config_for((), (4, 1), hn_steps=((1, 4), (4, 4), (5, 3)))
        doc = run(config)
        assert doc.model.quotient_degrees == (-1, -1)
        assert doc.assumption.holds

    def test_run_hn_only(self):
        doc = run_hn(config_for((0, 0, 0), (1,)))
        assert doc.model.semistable
        assert doc.model.quotient_ranks == ()
        assert doc.model.picard_rank is None
        assert doc.cones is None and doc.assumption is None and doc.divisors is None

    def test_run_cones(self):
        doc = run_cones(config_for((1, 2, 0, 0, 0), (4, 3)))
        assert doc.cones is not None
        assert doc.assumption is None
        names = [g.name for g in doc.cones.nef_generators]
        assert names == ["w1", "w2", "f"]
        size = len(doc.cones.pairing_matrix)
        assert all(
            doc.cones.pairing_matrix[i][j] == (1 if i == j else 0)
            for i in range(size)
            for j in range(size)
        )

    def test_determinism(self):
        a = render_machine(run(RANK7_B))
        b = render_machine(run(RANK7_B))
        assert a == b


class TestMachineFormat:
    def test_schema_top_level(self):
        data = json.loads(render_machine(run(RANK7_B)))
        assert list(data) == ["spec_version", "model", "cones", "assumption", "divisors"]
        assert data["spec_version"] == 1

    def test_numbers_are_int_or_fraction_strings(self):
        config = config_for(
            (1, 2, 0, 0, 0),
            (4, 3),
            divisors=(DivisorClass(Basis.NEF, (Fraction(1, 2), 1, 2), name="L"),),
        )
        data = json.loads(render_machine(run(config)))
        assert data["model"]["slope"] == "3/5"
        assert data["divisors"][0]["seshadri"]["lower"] == "1/2"
        assert data["divisors"][0]["coords"] == ["1/2", 1, 2]

    def test_round_trip_exact(self):
        doc = run(RANK7_B)
        text = render_machine(doc)
        assert parse_machine(text) == doc
        assert render_machine(parse_machine(text)) == text

    def test_round_trip_hn_only(self):
        doc = run_hn(config_for((0, 0, 0), (1,)))
        assert parse_machine(render_machine(doc)) == doc

    def test_hn_only_model_has_no_flag(self):
        doc = run_hn(config_for((1, 2, 0, 0, 0), (4, 3)))
        model = parse_machine(render_machine(doc)).model
        assert model.flag_ranks is None
        with pytest.raises(ValidationError, match="the model has no flag ranks"):
            check_divisibility(model)
        with pytest.raises(ValidationError, match="the model has no flag ranks"):
            full_report(DivisorClass(Basis.NEF, (1, 1, 1)), model)

    def test_round_trip_cones_only(self):
        doc = run_cones(config_for((1, 2, 0, 0, 0), (4, 3)))
        assert parse_machine(render_machine(doc)) == doc

    def test_round_trip_with_errors(self):
        config = config_for(
            (1, 2, 0, 0, 0),
            (4, 3),
            divisors=(DivisorClass(Basis.NEF, (-1, 0, 0), name="bad"),),
        )
        doc = run(config)
        assert parse_machine(render_machine(doc)) == doc

    def test_bad_version(self):
        doc = run(RANK7_B)
        data = json.loads(render_machine(doc))
        data["spec_version"] = 99
        with pytest.raises(ParseError):
            parse_machine(json.dumps(data))

    @pytest.mark.parametrize("location, mutate", REJECTED)
    def test_ill_typed_field_rejected(self, location, mutate):
        data = json.loads(render_machine(run(RANK7_B)))
        mutate(data)
        with pytest.raises(ParseError) as excinfo:
            parse_machine(json.dumps(data))
        assert excinfo.value.location == location
        assert str(excinfo.value).startswith(location + ": ")

    @pytest.mark.parametrize(
        "name, message",
        [
            ("global-beside-lower", "global does not follow from the other fields"),
            ("open-with-equal-bounds", "general rule 'open' does not fit bounds 1 and 1"),
            ("edited-general-note", "notes does not follow from the other fields"),
            ("divisible-without-step", "divisible does not follow from the other fields"),
            ("not-divisible-without-step", "failures does not follow from the other fields"),
            ("step-without-degree", "hn_index and subbundle_degree must be both set or both null"),
            ("nef-generator-removed", "expected 5 nef generators and 5 coordinates per generator"),
            ("model-rank", "rank does not follow from the other fields"),
            ("fiber-without-flag", "fiber_dimension does not follow from the other fields"),
            ("model-hn-index", "hn_indices does not follow from the other fields"),
            ("model-quotient-rank", "quotient_ranks does not follow from the other fields"),
            ("model-quotient-degree", "quotient_degrees does not follow from the other fields"),
            ("model-fiber-and-total-dimension", "fiber_dimension does not follow from the other fields"),
            ("flag-rank-off-the-profile", "quotient rank 7 is not in the filtration profile [6, 5, 2, 1]"),
            (
                "flag-on-one-step",
                "the bundle is semistable; flag construction needs at least two filtration steps",
            ),
            ("model-slope", "slope does not follow from the other fields"),
            ("model-quotient-slope", "quotient_slopes does not follow from the other fields"),
            (
                "model-step-slope-not-below",
                "step 3: quotient slope 20/3 is not below previous quotient slope 2",
            ),
            ("classification-flipped", "classification does not follow from the other fields"),
            ("last-nef-coordinate-edited", "nef_coords do not follow from nef coords"),
            ("seshadri-and-error-null", "exactly one of seshadri and error must be set"),
            ("seshadri-below-zero", "a seshadri record needs a nef class"),
            ("witness-off-the-flag", "assumption witnesses do not follow from the model"),
            ("cones-off-the-picard-rank", "4 curve generators for picard rank 5"),
        ],
    )
    def test_contradiction_message(self, name, message):
        data = json.loads(render_machine(run(RANK7_B)))
        location, mutate = {**CONTRADICTIONS, **DERIVED}[name]
        mutate(data)
        with pytest.raises(ParseError) as excinfo:
            parse_machine(json.dumps(data))
        assert (excinfo.value.location, excinfo.value.message) == (location, message)

    @pytest.mark.parametrize("index, mutate", ENTRY_CONTRADICTIONS.values(), ids=list(ENTRY_CONTRADICTIONS))
    def test_entry_contradiction_rejected(self, index, mutate):
        data = json.loads(render_machine(run(MIXED)))
        mutate(data["divisors"][index])
        with pytest.raises(ParseError) as excinfo:
            parse_machine(json.dumps(data))
        assert excinfo.value.location == f"divisors[{index}]"

    def test_lone_surrogate_message(self):
        data = json.loads(render_machine(run(RANK7_B)))
        LONE_SURROGATES["divisors[0].name"](data)
        with pytest.raises(ParseError) as excinfo:
            parse_machine(json.dumps(data))
        assert str(excinfo.value) == "divisors[0].name: lone surrogate '\\ud800' is not UTF-8"

    def test_accepted_rational_renders_back(self):
        # equal bounds are free in a constant_case record; its other three rationals equal them
        data = json.loads(emit(SeshadriReport(Fraction(1), Fraction(1), "constant_case")))
        numerators = ["0", "1", "3", "10", "03", "1\u0660", "\u0663"]
        denominators = ["1", "7", "14", "07", "\u0667"]
        accepted = []
        for sign, p, q in itertools.product(["", "-", "+", " "], numerators, denominators):
            token = f"{sign}{p}/{q}"
            data.update(dict.fromkeys(["lower", "upper", "global", "at_section", "general"], token))
            text = json.dumps(data, indent=2)
            try:
                report = from_json(SeshadriReport, json.loads(text))
            except ParseError:
                continue
            assert emit(report) == text
            accepted.append(token)
        written = ["1/7", "1/14", "3/7", "3/14", "10/7"]
        assert accepted == written + ["-" + token for token in written]

    # Equal to the 1 decoded at pairing_matrix[0][0] as dict keys, but
    # neither is a rational the codec writes.
    @pytest.mark.parametrize(
        "token, message",
        [
            (1.0, 'floating point numbers are not accepted; write "p/q"'),
            (True, "expected a rational, got a boolean"),
        ],
    )
    def test_token_equal_to_an_earlier_one_rejected(self, token, message):
        data = json.loads(render_machine(run(RANK7_B)))
        assert data["cones"]["pairing_matrix"][0][0] == 1
        data["cones"]["pairing_matrix"][1][1] = token
        with pytest.raises(ParseError) as excinfo:
            parse_machine(json.dumps(data))
        assert (excinfo.value.location, excinfo.value.message) == (
            "cones.pairing_matrix[1][1]",
            message,
        )

    def test_rational_tokens_decoded_once_per_document(self):
        text = render_machine(run(RANK7_B))
        first, second = parse_machine(text), parse_machine(text)
        seshadri = first.divisors[0].seshadri
        assert seshadri.epsilon_global is seshadri.lower
        assert second.divisors[0].seshadri.lower is not seshadri.lower

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_random(self, seed):
        doc = run(random_config(random.Random(seed)))
        text = render_machine(doc)
        assert parse_machine(text) == doc
        assert render_machine(parse_machine(text)) == text


def repeating(pool):
    """RANK7_B with 20 classes whose coordinates all come from ``pool``."""
    divisors = tuple(
        DivisorClass(basis, tuple(pool[(k + j) % len(pool)] for j in range(5)), name=f"D{k}")
        for k in range(10)
        for basis in (Basis.NEF, Basis.PLUECKER)
    )
    return with_divisors(RANK7_B, divisors)


POOL_A = (Fraction(1, 2), Fraction(3), Fraction(7, 3), Fraction(0), Fraction(5, 4))
POOL_B = (Fraction(2, 9), Fraction(11), Fraction(13, 6), Fraction(1), Fraction(9, 8))


def rebuilt(value, make):
    """``value`` with each rational in it replaced by ``make(rational)``."""
    if type(value) is Fraction:
        return make(value)
    if type(value) is tuple:
        return tuple(rebuilt(item, make) for item in value)
    if fields(value):
        given = [f.name for f in fields(value) if f.init]
        return type(value)(**{name: rebuilt(getattr(value, name), make) for name in given})
    return value


def assert_json_dumps_fixed_point(text):
    # The reference is the standard library, which shares no code with the
    # emitter in report.py.
    assert json.dumps(json.loads(text), indent=2) + "\n" == text


# Names and labels the emitter must escape as json.dumps does.
ESCAPED_TEXT = st.text(
    st.one_of(st.sampled_from('"\\/\x00\x08\x1f\x7f\u00e9\u2028\U0001f600'), st.characters()),
    min_size=1,
    max_size=12,
)


class TestEmitter:
    def test_gallery_documents(self):
        for fixture in builtin_examples():
            for runner in (run, run_cones, run_hn):
                assert_json_dumps_fixed_point(render_machine(runner(fixture.config)))

    def test_random_documents(self):
        rng = random.Random(20231018)
        for _ in range(200):
            assert_json_dumps_fixed_point(render_machine(run(random_config(rng))))

    @pytest.mark.parametrize(
        "argv", [["examples", "--machine"], ["selftest", "--machine", "--trials", "5"]]
    )
    def test_cli_payloads(self, argv, capsys):
        assert main(argv) == 0
        assert_json_dumps_fixed_point(capsys.readouterr().out)

    def test_int_in_fraction_field(self):
        # A caller may build a document with ints where Fractions are typed.
        summary = SeshadriReport(1, 2, "divisibility_condition")
        assert json.loads(emit(summary)) == {
            "lower": 1,
            "upper": 2,
            "global": 1,
            "at_section": 1,
            "general": 2,
            "general_rule": "divisibility_condition",
            "notes": summary.notes,
        }
        assert emit(Digest(((1, 2),), 2, 3, True)) == emit(Digest(((1, 2),), Fraction(2), 3, True))

    def test_shared_and_distinct_rationals_render_alike(self):
        doc = run(repeating(POOL_A))
        pool = {}
        shared = rebuilt(doc, lambda value: pool.setdefault(value, value))
        distinct = rebuilt(doc, lambda value: Fraction(value.numerator, value.denominator))
        assert render_machine(shared) == render_machine(distinct) == render_machine(doc)

    def test_no_text_carries_over_between_calls(self):
        # B's rationals are built after A's are freed, so some take their ids.
        first = render_machine(run(repeating(POOL_B)))
        doc = run(repeating(POOL_A))
        render_machine(doc)
        del doc
        assert render_machine(run(repeating(POOL_B))) == first

    @given(label=ESCAPED_TEXT, names=st.lists(ESCAPED_TEXT, min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_escaped_names_and_label(self, label, names):
        config = ProblemConfig(
            curve=CurveInfo(0, label),
            summands=tuple(SummandSpec(d, 1) for d in (1, 2, 0, 0, 0)),
            hn_steps=None,
            flag_ranks=(4, 3),
            divisors=tuple(DivisorClass(Basis.NEF, (1, 2, 3), name=n) for n in names),
        )
        text = render_machine(run(config))
        assert_json_dumps_fixed_point(text)
        doc = parse_machine(text)
        assert doc.model.curve.label == label
        assert [entry.name for entry in doc.divisors] == names


class TestHumanFormat:
    def test_identity_matrix_rows(self):
        text = render_human(run(config_for((1, 2, 0, 0, 0), (4, 3))))
        assert "1 0 0" in text and "0 1 0" in text and "0 0 1" in text

    def test_unknown_general_value(self):
        config = config_for(
            (1, 2, 0, 0, 0),
            (4, 3),
            divisors=(DivisorClass(Basis.NEF, (3, 4, 1), name="L"),),
        )
        text = render_human(run(config))
        assert "eps very general  unknown" in text
        assert "open" in text


class TestDualityGuard:
    def test_one_identity_check_per_run(self, monkeypatch):
        import flagcones.report as report_module

        calls = []
        check = report_module._identity_mismatch

        def counted(matrix, size):
            calls.append(size)
            return check(matrix, size)

        monkeypatch.setattr(report_module, "_identity_mismatch", counted)
        run(RANK7_B)
        assert calls == [5]

    def test_sabotaged_model_is_caught(self, monkeypatch):
        import flagcones.report as report_module

        def broken_matrix(model):
            size = model.gamma + 1
            matrix = tuple(tuple(Fraction(1) for _ in range(size)) for _ in range(size))
            return matrix, ()

        monkeypatch.setattr(report_module, "pairing_matrix", broken_matrix)
        with pytest.raises(InternalCheckFailure, match=r"not the identity at \(1, 2\): 1$"):
            run(RANK7_B)

    def test_matrix_of_wrong_size_is_caught(self, monkeypatch):
        import flagcones.report as report_module

        monkeypatch.setattr(report_module, "pairing_matrix", lambda model: (((Fraction(1),),), ()))
        with pytest.raises(InternalCheckFailure, match="pairing matrix is not 5 x 5"):
            run(RANK7_B)

    def test_conversion_without_twist_is_caught(self, monkeypatch):
        # Dropping the twist in both directions keeps the nef -> pluecker ->
        # nef round trip the identity, so only a check that pairs in the
        # pluecker basis itself can see it.
        import flagcones.flags as flags_module

        def untwisted(divisor, model):
            basis = Basis.NEF if divisor.basis is Basis.PLUECKER else Basis.PLUECKER
            return DivisorClass(basis, divisor.coords, name=divisor.name)

        monkeypatch.setattr(flags_module, "convert_basis", untwisted)
        with pytest.raises(InternalCheckFailure):
            run(RANK7_B)
