"""The record classes: what the machine codec and the golden bytes rely on."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from flagcones import Basis, CurveClass, CurveInfo, DivisorClass, FlagModel, SeshadriReport, Witness
from flagcones.records import field, fields, record
from flagcones.report import ErrorInfo

SRC = Path(__file__).resolve().parent.parent / "src"
MODEL = FlagModel(CurveInfo(1, "E"), ((1, 2), (3, 3), (5, 3)), (4, 2))
GOOD = """{
  "bundle": {"summands": [{"degree": 1, "multiplicity": 1}, {"degree": 0, "multiplicity": 2}]},
  "flag": {"quotient_ranks": [2]},
  "divisors": [{"name": "L", "basis": "nef", "coords": [1, 1]}]
}"""


class TestFrozen:
    def test_assignment_and_deletion_raise(self):
        divisor = DivisorClass(Basis.NEF, (1, 2), name="D")
        with pytest.raises(AttributeError):
            divisor.name = "E"
        with pytest.raises(AttributeError):
            del divisor.coords
        with pytest.raises(AttributeError):
            MODEL.slope = Fraction(0)
        assert (divisor.name, divisor.coords) == ("D", (Fraction(1), Fraction(2)))

    def test_defaults_are_not_class_attributes(self):
        # a field's value lives on the instance; the class keeps no default
        # and no field object under the field's name
        for cls in (DivisorClass, CurveInfo, FlagModel, SeshadriReport):
            assert not {f.name for f in fields(cls)} & set(vars(cls))


class TestEquality:
    def test_divisor_class_ignores_name_and_label(self):
        plain = DivisorClass(Basis.NEF, (1, 2))
        named = DivisorClass(Basis.NEF, (1, 2), name="D", label="w1 + 2 w2")
        assert plain == named and hash(plain) == hash(named)
        assert plain != DivisorClass(Basis.PLUECKER, (1, 2))
        assert plain != DivisorClass(Basis.NEF, (1, 3))

    def test_only_within_one_class(self):
        divisor = DivisorClass(Basis.NEF, (1, 2))
        curve = CurveClass((1, 2))
        assert divisor != curve and curve != divisor
        assert divisor != (Basis.NEF, (1, 2)) and (Basis.NEF, (1, 2)) != divisor
        assert ErrorInfo("NotNef", "m") != ("NotNef", "m")
        assert curve != ((Fraction(1), Fraction(2)),)

    def test_model_hashes_though_its_notes_are_a_dict(self):
        assert type(MODEL.notes) is dict
        again = FlagModel(CurveInfo(1, "E"), [[1, 2], [3, 3], [5, 3]], [4, 2])
        assert again == MODEL and hash(again) == hash(MODEL)
        assert len({MODEL, again}) == 1
        assert FlagModel(CurveInfo(1, "E"), MODEL.hn_steps, (4,)) != MODEL


class TestConstruction:
    def test_derived_fields_are_not_parameters(self):
        assert Witness(1, 2, 3, 4).divisible is True
        with pytest.raises(TypeError):
            Witness(1, 2, 3, 4, True)
        with pytest.raises(TypeError):
            Witness(1, 2, 3, 4, divisible=True)
        with pytest.raises(TypeError):
            SeshadriReport(1, 2, "divisibility_condition", epsilon_global=1)

    def test_defaults_apply(self):
        assert (CurveInfo().genus, CurveInfo().label) == (0, "X")
        divisor = DivisorClass(Basis.NEF, (1,))
        assert (divisor.name, divisor.label) == ("", "")
        assert FlagModel(CurveInfo(), ((2, 0),)).flag_ranks is None
        assert SeshadriReport(1, 2, "divisibility_condition").divisor is None
        assert DivisorClass(coords=(1,), basis="nef", label="l") == divisor

    def test_fields_keep_annotation_order_and_metadata(self):
        assert [f.name for f in fields(SeshadriReport)] == [
            "lower", "upper", "epsilon_global", "epsilon_at_section", "epsilon_general",
            "general_rule", "notes", "divisor",
        ]
        json_keys = {f.name: f.metadata.get("json", f.name) for f in fields(SeshadriReport)}
        assert json_keys["epsilon_global"] == "global"
        assert json_keys["epsilon_general"] == "general"
        assert json_keys["divisor"] is None and json_keys["lower"] == "lower"
        assert [f.init for f in fields(SeshadriReport)] == [True, True, False, False, False, True, False, True]
        assert fields(Fraction) == fields(tuple[int, ...]) == ()

    def test_repr(self):
        assert repr(CurveInfo(2, "C")) == "CurveInfo(genus=2, label='C')"
        assert repr(Witness(1, 2, None, None)) == (
            "Witness(index=1, flag_rank=2, hn_index=None, subbundle_degree=None, divisible=None)"
        )

    def test_hash_fields(self):
        @record
        class Pair:
            key: int
            tag: str = field(default="", compare=False)
            extra: int = field(default=0, hash=False)

        assert Pair(1, "a", 5) == Pair(1, "b", 5) != Pair(1, "a", 6)
        assert hash(Pair(1, "a", 5)) == hash(Pair(1, "b", 6)) == hash((1,))


class TestCopies:
    @pytest.mark.parametrize("copied", [copy.copy, lambda value: pickle.loads(pickle.dumps(value))])
    def test_report_and_model_round_trip(self, copied):
        report = SeshadriReport(Fraction(1, 2), Fraction(3), "open", DivisorClass(Basis.NEF, (3, 1)))
        again = copied(report)
        assert again == report and again is not report
        assert again.notes is report.notes and again.divisor == report.divisor
        model = copied(MODEL)
        assert model == MODEL and model.notes == MODEL.notes and model.curve == MODEL.curve
        assert model.hn_steps == MODEL.hn_steps and model.picard_rank == 3


def test_cli_import_needs_neither_dataclasses_nor_inspect(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(GOOD, encoding="utf-8")
    script = (
        "import contextlib, io, sys, flagcones.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = flagcones.cli.main(['seshadri', '--machine', sys.argv[1]])\n"
        "print(code, *sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script, str(path)], capture_output=True, text=True, env=env
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")
