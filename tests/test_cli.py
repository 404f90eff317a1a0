import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

from flagcones.bundles import validate_hn
from flagcones.cli import main

GOOD = """
{
  "curve": {"genus": 0, "label": "X"},
  "bundle": {"summands": [{"degree": 4, "multiplicity": 1},
                          {"degree": -1, "multiplicity": 1},
                          {"degree": 0, "multiplicity": 3}]},
  "flag": {"quotient_ranks": [4, 1]},
  "divisors": [{"name": "L", "basis": "nef", "coords": [3, 4, 1]}]
}
"""

SEMISTABLE = """
{
  "bundle": {"summands": [{"degree": 0, "multiplicity": 3}]},
  "flag": {"quotient_ranks": [1]}
}
"""

BAD_FLAG = """
{
  "bundle": {"summands": [{"degree": 1, "multiplicity": 1},
                          {"degree": -1, "multiplicity": 1},
                          {"degree": 0, "multiplicity": 3}]},
  "flag": {"quotient_ranks": [3]}
}
"""

NOT_NEF = """
{
  "bundle": {"summands": [{"degree": 4, "multiplicity": 1},
                          {"degree": -1, "multiplicity": 1},
                          {"degree": 0, "multiplicity": 3}]},
  "flag": {"quotient_ranks": [4, 1]},
  "divisors": [{"name": "M", "basis": "nef", "coords": [-1, 0, 0]}]
}
"""


@pytest.fixture
def config_file(tmp_path):
    def write(text, name="problem.json"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


class TestSubcommands:
    def test_seshadri_human(self, config_file, capsys):
        assert main(["seshadri", config_file(GOOD)]) == 0
        out = capsys.readouterr().out
        assert "eps very general  3" in out
        assert "divisibility condition" in out

    def test_seshadri_machine(self, config_file, capsys):
        assert main(["seshadri", "--machine", config_file(GOOD)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["spec_version"] == 1
        assert data["divisors"][0]["seshadri"]["general"] == 3

    def test_hn_allows_semistable(self, config_file, capsys):
        assert main(["hn", config_file(SEMISTABLE)]) == 0
        out = capsys.readouterr().out
        assert "semistable" in out and "yes" in out
        assert "(3, 0)" in out

    def test_hn_machine_sections_null(self, config_file, capsys):
        assert main(["hn", "--machine", config_file(SEMISTABLE)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["cones"] is None
        assert data["assumption"] is None

    def test_cones(self, config_file, capsys):
        assert main(["cones", config_file(GOOD)]) == 0
        out = capsys.readouterr().out
        assert "pairing matrix" in out

    def test_examples_all(self, capsys):
        assert main(["examples"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 13

    def test_examples_named(self, capsys):
        assert main(["examples", "rank5-c/fl41"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "divisibility holds" in out

    def test_examples_machine(self, capsys):
        assert main(["examples", "--machine"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data) == 13
        assert all(entry["pass"] for entry in data)

    def test_examples_unknown_name(self, capsys):
        assert main(["examples", "nope"]) == 2

    def test_selftest_quick(self, capsys):
        assert main(["selftest", "--trials", "5", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "hn-oracle-equivalence" in out

    def test_selftest_machine(self, capsys):
        assert main(["selftest", "--trials", "3", "--machine"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert all(entry["failures"] == 0 for entry in data)

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_selftest_rejects_trials_below_one(self, capsys, trials):
        with pytest.raises(SystemExit) as excinfo:
            main(["selftest", "--trials", trials])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument --trials: expected at least 1, got {trials}" in err

    def test_oracle_cap_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["selftest", "--oracle-cap", "0"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --oracle-cap 0" in capsys.readouterr().err


class TestExitCodes:
    def test_missing_file(self, capsys):
        assert main(["seshadri", "/nonexistent/path.json"]) == 2

    def test_config_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe")
        assert main(["hn", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error [InputError]: ") and err.count("\n") == 1

    def test_parse_error(self, config_file, capsys):
        assert main(["seshadri", config_file("{broken")]) == 2
        assert "error" in capsys.readouterr().err

    def test_validation_error(self, config_file, capsys):
        assert main(["seshadri", config_file('{"bundle": {"summands": []}, "flag": {"quotient_ranks": [1]}}')]) == 2

    def test_semistable_is_3(self, config_file, capsys):
        assert main(["seshadri", config_file(SEMISTABLE)]) == 3
        assert "SemistableBundle" in capsys.readouterr().err

    def test_bad_flag_rank_is_3(self, config_file, capsys):
        assert main(["seshadri", config_file(BAD_FLAG)]) == 3
        assert "RankNotInHNProfile" in capsys.readouterr().err

    def test_not_nef_divisor_is_3(self, config_file, capsys):
        assert main(["seshadri", config_file(NOT_NEF)]) == 3
        out = capsys.readouterr().out
        # report is still produced, with the offending input echoed
        assert "NotNef" in out and "(-1, 0, 0)" in out

    @pytest.mark.parametrize(
        "text, message",
        [
            (GOOD.replace('"degree": 4', '"degree": ' + "7" * 5000), "integer has more than {} digits"),
            ("[" * 100_000 + "]" * 100_000, "document is nested too deeply"),
            (
                GOOD.replace('"flag": {"quotient_ranks": [4, 1]},', '"flag": {"quotient_ranks": [4, 1]},' * 2),
                "duplicate key 'flag'",
            ),
            (
                GOOD.replace('"coords": [3, 4, 1]', '"coords": [3, 4, "1/' + "7" * 5000 + '"]'),
                "divisors[0].coords[2]: integer has more than {} digits",
            ),
        ],
        ids=["huge-integer", "deep-nesting", "duplicate-key", "huge-rational"],
    )
    def test_hostile_input_is_one_line_parse_error(self, config_file, capsys, text, message):
        assert main(["seshadri", "--machine", config_file(text)]) == 2
        err = capsys.readouterr().err
        assert err == f"error [ParseError]: {message.format(sys.get_int_max_str_digits())}\n"


class TestInternalFailureExit:
    def test_examples_digest_mismatch_is_4(self, capsys, monkeypatch):
        import flagcones.gallery as gallery_module
        from flagcones.gallery import Digest, Fixture, builtin_examples

        original = builtin_examples()[0]
        corrupted = Fixture(
            original.name,
            original.config,
            Digest(
                hn_steps=original.digest.hn_steps,
                slope=original.digest.slope,
                picard_rank=original.digest.picard_rank + 1,
                assumption_holds=original.digest.assumption_holds,
            ),
        )
        monkeypatch.setattr(gallery_module, "builtin_examples", lambda: (corrupted,))
        assert main(["examples"]) == 4
        captured = capsys.readouterr()
        assert "FAIL" in captured.out
        assert "mismatch" in captured.err

    def test_selftest_check_failure_is_4(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "flagcones.selftest.hn_brute_force_oracle",
            lambda bundle, **_: validate_hn([(1, 0)]),
        )
        assert main(["selftest", "--trials", "4", "--seed", "2"]) == 4
        captured = capsys.readouterr()
        assert captured.err == "selftest failed\n"
        lines = captured.out.splitlines()
        assert lines[0] == "FAIL  hn-oracle-equivalence  4 trials  (mismatch for degrees (-4,))"
        assert len(lines) == 7
        assert all(line.startswith("ok    ") for line in lines[1:])


class TestHugeMultiplicity:
    def test_counted_not_expanded(self, config_file, capsys):
        huge = 10**30
        split = {
            "bundle": {"summands": [{"degree": 1, "multiplicity": huge}, {"degree": 0, "multiplicity": 2}]},
            "flag": {"quotient_ranks": [2]},
            "divisors": [{"name": "L", "basis": "nef", "coords": [1, "1/2"]}],
        }
        steps = dict(split, bundle={"hn_steps": [[huge, huge], [huge + 2, huge]]})
        assert main(["seshadri", "--machine", config_file(json.dumps(split), "split.json")]) == 0
        from_split = capsys.readouterr()
        assert from_split.err == ""
        assert main(["seshadri", "--machine", config_file(json.dumps(steps), "steps.json")]) == 0
        assert capsys.readouterr().out == from_split.out


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone away; ``fileno`` names a real file."""

    def __init__(self, fd):
        super().__init__()
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


class TestClosedStdout:
    @staticmethod
    def run_closed(argv, tmp_path):
        """``main(argv)`` with a stdout whose reader has gone away; returns the
        exit code and stderr, and checks that stdout now points at devnull."""
        err = io.StringIO()
        with open(tmp_path / "stdout", "w") as target:
            with contextlib.redirect_stdout(_ClosedPipe(target.fileno())), contextlib.redirect_stderr(err):
                code = main(argv)
            assert os.path.samestat(os.fstat(target.fileno()), os.stat(os.devnull))
        return code, err.getvalue()

    @pytest.mark.parametrize("argv", [["examples", "--machine", "rank5-a/fl43"], ["selftest", "--trials", "2"]])
    def test_success_stays_0(self, tmp_path, argv):
        assert self.run_closed(argv, tmp_path) == (0, "")

    def test_divisor_error_stays_3(self, config_file, tmp_path):
        assert self.run_closed(["seshadri", "--machine", config_file(NOT_NEF)], tmp_path) == (3, "")


class TestConsoleScript:
    def test_module_invocation(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(GOOD, encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "flagcones", "seshadri", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "eps global" in proc.stdout

    def test_report_run_imports_no_fixtures_or_selftest(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(GOOD, encoding="utf-8")
        script = (
            "import contextlib, io, sys\n"
            "import flagcones.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = flagcones.cli.main(['seshadri', sys.argv[1]])\n"
            "print(code, *sorted({'flagcones.gallery', 'flagcones.selftest'} & set(sys.modules)))\n"
            "from flagcones import builtin_examples\n"
            "print(len(builtin_examples()))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(path)], capture_output=True, text=True
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n13\n", "")

    def test_reader_that_stops_early(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "flagcones", "examples", "--machine"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(), err) == (0, b"")

    @pytest.mark.parametrize("machine", [[], ["--machine"]], ids=["human", "machine"])
    @pytest.mark.parametrize(
        "old, new, location",
        [
            ('"label": "X"', '"label": "X\\ud800"', "curve.label"),
            ('"name": "L"', '"name": "L\\udfff"', "divisors[0].name"),
        ],
        ids=["label", "name"],
    )
    def test_lone_surrogate_is_parse_error(self, tmp_path, machine, old, new, location):
        # A child's stdout is strict UTF-8, so both renderings must agree.
        path = tmp_path / "p.json"
        path.write_text(GOOD.replace(old, new), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "flagcones", "seshadri", *machine, str(path)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONIOENCODING": "utf-8"},
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith(f"error [ParseError]: {location}: lone surrogate")
        assert proc.stderr.count("\n") == 1

    def test_usage_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "flagcones", "bogus-subcommand"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
