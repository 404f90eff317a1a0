"""Tests of the benchmark itself: generator, oracle, tracer and metric list.

Run from the repository root with ``python3 -m pytest bench -q``.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from flagcones import config, report  # noqa: E402


def machine_document(text: str) -> str:
    return report.render_machine(report.run(config.parse_config(text)))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    first = workloads.generate(workload, 7)
    assert first == workloads.generate(workload, 7)
    assert [item.text for item in first] != [item.text for item in workloads.generate(workload, 8)]


def test_workload_shapes():
    (large,) = workloads.generate("large-g39", 1)
    data = json.loads(large.text)
    assert len({s["degree"] for s in data["bundle"]["summands"]}) == 40
    assert data["flag"]["quotient_ranks"] == list(range(39, 0, -1))
    assert large.divisors == len(data["divisors"]) == 2000
    assert {d["basis"] for d in data["divisors"]} == {"nef", "pluecker"}
    assert all(isinstance(c, str) and "/" in c for d in data["divisors"] for c in d["coords"])
    small = workloads.generate("many-small", 1)
    assert len(small) == 500
    kinds = [next(iter(json.loads(item.text)["bundle"])) for item in small]
    assert kinds.count("summands") == kinds.count("hn_steps") == 250
    assert len(workloads.generate("cli-gallery", 1)) == 13


def test_generator_and_oracle_share_no_code_with_the_package():
    for name in ("workloads.py", "oracle.py"):
        assert "flagcones" not in (BENCH / name).read_text(encoding="utf-8").split('"""', 2)[2]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_oracle_accepts_the_program_output(workload):
    items = workloads.generate(workload, 3)[:40]
    for item in items:
        assert oracle.check_document(json.loads(item.text), machine_document(item.text)) == []


def test_expected_outcomes_are_mixed():
    outcomes = set()
    for item in workloads.generate("many-small", 3):
        for entry in oracle.expect(json.loads(item.text)).divisors:
            outcomes.add(entry["seshadri"]["general_rule"] if entry["seshadri"] else "not_nef")
    assert outcomes == {"constant_case", "divisibility_condition", "open", "not_nef"}


def corruptions():
    """Single-field changes a correct document must not survive."""

    def first_nef(doc):
        return next(e for e in doc["divisors"] if e["seshadri"] is not None)

    def first_not_nef(doc):
        return next(e for e in doc["divisors"] if e["seshadri"] is None)

    def bump_upper(doc):
        entry = first_nef(doc)
        entry["seshadri"]["upper"] = oracle.encode(
            oracle.rational(entry["seshadri"]["upper"]) + 1
        )

    def drop_error(doc):
        entry = first_not_nef(doc)
        entry["error"] = None

    def flip_holds(doc):
        doc["assumption"]["holds"] = not doc["assumption"]["holds"]

    def shift_twist(doc):
        doc["model"]["quotient_degrees"][0] += 1

    def break_matrix(doc):
        doc["cones"]["pairing_matrix"][0][1] = 1

    def change_rule(doc):
        entry = first_nef(doc)
        rule = entry["seshadri"]["general_rule"]
        entry["seshadri"]["general_rule"] = "divisibility_condition" if rule == "open" else "open"

    def change_nef_coord(doc):
        entry = doc["divisors"][1]
        entry["nef_coords"][-1] = oracle.encode(oracle.rational(entry["nef_coords"][-1]) + 1)

    return [bump_upper, drop_error, flip_holds, shift_twist, break_matrix, change_rule, change_nef_coord]


@pytest.mark.parametrize("corrupt", corruptions(), ids=lambda f: f.__name__)
def test_oracle_rejects_a_corrupted_document(corrupt):
    (item,) = workloads.generate("large-g39", 5)
    cfg = json.loads(item.text)
    cfg["divisors"] = cfg["divisors"][:30]
    text = json.dumps(cfg)
    doc = json.loads(machine_document(text))
    assert oracle.check_document(cfg, json.dumps(doc)) == []
    broken = copy.deepcopy(doc)
    corrupt(broken)
    assert oracle.check_document(cfg, json.dumps(broken)) != []


def test_oracle_rejects_unreadable_text():
    (item,) = workloads.generate("cli-gallery", 1)[:1]
    assert oracle.check_document(json.loads(item.text), "{not json") != []


def test_gallery_digests_agree_with_the_frozen_configs():
    digests = workloads.gallery_digests()
    for item in workloads.generate("cli-gallery", 1):
        exp = oracle.expect(json.loads(item.text))
        assert exp.steps == digests[item.label]["hn_steps"]
        assert exp.holds == digests[item.label]["assumption_holds"]
        assert oracle.check_digest(digests[item.label], machine_document(item.text)) == []


def test_tracer_counts_repeat_and_spans_nest():
    items = workloads.generate("many-small", 2)[:30]
    tracer = spans.Tracer()
    counts = []
    for _ in range(2):
        tracer.reset()
        tracer.install()
        try:
            for item in items:
                report.render_machine(report.run(config.parse_config(item.text)))
        finally:
            tracer.remove()
        counts.append(dict(tracer.counts))
    assert counts[0] == counts[1]
    assert counts[0]["report.run.calls"] == 30
    assert counts[0]["flags.pairing_matrix.calls"] == 30
    names = [span[0] for span in tracer.spans]
    parents = {tracer.spans[span[4]][0] for span in tracer.spans if span[0] == "flags.to_nef"}
    assert "report.run" in parents and "seshadri.full_report" in parents
    assert all(span[4] < index for index, span in enumerate(tracer.spans))
    assert set(names) >= {"config.parse_config", "bundles.filtration", "report.assert_duality"}
    self_times = tracer.self_times()
    assert all(value >= 0 for value in self_times.values())
    assert report.run is not None and not hasattr(report.run, "__wrapped__")


def test_tail_percentile():
    value, percentile, count = run.tail([float(k) for k in range(1, 101)])
    assert (value, percentile, count) == (90.0, 90.0, 100)
    assert run.tail([float(k) for k in range(1, 12)]) == (1.0, 100 / 11, 11)
    assert run.tail([3.0, 1.0, 2.0]) == (1.0, 100 / 3, 3)


def test_benchmark_json_lists_every_metric_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
