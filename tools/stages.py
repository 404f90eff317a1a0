"""Paired in-process timing of the five pipeline stages in two source trees.

Usage::

    python3 tools/stages.py PARENT CHANGE

``PARENT`` and ``CHANGE`` are checkouts, each with a ``src/flagcones``
package.  Both packages are loaded into this one interpreter under their
own names, so they share its start-up, allocator and caches.  The cases
are ``CASES``, the in-process workloads with their seeds.  Each of the
``ROUNDS`` rounds runs every item of a case through both packages, item
by item, so a drift in the machine's speed falls on both sides alike; the
parent goes first on even rounds and the change on odd ones.  ``time.process_time`` is
taken around each stage: ``parse_config``, ``run``, ``render_machine``,
``parse_machine`` and ``render_human``.  The items come from
``bench/workloads.py`` of the checkout holding this script, so both sides
read the same texts.

Printed, as one JSON object, is the ``in_process`` block of the
``BENCH_<n>.json`` files: per case, each side's minimum over rounds of
each stage and of the chain in ms, the median over rounds of the
change/parent chain ratio, the number of rounds in which the change was
faster, and the median ratio of each stage.  The script exits 1 if the
two sides write different machine documents for an item.

Standard library only; it writes no file and no bytecode.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import json
import statistics
import sys
from pathlib import Path
from time import process_time

sys.dont_write_bytecode = True

STAGES = ("parse_config", "run", "render_machine", "parse_machine", "render_human")
CASES = (("many-small", 2), ("large-g39", 3))  # (workload, seed)
ROUNDS = 12
BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks its module up there
    spec.loader.exec_module(module)
    return module


def load_package(root: Path, alias: str):
    """``config`` and ``report`` of ``root/src/flagcones``, imported as ``alias``."""
    package = root / "src" / "flagcones"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no flagcones package under {root / 'src'}")
    spec = importlib.util.spec_from_file_location(
        alias, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{alias}.config"), importlib.import_module(f"{alias}.report")


def one_item(modules, text: str, totals: list[float]) -> str:
    """Run ``text`` through the five stages, adding each stage's process
    seconds to ``totals``; returns the machine document.  A failure raises."""
    config, report = modules
    t0 = process_time()
    problem = config.parse_config(text)
    t1 = process_time()
    doc = report.run(problem)
    t2 = process_time()
    machine = report.render_machine(doc)
    t3 = process_time()
    parsed = report.parse_machine(machine)
    t4 = process_time()
    report.render_human(parsed)
    t5 = process_time()
    for i, elapsed in enumerate((t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4)):
        totals[i] += elapsed
    return machine


def paired(sides, texts: list[str]) -> dict:
    """The in-process entry of one case; ``sides`` maps "parent" and "change"
    to their modules."""
    times = {"parent": [], "change": []}
    for k in range(ROUNDS):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        totals = {name: [0.0] * len(STAGES) for name in order}
        gc.collect()
        for text in texts:
            first, second = [one_item(sides[name], text, totals[name]) for name in order]
            if first != second:
                raise SystemExit("error: the two trees write different machine documents")
        for name in order:
            times[name].append(totals[name])

    def ms(value: float) -> float:
        return round(value * 1000, 1)

    def ratio(stage: int | None) -> list[float]:
        pick = sum if stage is None else (lambda row: row[stage])
        return [pick(c) / pick(p) for p, c in zip(times["parent"], times["change"])]

    entry = {"rounds": ROUNDS}
    for name, rows in times.items():
        entry[name] = {stage: ms(min(row[i] for row in rows)) for i, stage in enumerate(STAGES)}
        entry[name]["chain_min"] = ms(min(map(sum, rows)))
    chain = ratio(None)
    entry["change_over_parent_per_round_median"] = round(statistics.median(chain), 3)
    entry["change_faster_in_rounds"] = sum(r < 1 for r in chain)
    for i, stage in enumerate(STAGES):
        entry[f"{stage}_ratio_median"] = round(statistics.median(ratio(i)), 3)
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    args = parser.parse_args(argv)
    workloads = load_workloads()
    sides = {
        "parent": load_package(args.parent, "flagcones_parent"),
        "change": load_package(args.change, "flagcones_change"),
    }
    block = {
        "method": (
            "one interpreter holding both checkouts' packages, parent and change "
            "alternating item by item, the parent first on even rounds; "
            "time.process_time per stage summed over every config of the workload; "
            "minima over rounds, and medians over rounds of the change/parent "
            "ratios (tools/stages.py)"
        )
    }
    for workload, seed in CASES:
        texts = [item.text for item in workloads.generate(workload, seed)]
        block[f"{workload.replace('-', '_')}_seed{seed}"] = paired(sides, texts)
    print(json.dumps(block, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
