"""Spans recorded from outside ``flagcones`` by wrapping its public functions.

:meth:`Tracer.install` replaces each named function in every loaded
``flagcones`` module namespace that binds it (``to_nef`` is bound in
``flags``, ``report`` and ``seshadri``), so spans nest the way the
pipeline really calls them.  Nothing under ``src/`` is edited; the
wrappers are removed again by :meth:`Tracer.remove`.

Spans are kept in memory as ``(name, item, start, end, parent)`` tuples,
where ``parent`` is the index of the enclosing span or -1.  A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter
from time import perf_counter

#: Span name -> the (module, function) pairs it covers.
LAYERS = {
    "config.parse_config": (("config", "parse_config"),),
    "bundles.filtration": (("bundles", "hn_filtration"), ("bundles", "validate_hn")),
    "flags.build_model": (("flags", "build_model"),),
    "flags.pairing_matrix": (("flags", "pairing_matrix"),),
    "flags.to_nef": (("flags", "to_nef"),),
    "flags.classify_divisor": (("flags", "classify_divisor"),),
    "seshadri.check_divisibility": (("seshadri", "check_divisibility"),),
    "seshadri.full_report": (("seshadri", "full_report"),),
    "report.run": (("report", "run"),),
    "report.assert_duality": (("report", "assert_duality"),),
    "report.render_machine": (("report", "render_machine"),),
    "report.parse_machine": (("report", "parse_machine"),),
    "report.render_human": (("report", "render_human"),),
    "cli.main": (("cli", "main"),),
}


def _input_bytes(args, result):
    return "config.input_bytes", len(args[0].encode("utf-8"))


def _products(args, result):
    return "flags.pairing_matrix.products", (args[0].gamma + 1) ** 3


def _divisors(args, result):
    return "report.run.divisors", len(result.divisors)


def _output_bytes(args, result):
    return "report.render_machine.output_bytes", len(result.encode("utf-8"))


#: Extra counts taken at a span boundary from its arguments and result.
MEASURES = {
    "config.parse_config": _input_bytes,
    "flags.pairing_matrix": _products,
    "report.run": _divisors,
    "report.render_machine": _output_bytes,
}


class Tracer:
    """Records spans and counts while installed."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.item = ""
        self._stack: list[int] = []
        self._patches: list = []

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def install(self) -> None:
        for name, targets in LAYERS.items():
            for module_name, function_name in targets:
                module = importlib.import_module(f"flagcones.{module_name}")
                original = getattr(module, function_name)
                wrapper = self._wrap(name, original)
                for loaded_name, loaded in list(sys.modules.items()):
                    if loaded_name != "flagcones" and not loaded_name.startswith("flagcones."):
                        continue
                    for attr, value in list(vars(loaded).items()):
                        if value is original:
                            setattr(loaded, attr, wrapper)
                            self._patches.append((loaded, attr, original))

    def remove(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches = []

    def _wrap(self, name, function):
        measure = MEASURES.get(name)

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            stack = self._stack
            index = len(self.spans)
            self.spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.spans[index] = (name, self.item, start, end, parent)
                self.counts[name + ".calls"] += 1
            if measure is not None:
                key, amount = measure(args, result)
                self.counts[key] += amount
            return result

        return wrapper

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        own = [end - start for _, _, start, end, _ in self.spans]
        for name, _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        totals: dict[str, float] = {name: 0.0 for name in LAYERS}
        for (name, *_), value in zip(self.spans, own):
            totals[name] += value
        return totals

    def durations(self, name: str) -> list[float]:
        return [end - start for span_name, _, start, end, _ in self.spans if span_name == name]


def write_spans(path, passes: list[list]) -> None:
    """Write the spans of every traced pass as one JSON document."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as out:
        json.dump({"fields": ["name", "item", "start", "end", "parent"], "passes": passes}, out)
