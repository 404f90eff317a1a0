"""Benchmark of flagcones on three seeded workloads.

Run from the root of a checkout (the package is imported from ``src/``)::

    python3 bench/run.py --workload large-g39 --seed 1 --seconds 20 --trace 0

``--trace 0`` is the timed run and reports every end-to-end metric;
``--trace 1`` is the separate traced run and reports every per-layer
metric plus the tracing overhead.  Every output is checked against the
independent oracle in ``oracle.py``, against its own first execution
(byte-identical repeats), against a render -> parse round trip and, for
the gallery, against frozen digests.  Human-readable lines come first;
the last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

The process exits 2 without a result when ``src/flagcones`` is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path
from time import perf_counter

import oracle
import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"

#: Fresh-interpreter set-up measurements per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Bare and import-only interpreter starts per run, for the start-up floor.
START_REPEATS = 5
#: Untraced/traced pass pairs at least made by a traced run.
MIN_TRACED_PAIRS = 2
#: A child process still running after this long is killed and counted failed.
CHILD_TIMEOUT_S = 60

END_TO_END = {
    "configs_per_s": "1/s",
    "divisors_per_s": "1/s",
    "config_p50_ms": "ms",
    "config_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "config.parse_config.self_s": "s",
    "config.input_bytes": "bytes",
    "bundles.filtration.self_s": "s",
    "bundles.filtration.calls": "count",
    "flags.build_model.self_s": "s",
    "flags.build_model.calls": "count",
    "flags.pairing_matrix.self_s": "s",
    "flags.pairing_matrix.calls": "count",
    "flags.pairing_matrix.products": "count",
    "flags.to_nef.calls_per_divisor": "calls/divisor",
    "flags.classify_divisor.calls_per_divisor": "calls/divisor",
    "seshadri.check_divisibility.calls_per_model": "calls/model",
    "seshadri.full_report.calls": "count",
    "seshadri.full_report.self_s": "s",
    "report.run.self_s": "s",
    "report.run.divisors": "count",
    "report.assert_duality.self_s": "s",
    "report.render_machine.self_s": "s",
    "report.render_machine.output_bytes": "bytes",
    "report.parse_machine.self_s": "s",
    "report.render_human.self_s": "s",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "cli.main_ms": "ms",
    "cli.exit_nonzero": "count",
    "trace.pass_s": "s",
    "trace.overhead_s": "s",
}


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest nearest-rank percentile with at least ten samples above it.

    Returns ``(value, percentile, sample count)``.  With ten samples or
    fewer no percentile qualifies; the smallest sample, the one with the
    most samples above it, is returned, which continues the rule from
    eleven samples downwards.
    """
    ordered = sorted(samples)
    count = len(ordered)
    rank = max(count - 10, 1)
    return ordered[rank - 1], 100 * rank / count, count


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class Checker:
    """Judges every execution of an item.

    An execution fails when its exit code or stderr is wrong, or when its
    machine document differs from the item's first one; every execution
    of an item fails when that first document disagrees with the oracle,
    the gallery digest or a render -> parse round trip, or when the item
    is not byte-identical on a second run.
    """

    def __init__(self, items: list[workloads.Item], digests: dict):
        self.items = items
        self.digests = digests
        self.first: dict[int, tuple[str, str | None]] = {}
        self.runs: Counter = Counter()
        self.bad_runs: Counter = Counter()
        self.codes: Counter = Counter()
        self.notes: list[str] = []

    def observe(self, index: int, machine: str, code: int, stderr: str = "", human=None) -> None:
        self.runs[index] += 1
        first_machine, first_human = self.first.setdefault(index, (machine, human))
        if first_human is None:
            first_human = human
            self.first[index] = (first_machine, human)
        problems = []
        if machine != first_machine:
            problems.append("machine document differs from the first execution")
        if human is not None and human != first_human:
            problems.append("human rendering differs from the first execution")
        self.codes[index, code] += 1
        if stderr:
            problems.append(f"stderr: {stderr.strip()[:200]}")
        if problems:
            self.bad_runs[index] += 1
            self.note(index, problems)

    def crashed(self, index: int, exc: Exception) -> None:
        self.runs[index] += 1
        self.bad_runs[index] += 1
        self.note(index, [f"raised {exc!r}"])

    def note(self, index: int, problems: list[str]) -> None:
        if len(self.notes) < 20:
            self.notes.append(f"{self.items[index].label}: {'; '.join(problems[:3])}")

    def verify(self, report, rerun) -> tuple[int, int]:
        """Check each item's first document; return ``(attempted, failed)``.

        The oracle runs only here, after the timed phase, so that its memory
        and time stay out of the measurements.
        """
        failed = 0
        for index in sorted(self.runs):
            if index not in self.first:
                failed += self.runs[index]
                continue
            machine, _ = self.first[index]
            expected = oracle.expect(json.loads(self.items[index].text))
            problems = oracle.check(expected, machine)
            wrong_codes = 0
            for (seen, code), count in self.codes.items():
                if seen == index and code != expected.exit_code:
                    wrong_codes += count
                    self.note(index, [f"exit code {code}, expected {expected.exit_code}"])
            digest = self.digests.get(self.items[index].label)
            if digest is not None:
                problems += oracle.check_digest(digest, machine)
            try:
                if report.render_machine(report.parse_machine(machine)) != machine:
                    problems.append("render -> parse round trip changed the document")
            except Exception as exc:  # noqa: BLE001 - any failure here is a failed item
                problems.append(f"round trip raised {exc!r}")
            if self.runs[index] == 1 and rerun(index) != machine:
                problems.append("not byte-identical when repeated")
            if problems:
                self.note(index, problems)
                failed += self.runs[index]
            else:
                failed += min(self.runs[index], self.bad_runs[index] + wrong_codes)
        return sum(self.runs.values()), failed


class Bench:
    """One benchmark run of one workload in one checkout."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: int, modules):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.cli, self.config, self.report = modules
        self.items = workloads.generate(workload, seed)
        self.checker = Checker(self.items, workloads.gallery_digests())
        self.in_process = workload != "cli-gallery"
        src = str(root / "src")
        existing = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + existing if existing else ""))
        self.lines: list[str] = []
        self.counts_differ = False

    # -- executing items ---------------------------------------------------

    def chain(self, text: str):
        """The timed item: parse -> run -> render machine -> reparse -> render human."""
        doc = self.report.run(self.config.parse_config(text))
        machine = self.report.render_machine(doc)
        parsed = self.report.parse_machine(machine)
        return doc, parsed, machine, self.report.render_human(parsed)

    def run_chain(self, index: int) -> tuple[float, int]:
        """Run and judge the chain on one item; return (seconds, divisors)."""
        start = perf_counter()
        try:
            doc, parsed, machine, human = self.chain(self.items[index].text)
        except Exception as exc:  # noqa: BLE001 - a crashing item is a failed item
            self.checker.crashed(index, exc)
            return perf_counter() - start, 0
        elapsed = perf_counter() - start
        code = self.report.worst_exit_code(parsed)
        self.checker.observe(index, machine, code, human=human)
        return elapsed, len(doc.divisors)

    def config_path(self, index: int) -> Path:
        item = self.items[index]
        if item.path is not None:
            return item.path
        path = OUT_DIR / f"{self.workload}-seed{self.seed}-{index}.json"
        if not path.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(item.text, encoding="utf-8")
        return path

    def cli_args(self, index: int) -> list[str]:
        return ["seshadri", "--machine", str(self.config_path(index))]

    def run_cli_inprocess(self, index: int) -> int:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(self.cli_args(index))
        except Exception as exc:  # noqa: BLE001 - a crashing item is a failed item
            self.checker.crashed(index, exc)
            return -1
        self.checker.observe(index, out.getvalue(), code, err.getvalue())
        return code

    def spawn(self, args: list[str], stdin_text: str | None = None):
        """Run a child to completion; return (seconds, code, stdout, stderr, max RSS KiB)."""
        start = perf_counter()
        child = subprocess.Popen(
            [sys.executable, *args],
            stdin=subprocess.PIPE if stdin_text is not None else subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            cwd=self.root,
            env=self.env,
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, child.kill)
        timer.start()
        try:
            if stdin_text is not None:
                child.stdin.write(stdin_text.encode("utf-8"))
                child.stdin.close()
            out = child.stdout.read()
            err = child.stderr.read()
            _, status, usage = os.wait4(child.pid, 0)
            child.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if child.returncode is None:
                child.kill()
                child.wait()
            child.stdout.close()
            child.stderr.close()
        elapsed = perf_counter() - start
        return elapsed, child.returncode, out.decode("utf-8"), err.decode("utf-8"), usage.ru_maxrss

    def run_cli_child(self, index: int) -> tuple[float, int]:
        """Run one item as ``python -m flagcones``; return (seconds, max RSS KiB)."""
        elapsed, code, out, err, rss = self.spawn(["-m", "flagcones", *self.cli_args(index)])
        self.checker.observe(index, out, code, err)
        return elapsed, rss

    def rerun(self, index: int) -> str:
        if self.in_process:
            return self.chain(self.items[index].text)[2]
        return self.spawn(["-m", "flagcones", *self.cli_args(index)])[2]

    # -- set-up and start-up probes ------------------------------------------

    def setup_once(self) -> float:
        """Seconds to import the package plus one warm-up item, in a fresh interpreter."""
        probe = str(BENCH_DIR / "probe.py")
        if self.in_process:
            args, stdin_text = [probe, "inprocess"], self.items[0].text
        else:
            args, stdin_text = [probe, "cli", str(self.config_path(0))], None
        _, code, out, err, _ = self.spawn(args, stdin_text)
        if code != 0:
            raise RuntimeError(f"set-up probe exited {code}: {err.strip()[-300:]}")
        result = json.loads(out)
        expected_file = (self.root / "src" / "flagcones" / "__init__.py").resolve()
        if Path(result["file"]).resolve() != expected_file:
            raise RuntimeError(f"probe imported flagcones from {result['file']}")
        return result["setup_s"]

    def start_floor_ms(self) -> tuple[float, float]:
        """Median ms of a bare interpreter start and of ``import flagcones.cli`` on top."""
        bare, with_import = [], []
        for _ in range(START_REPEATS):
            bare.append(self.spawn(["-c", "pass"])[0] * 1000)
            with_import.append(self.spawn(["-c", "import flagcones.cli"])[0] * 1000)
        floor = statistics.median(bare)
        return floor, statistics.median(with_import) - floor

    # -- the two runs ------------------------------------------------------------

    def timed(self) -> dict:
        if self.in_process:
            self.run_chain(0)
        else:
            floor, import_ms = self.start_floor_ms()
            self.lines.append(
                f"interpreter floor {floor:.1f} ms (python -c pass), "
                f"import flagcones.cli {import_ms:.1f} ms above it"
            )
            self.run_cli_child(0)
        setup: list[float] = []
        latencies: list[float] = []
        order: list[int] = []
        produced: dict[int, int] = {}
        peak_kib = 0
        timed = 0.0
        index = 0
        # The set-up probes run between equal slices of the timed phase, so
        # that they meet the same stretches of machine speed as the items.
        slices = SETUP_REPEATS + 1
        for k in range(slices):
            if k:
                setup.append(self.setup_once())
            gc.collect()
            while not latencies or timed < self.seconds * (k + 1) / slices:
                if self.in_process:
                    elapsed, produced[index] = self.run_chain(index)
                else:
                    elapsed, rss = self.run_cli_child(index)
                    peak_kib = max(peak_kib, rss)
                latencies.append(elapsed)
                order.append(index)
                timed += elapsed
                index = (index + 1) % len(self.items)
        per_config: dict[int, list[float]] = {}
        for i, elapsed in zip(order, latencies):
            per_config.setdefault(i, []).append(elapsed)
        if self.in_process:
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            # Each config runs many times. Its median execution is its cost;
            # the machine's speed drifts over seconds, so a single execution
            # (or the fastest) says more about the machine than the program.
            counted = [statistics.median(v) for v in per_config.values()]
            divisors = sum(produced.values())
        else:
            # Each of the 13 configs runs only about a dozen times, and a child
            # process varies a lot from call to call; every execution counts.
            counted = latencies
            divisors = sum(self.items[i].divisors for i in order)
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / f"latencies-{self.workload}-seed{self.seed}.json").write_text(
            json.dumps({"config": order, "seconds": latencies}), encoding="utf-8"
        )
        count = len(latencies)
        raw_tail, raw_percentile, _ = tail(latencies)
        self.lines.append(
            f"{count} items over {len(per_config)} configs; median of all "
            f"{statistics.median(latencies) * 1000:.3f} ms, tail of all "
            f"p{raw_percentile:.1f} {raw_tail * 1000:.3f} ms"
        )
        tail_value, percentile, tail_count = tail(counted)
        self.lines.append(
            f"config_tail_ms is p{percentile:.1f} of {tail_count} counted latencies"
            + (" (10 beyond it)" if tail_count > 10 else " (the smallest: 10 or fewer)")
        )
        self.lines.append(
            f"setup_s is the median of {len(setup)}: "
            + ", ".join(f"{s:.4f}" for s in setup)
        )
        return {
            "configs_per_s": len(counted) / sum(counted),
            "divisors_per_s": divisors / sum(counted),
            "config_p50_ms": statistics.median(counted) * 1000,
            "config_tail_ms": tail_value * 1000,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_kib / 1024,
        }

    def one_pass(self, tracer: spans.Tracer | None) -> tuple[float, int]:
        """Every item through the chain, then the CLI entry point in process.

        Returns the wall time and the number of non-zero CLI exit codes.
        """
        cli_indices = range(len(self.items)) if not self.in_process else range(1)
        start = perf_counter()
        for index in range(len(self.items)):
            if tracer is not None:
                tracer.item = str(index)
            self.run_chain(index)
        nonzero = 0
        for index in cli_indices:
            if tracer is not None:
                tracer.item = f"cli:{index}"
            nonzero += self.run_cli_inprocess(index) != 0
        return perf_counter() - start, nonzero

    def traced(self) -> dict:
        for index in range(1 if self.in_process else len(self.items)):
            self.config_path(index)
        tracer = spans.Tracer()
        untraced_s, traced_s, selfs, counts, main_ms, written = [], [], [], [], [], []
        deadline = perf_counter() + self.seconds
        while len(traced_s) < MIN_TRACED_PAIRS or perf_counter() < deadline:
            gc.collect()
            untraced_s.append(self.one_pass(None)[0])
            gc.collect()
            tracer.reset()
            tracer.install()
            try:
                elapsed, nonzero = self.one_pass(tracer)
            finally:
                tracer.remove()
            traced_s.append(elapsed)
            selfs.append(tracer.self_times())
            counts.append(dict(tracer.counts, **{"cli.exit_nonzero": nonzero}))
            main_ms.extend(d * 1000 for d in tracer.durations("cli.main"))
            written.append(tracer.spans)
        if any(c != counts[0] for c in counts):
            self.checker.notes.append("call counts differ between traced passes")
            self.counts_differ = True
        floor, import_ms = self.start_floor_ms()
        spans.write_spans(OUT_DIR / f"spans-{self.workload}-seed{self.seed}.json", written)
        self.lines.append(
            f"traced {len(traced_s)} passes; spans in {OUT_DIR.name}/"
            f"spans-{self.workload}-seed{self.seed}.json"
        )
        count = Counter(counts[0])

        def own(name: str) -> float:
            return statistics.median(s[name] for s in selfs)

        divisors = count["report.run.divisors"]
        models = count["flags.build_model.calls"]
        untraced = statistics.median(untraced_s)
        return {
            "config.parse_config.self_s": own("config.parse_config"),
            "config.input_bytes": count["config.input_bytes"],
            "bundles.filtration.self_s": own("bundles.filtration"),
            "bundles.filtration.calls": count["bundles.filtration.calls"],
            "flags.build_model.self_s": own("flags.build_model"),
            "flags.build_model.calls": models,
            "flags.pairing_matrix.self_s": own("flags.pairing_matrix"),
            "flags.pairing_matrix.calls": count["flags.pairing_matrix.calls"],
            "flags.pairing_matrix.products": count["flags.pairing_matrix.products"],
            "flags.to_nef.calls_per_divisor": ratio(count["flags.to_nef.calls"], divisors),
            "flags.classify_divisor.calls_per_divisor": ratio(
                count["flags.classify_divisor.calls"], divisors
            ),
            "seshadri.check_divisibility.calls_per_model": ratio(
                count["seshadri.check_divisibility.calls"], models
            ),
            "seshadri.full_report.calls": count["seshadri.full_report.calls"],
            "seshadri.full_report.self_s": own("seshadri.full_report"),
            "report.run.self_s": own("report.run"),
            "report.run.divisors": divisors,
            "report.assert_duality.self_s": own("report.assert_duality"),
            "report.render_machine.self_s": own("report.render_machine"),
            "report.render_machine.output_bytes": count["report.render_machine.output_bytes"],
            "report.parse_machine.self_s": own("report.parse_machine"),
            "report.render_human.self_s": own("report.render_human"),
            "cli.interpreter_ms": floor,
            "cli.import_ms": import_ms,
            "cli.main_ms": statistics.median(main_ms),
            "cli.exit_nonzero": count["cli.exit_nonzero"],
            "trace.pass_s": untraced,
            "trace.overhead_s": statistics.median(traced_s) - untraced,
        }

    def result(self, trace: bool) -> dict:
        values = self.traced() if trace else self.timed()
        units = PER_LAYER if trace else END_TO_END
        attempted, failed = self.checker.verify(self.report, self.rerun)
        self.lines.append(f"failed_ratio {ratio(failed, attempted)} ({failed} of {attempted})")
        self.lines.extend(self.checker.notes)
        for name, value in values.items():
            self.lines.append(f"{name} = {value} {units[name]}")
        return {
            "correct": failed == 0 and not self.counts_differ,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        }


def load_package(root: Path):
    """Import ``cli``, ``config`` and ``report`` from ``root/src``, or None."""
    src = root / "src"
    if not (src / "flagcones" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    from flagcones import cli, config, report

    if Path(cli.__file__).resolve().parent != (src / "flagcones").resolve():
        return None
    return cli, config, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    modules = load_package(root)
    if modules is None:
        print(f"error: no flagcones package under {root / 'src'}", file=sys.stderr)
        return 2
    bench = Bench(root, args.workload, args.seed, args.seconds, modules)
    result = bench.result(bool(args.trace))
    for line in bench.lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
